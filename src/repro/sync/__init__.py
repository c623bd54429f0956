"""Synchronization models (paper §3.6).

Graphite lets each tile's clock run independently (*lax* synchronization)
and offers two mechanisms that bound clock skew at some performance
cost: a quanta-based barrier (*LaxBarrier*) and randomized point-to-point
slack enforcement (*LaxP2P*).  This package implements all three, plus
the windowed global-progress estimator and the lax queueing model that
the network-contention and DRAM models rely on.
"""

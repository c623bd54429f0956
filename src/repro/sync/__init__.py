"""Synchronization models (paper §3.6).

Graphite lets each tile's clock run independently (*lax* synchronization)
and offers two mechanisms that bound clock skew at some performance
cost: a quanta-based barrier (*LaxBarrier*) and randomized point-to-point
slack enforcement (*LaxP2P*).  This package implements all three, plus
the windowed global-progress estimator and the lax queueing model that
the network-contention and DRAM models rely on.
"""

from repro.sync.model import SynchronizationModel, create_sync_model
from repro.sync.progress import ProgressEstimator
from repro.sync.queue_model import LaxQueueModel

__all__ = [
    "LaxQueueModel",
    "ProgressEstimator",
    "SynchronizationModel",
    "create_sync_model",
]

"""Physical transport layer (paper §3.3.1).

Provides generic point-to-point communication between tiles, abstracting
whether the two endpoints live in the same host process, different
processes on one machine, or different machines.  The paper's
implementation uses TCP/IP sockets; ours is an in-memory channel fabric
plus a host-cost model (`repro.host.costmodel`) that charges realistic
latencies for each locality class.  The API mirrors the paper's: the
network component is the only client, and the back end is swappable.
"""

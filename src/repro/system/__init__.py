"""System layer: the single-process illusion (paper §3.4, §3.5).

Graphite spawns control threads — one Master Control Program (MCP) for
the whole simulation and one Local Control Program (LCP) per host
process — that provide services for synchronization, system-call
execution and thread management.  This package implements those
services: futex emulation (the substrate for locks, barriers and
condition variables), the distributed thread spawn/join protocol, and a
system-call interface with an in-memory filesystem so threads in
different host processes see one consistent set of file descriptors.
"""

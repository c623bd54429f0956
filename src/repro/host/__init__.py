"""The simulated host platform (paper Figure 1).

Graphite distributes one simulation across host processes on a cluster;
each process runs one host thread per simulated tile, plus control
threads (MCP/LCP).  This package models that platform: the cluster
layout (machines, cores, processes, tile striping), the per-event host
cost model that substitutes for the paper's real Xeon cluster, and the
scheduler that multiplexes tile threads onto simulated host cores and
derives wall-clock time as a parallel makespan.
"""

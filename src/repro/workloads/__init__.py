"""Target workloads: SPLASH-2 / PARSEC pattern-faithful kernels.

Real Graphite runs unmodified x86 SPLASH-2 and PARSEC binaries; our
front-end runs Python generator programs instead (see DESIGN.md).  Each
kernel here reimplements its benchmark's *data layout and sharing
pattern* — the properties the paper's evaluation actually measures:

* computation-to-communication ratio (Figure 4 / Table 2 scaling),
* allocation contiguity and spatial locality (Figure 8 miss rates),
* record ownership and read-sharing (Figure 8 true/false sharing),
* synchronization structure (Table 3 / Figures 6-7 accuracy studies),
* read-only broadcast sharing (Figure 9 coherence study).

Every workload also computes a real result that is validated at the end
of the run, so the coherent memory system is exercised functionally.
"""

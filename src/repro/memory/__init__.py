"""Memory system (paper §3.2).

Plays a dual role.  *Functionally* it maintains the single target
address space shared by all application threads — caches and DRAM hold
real bytes and the coherence protocol really moves them, so a protocol
bug breaks the simulated program rather than silently skewing numbers
(the paper leans on exactly this property to validate its protocols).
*For modeling* it computes the latency of every access: L1/L2 lookups,
directory MSI coherence (full-map, limited Dir_iNB, or LimitLESS),
network round trips, and DRAM controllers with lax-compatible queue
models.
"""

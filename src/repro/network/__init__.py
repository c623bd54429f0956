"""On-chip network component (paper §3.3).

Provides high-level messaging between tiles on top of the physical
transport layer.  Several *network models* coexist, keyed by traffic
class: system traffic always uses the zero-delay model so it cannot
perturb results; application and memory traffic default to separate
mesh models, as in tiled multicore chips.  Models are swappable behind
a common interface — they route packets and update timestamps, while
the network component handles functionality (multiplexing, delivery,
the application messaging API).
"""

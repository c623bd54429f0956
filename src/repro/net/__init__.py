"""Multi-host networking for the distributed backend.

``repro.net`` is the layer that lets one simulation span machines
(ROADMAP item 2; Graphite §3.5 runs one target across host processes
*on different hosts*).  It is deliberately thin: the coordinator/worker
wire (:mod:`repro.distrib.wire`) is unchanged, and this package only
supplies the byte pipes it travels over plus the membership machinery
around them:

* :mod:`repro.net.channel` — the :class:`~repro.net.channel.Channel`
  abstraction the cluster speaks agnostically, with a multiprocessing
  pipe implementation and a TCP implementation over the
  length-prefixed framing of :mod:`repro.net.frames`.
* :mod:`repro.net.handshake` — the JSON hello/welcome exchange that
  fails version- or config-mismatched peers loudly before any pickle
  crosses the socket: the one place a version is checked.
* :mod:`repro.net.listener` — the doors remote workers (``repro worker
  --connect host:port``) and serve clients (a Unix socket) dial.
* :mod:`repro.net.rebalance` — the policy that picks which worker to
  drain from observed per-worker ``quantum.run`` self-time.

Placement of tiles onto workers is host-side bookkeeping only: every
modelled cost reads the simulated :class:`~repro.host.cluster.
ClusterLayout`, never the executor map, so joins, leaves and live
shard migrations cannot perturb simulated metrics.
"""

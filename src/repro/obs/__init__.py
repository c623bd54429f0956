"""repro.obs: distributed tracing, fleet metrics and flight recording.

The observability layer on top of :mod:`repro.telemetry` (which stays
the low-level event bus).  Three pieces, all zero-overhead when off:

* :mod:`repro.obs.spans` — deterministic trace/span identifiers and a
  :class:`~repro.obs.spans.SpanEmitter` that turns a job's lifecycle
  (submit → queue → run → preempt → resume → done) into one
  causally-linked span tree on the ``obs`` event category.
* :mod:`repro.obs.prom` — Prometheus text exposition rendering for the
  serve daemon's ``metrics`` endpoint, and :mod:`repro.obs.top` — the
  ``repro top`` console view over it.
* :mod:`repro.obs.flight` — a bounded ring buffer of recent telemetry
  events and wire-frame summaries, dumped as a forensics bundle when a
  worker crashes or a protocol error kills a connection.

Everything here is host-side and purely observational: span events,
metrics scrapes and flight dumps never touch simulated state, so
``SimulationResult`` is byte-identical with obs enabled or disabled.
"""

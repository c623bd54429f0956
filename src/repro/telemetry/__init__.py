"""repro.telemetry: event tracing and metrics observability.

The subsystem the paper's evaluation implicitly depends on: clock-skew
traces (Figure 7), sync-model behaviour (Table 3) and host scaling
(Figure 4) all require sampling simulator state *while* the simulation
runs.  Four pieces:

* :mod:`repro.telemetry.events` / :mod:`repro.telemetry.bus` — a typed
  event bus with per-subsystem enable masks, costing a single ``is not
  None`` check on every instrumented hot path when disabled;
* :mod:`repro.telemetry.registry` — cadenced snapshots of the
  :mod:`repro.common.stats` tree into time-series;
* :mod:`repro.telemetry.sinks` / :mod:`repro.telemetry.chrome` — JSONL,
  Chrome trace-event (``chrome://tracing`` / Perfetto) and in-memory
  sinks;
* :mod:`repro.telemetry.aggregate` — batching and merging of worker
  telemetry for the mp backend (one coherent, timestamp-ordered stream
  at the coordinator).

See ``docs/observability.md`` for the event taxonomy and sink formats.
"""

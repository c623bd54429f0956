"""Simulation-as-a-service: a persistent daemon serving concurrent runs.

``repro serve`` turns the simulator from a per-run CLI into a
long-lived service (ROADMAP item 5): one scheduler daemon owns a
persistent worker fleet and multiplexes many simulations over it,
so concurrent experiments share warm processes instead of paying
cold-start per run.  Three properties the rest of the repo already
guarantees make the service's semantics strong:

* **Determinism** (equal config + workload + seed => byte-identical
  metrics) makes the content-addressed result cache *provably*
  correct: a repeat submission returns the stored result without
  simulating (:mod:`repro.serve.store`).
* **Deterministic checkpoints** (:mod:`repro.ckpt`) make preemption
  safe: a higher-priority job may checkpoint a running job and
  requeue it, and the resumed job still produces a byte-identical
  result (:mod:`repro.serve.worker`).
* **The telemetry bus** doubles as the service's ops stream: job and
  worker lifecycle events surface as ``serve.*`` telemetry.

See ``docs/serving.md`` for the daemon lifecycle, client protocol and
cache semantics.
"""

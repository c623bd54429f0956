"""Static and dynamic correctness checking for the simulator.

Five layers, all reachable through ``python -m repro check``:

``repro.check.lint``
    Repo-specific determinism lints that a generic linter cannot
    express: wall-clock reads in model code, stray randomness outside
    the seeded streams, hash-order-dependent set iteration, float
    arithmetic on cycle counts, and wire-format field safety.

``repro.check.wireproto``
    Wire-protocol conformance (rules P001–P003) against the
    declarative per-role spec in ``check/wire_proto.json``: frames a
    role may send, frames it must handle, requests that must have a
    reply site.

``repro.check.protocol``
    An exhaustive bounded-depth explorer that drives the *real*
    directory-MSI coherence engine through every interleaving of
    read/write requests for small configurations and asserts the
    protocol invariants at every reached state.

``repro.check.membership``
    The same treatment for the distributed membership machinery:
    abstract coordinator/worker automata (the worker side is the
    literal spec phase machine) driven through every ordering of
    quantum, checkpoint, join, drain, migrate and crash events, with
    worker death injected at every protocol state.

``repro.check.sanitize``
    Opt-in runtime sanitizers (``--sanitize``) that ride the telemetry
    bus and verify per-tile clock monotonicity, message-timestamp
    causality and barrier membership while a simulation runs.  They
    observe and never perturb: results are identical with them on or
    off.
"""

"""Observability is free: results are byte-identical with obs on/off.

Spans and the flight-recorder ring are pure observers, so enabling
both must leave ``SimulationResult`` byte-identical on both execution
backends.
"""

from __future__ import annotations

from repro.common.config import SimulationConfig
from repro.distrib.wire import WorkloadRef
from repro.obs.spans import mint_trace_id
from repro.serve.store import canonical_result_bytes
from repro.sim.runner import create_simulator

REF = WorkloadRef("matrix_multiply", nthreads=4, scale=0.05)


def _config(backend: str, obs: bool, flight_dir=None) -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=4, seed=23)
    cfg.host.quantum_instructions = 200
    # Identical simulated topology on both backends: only the host-side
    # execution strategy may differ.
    cfg.host.num_machines = 2
    cfg.host.cores_per_machine = 2
    cfg.distrib.backend = backend
    if obs:
        cfg.telemetry.enabled = True
        cfg.telemetry.events = ["obs"]
        cfg.telemetry.trace_id = mint_trace_id("job-identity-test")
        if flight_dir is not None:
            cfg.telemetry.flight_dir = str(flight_dir)
    cfg.validate()
    return cfg


def _run_bytes(cfg: SimulationConfig) -> bytes:
    return canonical_result_bytes(create_simulator(cfg).run(REF))


def test_inproc_result_identical_with_obs_on(tmp_path):
    off = _run_bytes(_config("inproc", obs=False))
    on = _run_bytes(_config("inproc", obs=True,
                            flight_dir=tmp_path / "fl"))
    assert on == off


def test_mp_result_identical_with_obs_on(tmp_path):
    off = _run_bytes(_config("mp", obs=False))
    on = _run_bytes(_config("mp", obs=True,
                            flight_dir=tmp_path / "fl"))
    assert on == off


def test_backends_agree_with_obs_on(tmp_path):
    assert _run_bytes(_config("inproc", obs=True)) == \
        _run_bytes(_config("mp", obs=True, flight_dir=tmp_path / "fl"))


def test_run_span_tree_is_recorded_inproc():
    """With obs on, the simulator's own run span is a well-formed
    single-trace tree rooted at the propagated trace id."""
    from repro.obs.spans import build_span_tree, orphan_spans
    cfg = _config("inproc", obs=True)
    simulator = create_simulator(cfg)
    simulator.run(REF)
    span_events = [e for e in simulator.telemetry.events
                   if e.name.startswith("span.")]
    assert span_events, "no span events recorded"
    tree = build_span_tree(span_events)
    assert tree["traces"] == [cfg.telemetry.trace_id]
    assert orphan_spans(span_events) == []
    (root,) = tree["roots"]
    assert tree["spans"][root]["op"] == "sim.run"
    assert tree["spans"][root]["outcome"] == "done"

"""Functional fast-forward: mode switching, warmth, backend identity."""

import pytest

from repro.sample.library import roi_metrics
from repro.sim.runner import create_simulator
from tests.conftest import tiny_config


def ff_program(ctx):
    # Strided stores miss the caches, so detailed and functional
    # execution genuinely disagree on timing (unit cost vs DRAM).
    span = 1 << 20
    base = yield from ctx.malloc(span)
    for i in range(400):
        yield from ctx.store_u64(base + (i * 4096) % span, i)
        yield from ctx.compute(20)


def sampled_config(ff_until=1500, period=0, detail=0, warmup=0):
    config = tiny_config(2)
    config.sample.ff_until = ff_until
    config.sample.period = period
    config.sample.detail = detail
    config.sample.warmup = warmup
    config.validate()
    return config


class TestFastForward:
    def test_switch_lands_past_target(self):
        result = create_simulator(sampled_config()).run(ff_program)
        ff = result.sample["ff"]
        assert ff["until"] == 1500
        assert ff["cycle"] >= 1500
        switches = result.sample["mode_switches"]
        assert switches and switches[-1]["mode"] == "detailed"

    def test_simulator_ends_detailed(self):
        simulator = create_simulator(sampled_config())
        simulator.run(ff_program)
        assert not simulator.exec_functional

    def test_ff_changes_timing_not_work(self):
        detailed = create_simulator(tiny_config(2)).run(ff_program)
        sampled = create_simulator(sampled_config()).run(ff_program)
        assert sampled.total_instructions == detailed.total_instructions
        assert sampled.simulated_cycles != detailed.simulated_cycles

    def test_caches_stay_warm_during_ff(self):
        """Functional mode bypasses timing, not the memory system: the
        run's cache counters keep moving while fast-forwarded."""
        result = create_simulator(sampled_config()).run(ff_program)
        lookups = sum(v for k, v in result.counters.items()
                      if k.endswith(".lookups"))
        assert lookups > 0

    def test_ff_run_is_deterministic(self):
        a = create_simulator(sampled_config()).run(ff_program)
        b = create_simulator(sampled_config()).run(ff_program)
        assert roi_metrics(a) == roi_metrics(b)

    def test_target_past_run_end_never_switches(self):
        config = sampled_config(ff_until=10_000_000)
        result = create_simulator(config).run(ff_program)
        assert result.sample["ff"]["cycle"] is None

    def test_intervals_record_windows(self):
        config = sampled_config(ff_until=1500, period=3000, detail=800,
                                warmup=400)
        result = create_simulator(config).run(ff_program)
        extrapolation = result.sample["extrapolation"]
        assert extrapolation["windows"] >= 1
        assert (extrapolation["cycles_low"] <= extrapolation["cycles"]
                <= extrapolation["cycles_high"])
        for window in result.sample["windows"]:
            assert window["end"] >= window["start"]
            assert window["instructions"] >= 0


@pytest.mark.slow
class TestBackendIdentity:
    def test_sampled_run_identical_across_backends(self):
        """A fast-forwarded, interval-sampled run is byte-identical on
        the inproc and mp backends (each RUN_QUANTUM names its mode)."""
        from repro.common.config import SimulationConfig
        from repro.distrib.wire import WorkloadRef

        def config(backend):
            cfg = SimulationConfig(num_tiles=4, seed=42)
            cfg.distrib.backend = backend
            cfg.sample.ff_until = 8000
            cfg.sample.period = 20000
            cfg.sample.detail = 6000
            cfg.sample.warmup = 6000
            cfg.validate()
            return cfg

        program = WorkloadRef("fft", 4, 0.3)
        inproc = create_simulator(config("inproc")).run(program)
        mp = create_simulator(config("mp")).run(program)
        assert roi_metrics(inproc) == roi_metrics(mp)

"""The clock-skew sampler under elastic membership (ISSUE satellite).

Figure 7's data source must be membership-blind: a run whose workers
drain, migrate shards or change transport mid-flight samples the same
skew trace as the undisturbed in-process run — tile placement is
host-side bookkeeping, and the sampler reads only simulated clocks.
"""

from __future__ import annotations

import pytest

from repro.common.config import SimulationConfig
from repro.distrib.wire import WorkloadRef
from repro.sim.runner import create_simulator
from repro.sim.simulator import Simulator

REF = WorkloadRef("matrix_multiply", nthreads=4, scale=0.05)


def _base_config() -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=4, seed=11)
    cfg.host.num_machines = 2
    cfg.host.cores_per_machine = 2
    cfg.host.quantum_instructions = 200
    cfg.trace_clock_skew = True
    cfg.skew_sample_period = 4
    return cfg


def _mp_config(**distrib) -> SimulationConfig:
    cfg = _base_config()
    cfg.distrib.backend = "mp"
    for key, value in distrib.items():
        setattr(cfg.distrib, key, value)
    cfg.validate()
    return cfg


def _inproc_trace():
    cfg = _base_config()
    cfg.validate()
    result = Simulator(cfg).run(REF)
    assert result.skew_trace, "no skew samples in the reference run"
    return result.skew_trace


def test_skew_trace_survives_a_pipe_drain():
    """A scripted drain (worker 0 hands its shard off mid-run) leaves
    the sampled skew trace identical to the in-process run's."""
    reference = _inproc_trace()
    drained = create_simulator(_mp_config(
        transport="pipe", drain_turn=2, drain_worker=0)).run(REF)
    assert drained.skew_trace == reference


@pytest.mark.slow
def test_skew_trace_survives_a_tcp_drain():
    reference = _inproc_trace()
    drained = create_simulator(_mp_config(
        transport="tcp", drain_turn=3)).run(REF)
    assert drained.skew_trace == reference


def test_skew_trace_identical_with_rebalance_armed():
    """The rebalance policy reads the workers' busy-ns signal and may
    move a shard on host timing; arming it must not perturb the
    sampled skew (it is host-side)."""
    plain = create_simulator(_mp_config(transport="pipe")).run(REF)
    armed_cfg = _mp_config(transport="pipe", rebalance="slowest")
    armed_cfg.telemetry.enabled = True
    armed_cfg.telemetry.events = ["net", "sync"]
    armed_cfg.validate()
    armed = create_simulator(armed_cfg).run(REF)
    assert armed.skew_trace == plain.skew_trace
    assert plain.skew_trace == _inproc_trace()

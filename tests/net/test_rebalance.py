"""SlowestWorkerPolicy: interval deltas, thresholds, joiner priority."""

from __future__ import annotations

from repro.common.config import SimulationConfig
from repro.net.rebalance import SlowestWorkerPolicy, create_policy

MS = 1_000_000  # ns


def test_quiet_interval_never_triggers():
    policy = SlowestWorkerPolicy()
    assert policy.observe({0: 100, 1: 50}, loaded=[0, 1],
                          idle=[]) is None


def test_imbalance_over_threshold_drains_slowest_to_least_busy():
    policy = SlowestWorkerPolicy(threshold=4.0)
    assert policy.observe({0: MS, 1: MS}, loaded=[0, 1], idle=[]) is None
    decision = policy.observe({0: MS + 10 * MS, 1: MS + 2 * MS},
                              loaded=[0, 1], idle=[])
    assert decision == (0, 1)


def test_decisions_use_interval_deltas_not_cumulative_time():
    """A worker that *was* slow but recovered must not keep draining."""
    policy = SlowestWorkerPolicy(threshold=2.0)
    policy.observe({0: 100 * MS, 1: MS}, loaded=[0, 1], idle=[])
    # This interval worker 0 did almost nothing; cumulative time still
    # dwarfs worker 1's, but the delta does not.
    decision = policy.observe({0: 101 * MS, 1: 2 * MS},
                              loaded=[0, 1], idle=[])
    assert decision is None


def test_idle_joiner_absorbs_slowest_shard_unconditionally():
    policy = SlowestWorkerPolicy(threshold=1000.0)  # never by imbalance
    decision = policy.observe({0: 5 * MS, 1: 4 * MS},
                              loaded=[0, 1], idle=[2])
    assert decision == (0, 2)


def test_single_loaded_worker_without_joiner_holds():
    policy = SlowestWorkerPolicy()
    assert policy.observe({0: 50 * MS}, loaded=[0], idle=[]) is None


def test_create_policy_reads_config():
    cfg = SimulationConfig(num_tiles=4, seed=1)
    assert create_policy(cfg) is None
    cfg.distrib.rebalance = "slowest"
    assert isinstance(create_policy(cfg), SlowestWorkerPolicy)

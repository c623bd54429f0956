"""Host charges are logged as event codes and priced where host time is
read: the log is empty at every quantum boundary, a fast-forwarded
quantum logs nothing, and the log is not simulation state."""

from __future__ import annotations

import pickle

import pytest

from repro.common.config import SimulationConfig
from repro.distrib.wire import WorkloadRef
from repro.host.costmodel import HostCostModel
from repro.sim.runner import create_simulator

REF = WorkloadRef("fft", 4, 0.3)


def _config(**sample) -> SimulationConfig:
    config = SimulationConfig(num_tiles=4, seed=9)
    config.host.quantum_instructions = 300
    for name, value in sample.items():
        setattr(config.sample, name, value)
    config.validate()
    return config


@pytest.mark.parametrize("ff_until", [0, 20_000])
def test_the_log_is_empty_at_every_quantum_boundary(ff_until):
    simulator = create_simulator(_config(ff_until=ff_until))
    seen = []

    def check(scheduler):
        seen.append(list(simulator.cost_model.codes))

    simulator.scheduler.set_stage("skew", 1, check)
    simulator.run(REF)
    assert len(seen) == simulator.scheduler.turns > 10
    assert not any(seen)


def test_a_functional_quantum_logs_nothing(monkeypatch):
    logged = []
    settle = HostCostModel.settle

    def spied(self):
        logged.append(len(self.codes))
        return settle(self)

    monkeypatch.setattr(HostCostModel, "settle", spied)
    simulator = create_simulator(_config(ff_until=10 ** 12))
    simulator.run(REF)
    assert simulator.sample_controller is not None
    assert logged and not any(logged)  # settled at each quantum's end
    assert all(controller.charge_log is None
               for controller in simulator.controllers[:4])


def test_the_log_is_not_pickled_and_restores_empty():
    simulator = create_simulator(_config())
    model = simulator.cost_model
    model.codes.extend([0, 1, 5])
    restored = pickle.loads(pickle.dumps(model))
    assert restored.codes == [] and model.codes == [0, 1, 5]
    assert "codes" not in model.__getstate__()[1]

"""Cross-configuration smoke matrix: every knob combination runs.

Not exhaustive (that is the equivalence suite's job for functional
claims); this sweeps one axis at a time across its full domain so no
registered option is dead code.
"""

import pytest

from repro.common.config import (
    DIRECTORY_TYPES,
    NETWORK_MODELS,
    SYNC_MODELS,
    SimulationConfig,
)
from repro.sim.simulator import Simulator
from repro.workloads.base import get_workload


def run_one(mutate):
    config = SimulationConfig(num_tiles=4)
    config.host.quantum_instructions = 300
    mutate(config)
    config.validate()
    simulator = Simulator(config)
    program = get_workload("cholesky").main(nthreads=4, scale=0.3)
    result = simulator.run(program)
    simulator.engine.check_coherence_invariants()
    assert result.main_result is True
    return result


@pytest.mark.parametrize("model", NETWORK_MODELS)
def test_every_network_model(model):
    run_one(lambda c: (setattr(c.network, "memory_model", model),
                       setattr(c.network, "user_model", model)))


@pytest.mark.parametrize("directory", DIRECTORY_TYPES)
def test_every_directory(directory):
    run_one(lambda c: setattr(c.memory, "directory_type", directory))


@pytest.mark.parametrize("sync", SYNC_MODELS)
def test_every_sync_model(sync):
    run_one(lambda c: setattr(c.sync, "model", sync))


@pytest.mark.parametrize("protocol", ["msi", "mesi"])
def test_every_protocol(protocol):
    run_one(lambda c: setattr(c.memory, "protocol", protocol))


@pytest.mark.parametrize("core", ["in_order", "out_of_order"])
def test_every_core_model(core):
    run_one(lambda c: setattr(c.core, "model", core))


@pytest.mark.parametrize("machines,processes", [(1, 1), (1, 2), (2, 2),
                                                (2, 4), (4, 4)])
def test_cluster_shapes(machines, processes):
    def mutate(config):
        config.host.num_machines = machines
        config.host.num_processes = processes
    run_one(mutate)


def test_kitchen_sink():
    """Everything non-default at once."""
    def mutate(config):
        config.memory.protocol = "mesi"
        config.memory.directory_type = "limitless"
        config.memory.directory_max_sharers = 2
        config.network.memory_model = "torus"
        config.network.user_model = "ring"
        config.sync.model = "lax_p2p"
        config.sync.p2p_slack = 2000
        config.core.model = "out_of_order"
        config.host.num_machines = 2
        config.memory.classify_misses = True
        config.tile_core_overrides = {0: {"dispatch_width": 4}}
    result = run_one(mutate)
    assert sum(result.miss_breakdown.values()) > 0

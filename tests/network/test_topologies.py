"""Ring and torus topologies."""

import pytest

from repro.common.config import NetworkConfig, SimulationConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.network.model import create_network_model
from repro.network.ring import RingNetworkModel, TorusNetworkModel


def make(name, tiles=16):
    return create_network_model(name, tiles, NetworkConfig(),
                                StatGroup("net"))


class TestRing:
    def test_registered(self):
        assert isinstance(make("ring"), RingNetworkModel)

    def test_takes_shorter_direction(self):
        ring = make("ring", tiles=16)
        assert ring.distance(TileId(0), TileId(15)) == 1
        assert ring.distance(TileId(0), TileId(8)) == 8
        assert ring.distance(TileId(2), TileId(5)) == 3

    def test_distance_symmetric(self):
        ring = make("ring", tiles=10)
        for a in range(10):
            for b in range(10):
                assert ring.distance(TileId(a), TileId(b)) == \
                    ring.distance(TileId(b), TileId(a))

    def test_worst_case_is_half_ring(self):
        ring = make("ring", tiles=16)
        worst = max(ring.distance(TileId(0), TileId(t))
                    for t in range(16))
        assert worst == 8

    def test_latency_grows_with_distance(self):
        ring = make("ring", tiles=16)
        near = ring.route(TileId(0), TileId(1), 8, 0)
        far = ring.route(TileId(0), TileId(8), 8, 0)
        assert far > near


class TestTorus:
    def test_registered(self):
        assert isinstance(make("torus"), TorusNetworkModel)

    def test_wraparound_shortens_corners(self):
        """Opposite corners: 6 hops on a 4x4 mesh, 2 on the torus."""
        mesh = make("mesh", tiles=16)
        torus = make("torus", tiles=16)
        mesh_latency = mesh.route(TileId(0), TileId(15), 8, 0)
        torus_latency = torus.route(TileId(0), TileId(15), 8, 0)
        assert torus_latency < mesh_latency
        assert torus.distance(TileId(0), TileId(15)) == 2

    def test_interior_distances_match_mesh(self):
        torus = make("torus", tiles=16)
        assert torus.distance(TileId(5), TileId(6)) == 1
        assert torus.distance(TileId(5), TileId(10)) == 2

    def test_distance_symmetric(self):
        torus = make("torus", tiles=16)
        for a in range(16):
            for b in range(16):
                assert torus.distance(TileId(a), TileId(b)) == \
                    torus.distance(TileId(b), TileId(a))

    def test_average_distance_below_mesh(self):
        from repro.network.routing import MeshGeometry
        geometry = MeshGeometry(64)
        torus = make("torus", tiles=64)
        mesh_total = torus_total = 0
        for a in range(64):
            for b in range(64):
                mesh_total += geometry.distance(TileId(a), TileId(b))
                torus_total += torus.distance(TileId(a), TileId(b))
        assert torus_total < mesh_total


class TestEndToEnd:
    @pytest.mark.parametrize("model", ["ring", "torus"])
    def test_full_simulation_on_topology(self, model):
        from repro.sim.simulator import Simulator
        from repro.workloads.base import get_workload

        config = SimulationConfig(num_tiles=8)
        config.network.memory_model = model
        config.network.user_model = model
        config.host.quantum_instructions = 300
        simulator = Simulator(config)
        result = simulator.run(
            get_workload("fft").main(nthreads=8, scale=0.15))
        simulator.engine.check_coherence_invariants()
        assert result.main_result is not None

    def test_config_accepts_new_models(self):
        config = SimulationConfig()
        config.network.memory_model = "torus"
        config.network.user_model = "ring"
        config.validate()

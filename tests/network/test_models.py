"""Network models: magic, mesh, mesh with contention."""

import pytest

from repro.common.config import NetworkConfig
from repro.common.errors import ConfigError
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.network.mesh import serialization_cycles
from repro.network.model import create_network_model
from repro.network.routing import MeshGeometry


def make(name, tiles=16, **overrides):
    config = NetworkConfig(**overrides)
    return create_network_model(name, tiles, config, StatGroup("net"))


class TestMagic:
    def test_zero_latency(self):
        model = make("magic")
        assert model.route(TileId(0), TileId(15), 64, 0) == 0

    def test_counts_packets(self):
        model = make("magic")
        model.route(TileId(0), TileId(1), 64, 0)
        assert model.stats.counter("packets").value == 1


class TestSerialization:
    def test_exact_multiple(self):
        assert serialization_cycles(64, 8) == 8

    def test_rounds_up(self):
        assert serialization_cycles(65, 8) == 9

    def test_zero_size(self):
        assert serialization_cycles(0, 8) == 0


class TestMesh:
    def test_latency_scales_with_hops(self):
        model = make("mesh")
        near = model.route(TileId(0), TileId(1), 8, 0)
        far = model.route(TileId(0), TileId(15), 8, 0)
        assert far > near

    def test_latency_formula(self):
        config = NetworkConfig(hop_latency=2, link_bytes_per_cycle=8,
                               endpoint_latency=3)
        model = create_network_model("mesh", 16, config, StatGroup("n"))
        # 0 -> 15 is 6 hops; 64B / 8Bpc = 8 cycles serialization.
        assert model.route(TileId(0), TileId(15), 64, 0) == \
            2 * 3 + 6 * 2 + 8

    def test_self_send_endpoint_only(self):
        model = make("mesh")
        latency = model.route(TileId(5), TileId(5), 8, 0)
        config = NetworkConfig()
        assert latency == 2 * config.endpoint_latency + \
            serialization_cycles(8, config.link_bytes_per_cycle)

    def test_larger_packets_slower(self):
        model = make("mesh")
        assert model.route(TileId(0), TileId(3), 512, 0) > \
            model.route(TileId(0), TileId(3), 8, 0)

    def test_mean_latency_stat(self):
        model = make("mesh")
        model.route(TileId(0), TileId(1), 8, 0)
        model.route(TileId(0), TileId(2), 8, 0)
        assert model.mean_latency > 0


class TestMeshReference:
    """``MeshNetworkModel.route`` prices a packet in its own frame; the
    geometry's ``distance`` and :func:`serialization_cycles` are the
    reference it must equal, on square and ragged grids alike."""

    CONFIG = NetworkConfig(hop_latency=3, link_bytes_per_cycle=8,
                           endpoint_latency=2)

    @staticmethod
    def _reference(geometry, src, dst, size, config):
        return (2 * config.endpoint_latency
                + geometry.distance(src, dst) * config.hop_latency
                + serialization_cycles(size, config.link_bytes_per_cycle))

    def _check(self, tiles, pairs):
        model = create_network_model("mesh", tiles, self.CONFIG,
                                     StatGroup("n"))
        geometry = MeshGeometry(tiles)
        packets = total_bytes = total_latency = 0
        for index, (src, dst) in enumerate(pairs):
            size = (0, 1, 8, 72, 513)[index % 5]
            latency = model.route(TileId(src), TileId(dst), size, index)
            assert latency == self._reference(
                geometry, TileId(src), TileId(dst), size, self.CONFIG), \
                (tiles, src, dst, size)
            packets += 1
            total_bytes += size
            total_latency += latency
        stats = model.stats
        assert stats.counter("packets").value == packets
        assert stats.counter("bytes").value == total_bytes
        assert stats.counter("total_latency_cycles").value == total_latency

    @pytest.mark.parametrize("tiles", [1, 2, 3, 6, 8, 17, 64])
    def test_every_pair_equals_the_geometry(self, tiles):
        self._check(tiles, [(src, dst) for src in range(tiles)
                            for dst in range(tiles)])

    def test_sampled_pairs_at_1024_tiles(self):
        pairs = [((7919 * i) % 1024, (104729 * i + 17) % 1024)
                 for i in range(4096)]
        pairs += [(0, 1023), (1023, 0), (31, 992), (5, 5)]
        self._check(1024, pairs)

    def test_magic_prices_nothing_and_counts_alike(self):
        model = create_network_model("magic", 17, self.CONFIG,
                                     StatGroup("n"))
        assert model.route(TileId(0), TileId(16), 72, 5) == 0
        assert model.stats.counter("packets").value == 1
        assert model.stats.counter("bytes").value == 72
        assert model.stats.counter("total_latency_cycles").value == 0


class TestContentionMesh:
    def test_uncontended_matches_mesh_shape(self):
        plain = make("mesh")
        contended = make("mesh_contention")
        # A single packet sees serialization on each link but no queueing.
        p = plain.route(TileId(0), TileId(3), 64, 1000)
        c = contended.route(TileId(0), TileId(3), 64, 1000)
        assert c >= p  # per-link serialization counts per hop

    def test_contention_grows_latency(self):
        model = make("mesh_contention", tiles=16)
        first = model.route(TileId(0), TileId(3), 512, 1000)
        # Hammer the same route at the same timestamp: queues build up.
        for _ in range(20):
            model.route(TileId(0), TileId(3), 512, 1000)
        last = model.route(TileId(0), TileId(3), 512, 1000)
        assert last > first

    def test_disjoint_routes_do_not_contend(self):
        model = make("mesh_contention", tiles=16)
        base = model.route(TileId(0), TileId(1), 512, 1000)
        for _ in range(20):
            model.route(TileId(14), TileId(15), 512, 1000)
        # Later in simulated time (own queue drained), the far-away
        # traffic must not have inflated this route's latency.
        again = model.route(TileId(0), TileId(1), 512, 50_000)
        assert again <= base * 1.5

    def test_contention_counter(self):
        model = make("mesh_contention", tiles=16)
        for _ in range(10):
            model.route(TileId(0), TileId(3), 512, 1000)
        assert model.stats.counter("contention_cycles").value > 0


class TestRegistry:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            make("hypercube")

    @pytest.mark.parametrize("name",
                             ["magic", "mesh", "mesh_contention"])
    def test_all_registered(self, name):
        assert make(name).route(TileId(0), TileId(1), 8, 0) >= 0

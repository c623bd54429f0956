"""Per-tile memory controller: splitting, L1 timing, fetches."""

import pytest

from repro.common.config import SimulationConfig
from repro.common.errors import TargetFault
from tests.conftest import MemoryRig

HEAP = 0x1000_0000
CODE = 0x100


@pytest.fixture
def rig():
    return MemoryRig(SimulationConfig(num_tiles=4))


class TestSplitting:
    def test_access_spanning_three_lines(self, rig):
        payload = bytes(range(130))  # 130 bytes > 2 lines of 64
        rig.store(0, HEAP + 30, payload)
        data, _ = rig.load(1, HEAP + 30, 130)
        assert data == payload

    def test_split_charges_each_line(self, rig):
        _, one_line = rig.load(0, HEAP + 4096, 8)
        _, two_lines = rig.load(0, HEAP + 8192 + 60, 8)
        assert two_lines > one_line


class TestL1Timing:
    def test_l1_hit_cheapest(self, rig):
        rig.load(0, HEAP, 8)             # L2 + L1 fill
        _, second = rig.load(0, HEAP, 8)  # L1 hit
        config = rig.config.memory
        assert second == config.l1d.access_latency

    def test_l2_hit_after_l1_eviction(self, rig):
        rig.load(0, HEAP, 8)
        # Evict from the (small) L1 by walking same-set lines.
        l1 = rig.engine.hierarchies[0].l1d
        stride = l1.num_sets * 64
        for i in range(1, l1.associativity + 2):
            rig.load(0, HEAP + i * stride, 8)
        _, latency = rig.load(0, HEAP, 8)
        config = rig.config.memory
        assert latency == config.l1d.access_latency + \
            config.l2.access_latency

    def test_disabled_l1_goes_straight_to_l2(self):
        config = SimulationConfig(num_tiles=2)
        config.memory.l1d.enabled = False
        config.memory.l1i.enabled = False
        rig = MemoryRig(config)
        rig.load(0, HEAP, 8)
        _, latency = rig.load(0, HEAP, 8)
        assert latency == config.memory.l2.access_latency


class TestStores:
    def test_store_hit_on_modified_line_is_l1_fast(self, rig):
        rig.store_int(0, HEAP, 1)
        latency = rig.store_int(0, HEAP, 2)
        assert latency == rig.config.memory.l1d.access_latency

    def test_store_to_shared_line_pays_upgrade(self, rig):
        rig.load(0, HEAP, 8)
        rig.load(1, HEAP, 8)
        latency = rig.store_int(0, HEAP, 1)
        assert latency > rig.config.memory.l2.access_latency


class TestFetch:
    def test_fetch_fills_l1i(self, rig):
        mc = rig.controllers[0]
        first = mc.fetch(CODE, 0)
        second = mc.fetch(CODE, 10)
        assert second == rig.config.memory.l1i.access_latency
        assert second < first

    def test_fetch_counts(self, rig):
        mc = rig.controllers[0]
        mc.fetch(CODE, 0)
        assert rig.stats.child("mc0").counter("fetches").value == 1


class TestFaults:
    def test_kernel_load_faults(self, rig):
        with pytest.raises(TargetFault):
            rig.load(0, 0xF000_0000, 8)

    def test_kernel_store_faults(self, rig):
        with pytest.raises(TargetFault):
            rig.store(0, 0xF000_0000, b"\0" * 8)

    def test_out_of_space_faults(self, rig):
        with pytest.raises(TargetFault):
            rig.load(0, 0x1_0000_0000, 8)


class TestBacking:
    def test_backing_read_line_is_copy(self, rig):
        rig.store(0, HEAP, b"\x55" * 8)
        line = rig.backing.read_line(rig.space.line_of(HEAP))
        line[0] = 0
        value, _ = rig.load_int(1, HEAP)
        assert value == int.from_bytes(b"\x55" * 8, "little")

    def test_backing_write_requires_full_line(self, rig):
        with pytest.raises(ValueError):
            rig.backing.write_line(0, b"short")

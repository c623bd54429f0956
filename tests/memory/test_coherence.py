"""The directory MSI protocol: functional + modelled behaviour."""

import pytest

from repro.common.config import SimulationConfig
from repro.common.units import KB
from repro.memory.cache import LineState
from repro.memory.directory import DirState
from tests.conftest import MemoryRig


HEAP = 0x1000_0000  # AddressSpace.HEAP_BASE


@pytest.fixture
def rig():
    return MemoryRig(SimulationConfig(num_tiles=4))


class TestFunctionalCorrectness:
    def test_read_after_write_same_tile(self, rig):
        rig.store_int(0, HEAP, 42)
        value, _ = rig.load_int(0, HEAP)
        assert value == 42

    def test_read_after_write_cross_tile(self, rig):
        rig.store_int(0, HEAP, 7)
        value, _ = rig.load_int(3, HEAP)
        assert value == 7

    def test_write_propagates_through_chain(self, rig):
        rig.store_int(0, HEAP, 1)
        rig.store_int(1, HEAP, 2)
        rig.store_int(2, HEAP, 3)
        value, _ = rig.load_int(3, HEAP)
        assert value == 3

    def test_unwritten_memory_reads_zero(self, rig):
        value, _ = rig.load_int(2, HEAP + 0x8000)
        assert value == 0

    def test_partial_line_writes_merge(self, rig):
        rig.store(0, HEAP, b"\x11" * 8)
        rig.store(1, HEAP + 8, b"\x22" * 8)
        data, _ = rig.load(2, HEAP, 16)
        assert data == b"\x11" * 8 + b"\x22" * 8

    def test_cross_line_access(self, rig):
        rig.store(0, HEAP + 60, b"ABCDEFGH")  # straddles two lines
        data, _ = rig.load(1, HEAP + 60, 8)
        assert data == b"ABCDEFGH"

    def test_byte_granularity(self, rig):
        rig.store(0, HEAP + 3, b"\xff")
        data, _ = rig.load(1, HEAP, 8)
        assert data == b"\x00\x00\x00\xff\x00\x00\x00\x00"


class TestProtocolStates:
    def test_write_leaves_modified_at_writer(self, rig):
        rig.store_int(1, HEAP, 5)
        line = rig.engine.hierarchies[1].l2.peek(HEAP)
        assert line.state is LineState.MODIFIED

    def test_remote_read_downgrades_owner(self, rig):
        rig.store_int(1, HEAP, 5)
        rig.load_int(2, HEAP)
        owner_line = rig.engine.hierarchies[1].l2.peek(HEAP)
        assert owner_line.state is LineState.SHARED

    def test_remote_write_invalidates_sharers(self, rig):
        rig.store_int(0, HEAP, 1)
        rig.load_int(1, HEAP)
        rig.load_int(2, HEAP)
        rig.store_int(3, HEAP, 9)
        for t in (0, 1, 2):
            assert rig.engine.hierarchies[t].l2.peek(HEAP) is None

    def test_upgrade_from_shared(self, rig):
        rig.load_int(1, HEAP)
        rig.store_int(1, HEAP, 3)
        line = rig.engine.hierarchies[1].l2.peek(HEAP)
        assert line.state is LineState.MODIFIED
        home = int(rig.space.home_tile(HEAP))
        entry = rig.engine.directories[home].entries[rig.space.line_of(HEAP)]
        assert entry.state is DirState.MODIFIED

    def test_directory_tracks_all_sharers(self, rig):
        for t in range(4):
            rig.load_int(t, HEAP)
        home = int(rig.space.home_tile(HEAP))
        entry = rig.engine.directories[home].entries[rig.space.line_of(HEAP)]
        assert len(entry.sharers) == 4
        assert entry.state is DirState.SHARED

    def test_invariants_hold_after_mixed_traffic(self, rig):
        for i in range(40):
            tile = i % 4
            address = HEAP + (i % 10) * 8
            if i % 3:
                rig.load_int(tile, address)
            else:
                rig.store_int(tile, address, i)
        rig.engine.check_coherence_invariants()


class TestLatencies:
    def test_l2_hit_is_cheap(self, rig):
        rig.store_int(0, HEAP, 1)
        _, miss_latency = rig.load_int(1, HEAP)
        _, hit_latency = rig.load_int(1, HEAP)
        assert hit_latency < miss_latency

    def test_dirty_remote_read_costs_more_than_clean(self, rig):
        # Clean shared read miss (data from DRAM at home).
        rig.store_int(0, HEAP, 1)
        rig.load_int(1, HEAP)          # downgrade to shared
        _, clean = rig.load_int(2, HEAP)
        # Dirty remote read (extra owner round trip).
        rig.store_int(0, HEAP + 128, 1)
        _, dirty = rig.load_int(2, HEAP + 128)
        assert dirty > 0 and clean > 0

    def test_upgrade_cheaper_than_write_miss(self, rig):
        rig.load_int(1, HEAP)          # S copy present
        upgrade = rig.store_int(1, HEAP, 2)
        miss = rig.store_int(2, HEAP + 256, 2)
        assert upgrade < miss  # no data fetch on the upgrade path

    def test_invalidations_add_latency(self, rig):
        # An upgrade with three other sharers pays invalidation round
        # trips that a sharer-free upgrade does not.
        for t in range(4):
            rig.load_int(t, HEAP)
        many = rig.store_int(0, HEAP, 1)
        rig.load_int(0, HEAP + 512)
        lone = rig.store_int(0, HEAP + 512, 1)
        assert many > lone


class TestEvictions:
    def test_dirty_eviction_writes_back(self):
        config = SimulationConfig(num_tiles=2)
        config.memory.l1i.enabled = False
        config.memory.l1d.enabled = False
        config.memory.l2.size_bytes = 4 * KB  # 64 lines: tiny L2
        config.memory.l2.associativity = 2
        rig = MemoryRig(config)
        rig.store_int(0, HEAP, 99)
        # Flood tile 0's L2 with conflicting lines to force eviction.
        for i in range(1, 200):
            rig.store_int(0, HEAP + i * 4 * KB, i)
        # The first line was evicted; data must survive in DRAM.
        assert rig.engine.hierarchies[0].l2.peek(HEAP) is None
        value, _ = rig.load_int(1, HEAP)
        assert value == 99
        rig.engine.check_coherence_invariants()

    def test_eviction_removes_directory_record(self):
        config = SimulationConfig(num_tiles=2)
        config.memory.l1i.enabled = False
        config.memory.l1d.enabled = False
        config.memory.l2.size_bytes = 4 * KB
        config.memory.l2.associativity = 2
        rig = MemoryRig(config)
        rig.load_int(0, HEAP)
        for i in range(1, 200):
            rig.load_int(0, HEAP + i * 4 * KB)
        home = int(rig.space.home_tile(HEAP))
        entry = rig.engine.directories[home].entries.get(
            rig.space.line_of(HEAP))
        assert entry is None or 0 not in \
            [int(t) for t in entry.sharers]
        rig.engine.check_coherence_invariants()


class TestHoming:
    @pytest.mark.parametrize("num_tiles", [2, 3, 5, 6])
    def test_every_directory_entry_sits_at_its_home(self, num_tiles):
        """The engine's inline line -> home interleaving, on read and
        write misses and on evictions, is ``AddressSpace.home_tile``'s."""
        config = SimulationConfig(num_tiles=num_tiles)
        config.memory.l2.size_bytes = 4 * KB
        config.memory.l2.associativity = 2
        rig = MemoryRig(config)
        for i in range(600):
            address = HEAP + i * 17 * 64  # every home, every set
            if i % 3:
                rig.load_int(i % num_tiles, address)
            else:
                rig.store_int(i % num_tiles, address, i)
        shared = 0
        for home, directory in enumerate(rig.engine.directories):
            for line, entry in directory.entries.items():
                assert int(rig.space.home_tile(line)) == home
                shared += bool(entry.sharers)
        assert shared
        assert sum(h.l2._evictions.value
                   for h in rig.engine.hierarchies) > 0
        rig.engine.check_coherence_invariants()


class TestDirectoryVariantsInProtocol:
    def test_limited_directory_thrashes_readers(self):
        config = SimulationConfig(num_tiles=8)
        config.memory.directory_type = "limited"
        config.memory.directory_max_sharers = 2
        rig = MemoryRig(config)
        rig.store_int(0, HEAP, 5)
        # 8 readers with 2 pointers: constant re-fetching.
        for round_ in range(3):
            for t in range(8):
                value, _ = rig.load_int(t, HEAP)
                assert value == 5
        home = int(rig.space.home_tile(HEAP))
        assert rig.engine.directories[home].stats.counter(
            "pointer_evictions").value > 10
        rig.engine.check_coherence_invariants()

    def test_limitless_retains_all_sharers(self):
        config = SimulationConfig(num_tiles=8)
        config.memory.directory_type = "limitless"
        config.memory.directory_max_sharers = 2
        rig = MemoryRig(config)
        rig.store_int(0, HEAP, 5)
        for t in range(8):
            rig.load_int(t, HEAP)
        home = int(rig.space.home_tile(HEAP))
        entry = rig.engine.directories[home].entries[rig.space.line_of(HEAP)]
        assert len(entry.sharers) == 8
        rig.engine.check_coherence_invariants()

    def test_limitless_second_read_round_is_trap_free(self):
        config = SimulationConfig(num_tiles=8)
        config.memory.directory_type = "limitless"
        config.memory.directory_max_sharers = 2
        rig = MemoryRig(config)
        for t in range(8):
            rig.load_int(t, HEAP)
        latencies = [rig.load_int(t, HEAP)[1] for t in range(8)]
        # All hits now: LimitLESS behaves like full-map once cached.
        l2_hit = config.memory.l2.access_latency
        l1_hit = config.memory.l1d.access_latency
        assert all(lat <= l1_hit + l2_hit for lat in latencies)

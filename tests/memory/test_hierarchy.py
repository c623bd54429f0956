"""Cache hierarchy: L1 tag arrays, inclusion with the L2."""


from repro.common.config import MemoryConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.common.units import KB
from repro.memory.cache import CacheLine, LineState
from repro.memory.hierarchy import CacheHierarchy


def make(l1_enabled=True, l2_size=64 * KB, l2_ways=2):
    config = MemoryConfig()
    config.l1i.enabled = l1_enabled
    config.l1d.enabled = l1_enabled
    config.l2.size_bytes = l2_size
    config.l2.associativity = l2_ways
    return CacheHierarchy(TileId(0), config, StatGroup("h"))


class TestL1:
    def test_miss_then_hit_after_fill(self):
        h = make()
        assert not h.l1d_hit(0x1000)
        h.fill_l1d(CacheLine(0x1000, LineState.SHARED, None))
        assert h.l1d_hit(0x1000)

    def test_disabled_l1_always_misses(self):
        h = make(l1_enabled=False)
        h.fill_l1d(CacheLine(0x1000, LineState.SHARED, None))  # no-op
        assert not h.l1d_hit(0x1000)
        assert h.l1d is None

    def test_l1i_l1d_independent(self):
        h = make()
        h.fill_l1i(0x1000)
        assert h.l1i_hit(0x1000)
        assert not h.l1d_hit(0x1000)


class TestInclusion:
    def test_l2_eviction_purges_l1(self):
        h = make(l2_size=4 * KB, l2_ways=1)  # 64 one-way sets
        step = 64 * 64  # same-set stride
        h.fill_l2(0x0, LineState.SHARED, bytearray(64))
        h.fill_l1d(h.l2.peek(0x0))
        h.fill_l2(step, LineState.SHARED, bytearray(64))  # evicts 0x0
        assert not h.l1d_hit(0x0)
        assert h.check_inclusion()

    def test_invalidate_purges_all_levels(self):
        h = make()
        h.fill_l2(0x40, LineState.MODIFIED, bytearray(64))
        h.fill_l1d(h.l2.peek(0x40))
        h.fill_l1i(0x40)
        line = h.invalidate(0x40)
        assert line.state is LineState.MODIFIED
        assert not h.l1d_hit(0x40)
        assert not h.l1i_hit(0x40)
        assert h.l2.peek(0x40) is None

    def test_inclusion_invariant_checker(self):
        h = make()
        h.fill_l2(0x0, LineState.SHARED, bytearray(64))
        h.fill_l1d(h.l2.peek(0x0))
        assert h.check_inclusion()
        h.l2.remove(0x0)  # break inclusion deliberately
        assert not h.check_inclusion()


class TestDowngrade:
    def test_downgrade_keeps_data(self):
        h = make()
        h.fill_l2(0x80, LineState.MODIFIED, bytearray(b"z" * 64))
        line = h.downgrade(0x80)
        assert line.state is LineState.SHARED
        assert bytes(line.data) == b"z" * 64

    def test_downgrade_absent_returns_none(self):
        assert make().downgrade(0x80) is None


class TestVictims:
    def test_fill_returns_victim(self):
        h = make(l2_size=4 * KB, l2_ways=1)
        step = 64 * 64
        h.fill_l2(0x0, LineState.MODIFIED, bytearray(64))
        victim = h.fill_l2(step, LineState.SHARED, bytearray(64))
        assert victim.address == 0x0
        assert victim.state is LineState.MODIFIED

    def test_no_victim_when_room(self):
        h = make()
        assert h.fill_l2(0x0, LineState.SHARED, bytearray(64)) is None

    def test_resident_lines_listing(self):
        h = make()
        h.fill_l2(0x0, LineState.SHARED, bytearray(64))
        h.fill_l2(0x40, LineState.MODIFIED, bytearray(64))
        assert {line.address for line in h.resident_l2_lines()} == \
            {0x0, 0x40}

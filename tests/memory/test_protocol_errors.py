"""Protocol-error detection: the strict invariants must actually fire."""

import pytest

from repro.common.config import SimulationConfig
from repro.common.errors import ProtocolError
from repro.common.ids import TileId
from repro.memory.cache import LineState
from tests.conftest import MemoryRig

HEAP = 0x1000_0000


@pytest.fixture
def rig():
    return MemoryRig(SimulationConfig(num_tiles=4))


class TestInvariantChecker:
    def test_clean_state_passes(self, rig):
        rig.store_int(0, HEAP, 1)
        rig.load_int(1, HEAP)
        rig.engine.check_coherence_invariants()

    def test_detects_orphan_cache_line(self, rig):
        rig.load_int(0, HEAP)
        # Corrupt: a line cached with no directory record.
        rig.engine.hierarchies[1].fill_l2(
            rig.space.line_of(HEAP) + 0x4000, LineState.SHARED,
            bytearray(64))
        with pytest.raises(ProtocolError):
            rig.engine.check_coherence_invariants()

    def test_detects_missing_owner_copy(self, rig):
        rig.store_int(2, HEAP, 1)
        line = rig.space.line_of(HEAP)
        # Corrupt: drop the owner's line behind the directory's back.
        rig.engine.hierarchies[2].l2.remove(line)
        with pytest.raises(ProtocolError):
            rig.engine.check_coherence_invariants()

    def test_detects_state_mismatch(self, rig):
        rig.load_int(0, HEAP)
        line = rig.engine.hierarchies[0].l2.peek(rig.space.line_of(HEAP))
        line.state = LineState.MODIFIED  # cache says M, directory says S
        with pytest.raises(ProtocolError):
            rig.engine.check_coherence_invariants()

    def test_detects_shared_entry_without_sharers(self, rig):
        rig.load_int(0, HEAP)
        home = int(rig.space.home_tile(HEAP))
        entry = rig.engine.directories[home].entries[
            rig.space.line_of(HEAP)]
        rig.engine.hierarchies[0].l2.remove(rig.space.line_of(HEAP))
        entry.sharers = ()  # SHARED with empty sharer set
        with pytest.raises(ProtocolError):
            rig.engine.check_coherence_invariants()

    def test_detects_inclusion_violation(self, rig):
        rig.load_int(0, HEAP)
        rig.engine.hierarchies[0].l2.remove(rig.space.line_of(HEAP))
        # L1 still holds the tag: inclusion broken (and the directory
        # also disagrees).
        with pytest.raises(ProtocolError):
            rig.engine.check_coherence_invariants()


class TestDirectoryEntryGuards:
    def test_modified_multi_sharer_owner_query_raises(self, rig):
        rig.store_int(0, HEAP, 1)
        home = int(rig.space.home_tile(HEAP))
        entry = rig.engine.directories[home].entries[
            rig.space.line_of(HEAP)]
        entry.sharers += (TileId(1),)  # corrupt: two "owners"
        with pytest.raises(ProtocolError):
            _ = entry.owner

    def test_recall_from_tileless_owner_raises(self, rig):
        rig.store_int(0, HEAP, 1)
        line = rig.space.line_of(HEAP)
        rig.engine.hierarchies[0].l2.remove(line)  # owner lost the line
        with pytest.raises(ProtocolError):
            rig.load_int(1, HEAP)


class TestDirtyVictimGuard:
    def test_dirty_victim_without_data_raises(self, rig):
        from repro.memory.cache import CacheLine

        victim = CacheLine(rig.space.line_of(HEAP), LineState.MODIFIED,
                           None)
        with pytest.raises(ProtocolError):
            rig.engine._handle_victim(TileId(0), victim, 0)

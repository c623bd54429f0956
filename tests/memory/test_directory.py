"""Directory organisations: full-map, Dir_iNB, LimitLESS."""

import pytest

from repro.common.config import MemoryConfig
from repro.common.errors import ProtocolError
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.memory.directory import (
    DirState,
    DirectoryEntry,
    FullMapDirectory,
    LimitLessDirectory,
    LimitedDirectory,
    create_directory,
)


def make(kind, sharers=4):
    config = MemoryConfig(directory_type=kind,
                          directory_max_sharers=sharers)
    return create_directory(TileId(0), config, StatGroup("dir"))


class TestFactory:
    def test_kinds(self):
        assert isinstance(make("full_map"), FullMapDirectory)
        assert isinstance(make("limited"), LimitedDirectory)
        assert isinstance(make("limitless"), LimitLessDirectory)


class TestEntry:
    def test_entry_created_on_demand(self):
        directory = make("full_map")
        entry = directory.entry(0x1000)
        assert entry.state is DirState.UNCACHED
        assert directory.entry(0x1000) is entry

    def test_owner_requires_single_sharer(self):
        entry = DirectoryEntry(state=DirState.MODIFIED)
        entry.sharers = (TileId(1),)
        assert entry.owner == TileId(1)

    def test_owner_with_many_sharers_is_protocol_error(self):
        entry = DirectoryEntry(state=DirState.MODIFIED)
        entry.sharers = (TileId(1), TileId(2))
        with pytest.raises(ProtocolError):
            _ = entry.owner

    def test_owner_none_when_not_modified(self):
        entry = DirectoryEntry(state=DirState.SHARED)
        entry.sharers = (TileId(1),)
        assert entry.owner is None

    def test_remove_last_sharer_uncaches(self):
        directory = make("full_map")
        entry = directory.entry(0x0)
        directory.add_sharer(entry, TileId(3))
        entry.state = DirState.SHARED
        directory.remove_sharer(entry, TileId(3))
        assert entry.state is DirState.UNCACHED


class TestFullMap:
    def test_unbounded_sharers(self):
        directory = make("full_map")
        entry = directory.entry(0x0)
        for t in range(64):
            result = directory.add_sharer(entry, TileId(t))
            assert result.evict == []
            assert result.extra_latency == 0
        assert len(entry.sharers) == 64


class TestLimited:
    def test_eviction_beyond_pointer_limit(self):
        directory = make("limited", sharers=4)
        entry = directory.entry(0x0)
        for t in range(4):
            directory.add_sharer(entry, TileId(t))
        result = directory.add_sharer(entry, TileId(4))
        assert result.evict == [TileId(0)]  # oldest pointer evicted
        assert len(entry.sharers) == 4

    def test_re_adding_existing_sharer_no_eviction(self):
        directory = make("limited", sharers=2)
        entry = directory.entry(0x0)
        directory.add_sharer(entry, TileId(0))
        directory.add_sharer(entry, TileId(1))
        result = directory.add_sharer(entry, TileId(1))
        assert result.evict == []

    def test_thrash_under_round_robin_readers(self):
        """The Figure 9 pathology: i+1 readers thrash i pointers."""
        directory = make("limited", sharers=4)
        entry = directory.entry(0x0)
        evictions = 0
        for round_ in range(3):
            for t in range(5):
                evictions += len(
                    directory.add_sharer(entry, TileId(t)).evict)
        assert evictions >= 5

    def test_eviction_counter(self):
        directory = make("limited", sharers=1)
        entry = directory.entry(0x0)
        directory.add_sharer(entry, TileId(0))
        directory.add_sharer(entry, TileId(1))
        assert directory.stats.counter("pointer_evictions").value == 1


class TestLimitLess:
    def test_overflow_traps_but_keeps_sharers(self):
        directory = make("limitless", sharers=4)
        entry = directory.entry(0x0)
        for t in range(4):
            result = directory.add_sharer(entry, TileId(t))
            assert result.extra_latency == 0
        result = directory.add_sharer(entry, TileId(4))
        assert result.extra_latency == \
            MemoryConfig().limitless_trap_latency
        assert result.evict == []
        assert len(entry.sharers) == 5

    def test_cached_sharers_no_further_traps(self):
        """Once cached, re-reads don't trap: LimitLESS ~ full-map."""
        directory = make("limitless", sharers=2)
        entry = directory.entry(0x0)
        for t in range(5):
            directory.add_sharer(entry, TileId(t))
        result = directory.add_sharer(entry, TileId(3))  # already present
        assert result.extra_latency == 0

    def test_invalidation_of_overflowed_entry_traps(self):
        directory = make("limitless", sharers=2)
        entry = directory.entry(0x0)
        for t in range(3):
            directory.add_sharer(entry, TileId(t))
        assert directory.invalidation_latency(entry) > 0

    def test_invalidation_within_pointers_free(self):
        directory = make("limitless", sharers=4)
        entry = directory.entry(0x0)
        directory.add_sharer(entry, TileId(0))
        assert directory.invalidation_latency(entry) == 0

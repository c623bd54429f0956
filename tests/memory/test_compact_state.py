"""The target's state holds no per-entry containers.

A directory entry's sharers are an insertion-ordered tuple, the shared
``()`` when empty; an in-process L1 is a :class:`TagArray` holding
addresses and no :class:`CacheLine` per tag.  Both behave exactly as the
dict sharer sets and line-holding L1s they replaced: the directories are
driven here against a reference model of the old dict code, and the tag
arrays are checked through what tests and invariant checks read.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.snapshot import load_bytes, snapshot_bytes
from repro.common.config import SimulationConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.memory.cache import Cache, CacheLine, LineState, TagArray
from repro.memory.directory import DirState, create_directory
from repro.memory.hierarchy import MirroredL1
from repro.sim.runner import create_simulator
from repro.workloads.base import get_workload

HW_POINTERS = 3
EMPTY = tuple()


class DictDirectory:
    """The sharer bookkeeping of the dict-based directories, verbatim in
    effect: ``sharers`` a dict used as an ordered set."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.sharers: dict = {}
        self.traps = self.pointer_evictions = 0

    def add(self, tile: TileId) -> tuple:
        evict, extra = [], 0
        if self.kind == "limited" and tile not in self.sharers:
            while len(self.sharers) >= HW_POINTERS:
                victim = next(iter(self.sharers))
                del self.sharers[victim]
                evict.append(victim)
                self.pointer_evictions += 1
        if self.kind == "limitless" and tile not in self.sharers \
                and len(self.sharers) >= HW_POINTERS:
            extra = 1
            self.traps += 1
        self.sharers[tile] = None
        return evict, extra

    def remove(self, tile: TileId) -> None:
        self.sharers.pop(tile, None)

    def invalidation_latency(self) -> int:
        if self.kind == "limitless" and len(self.sharers) > HW_POINTERS:
            self.traps += 1
            return 1
        return 0


def _directory(kind: str):
    config = SimulationConfig(num_tiles=8)
    config.memory.directory_type = kind
    config.memory.directory_max_sharers = HW_POINTERS
    config.memory.limitless_trap_latency = 1
    config.validate()
    return create_directory(TileId(0), config.memory, StatGroup("d"))


tiles = st.integers(min_value=0, max_value=7).map(TileId)
steps = st.lists(st.one_of(
    st.tuples(st.just("add"), tiles), st.tuples(st.just("remove"), tiles),
    st.tuples(st.just("clear"), st.just(None)),
    st.tuples(st.just("invalidate"), st.just(None))), max_size=60)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["full_map", "limited", "limitless"]),
       ops=steps)
def test_a_directory_keeps_the_dict_models_order_evictions_and_traps(
        kind, ops):
    directory, model = _directory(kind), DictDirectory(kind)
    entry = directory.entry(0x40)
    for op, tile in ops:
        if op == "add":
            result = directory.add_sharer(entry, tile)
            assert (result.evict, result.extra_latency) == model.add(tile)
        elif op == "remove":
            directory.remove_sharer(entry, tile)
            model.remove(tile)
        elif op == "clear":  # what a write does to the other sharers
            entry.sharers = ()
            model.sharers.clear()
        else:
            assert directory.invalidation_latency(entry) == \
                model.invalidation_latency()
        assert entry.sharers == tuple(model.sharers)
        assert type(entry.sharers) is tuple
    stats = directory.stats.to_dict()
    assert stats.get("d.software_traps", 0) == model.traps
    assert stats.get("d.pointer_evictions", 0) == model.pointer_evictions


def test_an_emptied_entry_shares_the_one_empty_tuple():
    directory = _directory("full_map")
    entry = directory.entry(0x40)
    assert entry.sharers is EMPTY
    directory.add_sharer(entry, TileId(2))
    directory.add_sharer(entry, TileId(5))
    directory.remove_sharer(entry, TileId(2))
    directory.remove_sharer(entry, TileId(5))
    assert entry.sharers is EMPTY and entry.state is DirState.UNCACHED


def _finished_simulator():
    config = SimulationConfig(num_tiles=4, seed=5)
    config.validate()
    simulator = create_simulator(config)
    simulator.run(get_workload("fft").main(nthreads=4, scale=0.3))
    return simulator


def test_an_in_process_l1_holds_addresses_not_lines():
    simulator = _finished_simulator()
    tags = 0
    for hierarchy in simulator.engine.hierarchies:
        for l1 in (hierarchy.l1i, hierarchy.l1d):
            assert type(l1) is TagArray
            assert all(type(value) is int and value == address
                       for address, value in l1._lines.items())
            # Iteration still yields lines at the real addresses.
            lines = list(l1)
            assert sorted(line.address for line in lines) == \
                sorted(l1._lines)
            assert {(line.state, line.data) for line in lines} <= \
                {(LineState.SHARED, None)}
            tags += len(lines)
        assert hierarchy.check_inclusion()
    assert tags > 0
    simulator.engine.check_coherence_invariants()


def test_check_inclusion_sees_a_tag_the_l2_lost():
    hierarchy = _finished_simulator().engine.hierarchies[0]
    address = next(iter(hierarchy.l1d)).address
    hierarchy.l2.remove(address)
    assert not hierarchy.check_inclusion()


def test_a_tag_array_pickles_as_shared_data_less_lines():
    l1 = _finished_simulator().engine.hierarchies[1].l1d
    pickled = l1.__getstate__()["_sets"]
    assert pickled and all(state is LineState.SHARED and data is None
                           for _address, state, data in pickled)
    assert [address for address, _s, _d in pickled] == \
        [line.address for line in l1]
    restored = load_bytes(snapshot_bytes(l1))
    assert type(restored) is TagArray
    assert restored._lines == l1._lines and restored._sets == l1._sets


def test_a_tag_array_evicts_and_touches_as_a_cache_does():
    config = SimulationConfig(num_tiles=2).memory.l1d
    tags = TagArray("l1d", config, StatGroup("t"))
    lines = Cache("l1d", config, StatGroup("c"))
    stride = config.num_sets * config.line_bytes  # one set
    for way in list(range(config.associativity + 3)) + [1, 0, 9]:
        address = way * stride
        victim = lines.insert(address, LineState.SHARED)
        assert tags.insert(address) == (victim and victim.address)
        tags.lookup(address - stride)
        lines.lookup(address - stride)
        assert tags._sets == lines._sets
    assert list(tags.stats.to_dict().values()) == \
        list(lines.stats.to_dict().values())


def test_an_mp_workers_l1_keeps_real_lines():
    config = SimulationConfig(num_tiles=2)
    config.validate()
    mirrored = MirroredL1(config.memory, StatGroup("m"))
    assert type(mirrored.l1d) is Cache and type(mirrored.l1i) is Cache
    data = bytearray(config.memory.l1d.line_bytes)
    mirrored.fill_l1d(CacheLine(0x80, LineState.MODIFIED, data))
    line = mirrored.peek(0x80)
    assert isinstance(line, CacheLine)
    assert line.state is LineState.MODIFIED and line.data is data

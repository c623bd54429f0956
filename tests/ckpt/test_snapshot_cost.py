"""What a snapshot costs, and what it leaves behind.

Two properties, both counted rather than timed:

* a snapshot pickles the state that is *live* — resident cache lines,
  directory entries, send-log values — not one container per cache set
  (``repro.ckpt/3``; ``/2`` spent 60 % of its time on 17,408 empty
  ``OrderedDict``s at 8 tiles);
* taking or restoring one leaves no instance ``__dict__`` behind on
  the hot-path model classes, which keep their fields in ``__slots__``
  (a materialised ``__dict__`` de-optimises every later attribute read
  on CPython 3.11/3.12).
"""

from __future__ import annotations

import collections
import gc
import multiprocessing
import os
import pickle
import pickletools

import pytest

from repro.ckpt.recovery import load_checkpoint
from repro.ckpt.snapshot import load_bytes, snapshot_bytes
from repro.ckpt.store import CheckpointStore
from repro.common.config import CacheConfig, HostConfig, SimulationConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.core.branch import BranchPredictor
from repro.distrib.wire import WorkloadRef
from repro.host.cluster import ClusterLayout
from repro.memory.cache import Cache, LineState
from repro.sim.runner import create_simulator, run_simulation
from repro.transport.message import Message, MessageKind
from repro.transport.transport import Transport
from tests.profile.test_instrument import table_targets

TILES = 4
PROGRAM = WorkloadRef("fft", TILES, 0.5)


def _config(tmp_path, backend: str = "inproc") -> SimulationConfig:
    config = SimulationConfig(num_tiles=TILES, seed=7)
    config.distrib.backend = backend
    config.host.num_machines = 2
    config.ckpt.dir = str(tmp_path / "ckpt")
    config.ckpt.every = 15
    config.ckpt.keep = 99
    return config


def _opcodes(blob: bytes) -> collections.Counter:
    return collections.Counter(
        op.name for op, _arg, _pos in pickletools.genops(blob))


# -- (a) the gain as a count --------------------------------------------------


def test_objects_pickled_scale_with_live_state_not_geometry(tmp_path):
    config = _config(tmp_path)
    simulator = create_simulator(config)
    simulator.run(PROGRAM)
    store = CheckpointStore(config.ckpt.dir)
    names = store.list()
    assert len(names) >= 3
    sets = sum(level.num_sets * TILES for level in
               (config.memory.l1i, config.memory.l1d, config.memory.l2))
    for name in names:  # early (nearly empty caches) to late (warm)
        blob = store.read(name)[1]["coordinator"]
        restored = load_bytes(blob)
        engine = restored.engine
        live = (
            sum(cache.resident_lines for hierarchy in engine.hierarchies
                for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2))
            + sum(len(d.entries) for d in engine.directories)
            + sum(len(interpreter._ckpt_log or ())
                  for interpreter in restored.interpreters.values()))
        counts = _opcodes(blob)
        # Measured: 0.7-0.85 objects per live item (a line is a tuple
        # and, in the L2, its bytes; most send-log values are None) on
        # top of the 1,481 of the freshly built graph.  One container
        # per cache set is +``sets`` (8,704 here): it cannot fit.
        bound = live + 1600
        assert counts["MEMOIZE"] <= bound, (name, counts["MEMOIZE"], live)
        assert counts["MEMOIZE"] + sets > bound, "bound too loose to bite"
        # ``/2``: one REDUCE per OrderedDict, 8,700+ here.  What is left
        # is the RNG streams, the deques and the first use of each enum.
        assert counts["REDUCE"] <= 100, (name, counts["REDUCE"])


def _logged_repeats(ckpt_dir) -> int:
    """Repeated ``bytes`` entries in the logs of every snapshot under
    ``ckpt_dir``, asserting that equal entries are one object."""
    store = CheckpointStore(str(ckpt_dir))
    repeats = 0
    for name in store.list():
        restored = load_bytes(store.read(name)[1]["coordinator"])
        for interpreter in restored.interpreters.values():
            values = [value for value in interpreter._ckpt_log or ()
                      if type(value) is bytes]
            assert len({id(value) for value in values}) == len(set(values))
            repeats += len(values) - len(set(values))
    return repeats


def test_a_restored_send_log_holds_each_value_once(tmp_path):
    """A load result is logged once per load but takes few values, so
    the log keeps one object per distinct value and a snapshot writes
    each repeat as a memo reference; a restore keeps the sharing, and
    a resumed run's later entries share the restored ones' objects."""
    config = _config(tmp_path)
    create_simulator(config).run(PROGRAM)
    assert _logged_repeats(config.ckpt.dir) > 1000  # something to share
    first = CheckpointStore(config.ckpt.dir).list()[0]
    resumed = _config(tmp_path / "resumed")
    simulator, _manifest = load_checkpoint(config.ckpt.dir, first,
                                           config=resumed)
    simulator.resume_run()
    assert _logged_repeats(resumed.ckpt.dir) > 1000


def test_a_fresh_snapshot_does_not_grow_with_the_number_of_sets(tmp_path):
    counts = []
    for factor in (1, 4):
        config = _config(tmp_path)
        for level in (config.memory.l1i, config.memory.l1d,
                      config.memory.l2):
            level.size_bytes *= factor
        counts.append(_opcodes(snapshot_bytes(create_simulator(config))))
    assert counts[0]["MEMOIZE"] == counts[1]["MEMOIZE"]
    assert counts[0]["REDUCE"] == counts[1]["REDUCE"]


# -- (b)-(d) what the flat form must preserve ---------------------------------


def _small_cache() -> Cache:
    # 2 sets x 4 ways of 64-byte lines.
    return Cache("l2", CacheConfig(size_bytes=512, associativity=4),
                 StatGroup("l2"))


def test_eviction_order_survives_a_round_trip():
    cache = _small_cache()
    set0 = [way * 128 for way in range(4)]          # all map to set 0
    for address in set0:
        cache.insert(address, LineState.SHARED, bytearray(64))
    cache.lookup(set0[1])                           # LRU now 0, 2, 3, 1
    cache.insert(64, LineState.MODIFIED, bytearray(64))    # set 1
    restored = load_bytes(snapshot_bytes(cache))
    assert [line.address for line in restored] == \
        [line.address for line in cache] == [0, 256, 384, 128, 64]
    for fresh in range(4, 8):
        evicted = [c.insert(fresh * 128, LineState.SHARED, bytearray(64))
                   for c in (cache, restored)]
        assert evicted[0].address == evicted[1].address
        assert evicted[0].state is evicted[1].state
    assert cache.peek(64).state is restored.peek(64).state \
        is LineState.MODIFIED
    assert restored.stats.to_dict() == cache.stats.to_dict()


@pytest.mark.parametrize("lines", [0, 1, 3, 9, 40])
def test_a_restore_creates_no_more_sets_than_lines(lines):
    """``__setstate__`` makes a set entry only where a pickled line
    lands: k lines, <= k sets."""
    cache = Cache("l2", CacheConfig(size_bytes=64 * 1024, associativity=4),
                  StatGroup("l2"))                   # 256 sets
    for way in range(lines):      # 3 lines per set, 8 sets apart
        cache.insert(way // 3 * 8 * 64 + way % 3 * 256 * 64,
                     LineState.SHARED)
    restored = load_bytes(snapshot_bytes(cache))
    assert len(restored._sets) == -(-lines // 3) <= lines
    assert [line.address for line in restored] == \
        [line.address for line in cache]


#: The slots a ``Cache`` pickles, in order: ``repro.ckpt/4``'s shape,
#: with ``_sets`` the flat list of resident lines and no ``_lines``.
CACHE_STATE = ["name", "config", "tile", "_tele", "line_bytes",
               "associativity", "num_sets", "_line_shift", "_sets", "stats",
               "_lookups", "_hits", "_evictions", "_invalidations"]


def _warm_cache() -> Cache:
    cache = _small_cache()
    for address in (0, 128, 64, 256):
        cache.insert(address, LineState.SHARED, bytearray(64))
    return cache


def _parent_cache(cache: Cache) -> Cache:
    assert list(cache.__getstate__()) == CACHE_STATE
    return cache


def _use_cache(cache: Cache) -> list:
    victims = [cache.insert(way * 128, LineState.MODIFIED, bytearray(64))
               for way in range(1, 7)]
    cache.lookup(4 * 128)
    cache.remove(64)
    return [[victim and victim.address for victim in victims],
            [(line.address, line.state) for line in cache],
            sorted(cache._sets), cache.stats.to_dict()]


def _fresh_transport() -> Transport:
    return Transport(ClusterLayout(4, HostConfig(num_machines=2)))


def _parent_transport(transport: Transport) -> Transport:
    transport._queues = [{kind: collections.deque() for kind in MessageKind}
                         for _ in transport._queues]
    return transport


def _use_transport(transport: Transport) -> list:
    for tag, kind in enumerate(MessageKind):
        transport.send(Message(src=TileId(0), dst=TileId(1), kind=kind,
                               size_bytes=8, tag=tag, payload=tag))
    seen = [transport.pending(TileId(1), kind) for kind in MessageKind]
    seen.append(transport.poll_match(TileId(1), MessageKind.USER,
                                     tag=99))
    seen += [transport.poll(TileId(1), kind).payload for kind in MessageKind]
    seen += [transport.poll(TileId(2), MessageKind.USER),
             transport.total_pending(), transport.stats.to_dict()]
    return seen


def _fresh_predictor() -> BranchPredictor:
    return BranchPredictor(64, StatGroup("bp"))


def _parent_predictor(predictor: BranchPredictor) -> BranchPredictor:
    predictor._table = list(predictor._table)
    return predictor


def _use_predictor(predictor: BranchPredictor) -> list:
    return [predictor.predict_and_update(pc, taken)
            for pc in (0x100, 0x104, 0x140) for taken in
            (True, True, False, True, False, False, False, True)]


@pytest.mark.parametrize("make, as_parent, use", [
    (_warm_cache, _parent_cache, _use_cache),
    (_fresh_transport, _parent_transport, _use_transport),
    (_fresh_predictor, _parent_predictor, _use_predictor),
], ids=["cache", "transport", "predictor"])
def test_a_parent_shaped_state_restores_and_behaves_as_a_fresh_one(
        make, as_parent, use):
    """What the previous layout pickled still loads: a cache state with
    only the flat line list, a transport whose every tile holds one
    deque per kind, a predictor whose table is a list."""
    restored = load_bytes(snapshot_bytes(as_parent(make())))
    assert use(restored) == use(make())


def test_a_buffer_two_holders_share_is_one_buffer_after():
    shared = bytearray(b"\x2a" * 64)
    a, b = _small_cache(), _small_cache()
    a.insert(0, LineState.SHARED, shared)
    b.insert(0, LineState.SHARED, shared)
    clone = load_bytes(snapshot_bytes({"a": a, "b": b, "raw": shared}))
    assert clone["a"].peek(0).data is clone["b"].peek(0).data \
        is clone["raw"]
    assert clone["raw"] == shared and clone["raw"] is not shared


def _memory_state(simulator) -> list:
    engine = simulator.engine
    return [[(line.address, line.state, line.data) for line in cache]
            for hierarchy in engine.hierarchies
            for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)] + [
        [(line, entry.state, list(entry.sharers))
         for line, entry in directory.entries.items()]
        for directory in engine.directories]


def test_snapshot_load_snapshot_is_a_fixed_point(tmp_path):
    config = _config(tmp_path)
    create_simulator(config).run(PROGRAM)
    store = CheckpointStore(config.ckpt.dir)
    name = store.list()[1]
    live = store.read(name)[1]["coordinator"]
    # The live process's blob is a few hundred bytes *shorter*: names
    # its source interned ("sync" the stat group, "sync" the config
    # section) are one memoised object there and two after a load.
    # From the first restore on the bytes repeat exactly.
    once = snapshot_bytes(load_bytes(live))
    assert snapshot_bytes(load_bytes(once)) == once
    assert 0 <= len(once) - len(live) < 1024
    assert _memory_state(load_bytes(once)) == _memory_state(load_bytes(live))
    # The full restore path (re-armed stages, rebuilt generators) adds
    # nothing to the pickled state either.
    restored, _ = load_checkpoint(config.ckpt.dir, name=name)
    assert snapshot_bytes(restored) == once


# -- snapshots leave no trace -------------------------------------------------

#: Named in the issue: the per-op path.  Every one of them must turn up
#: in the walk, or the "no trace" assertions below are vacuous.
HOT_CLASSES = {
    "Simulator", "ThreadInterpreter", "ThreadContext", "CorePerfModel",
    "StoreBuffer", "LoadQueue", "BranchPredictor", "MemoryController",
    "CacheHierarchy", "Cache", "CacheLine", "DirectoryEntry",
    "FullMapDirectory", "DramController", "CoherenceEngine",
    "NetworkFabric", "MeshNetworkModel", "MagicNetworkModel", "Transport",
    "LaxModel", "Scheduler", "ScheduledThread", "StatGroup", "Counter",
    "HostCostModel", "AddressSpace", "ClusterLayout", "TileClock",
}


def _is_slotted(cls: type) -> bool:
    return all("__slots__" in vars(klass) for klass in cls.__mro__[:-1])


def _reachable_model_objects(root) -> list:
    """Every ``repro.*`` instance reachable from ``root`` through
    instances and plain containers (not through functions or modules)."""
    containers = (list, tuple, dict, set, frozenset, collections.deque)
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        bound_to = getattr(obj, "__self__", None)
        if bound_to is not None and callable(obj):
            stack.append(bound_to)  # e.g. a controller's charge hook
        elif type(obj).__module__.startswith("repro."):
            found.append(obj)
            stack.extend(gc.get_referents(obj))
        elif isinstance(obj, containers):
            stack.extend(gc.get_referents(obj))
    return found


def _assert_no_instance_dicts(root, expect: set) -> None:
    slotted = [obj for obj in _reachable_model_objects(root)
               if _is_slotted(type(obj))]
    missing = expect - {type(obj).__name__ for obj in slotted}
    assert not missing, f"not slotted or not reached: {sorted(missing)}"
    for obj in slotted:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_inproc_snapshots_and_restores_leave_no_instance_dict(tmp_path):
    config = _config(tmp_path)
    simulator = create_simulator(config)
    simulator.run(PROGRAM)     # took its snapshots on the way
    assert len(CheckpointStore(config.ckpt.dir).list()) >= 3
    _assert_no_instance_dicts(simulator, HOT_CLASSES)
    # Once more, directly: check *after* the snapshot.
    snapshot_bytes(simulator)
    _assert_no_instance_dicts(simulator, HOT_CLASSES)
    restored, _ = load_checkpoint(config.ckpt.dir)
    _assert_no_instance_dicts(restored, HOT_CLASSES)
    restored.resume_run()
    _assert_no_instance_dicts(restored, HOT_CLASSES)


def test_an_unpickled_mp_shard_has_no_instance_dict(tmp_path):
    config = _config(tmp_path, backend="mp")
    run_simulation(config, PROGRAM)
    store = CheckpointStore(config.ckpt.dir)
    _manifest, blobs = store.read(store.list()[1])
    shard = pickle.loads(blobs["shard0"])
    assert shard["interpreters"]
    _assert_no_instance_dicts(shard, {
        "KernelProxy", "ThreadInterpreter", "ThreadContext",
        "CorePerfModel", "StoreBuffer", "LoadQueue", "BranchPredictor",
        "MemoryController", "MirroredL1", "Cache", "StatGroup", "Counter",
        "AddressSpace", "TileClock"})
    coordinator = load_bytes(blobs["coordinator"])
    _assert_no_instance_dicts(
        coordinator,
        (HOT_CLASSES | {"DistribSimulator", "RemoteTask", "ShardTransport"})
        - {"Simulator", "ThreadInterpreter", "ThreadContext",
           "CorePerfModel", "StoreBuffer", "LoadQueue", "BranchPredictor",
           "Transport", "TileClock"})


def _exit_unless_originals(originals: dict) -> None:
    os._exit(0 if table_targets() == originals else 1)


@pytest.mark.parametrize("backend", ["inproc", "mp"])
def test_profiling_rebinds_on_the_class_for_the_run_only(backend, tmp_path):
    """``repro.profile`` times *class* attributes and only while a run
    lasts: the slotted classes need no ``__dict__`` for it, a snapshot
    pickles none of it, and a process forked mid-run starts without."""
    from repro.profile.instrument import installed
    from repro.profile.timers import HostProfiler

    originals = table_targets()
    config = _config(tmp_path, backend)
    config.profile.enabled = True
    simulator = create_simulator(config)
    simulator.run(PROGRAM)
    restored, _ = load_checkpoint(
        config.ckpt.dir, name=CheckpointStore(config.ckpt.dir).list()[0])
    restored.resume_run()
    assert table_targets() == originals
    for sim in (simulator, restored):
        subsystems = sim.host_profile["subsystems"]
        scopes = ["scheduler.quantum", "memory.coherence", "memory.dram",
                  "network.fabric", "sync.model"]
        scopes += (["frontend.interpret", "core.model", "memory.controller"]
                   if backend == "inproc" else
                   ["mp.quantum_service", "mp.wire.encode", "mp.wire.send",
                    "mp.wire.decode", "mp.idle.wait"])
        for scope in scopes:
            assert subsystems[scope]["calls"] > 0, scope
        if backend == "inproc":
            _assert_no_instance_dicts(sim, HOT_CLASSES)

    with installed(HostProfiler(), backend):
        assert table_targets() != originals
        child = multiprocessing.get_context("fork").Process(
            target=_exit_unless_originals, args=(originals,))
        child.start()
        child.join(30)
        assert child.exitcode == 0
    assert table_targets() == originals

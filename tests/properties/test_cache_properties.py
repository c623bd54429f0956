"""Property-based tests of the cache (hypothesis)."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig
from repro.common.stats import StatGroup
from repro.memory.cache import Cache, CacheLine, LineState


def make_cache(size=2048, line=64, ways=2):
    return Cache("prop", CacheConfig(size_bytes=size, line_bytes=line,
                                     associativity=ways),
                 StatGroup("c"))


line_addresses = st.integers(min_value=0, max_value=255).map(
    lambda i: i * 64)
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "lookup", "remove"]),
              line_addresses),
    min_size=1, max_size=300)


@settings(max_examples=60, deadline=None)
@given(operations)
def test_capacity_never_exceeded(ops):
    """Residency can never exceed sets * ways, whatever the workload."""
    cache = make_cache()
    capacity = cache.num_sets * cache.associativity
    for op, address in ops:
        if op == "insert":
            cache.insert(address, LineState.SHARED)
        elif op == "lookup":
            cache.lookup(address)
        else:
            cache.remove(address)
        assert cache.resident_lines <= capacity


@settings(max_examples=60, deadline=None)
@given(operations)
def test_no_duplicate_lines(ops):
    """The same line address is never resident twice."""
    cache = make_cache()
    for op, address in ops:
        if op == "insert":
            cache.insert(address, LineState.SHARED)
        elif op == "remove":
            cache.remove(address)
        addresses = [line.address for line in cache]
        assert len(addresses) == len(set(addresses))


@settings(max_examples=60, deadline=None)
@given(operations)
def test_model_matches_reference_presence(ops):
    """Cache presence agrees with an LRU reference model."""
    cache = make_cache(size=512, line=64, ways=2)  # 4 sets
    reference = {}  # set index -> list of addresses, LRU first

    def set_of(address):
        return (address // 64) % cache.num_sets

    for op, address in ops:
        index = set_of(address)
        entries = reference.setdefault(index, [])
        if op == "insert":
            cache.insert(address, LineState.SHARED)
            if address in entries:
                entries.remove(address)
            elif len(entries) >= 2:
                entries.pop(0)
            entries.append(address)
        elif op == "lookup":
            hit = cache.lookup(address) is not None
            assert hit == (address in entries)
            if address in entries:
                entries.remove(address)
                entries.append(address)
        else:
            cache.remove(address)
            if address in entries:
                entries.remove(address)

    for index, entries in reference.items():
        for address in entries:
            assert cache.peek(address) is not None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(line_addresses,
                          st.binary(min_size=64, max_size=64)),
                min_size=1, max_size=100))
def test_data_integrity(writes):
    """The last data inserted for a resident line is what we read."""
    cache = make_cache(size=16 * 1024, line=64, ways=8)
    latest = {}
    for address, data in writes:
        cache.insert(address, LineState.MODIFIED, bytearray(data))
        latest[address] = data
    for line in cache:
        assert bytes(line.data) == latest[line.address]


class EagerCache:
    """The reference: one ``OrderedDict`` per set, all built up front."""

    def __init__(self, num_sets, ways):
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.ways = ways
        self.counts = dict.fromkeys(
            ("lookups", "hits", "evictions", "invalidations"), 0)

    def _set(self, address):
        return self.sets[(address // 64) % len(self.sets)]

    def lookup(self, address, touch, count):
        cache_set = self._set(address)
        line = cache_set.get(address)
        if count:
            self.counts["lookups"] += 1
            self.counts["hits"] += line is not None
        if line is not None and touch:
            cache_set.move_to_end(address)
        return line

    def peek(self, address):
        return self._set(address).get(address)

    def insert(self, address, state):
        cache_set = self._set(address)
        if address in cache_set:
            cache_set[address].state = state
            cache_set.move_to_end(address)
            return None
        victim = None
        if len(cache_set) >= self.ways:
            victim = cache_set.popitem(last=False)[1]
            self.counts["evictions"] += 1
        cache_set[address] = CacheLine(address, state, None)
        return victim

    def remove(self, address):
        line = self._set(address).pop(address, None)
        self.counts["invalidations"] += line is not None
        return line


def _seen(line):
    return None if line is None else (line.address, line.state)


#: Eight lines per set of a 4-set cache, so sets fill and evict.
few_lines = st.integers(min_value=0, max_value=31).map(lambda i: i * 64)
lazy_operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), few_lines,
                  st.sampled_from(list(LineState))),
        st.tuples(st.just("lookup"), few_lines, st.booleans(), st.booleans()),
        st.tuples(st.sampled_from(["peek", "remove"]), few_lines)),
    min_size=1, max_size=200)


@settings(max_examples=100, deadline=None)
@given(lazy_operations)
def test_sets_made_on_first_touch_behave_as_eager_ones(ops):
    """Return values, victims, iteration order, the four counters and
    the pickled flat line list of a cache that holds only its resident
    lines equal those of one with an ``OrderedDict`` built up front for
    every set, and a set has an entry exactly while a line is in it."""
    cache = make_cache(size=512, line=64, ways=2)  # 4 sets x 2 ways
    reference = EagerCache(cache.num_sets, cache.associativity)
    for op, address, *args in ops:
        got = getattr(cache, op)(address, *args)
        assert _seen(got) == _seen(getattr(reference, op)(address, *args))
        assert [_seen(line) for line in cache] == [
            _seen(line) for cache_set in reference.sets
            for line in cache_set.values()]
        # A probe makes no set entry and an emptied set leaves none.
        assert set(cache._sets) == {
            index for index, cache_set in enumerate(reference.sets)
            if cache_set}
    assert {name: cache.stats.counter(name).value
            for name in reference.counts} == reference.counts
    assert cache.__getstate__()["_sets"] == [
        (line.address, line.state, line.data)
        for cache_set in reference.sets for line in cache_set.values()]

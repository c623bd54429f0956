"""A set-associative cache with LRU replacement.

Used for the L1 instruction, L1 data, and L2 caches (Table 1).  The L2
is the coherence point and stores real line data; the in-process L1s are
timing-only tag arrays (:class:`TagArray`) kept inclusive with the L2.
Geometry and policy come from :class:`repro.common.config.CacheConfig`.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.common import restore_slots, slot_state
from repro.common.config import CacheConfig
from repro.common.stats import StatGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Channel

class LineState(enum.Enum):
    """Coherence state of a cached line (absence is Invalid).

    MSI uses SHARED and MODIFIED; the MESI variant adds EXCLUSIVE —
    a clean line held by exactly one cache, which may be written
    without a directory round trip.
    """

    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"


#: Enum member as a global: a class attribute lookup costs ~0.2 us.
_SHARED = LineState.SHARED


class CacheLine:
    """One resident cache line."""

    __slots__ = ("address", "state", "data")

    def __init__(self, address: int, state: LineState,
                 data: Optional[bytearray]) -> None:
        self.address = address
        self.state = state
        self.data = data

    @property
    def dirty(self) -> bool:
        return self.state is LineState.MODIFIED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CacheLine({self.address:#x}, {self.state.value})"


class Cache:
    """Set-associative LRU cache keyed by line-aligned addresses."""

    __slots__ = ("name", "config", "tile", "_tele", "line_bytes",
                 "associativity", "num_sets", "_line_shift", "_lines", "_sets",
                 "stats", "_lookups", "_hits", "_evictions", "_invalidations")

    def __init__(self, name: str, config: CacheConfig,
                 stats: StatGroup, tile: Optional[int] = None,
                 telemetry: Optional["Channel"] = None) -> None:
        config.validate(name)
        self.name = name
        self.config = config
        self.tile = tile
        #: CACHE-category telemetry channel, or ``None`` (the default:
        #: only the L2 — the coherence point — is given a channel).
        self._tele = telemetry
        self.line_bytes = config.line_bytes
        self.associativity = config.associativity
        self.num_sets = config.num_sets
        self._line_shift = config.line_bytes.bit_length() - 1
        # The cache holds what is resident: every line in one dict, and
        # per *occupied* set its addresses, least recently used first.
        # An untouched set has no entry.
        self._lines: Dict[int, CacheLine] = {}
        self._sets: Dict[int, List[int]] = {}
        self.stats = stats
        self._lookups = stats.counter("lookups")
        self._hits = stats.counter("hits")
        self._evictions = stats.counter("evictions")
        self._invalidations = stats.counter("invalidations")

    def __getstate__(self) -> dict:
        """Scalars plus the resident lines, one flat list of ``(address,
        state, data)`` in set then LRU order.  ``data`` is not copied."""
        state = slot_state(self)
        del state["_lines"]
        state["_sets"] = [(line.address, line.state, line.data)
                          for line in self]
        return state

    def __setstate__(self, state: dict) -> None:
        restore_slots(self, state)
        lines = self._sets  # as pickled: the flat list
        self._lines, self._sets = {}, {}
        for line in lines:  # LRU order in, so the same eviction order
            self._lines[line[0]] = CacheLine(*line)
            self._sets.setdefault((line[0] >> self._line_shift)
                                  % self.num_sets, []).append(line[0])

    # -- operations -----------------------------------------------------------

    def lookup(self, line_address: int, touch: bool = True,
               count: bool = True) -> Optional[CacheLine]:
        """Find a resident line; ``touch`` refreshes its LRU position.

        ``count=False`` makes the probe invisible to hit/miss statistics
        (used by coherence-side probes that are not program accesses).
        """
        line = self._lines.get(line_address)
        if count:
            self._lookups.value += 1
            if line is not None:
                self._hits.value += 1
        if line is not None and touch:
            # The set index inlined: lookup dominates the memory system's
            # host cost.  A touch of the most recent line (the fetch
            # ring, sequential data) moves nothing.
            lru = self._sets[(line_address >> self._line_shift)
                             % self.num_sets]
            if lru[-1] != line_address:
                lru.remove(line_address)
                lru.append(line_address)
        return line

    def insert(self, line_address: int, state: LineState,
               data: Optional[bytearray] = None,
               timestamp: int = 0) -> Optional[CacheLine]:
        """Install a line; returns the evicted victim, if any.

        Inserting an already-resident address updates it in place and
        evicts nothing.  ``timestamp`` (target cycles) is only consumed
        by telemetry.
        """
        existing = self._lines.get(line_address)
        evicted = self._place(line_address, existing is not None)
        if existing is not None:
            existing.state = state
            if data is not None:
                existing.data = data
            return None
        victim = None if evicted is None else self._lines.pop(evicted)
        self._lines[line_address] = CacheLine(line_address, state, data)
        if self._tele is not None:
            self._tele.emit("fill", self.tile, timestamp,
                            {"line": line_address, "state": state.value})
            if victim is not None:
                self._tele.emit("evict", self.tile, timestamp,
                                {"line": victim.address,
                                 "dirty": victim.dirty})
        return victim

    def _place(self, line_address: int, resident: bool) -> Optional[int]:
        """Make ``line_address`` its set's most recent address; a new
        one joins its set, first evicting the least recent when the set
        is full.  Returns the evicted address; ``_lines`` is the
        caller's to update."""
        index = (line_address >> self._line_shift) % self.num_sets
        lru = self._sets.get(index)
        if resident:
            if lru[-1] != line_address:
                lru.remove(line_address)
                lru.append(line_address)
            return None
        evicted = None
        if lru is None:
            lru = self._sets[index] = []
        elif len(lru) >= self.associativity:
            evicted = lru.pop(0)
            self._evictions.value += 1
        lru.append(line_address)
        return evicted

    def remove(self, line_address: int,
               timestamp: int = 0) -> Optional[CacheLine]:
        """Invalidate a line (coherence); returns it if it was resident."""
        line = self._lines.pop(line_address, None)
        if line is not None:
            index = (line_address >> self._line_shift) % self.num_sets
            lru = self._sets[index]
            lru.remove(line_address)
            if not lru:
                del self._sets[index]
            self._invalidations.value += 1
            if self._tele is not None:
                self._tele.emit("invalidate", self.tile, timestamp,
                                {"line": line_address,
                                 "state": line.state.value})
        return line

    def peek(self, line_address: int) -> Optional[CacheLine]:
        """Lookup without LRU update or statistics."""
        return self._lines.get(line_address)

    # -- introspection -------------------------------------------------------

    @property
    def resident_lines(self) -> int:
        return len(self._lines)

    @property
    def hit_rate(self) -> float:
        n = self._lookups.value
        return self._hits.value / n if n else 0.0

    def __iter__(self):
        """Iterate over all resident lines (tests, invariant checks)."""
        for index in sorted(self._sets):
            for address in self._sets[index]:
                yield self._lines[address]


class TagArray(Cache):
    """A timing-only cache: every resident line is SHARED and carries no
    data, so a tag is its address alone (``insert`` ignores ``state``
    and ``data``).  ``_lines`` maps each resident address to itself and
    no :class:`CacheLine` is kept per tag: a probe's answer is
    ``lookup(address) is not None``, and ``insert``, ``remove`` and
    ``peek`` return addresses.  Iteration and the pickled state still
    show ``(address, SHARED, None)`` lines, as a :class:`Cache` of such
    lines would."""

    __slots__ = ()

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._lines = {address: address for address in self._lines}

    def insert(self, line_address: int, state: LineState = _SHARED,
               data: Optional[bytearray] = None,
               timestamp: int = 0) -> Optional[int]:
        """Install a tag; returns the evicted tag's address, if any."""
        evicted = self._place(line_address, line_address in self._lines)
        if evicted is not None:
            del self._lines[evicted]
        self._lines[line_address] = line_address
        return evicted

    def __iter__(self):
        for address in super().__iter__():
            yield CacheLine(address, _SHARED, None)

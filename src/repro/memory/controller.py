"""Per-tile memory controller — the "MMU" of Figure 2b.

The front-end redirects every application memory reference here.  The
controller is the boundary between the interpreter and the memory
system: it validates addresses, splits accesses that straddle cache
lines, models the L1s (timing-only tag arrays), delegates line
ownership to the coherence engine, moves the actual bytes, and charges
the host cost of each model invocation.

It runs where the tile's thread runs: in an mp worker ``engine`` is a
stand-in whose ``read_access`` / ``write_access`` / ``fetch_access`` are
the only calls to leave the process, and the L1s a ``MirroredL1``.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.common import restore_slots, slot_state
from repro.common.errors import ProtocolError
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.memory.cache import LineState
from repro.memory.coherence import CoherenceEngine

#: Enum members as globals: a class attribute lookup costs ~0.2 us.
_MODIFIED = LineState.MODIFIED

#: The slots :meth:`MemoryController.__setstate__` derives, not pickled.
_DERIVED = ("charge_log", "_l1i", "_l1d", "_data")


class _Readers(dict):
    """``_READERS[n](buffer, offset)[0]`` is ``bytes(buffer[offset:
    offset + n])`` in one C call, not a slice and a conversion (~300
    against ~85 ns on an 8-byte load hit, the commonest op there is)."""

    def __missing__(self, size: int):
        reader = self[size] = struct.Struct(f"{size}s").unpack_from
        return reader


_READERS = _Readers()


class MemoryController:
    """One tile's entry point into the memory system."""

    __slots__ = ("tile", "engine", "space", "hierarchy", "line_bytes",
                 "_line_mask", "_limit", "_forward_store", "_loads",
                 "_stores", "_fetches", "_l1d_latency", "_l1i_latency",
                 *_DERIVED)

    def __init__(self, tile: TileId, engine: CoherenceEngine,
                 charge_log: Optional[List[int]],
                 stats: StatGroup) -> None:
        self.tile = tile
        self.engine = engine
        self.space = engine.space
        self.hierarchy = engine.hierarchies[int(tile)]
        self.line_bytes = engine.line_bytes
        self._line_mask = -engine.line_bytes  # a power of two
        self._limit = self.space.KERNEL_BASE  # no access may pass it
        #: Host charges: each memory-model access appends the code 0
        #: here (:meth:`repro.host.costmodel.HostCostModel.
        #: charge_events`); ``None`` logs nothing (fast-forward).  The
        #: interpreter points it at the log of each quantum it runs.
        self.charge_log = charge_log
        #: With the L2 a process away (mp) a store wrote a copy, and is
        #: forwarded to the real line; ``None`` where it wrote that.
        self._forward_store = engine.forward_store
        self._loads = stats.counter("loads")
        self._stores = stats.counter("stores")
        self._fetches = stats.counter("fetches")
        l1d = engine.config.l1d
        l1i = engine.config.l1i
        self._l1d_latency = l1d.access_latency if l1d.enabled else 0
        self._l1i_latency = l1i.access_latency if l1i.enabled else 0
        self._derive()

    def _derive(self) -> None:
        """The caches :meth:`hit` reads: both L1s, and the cache whose
        line holds an L1D hit's bytes and state — the L2 beside an
        in-process L1, the mirrored L1D itself in an mp worker."""
        hierarchy = self.hierarchy
        self._l1i, self._l1d = hierarchy.l1i, hierarchy.l1d
        self._data = (hierarchy.l1d if hierarchy.l2 is hierarchy
                      else hierarchy.l2)

    def __getstate__(self) -> tuple:
        state = slot_state(self)
        for name in _DERIVED:
            del state[name]
        return None, state

    def __setstate__(self, state: tuple) -> None:
        restore_slots(self, state)
        self.charge_log = None
        self._derive()

    def _charge(self) -> None:
        """Log one memory-model access (code 0) for the host's cost."""
        if self.charge_log is not None:
            self.charge_log.append(0)

    @property
    def hit_latency(self) -> int:
        """Latency of an L1D hit, as :meth:`load` and :meth:`store`
        return it."""
        return self._l1d_latency

    # -- the hit path ------------------------------------------------------------

    def hit(self, pc: Optional[int], address: Optional[int], size: int,
            data: Optional[bytes]) -> Optional[bytes]:
        """What :meth:`fetch` at ``pc`` (``None``: no fetch modelled, so
        no L1I) and then :meth:`load` of ``size`` bytes at ``address``
        (``None``: no data access) or, with ``data``, :meth:`store` do
        when every access hits its L1 — counters, LRU touches, bytes,
        the classifier's note, mp's forward — bar the host charges,
        which the caller logs.  Returns the bytes loaded (``b""`` if
        none), or ``None`` having touched nothing when an access would
        miss or straddle a line; the slow path then does it all.  An
        L1D line passed ``check_access`` on its way in, so an access
        within it needs no check.  The probes are :meth:`Cache.lookup`
        inlined."""
        mask = self._line_mask
        if pc is not None:
            pc &= mask
            l1i = self._l1i
            if pc not in l1i._lines:
                return None
        if address is not None:
            line_address = address & mask
            offset = address - line_address
            l1d = self._l1d
            if (not 0 < size <= self.line_bytes - offset or l1d is None
                    or line_address not in l1d._lines):
                return None
            line = self._data._lines.get(line_address)
            if line is None or (data is not None
                                and line.state is not _MODIFIED):
                return None
        if pc is not None:
            self._fetches.value += 1
            l1i._lookups.value += 1
            l1i._hits.value += 1
            lru = l1i._sets[(pc >> l1i._line_shift) % l1i.num_sets]
            if lru[-1] != pc:
                lru.remove(pc)
                lru.append(pc)
        if address is None:
            return b""
        l1d._lookups.value += 1
        l1d._hits.value += 1
        lru = l1d._sets[(line_address >> l1d._line_shift) % l1d.num_sets]
        if lru[-1] != line_address:
            lru.remove(line_address)
            lru.append(line_address)
        if data is None:
            self._loads.value += 1
            return _READERS[size](line.data, offset)[0]
        self._stores.value += 1
        line.data[offset:offset + size] = data
        if self.engine.classifier is not None:
            self.engine.classifier.note_store(self.tile, address, size)
        if self._forward_store is not None:
            self._forward_store(self.tile, address, data)
        return b""

    # -- splitting ---------------------------------------------------------------

    def _split(self, address: int, size: int) -> List[Tuple[int, int, int]]:
        """Break [address, address+size) into per-line (addr, off, n)."""
        pieces: List[Tuple[int, int, int]] = []
        remaining = size
        cursor = address
        while remaining > 0:
            line = self.space.line_of(cursor)
            offset = cursor - line
            chunk = min(self.line_bytes - offset, remaining)
            pieces.append((cursor, offset, chunk))
            cursor += chunk
            remaining -= chunk
        return pieces

    # -- data accesses ---------------------------------------------------------------

    def load(self, address: int, size: int, timestamp: int
             ) -> Tuple[bytes, int]:
        """Read target memory; returns (bytes, modelled latency)."""
        if size <= 0 or address < 0 or address + size > self._limit:
            self.space.check_access(address, size)  # raises
        self._loads.value += 1
        line_address = address & self._line_mask
        offset = address - line_address
        if offset + size <= self.line_bytes:
            # Fast path: the overwhelmingly common single-line access
            # skips the split loop and the result buffer.  Same probes,
            # same counters, same state transitions as the loop below.
            self._charge()
            hierarchy = self.hierarchy
            l1d = hierarchy.l1d
            if l1d is not None and l1d.lookup(line_address) is not None:
                line = hierarchy.l2.peek(line_address)
                if line is None:
                    raise ProtocolError(
                        f"L1 holds {line_address:#x} but L2 does not "
                        f"(tile {int(self.tile)})")
                latency = self._l1d_latency
            else:
                line, miss_latency = self.engine.read_access(
                    self.tile, address, size, timestamp)
                hierarchy.fill_l1d(line)
                latency = self._l1d_latency + miss_latency
            assert line.data is not None
            return bytes(line.data[offset:offset + size]), latency
        out = bytearray()
        latency = 0
        for piece_address, offset, chunk in self._split(address, size):
            self._charge()
            line_address = piece_address - offset
            if self.hierarchy.l1d_hit(line_address):
                line = self.hierarchy.l2.peek(line_address)
                if line is None:
                    raise ProtocolError(
                        f"L1 holds {line_address:#x} but L2 does not "
                        f"(tile {int(self.tile)})")
                piece_latency = self._l1d_latency
            else:
                line, miss_latency = self.engine.read_access(
                    self.tile, piece_address, chunk, timestamp + latency)
                self.hierarchy.fill_l1d(line)
                piece_latency = self._l1d_latency + miss_latency
            assert line.data is not None
            out += line.data[offset:offset + chunk]
            latency += piece_latency
        return bytes(out), latency

    def store(self, address: int, data: bytes, timestamp: int) -> int:
        """Write target memory; returns the modelled latency."""
        size = len(data)
        if size <= 0 or address < 0 or address + size > self._limit:
            self.space.check_access(address, size)  # raises
        self._stores.value += 1
        line_address = address & self._line_mask
        offset = address - line_address
        if offset + size <= self.line_bytes:
            # Fast path mirroring :meth:`load`'s single-line case.
            self._charge()
            hierarchy = self.hierarchy
            resident = hierarchy.l2.peek(line_address)
            l1d = hierarchy.l1d
            if (l1d is not None and l1d.lookup(line_address) is not None
                    and resident is not None
                    and resident.state is _MODIFIED):
                line = resident
                latency = self._l1d_latency
            else:
                line, miss_latency = self.engine.write_access(
                    self.tile, address, size, timestamp)
                hierarchy.fill_l1d(line)
                latency = self._l1d_latency + miss_latency
            assert line.data is not None
            line.data[offset:offset + size] = data
            if self.engine.classifier is not None:
                self.engine.classifier.note_store(self.tile, address,
                                                  size)
            if self._forward_store is not None:
                self._forward_store(self.tile, address, data)
            return latency
        latency = 0
        consumed = 0
        for piece_address, offset, chunk in self._split(address, size):
            self._charge()
            line_address = piece_address - offset
            resident = self.hierarchy.l2.peek(line_address)
            if (self.hierarchy.l1d_hit(line_address) and resident is not None
                    and resident.state is _MODIFIED):
                line = resident
                piece_latency = self._l1d_latency
            else:
                line, miss_latency = self.engine.write_access(
                    self.tile, piece_address, chunk, timestamp + latency)
                self.hierarchy.fill_l1d(line)
                piece_latency = self._l1d_latency + miss_latency
            assert line.data is not None
            line.data[offset:offset + chunk] = \
                data[consumed:consumed + chunk]
            if self.engine.classifier is not None:
                self.engine.classifier.note_store(
                    self.tile, piece_address, chunk)
            if self._forward_store is not None:
                self._forward_store(self.tile, piece_address,
                                    data[consumed:consumed + chunk])
            consumed += chunk
            latency += piece_latency
        return latency

    def fetch(self, pc: int, timestamp: int) -> int:
        """Model an instruction fetch at ``pc``; returns the latency.

        Code lines are read-shared and flow through the same coherence
        path as data (they are simply never written).
        """
        self._fetches.value += 1
        self._charge()
        line_address = pc & self._line_mask
        l1i = self.hierarchy.l1i
        if l1i is not None and l1i.lookup(line_address) is not None:
            return self._l1i_latency
        miss_latency = self.engine.fetch_access(self.tile, pc, timestamp)
        self.hierarchy.fill_l1i(line_address)
        return self._l1i_latency + miss_latency

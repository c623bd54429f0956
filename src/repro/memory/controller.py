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

from typing import Callable, List, Tuple

from repro.common.errors import ProtocolError
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.memory.cache import LineState
from repro.memory.coherence import CoherenceEngine

#: Enum members as globals: a class attribute lookup costs ~0.2 us.
_MODIFIED = LineState.MODIFIED

#: Charges the host cost of one memory-model access — nothing under
#: fast-forward (:mod:`repro.sample`): the host cost model's charger, or
#: in an mp worker the cast of its token.
ChargeFn = Callable[[], None]


class MemoryController:
    """One tile's entry point into the memory system."""

    __slots__ = ("tile", "engine", "space", "hierarchy", "line_bytes",
                 "_line_mask", "_limit", "_charge_host", "_forward_store",
                 "_loads", "_stores", "_fetches", "_l1d_latency",
                 "_l1i_latency")

    def __init__(self, tile: TileId, engine: CoherenceEngine,
                 charge_memory_access: ChargeFn,
                 stats: StatGroup) -> None:
        self.tile = tile
        self.engine = engine
        self.space = engine.space
        self.hierarchy = engine.hierarchies[int(tile)]
        self.line_bytes = engine.line_bytes
        self._line_mask = -engine.line_bytes  # a power of two
        self._limit = self.space.KERNEL_BASE  # no access may pass it
        self._charge_host = charge_memory_access
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
            self._charge_host()
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
            self._charge_host()
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
            self._charge_host()
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
            self._charge_host()
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
        self._charge_host()
        line_address = pc & self._line_mask
        l1i = self.hierarchy.l1i
        if l1i is not None and l1i.lookup(line_address) is not None:
            return self._l1i_latency
        miss_latency = self.engine.fetch_access(self.tile, pc, timestamp)
        self.hierarchy.fill_l1i(line_address)
        return self._l1i_latency + miss_latency

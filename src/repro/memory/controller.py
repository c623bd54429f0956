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

#: Charges the host cost of one memory-model access (wired through the
#: scheduler and host cost model by the simulator).
ChargeFn = Callable[[], None]


class MemoryController:
    """One tile's entry point into the memory system."""

    __slots__ = ("tile", "engine", "space", "hierarchy", "line_bytes",
                 "_charge_fn", "_forward_store", "_loads", "_stores",
                 "_fetches", "_l1d_latency", "_l1i_latency")

    def __init__(self, tile: TileId, engine: CoherenceEngine,
                 charge_memory_access: ChargeFn,
                 stats: StatGroup) -> None:
        self.tile = tile
        self.engine = engine
        self.space = engine.space
        self.hierarchy = engine.hierarchies[int(tile)]
        self.line_bytes = engine.line_bytes
        self._charge_fn = charge_memory_access
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

    def _charge(self) -> None:
        # Host-cost accounting is timing bookkeeping; fast-forward
        # (:mod:`repro.sample`) skips it along with the rest of the
        # memory timing model.
        if not self.engine.functional:
            self._charge_fn()

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
        self.space.check_access(address, size)
        self._loads.add()
        line_address = self.space.line_of(address)
        offset = address - line_address
        if offset + size <= self.line_bytes:
            # Fast path: the overwhelmingly common single-line access
            # skips the split loop and the result buffer.  Same probes,
            # same counters, same state transitions as the loop below.
            self._charge()
            if self.hierarchy.l1d_hit(line_address):
                line = self.hierarchy.l2.peek(line_address)
                if line is None:
                    raise ProtocolError(
                        f"L1 holds {line_address:#x} but L2 does not "
                        f"(tile {int(self.tile)})")
                latency = self._l1d_latency
            else:
                line, miss_latency = self.engine.read_access(
                    self.tile, address, size, timestamp)
                self.hierarchy.fill_l1d(line)
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
        self.space.check_access(address, size)
        self._stores.add()
        line_address = self.space.line_of(address)
        offset = address - line_address
        if offset + size <= self.line_bytes:
            # Fast path mirroring :meth:`load`'s single-line case.
            self._charge()
            resident = self.hierarchy.l2.peek(line_address)
            if (self.hierarchy.l1d_hit(line_address)
                    and resident is not None
                    and resident.state is LineState.MODIFIED):
                line = resident
                latency = self._l1d_latency
            else:
                line, miss_latency = self.engine.write_access(
                    self.tile, address, size, timestamp)
                self.hierarchy.fill_l1d(line)
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
                    and resident.state is LineState.MODIFIED):
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
        self._fetches.add()
        self._charge()
        line_address = self.space.line_of(pc)
        if self.hierarchy.l1i_hit(line_address):
            return self._l1i_latency
        miss_latency = self.engine.fetch_access(self.tile, pc, timestamp)
        self.hierarchy.fill_l1i(line_address)
        return self._l1i_latency + miss_latency

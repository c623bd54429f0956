"""Per-tile cache hierarchy: L1I + L1D + private L2.

The L2 is the coherence point and holds real line data; the L1s are
timing-only tag arrays kept *inclusive* with the L2 (an L2 eviction or
invalidation removes the line from both L1s).  Graphite's target
memory architecture is exactly this: private L1 data and instruction
caches with local unified L2 caches (paper §3.2); Figure 8 disables the
L1s via ``CacheConfig.enabled``.

The L1 half (:class:`L1Caches`) runs wherever the tile's thread does: in
a :class:`CacheHierarchy` in-process, as a :class:`MirroredL1` under mp.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.common.config import MemoryConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.memory.cache import Cache, CacheLine, LineState, TagArray

#: Enum members as globals: a class attribute lookup costs ~0.2 us.
_SHARED = LineState.SHARED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Channel


class L1Caches:
    """One tile's L1I and L1D: the half of the hierarchy that lives where
    the tile's thread executes.  Subclasses supply ``l2``, whose ``peek``
    is where a hit's bytes and write permission are read."""

    __slots__ = ("l1i", "l1d")

    #: What an L1 is: tags alone, beside an L2 in this process.
    l1_class = TagArray

    def __init__(self, config: MemoryConfig, stats: StatGroup) -> None:
        self.l1i: Optional[Cache] = (
            self.l1_class("l1i", config.l1i, stats.child("l1i"))
            if config.l1i.enabled else None)
        self.l1d: Optional[Cache] = (
            self.l1_class("l1d", config.l1d, stats.child("l1d"))
            if config.l1d.enabled else None)

    def l1d_hit(self, line_address: int) -> bool:
        """Probe the L1D (counts as an access); False when disabled."""
        if self.l1d is None:
            return False
        return self.l1d.lookup(line_address) is not None

    def l1i_hit(self, line_address: int) -> bool:
        if self.l1i is None:
            return False
        return self.l1i.lookup(line_address) is not None

    def fill_l1d(self, line: CacheLine) -> None:
        """Install ``line``'s tag in the L1D after an L1 miss (no data)."""
        if self.l1d is not None:
            self.l1d.insert(line.address, _SHARED, None)

    def fill_l1i(self, line_address: int) -> None:
        if self.l1i is not None:
            self.l1i.insert(line_address, _SHARED, None)

    def purge_l1(self, line_address: int) -> None:
        """Inclusion: the L2 lost the line, so both L1s drop it."""
        if self.l1d is not None:
            self.l1d.remove(line_address)
        if self.l1i is not None:
            self.l1i.remove(line_address)


class MirroredL1(L1Caches):
    """A tile's L1s in an mp worker, the L2 a process away.

    Here the L1D is a real data cache: a resident line carries the bytes
    and S/E/M state the coordinator's L2 holds for it, so ``l2.peek`` is
    answered on the spot.  The L2 stays the truth: stores are forwarded
    to it, and what it does to these lines for another tile arrives as
    ``purge_l1`` / ``downgrade`` notes before this tile next executes.
    """

    __slots__ = ("l2",)

    #: Real lines: a hit reads the bytes and state mirrored here.
    l1_class = Cache

    def __init__(self, config: MemoryConfig, stats: StatGroup) -> None:
        super().__init__(config, stats)
        self.l2 = self

    def peek(self, line_address: int) -> Optional[CacheLine]:
        return None if self.l1d is None else self.l1d.peek(line_address)

    def fill_l1d(self, line: CacheLine) -> None:
        if self.l1d is not None:
            self.l1d.insert(line.address, line.state, line.data)

    def downgrade(self, line_address: int) -> None:
        line = self.peek(line_address)
        if line is not None:
            line.state = _SHARED


class CacheHierarchy(L1Caches):
    """One tile's caches plus inclusion maintenance."""

    __slots__ = ("tile", "config", "l1_notes", "l2")

    def __init__(self, tile: TileId, config: MemoryConfig,
                 stats: StatGroup,
                 telemetry: Optional["Channel"] = None) -> None:
        super().__init__(config, stats)
        self.tile = tile
        self.config = config
        #: Set once the L1s moved out to an mp worker (``CoherenceEngine.
        #: release_l1s``; their counters stay declared, at zero): what
        #: would be done to them is noted here for delivery instead.
        self.l1_notes: Optional[List[tuple]] = None
        # Only the coherence point is traced; the timing-only L1 tag
        # arrays would triple event volume without adding information.
        self.l2 = Cache("l2", config.l2, stats.child("l2"),
                        tile=int(tile), telemetry=telemetry)

    def purge_l1(self, line_address: int) -> None:
        if self.l1_notes is None:
            super().purge_l1(line_address)
        else:
            self.l1_notes.append(
                (int(self.tile), line_address, "purge_l1"))

    # -- L2 / coherence side ---------------------------------------------------------

    def fill_l2(self, line_address: int, state: LineState,
                data: bytearray,
                timestamp: int = 0) -> Optional[CacheLine]:
        """Install a line in the L2; returns the victim if one fell out.

        Inclusion: the caller is responsible for handing the victim to
        the coherence engine; this method removes it from the L1s.
        """
        victim = self.l2.insert(line_address, state, data,
                                timestamp=timestamp)
        if victim is not None:
            self.purge_l1(victim.address)
        return victim

    def invalidate(self, line_address: int,
                   timestamp: int = 0) -> Optional[CacheLine]:
        """Coherence invalidation: drop the line from every level."""
        self.purge_l1(line_address)
        return self.l2.remove(line_address, timestamp=timestamp)

    def downgrade(self, line_address: int) -> Optional[CacheLine]:
        """M -> S transition on a remote read (data stays resident)."""
        line = self.l2.peek(line_address)
        if line is not None:
            line.state = _SHARED
            if self.l1_notes is not None:
                self.l1_notes.append(
                    (int(self.tile), line_address, "downgrade"))
        return line

    # -- invariants (used by tests) ---------------------------------------------------

    def resident_l2_lines(self) -> List[CacheLine]:
        return list(self.l2)

    def check_inclusion(self) -> bool:
        """Every L1-resident tag must be L2-resident (inclusion)."""
        for l1 in (self.l1i, self.l1d):
            if l1 is None:
                continue
            for line in l1:
                if self.l2.peek(line.address) is None:
                    return False
        return True

"""Directory organisations for cache coherence (paper §4.4).

Graphite supports a limited directory MSI protocol with ``i`` sharers,
denoted Dir_iNB [Agarwal et al., ISCA'88], as the baseline, plus
full-map directories and the LimitLESS protocol [Chaiken et al.,
ASPLOS'91].  In LimitLESS a limited number of hardware pointers exist
for the first ``i`` sharers, and additional requests to shared data are
handled by a software trap, preventing the need to evict existing
sharers.

The directory for each line is physically distributed: every tile holds
the slice for the lines it homes (uniform interleaving).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.common import restore_slots, slot_state
from repro.common.config import MemoryConfig
from repro.common.errors import ConfigError, ProtocolError
from repro.common.ids import TileId
from repro.common.stats import StatGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Channel


class DirState(enum.Enum):
    """Directory-visible state of one line."""

    UNCACHED = "U"
    SHARED = "S"
    MODIFIED = "M"


#: Members as globals: an enum class attribute lookup costs ~0.2 us.
_DIR_UNCACHED, _DIR_MODIFIED = DirState.UNCACHED, DirState.MODIFIED


class DirectoryEntry:
    """Directory knowledge about one line."""

    __slots__ = ("state", "sharers")

    def __init__(self, state: DirState = _DIR_UNCACHED,
                 sharers: Tuple[TileId, ...] = ()) -> None:
        self.state = state
        #: Sharer tiles in insertion order, as the hardware's pointers
        #: or bit vector record them: a tuple, the shared ``()`` when
        #: empty, replaced (never mutated) on every change.
        self.sharers = sharers

    @property
    def owner(self) -> Optional[TileId]:
        """Owning tile when MODIFIED (exactly one sharer)."""
        if self.state is not _DIR_MODIFIED:
            return None
        if len(self.sharers) != 1:
            raise ProtocolError(
                f"MODIFIED entry with {len(self.sharers)} sharers")
        return self.sharers[0]


@dataclass
class AddResult:
    """Outcome of registering a sharer with a directory organisation."""

    #: Sharers that must be invalidated to make room (Dir_iNB eviction).
    evict: List[TileId] = field(default_factory=list)
    #: Extra latency charged (LimitLESS software trap).
    extra_latency: int = 0


#: Every full-map add's result, shared so an add allocates nothing.
_NO_EFFECT = AddResult()


class Directory:
    """One tile's directory slice under a pluggable organisation."""

    kind = "full_map"

    __slots__ = ("home", "config", "entries", "stats", "_tele", "_lookups")

    def __init__(self, home: TileId, config: MemoryConfig,
                 stats: StatGroup,
                 telemetry: Optional["Channel"] = None) -> None:
        self.home = home
        self.config = config
        self.entries: Dict[int, DirectoryEntry] = {}
        self.stats = stats
        #: DIRECTORY-category telemetry channel, or ``None``.
        self._tele = telemetry
        self._lookups = stats.counter("lookups")

    def __getstate__(self) -> dict:
        """``entries`` as ``line -> (state, sharers)``: no object each."""
        state = slot_state(self)
        state["entries"] = {line: (entry.state, entry.sharers)
                            for line, entry in self.entries.items()}
        return state

    def __setstate__(self, state: dict) -> None:
        restore_slots(self, state)
        self.entries = {line: DirectoryEntry(dir_state, sharers)
                        for line, (dir_state, sharers)
                        in self.entries.items()}

    def entry(self, line_address: int) -> DirectoryEntry:
        """Fetch (or create) the entry for a line homed here."""
        e = self.entries.get(line_address)
        if e is None:
            e = DirectoryEntry()
            self.entries[line_address] = e
        self._lookups.value += 1
        return e

    def add_sharer(self, entry: DirectoryEntry, tile: TileId,
                   timestamp: int = 0) -> AddResult:
        """Register ``tile`` as a sharer; organisation-specific limits."""
        if tile not in entry.sharers:
            entry.sharers += (tile,)
        if self._tele is not None:
            self._tele.emit("sharer_add", int(self.home), timestamp,
                            {"sharer": int(tile),
                             "sharers": len(entry.sharers)})
        return _NO_EFFECT

    def remove_sharer(self, entry: DirectoryEntry, tile: TileId,
                      timestamp: int = 0) -> None:
        sharers = entry.sharers
        if tile in sharers:
            at = sharers.index(tile)
            entry.sharers = sharers[:at] + sharers[at + 1:]
        if not entry.sharers:
            entry.state = _DIR_UNCACHED
        if self._tele is not None:
            self._tele.emit("sharer_remove", int(self.home), timestamp,
                            {"sharer": int(tile),
                             "sharers": len(entry.sharers)})

    def invalidation_latency(self, entry: DirectoryEntry) -> int:
        """Extra directory-side latency for invalidating all sharers."""
        return 0


class FullMapDirectory(Directory):
    """Unbounded sharer bit-vector: never evicts, never traps."""

    kind = "full_map"
    __slots__ = ()


class LimitedDirectory(Directory):
    """Dir_iNB: at most ``i`` sharer pointers, no broadcast.

    When an ``i+1``-th sharer arrives, an existing sharer is evicted
    (invalidated) to free a pointer.  Heavily shared read data therefore
    thrashes: this is the protocol whose scaling collapses in Figure 9.
    """

    kind = "limited"
    __slots__ = ("max_sharers", "_pointer_evictions")

    def __init__(self, home: TileId, config: MemoryConfig,
                 stats: StatGroup,
                 telemetry: Optional["Channel"] = None) -> None:
        super().__init__(home, config, stats, telemetry)
        self.max_sharers = config.directory_max_sharers
        self._pointer_evictions = stats.counter("pointer_evictions")

    def add_sharer(self, entry: DirectoryEntry, tile: TileId,
                   timestamp: int = 0) -> AddResult:
        result = AddResult()
        if tile not in entry.sharers:
            while len(entry.sharers) >= self.max_sharers:
                victim = entry.sharers[0]  # oldest pointer
                entry.sharers = entry.sharers[1:]
                result.evict.append(victim)
                self._pointer_evictions.add()
                if self._tele is not None:
                    self._tele.emit("pointer_evict", int(self.home),
                                    timestamp, {"victim": int(victim),
                                                "for": int(tile)})
            entry.sharers += (tile,)
        if self._tele is not None:
            self._tele.emit("sharer_add", int(self.home), timestamp,
                            {"sharer": int(tile),
                             "sharers": len(entry.sharers)})
        return result


class LimitLessDirectory(Directory):
    """LimitLESS(i): hardware pointers for ``i`` sharers, software beyond.

    Overflowing sharers are retained (no eviction); instead, directory
    operations touching the overflowed entry pay a software-trap latency.
    Once read-only data is cached everywhere, LimitLESS behaves like
    full-map (paper §4.4) — the trap cost is paid only while the sharer
    set is still growing or on invalidation.
    """

    kind = "limitless"
    __slots__ = ("hw_pointers", "trap_latency", "_traps")

    def __init__(self, home: TileId, config: MemoryConfig,
                 stats: StatGroup,
                 telemetry: Optional["Channel"] = None) -> None:
        super().__init__(home, config, stats, telemetry)
        self.hw_pointers = config.directory_max_sharers
        self.trap_latency = config.limitless_trap_latency
        self._traps = stats.counter("software_traps")

    def add_sharer(self, entry: DirectoryEntry, tile: TileId,
                   timestamp: int = 0) -> AddResult:
        result = AddResult()
        if tile not in entry.sharers:
            if len(entry.sharers) >= self.hw_pointers:
                result.extra_latency = self.trap_latency
                self._traps.add()
                if self._tele is not None:
                    self._tele.emit("trap", int(self.home), timestamp,
                                    {"sharer": int(tile),
                                     "sharers": len(entry.sharers)})
            entry.sharers += (tile,)
        if self._tele is not None:
            self._tele.emit("sharer_add", int(self.home), timestamp,
                            {"sharer": int(tile),
                             "sharers": len(entry.sharers)})
        return result

    def invalidation_latency(self, entry: DirectoryEntry) -> int:
        if len(entry.sharers) > self.hw_pointers:
            self._traps.add()
            return self.trap_latency
        return 0


def create_directory(home: TileId, config: MemoryConfig,
                     stats: StatGroup,
                     telemetry: Optional["Channel"] = None) -> Directory:
    """Instantiate the configured directory organisation for one tile."""
    if config.directory_type == "full_map":
        return FullMapDirectory(home, config, stats, telemetry)
    if config.directory_type == "limited":
        return LimitedDirectory(home, config, stats, telemetry)
    if config.directory_type == "limitless":
        return LimitLessDirectory(home, config, stats, telemetry)
    raise ConfigError(f"unknown directory type {config.directory_type!r}")

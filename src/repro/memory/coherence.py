"""The directory-based MSI cache-coherence engine (paper §3.2).

Cache coherence is maintained using a directory-based MSI protocol in
which the directory is uniformly distributed across all the tiles.  The
engine unifies the *functional* and *modeling* roles: the software
structures that keep the target address space consistent are organised
like the target memory architecture, so each application memory request
generates exactly one set of protocol actions that both move real bytes
and accumulate modelled latency.  This mirrors the paper's key design
point — correct simulated execution doubles as verification of the
coherence protocol.

All protocol messages are serviced synchronously ("the network forwards
messages immediately"), with simulated time carried by timestamps:
each leg adds the memory network model's latency, directories add their
lookup latency, and DRAM adds queue-model delay computed against the
windowed global-progress estimate.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, TYPE_CHECKING

from repro.common.config import MemoryConfig
from repro.common.errors import ProtocolError
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.memory.address import AddressSpace
from repro.memory.backing import BackingStore
from repro.memory.cache import CacheLine, LineState
from repro.memory.directory import Directory, DirState, create_directory
from repro.memory.dram import DramController
from repro.memory.hierarchy import CacheHierarchy
from repro.network.interface import NetworkFabric
from repro.sync.progress import ProgressEstimator
from repro.transport.message import MessageKind

#: Enum members as globals: a class attribute lookup costs ~0.2 us.
_SHARED, _EXCLUSIVE, _MODIFIED = (LineState.SHARED, LineState.EXCLUSIVE,
                                  LineState.MODIFIED)
_DIR_UNCACHED, _DIR_SHARED, _DIR_MODIFIED = (
    DirState.UNCACHED, DirState.SHARED, DirState.MODIFIED)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.miss_classifier import MissClassifier
    from repro.telemetry.bus import TelemetryBus

#: Size of a coherence control message (request, inv, ack) on the wire.
CONTROL_BYTES = 8
#: Header added to a data-carrying coherence message.
HEADER_BYTES = 8
#: Every protocol leg's traffic class.
MEMORY = MessageKind.MEMORY


def _no_leg(*leg: object) -> int:
    """A fast-forwarded leg: free, and no call on the fabric."""
    return 0


class CoherenceEngine:
    """Global protocol engine owning all per-tile memory structures."""

    #: Controllers forward no store here: they write the L2's own line.
    forward_store = None

    __slots__ = ("num_tiles", "config", "space", "backing", "fabric",
                 "classifier", "line_bytes", "stats", "_tele_cache",
                 "functional", "progress", "hierarchies", "directories",
                 "drams", "_read_misses", "_write_misses", "_upgrades")

    def __init__(self, num_tiles: int, config: MemoryConfig,
                 space: AddressSpace, backing: BackingStore,
                 fabric: NetworkFabric, clock_hz: int,
                 stats: StatGroup,
                 classifier: Optional[MissClassifier] = None,
                 telemetry: Optional["TelemetryBus"] = None) -> None:
        config.validate()
        self.num_tiles = num_tiles
        self.config = config
        self.space = space
        self.backing = backing
        self.fabric = fabric
        self.classifier = classifier
        self.line_bytes = config.l2.line_bytes
        self.stats = stats
        self._tele_cache = None
        tele_dir = None
        tele_dram = None
        if telemetry is not None:
            from repro.telemetry.events import EventCategory
            self._tele_cache = telemetry.channel(EventCategory.CACHE)
            tele_dir = telemetry.channel(EventCategory.DIRECTORY)
            tele_dram = telemetry.channel(EventCategory.DRAM)
        #: Functional fast-forward (:mod:`repro.sample`): when set, the
        #: protocol still performs every state transition — directory,
        #: caches, backing store — through the one shared code path,
        #: but network legs and DRAM timing are bypassed.  Flipped by
        #: :meth:`repro.sim.simulator.Simulator.set_execution_mode`.
        self.functional = False
        window = max(num_tiles * config.dram.progress_window_factor, 8)
        self.progress = ProgressEstimator(window)
        self.hierarchies: List[CacheHierarchy] = [
            CacheHierarchy(TileId(t), config, stats.child(f"tile{t}"),
                           telemetry=self._tele_cache)
            for t in range(num_tiles)]
        self.directories: List[Directory] = [
            create_directory(TileId(t), config,
                             stats.child(f"dir{t}"), telemetry=tele_dir)
            for t in range(num_tiles)]
        self.drams: List[DramController] = [
            DramController(TileId(t), config.dram, num_tiles, clock_hz,
                           self.progress, stats.child(f"dram{t}"),
                           telemetry=tele_dram)
            for t in range(num_tiles)]
        self._read_misses = stats.counter("read_misses")
        self._write_misses = stats.counter("write_misses")
        self._upgrades = stats.counter("upgrades")

    # -- public protocol operations --------------------------------------------------

    def read_access(self, tile: TileId, address: int, size: int,
                    timestamp: int) -> "tuple[CacheLine, int]":
        """Ensure a readable (S or M) copy at ``tile``; returns latency.

        ``address``/``size`` must lie within one cache line (the memory
        controller splits larger accesses).
        """
        line_bytes = self.line_bytes
        line_address = address & -line_bytes  # a power of two
        hierarchy = self.hierarchies[tile]
        latency = self.config.l2.access_latency
        line = hierarchy.l2.lookup(line_address)
        if line is not None:
            return line, latency
        self._read_misses.value += 1
        if self.classifier is not None:
            self.classifier.classify(tile, address, size)
        # Lines interleave over the tiles (``AddressSpace.home_tile``).
        home = line_address // line_bytes % self.num_tiles
        directory = self.directories[home]
        transfer = _no_leg if self.functional else self.fabric.transfer
        now = timestamp + latency
        now += transfer(tile, home, MEMORY, CONTROL_BYTES, now)
        now += self.config.directory_latency
        entry = directory.entry(line_address)

        data_forwarded = False
        # MESI: an uncontended miss returns the line *exclusively*, so
        # a later store by this tile needs no upgrade round trip.
        grant_exclusive = (self.config.protocol == "mesi"
                           and entry.state is _DIR_UNCACHED)
        if entry.state is _DIR_MODIFIED:
            owner = entry.owner
            if owner == tile:
                raise ProtocolError(
                    f"tile {int(tile)} missed on a line the directory "
                    f"says it owns ({line_address:#x})")
            # Recall the dirty line: home -> owner -> home, then the
            # owner keeps a shared copy (M -> S downgrade).
            now += transfer(home, owner, MEMORY, CONTROL_BYTES, now)
            owner_line = self.hierarchies[owner].downgrade(line_address)
            if owner_line is None or owner_line.data is None:
                raise ProtocolError(
                    f"directory owner {int(owner)} does not hold "
                    f"{line_address:#x}")
            self.backing.write_line(line_address, owner_line.data)
            now += transfer(owner, home, MEMORY, line_bytes + HEADER_BYTES,
                            now)
            if not self.functional:
                self.drams[home].post_write(now, line_bytes)
            entry.state = _DIR_SHARED
        elif entry.state is _DIR_SHARED and entry.sharers \
                and self.config.forward_shared_reads:
            # Clean-shared data is forwarded cache-to-cache from an
            # existing sharer (home -> sharer control, sharer ->
            # requester data), sparing the DRAM controller: without
            # forwarding, widely read-shared lines serialize every new
            # sharer behind one controller's bandwidth slice.
            forwarder = entry.sharers[0]
            now += transfer(home, forwarder, MEMORY, CONTROL_BYTES, now)
            now += transfer(forwarder, tile, MEMORY,
                            line_bytes + HEADER_BYTES, now)
            data_forwarded = True
        elif not self.functional:
            # Data comes from the home memory controller.
            now += self.drams[home].read(now, line_bytes)

        result = directory.add_sharer(entry, tile, timestamp=now)
        now += result.extra_latency
        for victim_tile in result.evict:
            now += self._invalidate_one(home, victim_tile, line_address,
                                        now, due_to_write=False)
        # An exclusive grant is recorded as directory-owned: the holder
        # may silently dirty the line, so recalls must go through it.
        entry.state = _DIR_MODIFIED if grant_exclusive else _DIR_SHARED
        # Completion acknowledgement only if the data already arrived.
        now += transfer(home, tile, MEMORY, CONTROL_BYTES if data_forwarded
                        else line_bytes + HEADER_BYTES, now)
        data = self.backing.read_line(line_address)
        fill_state = _EXCLUSIVE if grant_exclusive else _SHARED
        line = self._install(tile, line_address, fill_state, data, now)
        if self._tele_cache is not None:
            self._tele_cache.emit("read_miss", int(tile), timestamp,
                                  {"line": line_address,
                                   "latency": now - timestamp,
                                   "forwarded": data_forwarded})
        return line, now - timestamp

    def fetch_access(self, tile: TileId, pc: int, timestamp: int) -> int:
        """An instruction-fetch miss: a read whose bytes nobody wants."""
        return self.read_access(tile, pc, 4, timestamp)[1]

    def release_l1s(self) -> List[tuple]:
        """The L1s move out to where the tiles' threads run (mp workers);
        the L2s note ``(tile, line, L1 method)`` in the returned list."""
        notes: List[tuple] = []
        for hierarchy in self.hierarchies:
            hierarchy.l1i = hierarchy.l1d = None
            hierarchy.l1_notes = notes
        return notes

    def apply_store(self, tile: TileId, address: int, data: bytes) -> None:
        """Commit a store that completed against a mirror of ``tile``'s
        line (an mp worker's ``forward_store``) to the line itself."""
        line = self.hierarchies[int(tile)].l2.peek(
            self.space.line_of(address))
        if line is None or line.state is not _MODIFIED:
            raise ProtocolError(
                f"tile {int(tile)} stored to {address:#x} without "
                f"holding its line modified ({line!r})")
        offset = address - line.address
        line.data[offset:offset + len(data)] = data
        if self.classifier is not None:
            self.classifier.note_store(tile, address, len(data))

    def write_access(self, tile: TileId, address: int, size: int,
                     timestamp: int) -> "tuple[CacheLine, int]":
        """Ensure an exclusive (M) copy at ``tile``; returns latency."""
        line_bytes = self.line_bytes
        line_address = address & -line_bytes
        hierarchy = self.hierarchies[tile]
        latency = self.config.l2.access_latency
        line = hierarchy.l2.lookup(line_address)
        if line is not None and line.state is _MODIFIED:
            return line, latency
        if line is not None and line.state is _EXCLUSIVE:
            # MESI's payoff: the directory already records this tile as
            # the owner, so dirtying the line is a silent transition.
            line.state = _MODIFIED
            return line, latency

        home = line_address // line_bytes % self.num_tiles
        directory = self.directories[home]
        transfer = _no_leg if self.functional else self.fabric.transfer
        now = timestamp + latency

        if line is not None:
            # Upgrade: we hold S; invalidate the other sharers.
            self._upgrades.value += 1
            now += transfer(tile, home, MEMORY, CONTROL_BYTES, now)
            now += self.config.directory_latency
            entry = directory.entry(line_address)
            now += directory.invalidation_latency(entry)
            now += self._invalidate_sharers(home, entry.sharers,
                                            line_address, now,
                                            exclude=tile)
            entry.sharers = (tile,)
            entry.state = _DIR_MODIFIED
            now += transfer(home, tile, MEMORY, CONTROL_BYTES, now)
            line.state = _MODIFIED
            if self._tele_cache is not None:
                self._tele_cache.emit("upgrade", int(tile), timestamp,
                                      {"line": line_address,
                                       "latency": now - timestamp})
            return line, now - timestamp

        # Write miss.
        self._write_misses.value += 1
        if self.classifier is not None:
            self.classifier.classify(tile, address, size)
        now += transfer(tile, home, MEMORY, CONTROL_BYTES, now)
        now += self.config.directory_latency
        entry = directory.entry(line_address)

        if entry.state is _DIR_MODIFIED:
            owner = entry.owner
            if owner == tile:
                raise ProtocolError(
                    f"tile {int(tile)} write-missed on a line the "
                    f"directory says it owns ({line_address:#x})")
            now += transfer(home, owner, MEMORY, CONTROL_BYTES, now)
            owner_line = self.hierarchies[owner].invalidate(
                line_address, timestamp=now)
            if owner_line is None or owner_line.data is None:
                raise ProtocolError(
                    f"directory owner {int(owner)} does not hold "
                    f"{line_address:#x}")
            self.backing.write_line(line_address, owner_line.data)
            if self.classifier is not None:
                self.classifier.note_invalidation(owner, line_address,
                                                  due_to_write=True)
            now += transfer(owner, home, MEMORY, line_bytes + HEADER_BYTES,
                            now)
            if not self.functional:
                self.drams[home].post_write(now, line_bytes)
            entry.sharers = ()
        else:
            if entry.state is _DIR_SHARED:
                now += directory.invalidation_latency(entry)
                now += self._invalidate_sharers(home, entry.sharers,
                                                line_address, now,
                                                exclude=None)
                entry.sharers = ()
            if not self.functional:
                now += self.drams[home].read(now, line_bytes)

        result = directory.add_sharer(entry, tile, timestamp=now)
        now += result.extra_latency
        entry.state = _DIR_MODIFIED
        now += transfer(home, tile, MEMORY, line_bytes + HEADER_BYTES, now)
        data = self.backing.read_line(line_address)
        line = self._install(tile, line_address, _MODIFIED,
                             data, now)
        if self._tele_cache is not None:
            self._tele_cache.emit("write_miss", int(tile), timestamp,
                                  {"line": line_address,
                                   "latency": now - timestamp})
        return line, now - timestamp

    # -- invalidations -----------------------------------------------------------------

    def _invalidate_sharers(self, home: TileId, sharers: Iterable[TileId],
                            line_address: int, timestamp: int,
                            exclude: Optional[TileId]) -> int:
        """Invalidate all sharers in parallel; latency is the worst leg."""
        worst = 0
        for sharer in sharers:
            if exclude is not None and sharer == exclude:
                continue
            worst = max(worst, self._invalidate_one(
                home, sharer, line_address, timestamp, due_to_write=True))
        return worst

    def _invalidate_one(self, home: TileId, sharer: TileId,
                        line_address: int, timestamp: int,
                        due_to_write: bool) -> int:
        transfer = _no_leg if self.functional else self.fabric.transfer
        leg = transfer(home, sharer, MEMORY, CONTROL_BYTES, timestamp)
        removed = self.hierarchies[sharer].invalidate(
            line_address, timestamp=timestamp + leg)
        if removed is None:
            raise ProtocolError(
                f"invalidation of {line_address:#x} at tile {int(sharer)}"
                " which does not hold it")
        if removed.state is _MODIFIED:
            raise ProtocolError(
                "shared-state invalidation found a dirty line at tile "
                f"{int(sharer)} for {line_address:#x}")
        if self.classifier is not None:
            self.classifier.note_invalidation(sharer, line_address,
                                              due_to_write)
        return leg + transfer(sharer, home, MEMORY, CONTROL_BYTES,
                              timestamp + leg)

    # -- fills and evictions ---------------------------------------------------------------

    def _install(self, tile: TileId, line_address: int, state: LineState,
                 data: bytearray, timestamp: int) -> CacheLine:
        hierarchy = self.hierarchies[tile]
        victim = hierarchy.fill_l2(line_address, state, data,
                                   timestamp=timestamp)
        if victim is not None:
            self._handle_victim(tile, victim, timestamp)
        if self.classifier is not None:
            self.classifier.note_fill(tile, line_address)
        line = hierarchy.l2.peek(line_address)
        assert line is not None
        return line

    def _handle_victim(self, tile: TileId, victim: CacheLine,
                       timestamp: int) -> None:
        """Writeback or evict-notify for an L2 replacement victim.

        Posted off the critical path: the requester does not wait, but
        bandwidth and host transfer costs are consumed.
        """
        line_bytes = self.line_bytes
        home = victim.address // line_bytes % self.num_tiles
        directory = self.directories[home]
        entry = directory.entry(victim.address)
        transfer = _no_leg if self.functional else self.fabric.transfer
        if victim.state is _MODIFIED:
            if victim.data is None:
                raise ProtocolError("dirty victim with no data")
            transfer(tile, home, MEMORY, line_bytes + HEADER_BYTES,
                     timestamp)
            self.backing.write_line(victim.address, victim.data)
            if not self.functional:
                self.drams[home].post_write(timestamp, line_bytes)
        else:
            # Evict notice keeps the full-map sharer list precise.
            transfer(tile, home, MEMORY, CONTROL_BYTES, timestamp)
        directory.remove_sharer(entry, tile, timestamp=timestamp)
        if self.classifier is not None:
            self.classifier.note_eviction(tile, victim.address)

    # -- invariant checking (tests) ----------------------------------------------------------

    def check_coherence_invariants(self) -> None:
        """Raise ProtocolError on any directory/cache inconsistency."""
        for home, directory in enumerate(self.directories):
            for line_address, entry in directory.entries.items():
                if self.space.home_tile(line_address) != home:
                    raise ProtocolError(
                        f"{line_address:#x} homed at wrong tile {home}")
                if entry.state is _DIR_MODIFIED:
                    owner = entry.owner
                    line = self.hierarchies[int(owner)].l2.peek(line_address)
                    if line is None or line.state not in (_MODIFIED,
                                                          _EXCLUSIVE):
                        raise ProtocolError(
                            f"owner {int(owner)} of {line_address:#x} "
                            "does not hold it exclusively")
                    if line.state is _EXCLUSIVE \
                            and self.config.protocol != "mesi":
                        raise ProtocolError(
                            "EXCLUSIVE line under the MSI protocol")
                elif entry.state is _DIR_SHARED:
                    if not entry.sharers:
                        raise ProtocolError(
                            "SHARED entry with no sharers "
                            f"({line_address:#x})")
                    for sharer in entry.sharers:
                        line = self.hierarchies[int(sharer)].l2.peek(
                            line_address)
                        if line is None or line.state is not _SHARED:
                            raise ProtocolError(
                                f"sharer {int(sharer)} of "
                                f"{line_address:#x} inconsistent")
                else:
                    if entry.sharers:
                        raise ProtocolError(
                            "UNCACHED entry with sharers "
                            f"({line_address:#x})")
        # No line may be cached anywhere without a directory record.
        for t, hierarchy in enumerate(self.hierarchies):
            for line in hierarchy.resident_l2_lines():
                home = self.space.home_tile(line.address)
                entry = self.directories[int(home)].entries.get(line.address)
                if entry is None or TileId(t) not in entry.sharers:
                    raise ProtocolError(
                        f"tile {t} caches {line.address:#x} without a "
                        "directory record")
            if not hierarchy.check_inclusion():
                raise ProtocolError(f"inclusion violated at tile {t}")

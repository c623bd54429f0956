"""Typed telemetry events and the per-subsystem category masks.

Every observable happening in the simulator is one :class:`Event` in
one :class:`EventCategory`.  Categories form a bitmask so a run can
enable exactly the subsystems under study (``config.telemetry.events``)
and every other emission site stays a dead ``None`` check.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Optional, Tuple

from repro.common.errors import ConfigError


class EventCategory(enum.IntFlag):
    """Bitmask of instrumented subsystems (the event taxonomy)."""

    #: Scheduler quantum boundaries: one event per executed quantum.
    QUANTUM = 0x01
    #: Cache misses, fills, evictions and invalidations.
    CACHE = 0x02
    #: Directory state transitions, pointer evictions, software traps.
    DIRECTORY = 0x04
    #: Network routing: per-packet hop/latency plus message flows.
    NETWORK = 0x08
    #: DRAM controller queue occupancy per request.
    DRAM = 0x10
    #: Synchronization: barrier epochs, P2P checks/sleeps, core sync
    #: stalls, clock-skew samples.
    SYNC = 0x20
    #: System calls forwarded to the MCP.
    SYSCALL = 0x40
    #: Worker lifecycle in the mp backend (start, spawn, stop).
    WORKER = 0x80
    #: Cadenced metrics-registry snapshots.
    METRICS = 0x100
    #: Simulation-service lifecycle (:mod:`repro.serve`): job
    #: submissions, cache hits, preemptions, worker deaths.
    SERVE = 0x200
    #: Multi-host membership (:mod:`repro.net`): worker.joined,
    #: worker.left, worker.migrated (live shard migration).
    NET = 0x400
    #: Observability spans (:mod:`repro.obs`): span.begin/span.end/
    #: span.note with trace context.
    OBS = 0x800
    #: Checkpoint-accelerated sampling (:mod:`repro.sample`): execution
    #: mode switches, fast-forward completion, measurement windows,
    #: snapshot-library hits and primes.
    SAMPLE = 0x1000


#: Every category, i.e. the mask for ``events: ["all"]``.
ALL_CATEGORIES = 0
for _category in EventCategory:
    ALL_CATEGORIES |= _category.value

_BY_NAME: Dict[str, int] = {c.name.lower(): c.value for c in EventCategory}


def parse_event_mask(names: Iterable[str]) -> int:
    """Resolve category names (``"cache"``, ``"all"``) into a bitmask."""
    mask = 0
    for name in names:
        key = str(name).strip().lower()
        if key == "all":
            return ALL_CATEGORIES
        bit = _BY_NAME.get(key)
        if bit is None:
            raise ConfigError(
                f"telemetry: unknown event category {name!r} "
                f"(choose from {sorted(_BY_NAME)} or 'all')")
        mask |= bit
    return mask


class Event:
    """One telemetry event.

    ``t`` is the simulated timestamp in target cycles (0 when the
    emission site has no simulated clock in scope); ``seq`` is the
    per-process emission order assigned by the bus; ``origin`` names
    the emitting process (0 = coordinator/in-process, ``1 + worker``
    for mp workers) and is stamped during distributed aggregation.
    """

    __slots__ = ("category", "name", "tile", "t", "args", "seq", "origin")

    def __init__(self, category: int, name: str, tile: Optional[int],
                 t: int, args: Optional[dict] = None, seq: int = 0,
                 origin: int = 0) -> None:
        self.category = int(category)
        self.name = name
        self.tile = tile
        self.t = t
        self.args = args if args is not None else {}
        self.seq = seq
        self.origin = origin

    @property
    def category_name(self) -> str:
        try:
            return EventCategory(self.category).name.lower()
        except ValueError:  # pragma: no cover - defensive
            return f"0x{self.category:x}"

    def content_key(self) -> Tuple:
        """Backend-independent identity: what the event *says*.

        Excludes ``seq`` and ``origin`` (emission bookkeeping that
        legitimately differs between the inproc and mp backends).
        """
        return (self.t, self.category, self.name,
                -1 if self.tile is None else self.tile,
                tuple(sorted((k, repr(v)) for k, v in self.args.items())))

    def to_dict(self) -> dict:
        return {
            "cat": self.category_name,
            "name": self.name,
            "tile": self.tile,
            "t": self.t,
            "args": dict(self.args),
            "seq": self.seq,
            "origin": self.origin,
        }

    # Events cross the mp wire inside TELEMETRY batches.

    def __getstate__(self) -> tuple:
        return (self.category, self.name, self.tile, self.t, self.args,
                self.seq, self.origin)

    def __setstate__(self, state: tuple) -> None:
        (self.category, self.name, self.tile, self.t, self.args,
         self.seq, self.origin) = state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:
        return hash((self.category, self.name, self.tile, self.t,
                     self.seq, self.origin))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = "" if self.tile is None else f" tile={self.tile}"
        return (f"Event({self.category_name}.{self.name}{where} "
                f"t={self.t} {self.args})")

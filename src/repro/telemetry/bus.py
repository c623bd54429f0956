"""The event bus: fan-out point between emission sites and sinks.

Zero-overhead-when-disabled contract: :func:`create_bus` returns
``None`` unless telemetry is enabled, and every instrumented component
resolves its :class:`Channel` once at construction time — a disabled
category resolves to ``None``, so the per-event cost on a cold path is
one attribute test.  When enabled, ``Channel.emit`` builds the event,
appends it to the bus's in-memory store and hands it to every sink.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

from repro.telemetry.events import Event, EventCategory, parse_event_mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.config import TelemetryConfig
    from repro.telemetry.sinks import Sink


class Channel:
    """One category's pre-resolved handle onto the bus.

    Emission sites hold a channel (or ``None``); the category is baked
    in so the hot path never re-checks the enable mask.
    """

    __slots__ = ("_bus", "category")

    def __init__(self, bus: "TelemetryBus", category: int) -> None:
        self._bus = bus
        self.category = int(category)

    def emit(self, name: str, tile: Optional[int], t: int,
             args: Optional[dict] = None) -> None:
        self._bus.emit(self.category, name, tile, t, args)


class TelemetryBus:
    """Event hub: enable mask, in-memory store, attached sinks."""

    def __init__(self, mask: int) -> None:
        self.mask = mask
        self.sinks: List["Sink"] = []
        self.events: List[Event] = []
        self._seq = 0
        #: Events absorbed from remote processes (mp aggregation).
        self.absorbed = 0
        #: Observers see events without recording them: categories in
        #: ``observer_mask`` but not ``mask`` are built and handed to
        #: observers, yet never enter the store, the sinks or the
        #: sequence numbering — so the recorded trace is byte-identical
        #: whether observers (e.g. the runtime sanitizers) are attached
        #: or not.
        self.observer_mask = 0
        self._observers: List[Tuple[int, Callable[[Event], None]]] = []

    # -- wiring --------------------------------------------------------------

    def enabled_for(self, category: int) -> bool:
        return bool((self.mask | self.observer_mask) & int(category))

    def channel(self, category: EventCategory) -> Optional[Channel]:
        """The category's channel, or ``None`` when masked off."""
        if not self.enabled_for(category):
            return None
        return Channel(self, category)

    def subscribe(self, sink: "Sink") -> "Sink":
        self.sinks.append(sink)
        return sink

    def observe(self, observer: Callable[[Event], None],
                mask: int) -> None:
        """Attach an observer for the categories in ``mask``.

        Must be attached before emission sites resolve their channels:
        ``channel()`` considers the observer mask, so late attachment
        would miss sites that already resolved to ``None``.
        """
        self._observers.append((int(mask), observer))
        self.observer_mask |= int(mask)

    # -- emission ------------------------------------------------------------

    def emit(self, category: int, name: str, tile: Optional[int],
             t: int, args: Optional[dict] = None) -> None:
        recorded = bool(self.mask & category)
        if not recorded and not (self.observer_mask & category):
            return
        event = Event(category, name, tile, t, args, seq=self._seq)
        if recorded:
            self._seq += 1
            self.events.append(event)
            for sink in self.sinks:
                sink.handle(event)
        for mask, observer in self._observers:
            if mask & category:
                observer(event)

    def absorb(self, events: Iterable[Event], origin: int) -> int:
        """Merge remote events into this bus (mp aggregation).

        Remote events keep their own ``seq`` (their process-local
        emission order) and are stamped with ``origin`` so the merged
        stream totally orders by ``(t, origin, seq)``.
        """
        count = 0
        for event in events:
            event.origin = origin
            self.events.append(event)
            for sink in self.sinks:
                sink.handle(event)
            for mask, observer in self._observers:
                if mask & event.category:
                    observer(event)
            count += 1
        self.absorbed += count
        return count

    # -- consumption ---------------------------------------------------------

    def ordered_events(self) -> List[Event]:
        """The merged stream, timestamp-ordered.

        Sorted by simulated time first, then by emitting process and
        its emission order — a deterministic total order for any fixed
        set of events.
        """
        return sorted(self.events,
                      key=lambda e: (e.t, e.origin, e.seq))

    def drain_pending(self) -> List[Event]:
        """Remove and return locally emitted events (worker batching)."""
        pending, self.events = self.events, []
        return pending

    def close(self) -> None:
        """Flush and close every sink (ordered store stays readable)."""
        for sink in self.sinks:
            sink.close(self)


def create_bus(config: "TelemetryConfig",
               with_sinks: bool = True) -> Optional[TelemetryBus]:
    """Build the bus for a configuration; ``None`` when disabled.

    File sinks named by ``trace_path`` are attached here so every
    entry point shares one construction path; mp workers — which only
    batch events over the wire — pass ``with_sinks=False`` so a worker
    never opens the coordinator's trace file.
    """
    if not config.enabled:
        return None
    bus = TelemetryBus(parse_event_mask(config.events))
    if with_sinks and config.trace_path:
        from repro.telemetry.chrome import ChromeTraceSink
        from repro.telemetry.sinks import JsonlTraceSink
        if str(config.trace_path).endswith(".json"):
            bus.subscribe(ChromeTraceSink(config.trace_path))
        else:
            bus.subscribe(JsonlTraceSink(config.trace_path))
    return bus

"""Distributed telemetry aggregation for the mp backend.

Each worker process runs its own sink-less bus and periodically drains
it into a :class:`TelemetryBatch` — the events plus the worker's local
histogram reservoirs — shipped to the coordinator inside a
``TELEMETRY`` wire frame.  The coordinator absorbs batches into its
own bus (stamping each event's ``origin``) and folds the histogram
states into the master statistics tree, yielding one coherent,
timestamp-ordered stream identical in content to an in-process run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.stats import StatGroup
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.events import Event


@dataclass
class TelemetryBatch:
    """One worker's drained telemetry, as carried on the wire.

    ``worker`` is the 0-based worker index; the coordinator maps it to
    event origin ``worker + 1`` (origin 0 is the coordinator itself).
    ``histograms`` uses the ``StatGroup.histogram_states`` flat format
    and is normally only populated on the final (collection) batch.
    """

    worker: int
    events: List[Event] = field(default_factory=list)
    histograms: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)


def merge_batch(bus: Optional[TelemetryBus], stats: Optional[StatGroup],
                batch: TelemetryBatch) -> int:
    """Absorb one worker batch at the coordinator; returns event count.

    Tolerates a ``None`` bus (a worker can race a final flush against
    a coordinator whose telemetry is disabled) by dropping events while
    still folding histogram state into ``stats``.
    """
    count = 0
    if bus is not None:
        count = bus.absorb(batch.events, origin=batch.worker + 1)
    if stats is not None and batch.histograms:
        stats.merge_histogram_states(batch.histograms)
    return count


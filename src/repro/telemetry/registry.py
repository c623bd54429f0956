"""Cadenced metrics snapshots of the simulator's statistics tree.

The :class:`MetricsRegistry` turns the instantaneous counters of
:mod:`repro.common.stats` into *time series*: every ``interval``
scheduler turns it walks the tree, appends each counter's current
value to a per-path :class:`~repro.common.stats.TimeSeries`, and
snapshots each histogram's moments and quantiles.  That is what lets a
single run answer rate questions ("how did miss rate evolve as the
working set warmed up?") that end-of-run totals cannot.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.stats import StatGroup, TimeSeries
from repro.telemetry.bus import Channel


class MetricsRegistry:
    """Samples a :class:`StatGroup` tree on a fixed cadence.

    Driven by the scheduler's ``metrics`` boundary stage (see
    ``repro.host.scheduler.STAGE_ORDER``); ``sample`` receives the
    current simulated timestamp.  When a ``metrics`` channel is set each
    sample also lands on the event bus, so traces interleave metric
    snapshots with the raw event stream.
    """

    #: Quantiles captured per histogram snapshot.
    QUANTILES = (0.5, 0.95)

    def __init__(self, stats: StatGroup, interval: int,
                 channel: Optional[Channel] = None) -> None:
        self.stats = stats
        self.interval = interval
        self.series: Dict[str, TimeSeries] = {}
        self.histogram_series: Dict[str, List[dict]] = {}
        self.samples_taken = 0
        self.channel = channel

    def sample(self, t: int) -> None:
        """Snapshot every counter and histogram at simulated time ``t``."""
        counters = 0
        for path, counter in self.stats.walk():
            series = self.series.get(path)
            if series is None:
                series = TimeSeries(path)
                self.series[path] = series
            series.record(t, counter.value)
            counters += 1
        for path, hist in self.stats.walk_histograms():
            snapshot = {"t": t, "count": hist.count, "mean": hist.mean,
                        "min": hist.min, "max": hist.max}
            for q in self.QUANTILES:
                snapshot[f"p{int(q * 100)}"] = hist.quantile(q)
            self.histogram_series.setdefault(path, []).append(snapshot)
        self.samples_taken += 1
        if self.channel is not None:
            self.channel.emit("sample", None, int(t),
                               {"n": self.samples_taken,
                                "counters": counters})

    def to_dict(self) -> dict:
        """Plain-dict summary (results/report plumbing)."""
        return {
            "interval": self.interval,
            "samples": self.samples_taken,
            "series": {path: list(zip(s.times, s.values))
                       for path, s in sorted(self.series.items())},
            "histograms": {path: list(snaps) for path, snaps
                           in sorted(self.histogram_series.items())},
        }

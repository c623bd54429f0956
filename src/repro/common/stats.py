"""Statistics primitives used by every model.

Models accumulate raw counts during simulation; the analysis layer
(:mod:`repro.analysis`) turns them into the rows the paper reports.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A streaming histogram tracking count/sum/min/max and moments.

    Sufficient for means, standard deviations and coefficients of
    variation without retaining every sample.  A bounded reservoir of
    decimated samples additionally supports approximate quantiles: the
    histogram keeps every ``stride``-th recorded value and, when the
    reservoir exceeds :data:`MAX_SAMPLES`, drops every other retained
    sample and doubles the stride.  The retained set is a pure function
    of the recorded sequence — no randomness — so distributed runs stay
    deterministic and mergeable.
    """

    __slots__ = ("name", "count", "total", "sq_total", "min", "max",
                 "samples", "_stride", "_pending")

    #: Reservoir bound; decimation halves the reservoir past this.
    MAX_SAMPLES = 512

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.sq_total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: List[float] = []
        self._stride = 1
        self._pending = 0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.sq_total += value * value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._pending += 1
        if self._pending >= self._stride:
            self._pending = 0
            self.samples.append(value)
            if len(self.samples) > self.MAX_SAMPLES:
                self.samples = self.samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        mean = self.mean
        var = self.sq_total / self.count - mean * mean
        return max(var, 0.0)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def cov(self) -> float:
        """Coefficient of variation (stddev / mean), 0 if mean is 0."""
        mean = self.mean
        return self.stddev / mean if mean else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile from the decimated reservoir.

        Linear interpolation between retained samples; exact while
        fewer than :data:`MAX_SAMPLES` values have been recorded.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's accumulation into this one.

        Moments add exactly; the reservoirs concatenate and re-decimate
        to the bound.  Used by the mp backend to aggregate each
        worker's locally recorded distributions at the coordinator.
        """
        self.count += other.count
        self.total += other.total
        self.sq_total += other.sq_total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            if self.min is None or bound < self.min:
                self.min = bound
            if self.max is None or bound > self.max:
                self.max = bound
        self.samples.extend(other.samples)
        self._stride = max(self._stride, other._stride)
        while len(self.samples) > self.MAX_SAMPLES:
            self.samples = self.samples[::2]
            self._stride *= 2

    def state(self) -> Dict[str, object]:
        """Plain-dict snapshot (wire format for distributed merging)."""
        return {
            "count": self.count,
            "total": self.total,
            "sq_total": self.sq_total,
            "min": self.min,
            "max": self.max,
            "samples": list(self.samples),
            "stride": self._stride,
        }

    def merge_state(self, state: Dict[str, object]) -> None:
        """Merge a :meth:`state` snapshot (possibly from another process)."""
        other = Histogram(self.name)
        other.count = int(state["count"])
        other.total = float(state["total"])
        other.sq_total = float(state["sq_total"])
        other.min = state["min"]
        other.max = state["max"]
        other.samples = list(state["samples"])
        other._stride = int(state.get("stride", 1))
        self.merge(other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Histogram({self.name}: n={self.count}, "
                f"mean={self.mean:.3g})")


class TimeSeries:
    """An append-only (time, value) series, e.g. clock-skew samples."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def window_extrema(self, buckets: int) -> List[Tuple[float, float, float]]:
        """Split the series into ``buckets`` intervals of equal time.

        Returns ``(interval_midpoint, min, max)`` triples — the format
        used by the paper's Figure 7 clock-skew plots.
        """
        if not self.times or buckets <= 0:
            return []
        t0, t1 = self.times[0], self.times[-1]
        span = (t1 - t0) or 1.0
        out: List[Tuple[float, float, float]] = []
        lo = [math.inf] * buckets
        hi = [-math.inf] * buckets
        seen = [False] * buckets
        for t, v in zip(self.times, self.values):
            i = min(int((t - t0) / span * buckets), buckets - 1)
            seen[i] = True
            lo[i] = min(lo[i], v)
            hi[i] = max(hi[i], v)
        for i in range(buckets):
            if seen[i]:
                mid = t0 + span * (i + 0.5) / buckets
                out.append((mid, lo[i], hi[i]))
        return out


class StatGroup:
    """A named bag of counters/histograms/series plus child groups.

    Each model owns a group; the simulator stitches them into one tree
    which :mod:`repro.sim.results` snapshots at the end of a run.
    """

    __slots__ = ("name", "counters", "histograms", "series", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.series: Dict[str, TimeSeries] = {}
        self.children: Dict[str, "StatGroup"] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = Counter(name)
            self.counters[name] = c
        return c

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = Histogram(name)
            self.histograms[name] = h
        return h

    def timeseries(self, name: str) -> TimeSeries:
        s = self.series.get(name)
        if s is None:
            s = TimeSeries(name)
            self.series[name] = s
        return s

    def child(self, name: str) -> "StatGroup":
        g = self.children.get(name)
        if g is None:
            g = StatGroup(name)
            self.children[name] = g
        return g

    def walk(self, prefix: str = "") -> Iterable[Tuple[str, Counter]]:
        """Yield (dotted-path, counter) for the whole subtree."""
        base = f"{prefix}{self.name}"
        for c in self.counters.values():
            yield f"{base}.{c.name}", c
        for child in self.children.values():
            yield from child.walk(f"{base}.")

    def walk_histograms(self, prefix: str = "") -> Iterable[Tuple[str, Histogram]]:
        """Yield (dotted-path, histogram) for the whole subtree."""
        base = f"{prefix}{self.name}"
        for h in self.histograms.values():
            yield f"{base}.{h.name}", h
        for child in self.children.values():
            yield from child.walk_histograms(f"{base}.")

    def to_dict(self) -> Dict[str, object]:
        """Flatten into a plain dict snapshot (for results objects)."""
        out: Dict[str, object] = {}
        for path, c in self.walk():
            out[path] = c.value
        return out

    def add_flat(self, flat: Dict[str, int]) -> None:
        """Merge a flattened counter snapshot into this tree.

        Keys are dotted paths rooted at this group's name (the format
        :meth:`to_dict` produces); missing children and counters are
        created.  Used by the distributed backend to fold each worker's
        locally accumulated statistics back into the coordinator's tree.
        """
        prefix = f"{self.name}."
        for path, value in flat.items():
            if not path.startswith(prefix):
                raise ValueError(
                    f"counter path {path!r} is not rooted at {self.name!r}")
            *groups, name = path[len(prefix):].split(".")
            node = self
            for part in groups:
                node = node.child(part)
            node.counter(name).add(int(value))

    def histogram_states(self) -> Dict[str, Dict[str, object]]:
        """Flatten every histogram into ``{dotted-path: state}``.

        The histogram counterpart of :meth:`to_dict`, used by mp
        workers to ship locally recorded distributions to the
        coordinator (counters alone cannot carry min/max/quantiles).
        """
        return {path: h.state() for path, h in self.walk_histograms()}

    def merge_histogram_states(self,
                               flat: Dict[str, Dict[str, object]]) -> None:
        """Merge a :meth:`histogram_states` snapshot into this tree."""
        prefix = f"{self.name}."
        for path, state in flat.items():
            if not path.startswith(prefix):
                raise ValueError(
                    f"histogram path {path!r} is not rooted at {self.name!r}")
            *groups, name = path[len(prefix):].split(".")
            node = self
            for part in groups:
                node = node.child(part)
            node.histogram(name).merge_state(state)

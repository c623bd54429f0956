"""Low-overhead scoped host timers with self/cumulative attribution.

The profiler answers "where does the *host's* wall time go?" for one
simulator process.  It keeps a stack of open scopes; entering a scope
records ``perf_counter_ns`` once, exiting records it again and credits
the elapsed nanoseconds to the scope's *cumulative* time, the elapsed
time minus the time spent in child scopes to its *self* time, and the
whole interval to the parent's child accumulator.  Self times therefore
partition the instrumented wall time: summing ``self_ns`` over all
scopes counts every instrumented nanosecond exactly once.

Host profiling is the one part of the tree sanctioned to read wall
clocks (``src/repro/profile/`` is D001-exempt by scope, see
:mod:`repro.check.lint`); everything it measures is host time, never
simulated time.  The profiler is purely observational — it draws no
RNG, charges no cycles, and a profiled run produces byte-identical
simulation metrics to an unprofiled one.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Callable, Dict, List, Optional


class ScopeStats:
    """Accumulated timing of one named scope."""

    __slots__ = ("calls", "cum_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.cum_ns = 0
        self.self_ns = 0

    def add(self, calls: int, cum_ns: int, self_ns: int) -> None:
        self.calls += calls
        self.cum_ns += cum_ns
        self.self_ns += self_ns

    def to_dict(self) -> Dict[str, int]:
        return {"calls": self.calls, "cum_ns": self.cum_ns,
                "self_ns": self.self_ns}


class HostProfiler:
    """Stack-based scoped timer; one instance per simulator process."""

    def __init__(self) -> None:
        self.scopes: Dict[str, ScopeStats] = {}
        #: Open scopes: [name, start_ns, child_ns] frames.
        self._stack: List[list] = []
        self._run_start_ns: Optional[int] = None
        self._run_stop_ns: Optional[int] = None

    # -- scope entry/exit ----------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter_ns(), 0])

    def exit(self) -> None:
        name, start_ns, child_ns = self._stack.pop()
        elapsed = perf_counter_ns() - start_ns
        stats = self.scopes.get(name)
        if stats is None:
            stats = self.scopes[name] = ScopeStats()
        stats.calls += 1
        stats.cum_ns += elapsed
        stats.self_ns += max(elapsed - child_ns, 0)
        if self._stack:
            self._stack[-1][2] += elapsed

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A callable timing every invocation of ``fn`` under ``name``."""

        def timed(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    # -- run bracketing ------------------------------------------------------

    def start_run(self) -> None:
        if self._run_start_ns is None:  # the first call opens it
            self._run_start_ns = perf_counter_ns()

    def stop_run(self) -> None:
        self._run_stop_ns = perf_counter_ns()

    @property
    def run_ns(self) -> int:
        """Wall nanoseconds between start_run and stop_run (0 if unset)."""
        if self._run_start_ns is None or self._run_stop_ns is None:
            return 0
        return self._run_stop_ns - self._run_start_ns

    # -- export / merge ------------------------------------------------------

    def scope_dict(self) -> Dict[str, Dict[str, int]]:
        """Plain-dict snapshot of every scope (wire/JSON friendly)."""
        return {name: stats.to_dict()
                for name, stats in sorted(self.scopes.items())}

    def instrumented_ns(self) -> int:
        """Nanoseconds covered by any scope (self times partition it)."""
        return sum(s.self_ns for s in self.scopes.values())

    def absorb(self, scope_dict: Dict[str, Dict[str, int]],
               prefix: str = "") -> None:
        """Merge another profiler's exported scopes into this one."""
        for name, row in scope_dict.items():
            stats = self.scopes.get(prefix + name)
            if stats is None:
                stats = self.scopes[prefix + name] = ScopeStats()
            stats.add(row["calls"], row["cum_ns"], row["self_ns"])


def create_profiler(config) -> Optional[HostProfiler]:
    """``None`` when profiling is off — the observer trick: call sites
    keep their original methods and hot paths pay nothing at all."""
    if config is None or not config.enabled:
        return None
    return HostProfiler()

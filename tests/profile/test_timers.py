"""HostProfiler unit tests: the self/cum partition invariant."""

from __future__ import annotations

import time

from repro.common.config import ProfileConfig
from repro.profile.timers import HostProfiler, create_profiler


def test_single_scope_self_equals_cum():
    prof = HostProfiler()
    prof.enter("a")
    time.sleep(0.001)
    prof.exit()
    stats = prof.scopes["a"]
    assert stats.calls == 1
    assert stats.cum_ns > 0
    assert stats.self_ns == stats.cum_ns


def test_nested_scopes_split_self_time():
    prof = HostProfiler()
    prof.enter("outer")
    time.sleep(0.001)
    prof.enter("inner")
    time.sleep(0.002)
    prof.exit()
    prof.exit()
    outer = prof.scopes["outer"]
    inner = prof.scopes["inner"]
    # The child's whole elapsed time is deducted from the parent's self
    # time, so cum strictly dominates self for the parent only.
    assert outer.cum_ns > inner.cum_ns
    assert outer.self_ns == outer.cum_ns - inner.cum_ns
    assert inner.self_ns == inner.cum_ns


def test_self_times_partition_instrumented_time():
    prof = HostProfiler()
    for _ in range(5):
        prof.enter("a")
        prof.enter("b")
        prof.enter("c")
        prof.exit()
        prof.exit()
        prof.exit()
    total_self = sum(s.self_ns for s in prof.scopes.values())
    # Every instrumented nanosecond is counted exactly once: the sum of
    # self times equals the top-level scope's cumulative time.
    assert prof.instrumented_ns() == total_self
    assert total_self == prof.scopes["a"].cum_ns


def test_recursive_scope_does_not_double_count():
    prof = HostProfiler()
    prof.enter("f")
    prof.enter("f")
    time.sleep(0.001)
    prof.exit()
    prof.exit()
    stats = prof.scopes["f"]
    assert stats.calls == 2
    # The inner activation's elapsed time lands in cum twice (that is
    # what cumulative means under recursion) but in self exactly once.
    assert stats.self_ns <= stats.cum_ns


def test_wrap_times_every_call_and_keeps_reference():
    prof = HostProfiler()

    def double(x):
        return 2 * x

    timed = prof.wrap("math", double)
    assert timed(21) == 42
    assert timed(2) == 4
    assert timed.__wrapped__ is double
    assert prof.scopes["math"].calls == 2


def test_run_bracket_is_idempotent():
    prof = HostProfiler()
    assert prof.run_ns == 0  # unset bracket reads as zero
    prof.start_run()
    time.sleep(0.001)
    prof.start_run()  # second open must not reset the origin
    prof.stop_run()
    first = prof.run_ns
    assert first >= 1_000_000


def test_scope_dict_roundtrips_through_absorb():
    prof = HostProfiler()
    prof.enter("a")
    prof.exit()
    prof.absorb({"b": {"calls": 1, "cum_ns": 100, "self_ns": 100}})
    merged = HostProfiler()
    merged.absorb(prof.scope_dict())
    merged.absorb(prof.scope_dict(), prefix="w0.")
    assert merged.scopes["a"].calls == 1
    assert merged.scopes["w0.b"].cum_ns == 100
    assert merged.scope_dict()["b"] == prof.scope_dict()["b"]


def test_create_profiler_observer_trick():
    # Disabled profiling yields no object at all: call sites keep their
    # original methods and pay zero overhead.
    assert create_profiler(None) is None
    assert create_profiler(ProfileConfig(enabled=False)) is None
    assert isinstance(create_profiler(ProfileConfig(enabled=True)),
                      HostProfiler)

"""The span recorder's arithmetic, and that tracing leaves no trace."""

import tracer
from tracer import CALLS, CUM_NS, SELF_NS


class FakeClock:
    """Advances only when told to, so every duration is exact."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def spend(self, ns):
        self.now += ns


def build_tree(recorder, clock):
    """root(coarse) = 5 + a + 3 + a + b ; a = 10 + leaf ; leaf = 7 ;
    b(coarse) = 20.  Expected: leaf 2 calls, a 2 calls."""
    leaf = recorder.wrap("leaf", lambda: clock.spend(7))

    def a_body():
        clock.spend(10)
        leaf()

    a = recorder.wrap("a", a_body)
    b = recorder.wrap("b", lambda: clock.spend(20), coarse=True)

    def root_body():
        clock.spend(5)
        a()
        clock.spend(3)
        a()
        b()

    return recorder.wrap("root", root_body, coarse=True)


def test_self_times_partition_the_root():
    clock = FakeClock()
    recorder = tracer.Recorder(clock)
    build_tree(recorder, clock)()
    totals = recorder.totals
    assert totals["leaf"] == [2, 14, 14]
    assert totals["a"] == [2, 20, 34]
    assert totals["b"] == [1, 20, 20]
    assert totals["root"] == [1, 8, 62]
    # Self times count every nanosecond of the root exactly once.
    assert sum(row[SELF_NS] for row in totals.values()) == \
        totals["root"][CUM_NS] == clock.now
    assert recorder.stack == []


def test_coarse_spans_keep_parent_and_op_id():
    clock = FakeClock()
    recorder = tracer.Recorder(clock)
    recorder.op_id = "job7"
    build_tree(recorder, clock)()
    assert recorder.spans == [["root", 0, 62, -1, "job7"],
                              ["b", 42, 62, 0, "job7"]]


def test_exception_still_closes_the_span():
    clock = FakeClock()
    recorder = tracer.Recorder(clock)

    def boom():
        clock.spend(4)
        raise ValueError("x")

    outer = recorder.wrap("outer", recorder.wrap("inner", boom),
                          coarse=True)
    try:
        outer()
    except ValueError:
        pass
    assert recorder.stack == [] and recorder._open_coarse == []
    assert recorder.totals["inner"] == [1, 4, 4]
    assert recorder.totals["outer"] == [1, 0, 4]


def test_since_reports_only_what_followed_the_mark():
    clock = FakeClock()
    recorder = tracer.Recorder(clock)
    work = recorder.wrap("work", lambda: clock.spend(3))
    with recorder.span("setup"):
        work()
    mark = recorder.mark()
    with recorder.span("op"):
        work()
        work()
    assert recorder.since(mark) == {"work": [2, 6, 6], "op": [1, 0, 6]}
    assert recorder.totals["work"][CALLS] == 3


def _tiny_digest():
    import checks
    from repro.common.config import SimulationConfig
    from repro.distrib.wire import WorkloadRef
    from repro.sim.runner import create_simulator
    config = SimulationConfig(num_tiles=4, seed=7)
    result = create_simulator(config).run(WorkloadRef("fft", 4, 0.2))
    return checks.result_digest(result)["sha256"]


def test_wrappers_are_fully_removed_after_a_traced_op():
    import importlib
    targets = []
    for _span, module, cls, attrs, _coarse, _shim in tracer.PATCH_TABLE:
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        targets += [(owner, attr) for attr in attrs if attr in vars(owner)]
    before = [vars(owner)[attr] for owner, attr in targets]
    untraced = _tiny_digest()

    recorder = tracer.Recorder()
    patches = tracer.install(recorder)
    try:
        assert all(vars(o)[a] is not f
                   for (o, a), f in zip(targets, before))
        with recorder.span("op"):
            traced = _tiny_digest()
    finally:
        tracer.uninstall(patches)

    assert [vars(owner)[attr] for owner, attr in targets] == before
    assert all(vars(o)[a] is f for (o, a), f in zip(targets, before))
    assert traced == untraced == _tiny_digest()
    # The traced run really went through the wrappers.
    assert recorder.totals["memory.controller"][CALLS] > 0
    assert recorder.counts["host.turns"] > 0
    assert sum(r[SELF_NS] for r in recorder.totals.values()) == \
        recorder.totals["op"][CUM_NS]

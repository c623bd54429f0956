"""Workload-construction helpers in repro.workloads.base."""

import pytest

from repro.common.errors import ConfigError
from repro.sim.simulator import Simulator
from repro.workloads.base import (
    WORKLOADS,
    WorkloadFactory,
    fork_join_main,
    get_workload,
    register_workload,
    stream_touch,
)
from tests.conftest import tiny_config


class TestRegistry:
    def test_register_then_get(self):
        factory = WorkloadFactory(name="__test_dummy__",
                                  build=lambda nthreads, scale: None,
                                  description="test")
        try:
            register_workload(factory)
            assert get_workload("__test_dummy__") is factory
        finally:
            del WORKLOADS["__test_dummy__"]

    def test_duplicate_rejected(self):
        name = get_workload("fft").name
        with pytest.raises(ConfigError):
            register_workload(WorkloadFactory(name=name,
                                              build=lambda: None))

    def test_main_passes_parameters(self):
        captured = {}

        def build(nthreads, scale, extra=0):
            captured.update(nthreads=nthreads, scale=scale, extra=extra)
            return lambda ctx: iter(())

        factory = WorkloadFactory(name="__params__", build=build)
        factory.main(nthreads=4, scale=2.0, extra=7)
        assert captured == {"nthreads": 4, "scale": 2.0, "extra": 7}


class TestForkJoinMain:
    def test_setup_fork_work_join_teardown(self):
        def setup(ctx):
            base = yield from ctx.calloc(64, align=64)
            return base

        def worker(ctx, index, base):
            value = yield from ctx.load_u64(base + index * 8)
            yield from ctx.store_u64(base + index * 8, value + index)

        def teardown(ctx, base):
            total = 0
            for i in range(4):
                total += yield from ctx.load_u64(base + i * 8)
            return total

        main = fork_join_main(worker, nthreads=4, setup=setup,
                              teardown=teardown)
        result = Simulator(tiny_config(4)).run(main)
        assert result.main_result == 0 + 1 + 2 + 3

    def test_main_participates_as_worker_zero(self):
        seen = []

        def worker(ctx, index, state):
            seen.append(index)
            yield from ctx.compute(1)

        main = fork_join_main(worker, nthreads=3)
        Simulator(tiny_config(3)).run(main)
        assert sorted(seen) == [0, 1, 2]

    def test_without_setup_or_teardown(self):
        def worker(ctx, index, state):
            yield from ctx.compute(5)

        main = fork_join_main(worker, nthreads=2)
        result = Simulator(tiny_config(2)).run(main)
        assert result.main_result is None


class TestStreamTouch:
    def test_reads_and_optionally_writes(self):
        def main(ctx):
            base = yield from ctx.calloc(256, align=64)
            yield from stream_touch(ctx, base, count=16, stride=8,
                                    write=True)
            return (yield from ctx.load_u64(base))

        result = Simulator(tiny_config(2)).run(main)
        # The write transformed the initial zero deterministically.
        assert result.main_result == 3037000493

    def test_read_only_leaves_memory(self):
        def main(ctx):
            base = yield from ctx.calloc(128, align=64)
            yield from ctx.store_u64(base, 9)
            yield from stream_touch(ctx, base, count=8, stride=8,
                                    write=False)
            return (yield from ctx.load_u64(base))

        assert Simulator(tiny_config(2)).run(main).main_result == 9

"""The out-of-order core timing model."""

import pytest

from repro.common.config import CoreConfig
from repro.common.errors import ConfigError
from repro.common.stats import StatGroup
from repro.core.factory import create_core_model
from repro.core.instruction import (
    BranchInstruction,
    Instruction,
    PseudoInstruction,
    PseudoKind,
)
from repro.core.isa import InstructionClass
from repro.core.ooo_model import OutOfOrderCoreModel
from repro.core.perf_model import CorePerfModel


def ooo(rob=8, width=2, **kwargs):
    config = CoreConfig(model="out_of_order", rob_entries=rob,
                        dispatch_width=width, **kwargs)
    return OutOfOrderCoreModel(config, StatGroup("ooo"))


def load(latency, address=0x1000):
    """``execute_memory``'s arguments for one 8-byte load."""
    return InstructionClass.LOAD, address, 8, latency


class TestFactory:
    def test_selects_models(self):
        in_order = create_core_model(CoreConfig(), StatGroup("a"))
        assert isinstance(in_order, CorePerfModel)
        out = create_core_model(CoreConfig(model="out_of_order"),
                                StatGroup("b"))
        assert isinstance(out, OutOfOrderCoreModel)

    def test_unknown_model_rejected_by_validate(self):
        with pytest.raises(ConfigError):
            CoreConfig(model="vliw").validate()


class TestMemoryLevelParallelism:
    def test_loads_overlap(self):
        """N loads within the window cost far less than N x latency."""
        core = ooo(rob=16)
        for i in range(8):
            core.execute_memory(*load(500, address=i * 64))
        core.drain()
        # Serial execution would take >= 8 * 500; overlapped, ~500.
        assert core.cycles < 2 * 500

    def test_in_order_model_serializes_same_stream(self):
        in_order = CorePerfModel(CoreConfig(), StatGroup("io"))
        for i in range(8):
            in_order.execute_memory(*load(500, address=i * 64))
        assert in_order.cycles >= 8 * 500

    def test_window_pressure_stalls(self):
        """More in-flight ops than the window -> partial serialization."""
        small = ooo(rob=2)
        for i in range(8):
            small.execute_memory(*load(500, address=i * 64))
        small.drain()
        big = ooo(rob=16)
        for i in range(8):
            big.execute_memory(*load(500, address=i * 64))
        big.drain()
        assert small.cycles > big.cycles

    def test_drain_waits_for_slowest(self):
        core = ooo()
        core.execute_memory(*load(100))
        core.execute_memory(*load(900, address=0x2000))
        core.drain()
        assert core.cycles >= 900


class TestDispatch:
    def test_width_halves_issue_time(self):
        narrow = ooo(width=1)
        wide = ooo(width=4)
        for model in (narrow, wide):
            model.execute(Instruction(InstructionClass.IALU, 1000))
        assert wide.cycles < narrow.cycles
        assert narrow.cycles >= 1000

    def test_instruction_counting(self):
        core = ooo()
        core.execute(Instruction(InstructionClass.GENERIC, 123))
        core.execute_memory(*load(10))
        assert core.instruction_count == 124


class TestBranches:
    def test_mispredict_flushes_overlap(self):
        core = ooo(rob=16)
        core.execute_memory(*load(1000))
        # A mispredicted branch drains the in-flight load.
        core.execute_branch(BranchInstruction(0x100, True))
        assert core.cycles >= 1000

    def test_predicted_branch_keeps_overlap(self):
        core = ooo(rob=16)
        for _ in range(4):  # train the predictor
            core.execute_branch(BranchInstruction(0x100, True))
        start = core.cycles
        core.execute_memory(*load(1000))
        core.execute_branch(BranchInstruction(0x100, True))
        # No flush: the load is still in flight.
        assert core.cycles - start < 1000


class TestSynchronization:
    def test_sync_drains_then_forwards(self):
        core = ooo()
        core.execute_memory(*load(700))
        core.execute_pseudo(PseudoInstruction(PseudoKind.SYNC, time=100))
        assert core.cycles >= 700  # drained past the load

    def test_sync_forward_to_future(self):
        core = ooo()
        core.execute_pseudo(PseudoInstruction(PseudoKind.SYNC,
                                              time=5000))
        assert core.cycles == 5000


class TestEndToEnd:
    def test_ooo_faster_on_memory_parallel_program(self):
        """A full simulation: OoO hides miss latency the in-order pays."""
        from repro.sim.simulator import Simulator
        from tests.conftest import tiny_config

        def streaming(ctx):
            base = yield from ctx.malloc(64 * 256, align=64)
            for i in range(256):  # independent line-striding loads
                yield from ctx.load_u64(base + i * 64)
            return True

        cycles = {}
        for model in ("in_order", "out_of_order"):
            config = tiny_config(2)
            config.core.model = model
            result = Simulator(config).run(streaming)
            assert result.main_result is True
            cycles[model] = result.simulated_cycles
        assert cycles["out_of_order"] < 0.7 * cycles["in_order"]

    def test_functional_results_identical(self):
        from repro.sim.simulator import Simulator
        from tests.conftest import tiny_config

        def program(ctx):
            base = yield from ctx.calloc(128)
            total = 0
            for i in range(16):
                yield from ctx.store_u64(base + (i % 8) * 8, i * 3)
                total += yield from ctx.load_u64(base + (i % 8) * 8)
            return total

        results = set()
        for model in ("in_order", "out_of_order"):
            config = tiny_config(2)
            config.core.model = model
            results.add(Simulator(config).run(program).main_result)
        assert len(results) == 1

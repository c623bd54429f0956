"""The in-order core performance model."""

import pytest

from repro.common.config import CoreConfig
from repro.common.stats import StatGroup
from repro.core.instruction import (
    BranchInstruction,
    Instruction,
    PseudoInstruction,
    PseudoKind,
)
from repro.core.isa import InstructionClass
from repro.core.perf_model import STORE_FORWARD_LATENCY, CorePerfModel


@pytest.fixture
def core():
    return CorePerfModel(CoreConfig(), StatGroup("core"))


class TestInstructionCosts:
    def test_generic_costs_one_cycle(self, core):
        core.execute(Instruction(InstructionClass.GENERIC, 10))
        assert core.cycles == 10

    def test_configured_class_costs(self, core):
        core.execute(Instruction(InstructionClass.FPU_DIV, 1))
        assert core.cycles == CoreConfig().instruction_costs["fpu_div"]

    def test_unknown_class_defaults_to_one(self):
        config = CoreConfig(instruction_costs={})
        model = CorePerfModel(config, StatGroup("core"))
        model.execute(Instruction(InstructionClass.IMUL, 3))
        assert model.cycles == 3

    def test_instruction_count_tracks_batches(self, core):
        core.execute(Instruction(InstructionClass.IALU, 100))
        assert core.instruction_count == 100


class TestBranches:
    def test_mispredict_pays_penalty(self, core):
        # First taken branch from weak-not-taken state mispredicts.
        mispredicted = core.execute_branch(BranchInstruction(0x100, True))
        assert mispredicted
        assert core.cycles == 1 + CoreConfig().branch_mispredict_penalty

    def test_correct_prediction_is_cheap(self, core):
        for _ in range(4):
            core.execute_branch(BranchInstruction(0x100, True))
        before = core.cycles
        core.execute_branch(BranchInstruction(0x100, True))
        assert core.cycles - before == 1


class TestMemory:
    def test_load_charges_full_latency(self, core):
        core.execute_memory(InstructionClass.LOAD, 0x1000, 8, 50)
        assert core.cycles == 1 + 50

    def test_store_is_buffered(self, core):
        core.execute_memory(InstructionClass.STORE, 0x1000, 8, 500)
        assert core.cycles == 1  # hidden by the store buffer

    def test_store_buffer_backpressure(self, core):
        for i in range(CoreConfig().store_buffer_entries):
            core.execute_memory(InstructionClass.STORE, i * 64, 8, 10_000)
        before = core.cycles
        core.execute_memory(InstructionClass.STORE, 0x9000, 8, 10_000)
        assert core.cycles - before > 1  # stalled for a drain

    def test_store_to_load_forwarding(self, core):
        core.execute_memory(InstructionClass.STORE, 0x1000, 8, 10_000)
        before = core.cycles
        core.execute_memory(InstructionClass.LOAD, 0x1000, 8, 10_000)
        assert core.cycles - before == 1 + STORE_FORWARD_LATENCY

    def test_non_memory_class_rejected(self, core):
        with pytest.raises(ValueError):
            core.execute_memory(InstructionClass.IALU, 0, 8, 1)


class TestPseudoInstructions:
    def test_sync_forwards_clock(self, core):
        core.execute_pseudo(PseudoInstruction(PseudoKind.SYNC, time=500))
        assert core.cycles == 500

    def test_sync_in_past_is_noop(self, core):
        core.execute(Instruction(InstructionClass.GENERIC, 100))
        core.execute_pseudo(PseudoInstruction(PseudoKind.SYNC, time=50))
        assert core.cycles == 100

    def test_message_receive_forwards_and_charges(self, core):
        core.execute_pseudo(PseudoInstruction(
            PseudoKind.MESSAGE_RECEIVE, time=200, cost=20))
        assert core.cycles == 220

    def test_cost_only_pseudo(self, core):
        core.execute_pseudo(PseudoInstruction(PseudoKind.COST, cost=33))
        assert core.cycles == 33

    def test_sync_wait_cycles_recorded(self):
        stats = StatGroup("core")
        model = CorePerfModel(CoreConfig(), stats)
        model.execute_pseudo(PseudoInstruction(PseudoKind.SYNC, time=100))
        assert stats.counter("sync_wait_cycles").value == 100

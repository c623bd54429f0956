"""Workload kernels: completion, functional results, sharing patterns."""

import json
import os
import subprocess
import sys

import pytest

from repro.common.errors import ConfigError
from repro.sim.simulator import Simulator
from repro.workloads.base import KERNEL_MODULES, get_workload
from tests.conftest import tiny_config

ALL = sorted(KERNEL_MODULES)


class TestRegistry:
    def test_all_thirteen_registered(self):
        expected = {
            "barnes", "blackscholes", "cholesky", "fft", "fmm",
            "lu_cont", "lu_non_cont", "matrix_multiply", "ocean_cont",
            "ocean_non_cont", "radix", "water_nsquared", "water_spatial",
        }
        assert set(KERNEL_MODULES) == expected

    def test_unknown_workload_raises(self):
        with pytest.raises(ConfigError):
            get_workload("specjbb")

    def test_factories_carry_descriptions(self):
        for name in ALL:
            assert get_workload(name).description


REGISTRATIONS = """
import importlib, json
from repro.workloads.base import KERNEL_MODULES, WORKLOADS
registered = {}
for module in sorted(set(KERNEL_MODULES.values())):
    before = set(WORKLOADS)
    importlib.import_module("repro.workloads." + module)
    registered[module] = sorted(set(WORKLOADS) - before)
print(json.dumps(registered))
"""


class TestKernelTable:
    """``KERNEL_MODULES`` stays in step with what the modules register."""

    def test_each_module_registers_exactly_its_table_names(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        out = subprocess.run(
            [sys.executable, "-c", REGISTRATIONS], check=True,
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        expected = {}
        for name, module in KERNEL_MODULES.items():
            expected.setdefault(module, []).append(name)
        assert json.loads(out.stdout) == {
            module: sorted(names) for module, names in expected.items()}


@pytest.mark.parametrize("name", ALL)
class TestExecution:
    def test_runs_to_completion_with_coherent_memory(self, name):
        simulator = Simulator(tiny_config(4))
        program = get_workload(name).main(nthreads=4, scale=0.12)
        result = simulator.run(program)
        simulator.engine.check_coherence_invariants()
        assert result.simulated_cycles > 0
        assert result.main_result is not None

    def test_deterministic_given_seed(self, name):
        program = get_workload(name).main(nthreads=4, scale=0.12)
        a = Simulator(tiny_config(4)).run(program)
        program = get_workload(name).main(nthreads=4, scale=0.12)
        b = Simulator(tiny_config(4)).run(program)
        assert a.simulated_cycles == b.simulated_cycles
        assert a.main_result == b.main_result


class TestFunctionalResults:
    def test_radix_really_sorts(self):
        result = Simulator(tiny_config(4)).run(
            get_workload("radix").main(nthreads=4, scale=0.2))
        assert result.main_result is True

    def test_cholesky_drains_queue(self):
        result = Simulator(tiny_config(4)).run(
            get_workload("cholesky").main(nthreads=4, scale=0.3))
        assert result.main_result is True

    def test_blackscholes_prices_positive(self):
        result = Simulator(tiny_config(4)).run(
            get_workload("blackscholes").main(nthreads=4, scale=0.2))
        assert result.main_result > 0


class TestSharingPatterns:
    """The properties Figure 8 depends on must hold at small scale."""

    def run_classified(self, name, scale=0.2, tiles=4):
        cfg = tiny_config(tiles)
        cfg.memory.classify_misses = True
        simulator = Simulator(cfg)
        result = simulator.run(get_workload(name).main(nthreads=tiles,
                                                       scale=scale))
        return result

    def test_fft_all_to_all_generates_sharing_misses(self):
        result = self.run_classified("fft")
        sharing = result.miss_breakdown.get("true_sharing", 0) + \
            result.miss_breakdown.get("false_sharing", 0)
        assert sharing > 0

    def test_fmm_low_communication(self):
        """fmm moves far fewer bytes per instruction than fft."""
        fmm = Simulator(tiny_config(4)).run(
            get_workload("fmm").main(nthreads=4, scale=0.2))
        fft = Simulator(tiny_config(4)).run(
            get_workload("fft").main(nthreads=4, scale=0.2))

        def comm_ratio(result):
            return result.counter("transport.bytes_sent") \
                / result.total_instructions

        assert comm_ratio(fmm) < comm_ratio(fft)

    def test_water_nsquared_takes_locks(self):
        result = Simulator(tiny_config(4)).run(
            get_workload("water_nsquared").main(nthreads=4, scale=0.3))
        assert result.counter("mcp.futex.futex_waits") >= 0
        assert result.counter("mcp.barrier_releases") >= 2

    def test_matrix_multiply_uses_messages(self):
        result = Simulator(tiny_config(4)).run(
            get_workload("matrix_multiply").main(nthreads=4, scale=1.0))
        assert result.counter("network.user_net.packets") > 0

    def test_lu_non_cont_touches_more_lines(self):
        """Strided layout: blocks share boundary lines with other
        owners -> coherence misses the contiguous layout avoids."""
        cont = Simulator(tiny_config(4)).run(
            get_workload("lu_cont").main(nthreads=4, n=32, block=4,
                                         sample=1))
        non = Simulator(tiny_config(4)).run(
            get_workload("lu_non_cont").main(nthreads=4, n=32, block=4,
                                             sample=1))
        cont_misses = cont.counter("read_misses") + \
            cont.counter("write_misses")
        non_misses = non.counter("read_misses") + \
            non.counter("write_misses")
        assert non_misses > cont_misses


class TestScaleParameter:
    def test_scale_grows_work(self):
        small = Simulator(tiny_config(4)).run(
            get_workload("fft").main(nthreads=4, scale=0.12))
        large = Simulator(tiny_config(4)).run(
            get_workload("fft").main(nthreads=4, scale=0.5))
        assert large.total_instructions > small.total_instructions

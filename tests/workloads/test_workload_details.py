"""Per-workload pattern details that the experiments rely on."""


from repro.sim.simulator import Simulator
from repro.workloads.base import get_workload
from tests.conftest import tiny_config


def run(name, tiles=4, classify=False, **params):
    cfg = tiny_config(tiles)
    cfg.memory.classify_misses = classify
    simulator = Simulator(cfg)
    program = get_workload(name).main(nthreads=tiles, **params)
    result = simulator.run(program)
    simulator.engine.check_coherence_invariants()
    return result


class TestFft:
    def test_transpose_reads_remote_chunks(self):
        """The all-to-all phase forces inter-tile coherence traffic."""
        result = run("fft", scale=0.2)
        assert result.counter("read_misses") > 0
        # Shared (sharing) misses, not just cold: the transpose reads
        # data the owners wrote.
        classified = run("fft", scale=0.2, classify=True)
        sharing = classified.miss_breakdown.get("true_sharing", 0)
        assert sharing > 0

    def test_point_count_rounds_to_transpose_block(self):
        """points_per_thread must divide by nthreads for the transpose."""
        result = run("fft", tiles=4, points=1000)
        assert result.main_result is not None


class TestRadix:
    def test_sorted_at_larger_scale(self):
        assert run("radix", scale=0.5).main_result is True

    def test_histogram_columns_published(self):
        result = run("radix", scale=0.2)
        # The hist array writes create upgrades/invalidations between
        # neighbouring threads' columns.
        assert result.counter("write_misses") > 0

    def test_radix_parameter(self):
        assert run("radix", scale=0.2, radix=16).main_result is True


class TestWater:
    def test_nsquared_uses_per_molecule_locks(self):
        result = run("water_nsquared", scale=0.4, lock_every=2)
        # Lock words really get contended (futex waits observed) or at
        # least acquired; the RMW traffic shows as write misses.
        assert result.counter("write_misses") > 0

    def test_spatial_iterations_parameter(self):
        one = run("water_spatial", scale=0.3, iterations=1)
        three = run("water_spatial", scale=0.3, iterations=3)
        assert three.total_instructions > 2 * one.total_instructions

    def test_spatial_less_traffic_than_nsquared(self):
        spatial = run("water_spatial", scale=0.3)
        nsq = run("water_nsquared", scale=0.3)

        def per_instruction_bytes(result):
            return result.counter("transport.bytes_sent") \
                / result.total_instructions

        assert per_instruction_bytes(spatial) < \
            per_instruction_bytes(nsq)


class TestBarnes:
    def test_tree_is_read_shared(self):
        result = run("barnes", scale=0.3, classify=True)
        # The rebuild invalidates readers: true sharing must appear.
        assert result.miss_breakdown.get("true_sharing", 0) > 0

    def test_iterations_parameter(self):
        one = run("barnes", scale=0.3, iterations=1)
        two = run("barnes", scale=0.3, iterations=2)
        assert two.total_instructions > one.total_instructions


class TestCholesky:
    def test_task_queue_drains_completely(self):
        assert run("cholesky", scale=0.5).main_result is True

    def test_lock_serializes_queue_pops(self):
        result = run("cholesky", scale=0.5)
        assert result.counter("mcp.futex.futex_waits") >= 0
        assert result.counter("upgrades") > 0


class TestMatmul:
    def test_ring_messages_per_step(self):
        result = run("matrix_multiply", tiles=4, block=3, steps=3)
        # steps * nthreads ring messages.
        assert result.counter("network.user_net.packets") == 3 * 4

    def test_blocks_are_line_padded(self):
        """No false sharing between neighbouring C blocks."""
        cfg = tiny_config(4)
        cfg.memory.classify_misses = True
        simulator = Simulator(cfg)
        program = get_workload("matrix_multiply").main(
            nthreads=4, block=3, steps=2)
        result = simulator.run(program)
        assert result.miss_breakdown.get("false_sharing", 0) == 0


class TestBlackscholes:
    def test_globals_shared_by_all_threads(self):
        from repro.memory.directory import DirState
        cfg = tiny_config(4)
        simulator = Simulator(cfg)
        program = get_workload("blackscholes").main(nthreads=4,
                                                    options=64)
        simulator.run(program)
        # Some line must end fully shared by all four tiles (the
        # globals table).
        fully_shared = 0
        for directory in simulator.engine.directories:
            for entry in directory.entries.values():
                if entry.state is DirState.SHARED and \
                        len(entry.sharers) == 4:
                    fully_shared += 1
        assert fully_shared > 0

    def test_prices_deterministic(self):
        a = run("blackscholes", options=64)
        b = run("blackscholes", options=64)
        assert a.main_result == b.main_result


class TestOcean:
    def test_iterations_parameter(self):
        two = run("ocean_cont", scale=0.3, iterations=2)
        four = run("ocean_cont", scale=0.3, iterations=4)
        assert four.total_instructions > 1.5 * two.total_instructions

    def test_non_cont_strided_traffic(self):
        cont = run("ocean_cont", scale=0.3)
        non = run("ocean_non_cont", scale=0.3)
        assert non.counter("read_misses") > cont.counter("read_misses")


class TestFmm:
    def test_compute_dominates(self):
        result = run("fmm", scale=0.4)
        memory_ops = result.counter(".loads") + result.counter(".stores")
        assert result.total_instructions > 10 * memory_ops

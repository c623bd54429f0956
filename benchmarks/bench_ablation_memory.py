"""Ablations on the memory system's design choices.

Two mechanisms DESIGN.md calls out are toggled/swept here:

* **Clean-shared forwarding** (``MemoryConfig.forward_shared_reads``) —
  with forwarding off, every S-state read miss re-reads the home DRAM
  controller; the widely read-shared globals of blackscholes then
  serialize behind one controller's 1/N bandwidth slice and the
  Figure 9 scaling knee collapses.
* **DRAM bandwidth partitioning** (paper §4.4) — the per-controller
  slice shrinks as 1/N with tile count, so memory service time grows
  linearly with tiles: the flattening mechanism behind Figure 9.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.sim.simulator import Simulator
from repro.workloads.base import get_workload

from conftest import paper_config, save_artifact

TILE_COUNTS = [1, 8, 32]
OPTIONS = 1024


def run_roi(tiles: int, forward: bool) -> int:
    config = paper_config(num_tiles=tiles)
    config.memory.forward_shared_reads = forward
    config.host.quantum_instructions = 200
    simulator = Simulator(config)
    program = get_workload("blackscholes").main(nthreads=tiles,
                                                options=OPTIONS)
    return simulator.run(program).parallel_cycles


@pytest.mark.benchmark(group="ablations")
def test_ablation_shared_read_forwarding(benchmark):
    cycles = {}

    def run_all():
        for forward in (True, False):
            for tiles in TILE_COUNTS:
                cycles[(forward, tiles)] = run_roi(tiles, forward)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table("Ablation: clean-shared cache-to-cache forwarding "
                  "(blackscholes ROI speedup vs 1 tile)",
                  ["tiles", "forwarding on", "forwarding off"])
    for tiles in TILE_COUNTS:
        on = cycles[(True, 1)] / cycles[(True, tiles)]
        off = cycles[(False, 1)] / cycles[(False, tiles)]
        table.add_row(tiles, f"{on:.2f}x", f"{off:.2f}x")
    save_artifact("ablation_forwarding", table)

    on32 = cycles[(True, 1)] / cycles[(True, 32)]
    off32 = cycles[(False, 1)] / cycles[(False, 32)]
    # Forwarding is what buys high-tile-count scaling.
    assert on32 > 1.5 * off32


@pytest.mark.benchmark(group="ablations")
def test_ablation_dram_service_scaling(benchmark):
    """Per-controller service time grows ~linearly with tile count."""
    from repro.common.config import DramConfig
    from repro.common.ids import TileId
    from repro.common.stats import StatGroup
    from repro.memory.dram import DramController
    from repro.sync.progress import ProgressEstimator

    def service(tiles: int) -> int:
        controller = DramController(TileId(0), DramConfig(), tiles,
                                    10 ** 9, ProgressEstimator(8),
                                    StatGroup("d"))
        return controller.service_cycles(64)

    counts = [1, 16, 64, 256, 1024]
    services = {}

    def run_all():
        for n in counts:
            services[n] = service(n)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table("Ablation: DRAM service time vs tile count "
                  "(64 B line, 5.13 GB/s total)",
                  ["tiles", "service cycles/line"])
    for n in counts:
        table.add_row(n, services[n])
    save_artifact("ablation_dram_partitioning", table)

    # Linear-in-tiles growth (the paper's static partitioning).
    assert services[64] == pytest.approx(64 * services[1], rel=0.10)
    assert services[1024] == pytest.approx(1024 * services[1], rel=0.10)


def _private_rmw(ctx):
    """Each thread reads its own block, then stores back-to-back.

    The dense store phase fills the store buffer, so MSI's upgrade
    round trips stall the pipeline; under MESI the lines were granted
    Exclusive during the read phase and every store is a silent E -> M
    cache hit.
    """
    def worker(ctx, index, base):
        lines = 64
        mine = base + index * lines * 64
        for i in range(lines):           # read phase: E under MESI
            yield from ctx.load_u64(mine + i * 64)
        for i in range(lines):           # dense store phase
            yield from ctx.store_u64(mine + i * 64, i)

    base = yield from ctx.malloc(8 * 64 * 64, align=64)
    threads = yield from ctx.spawn_workers(worker, 7, base)
    yield from worker(ctx, 7, base)
    yield from ctx.join_all(threads)
    return True


@pytest.mark.benchmark(group="ablations")
def test_ablation_msi_vs_mesi(benchmark):
    """MESI's Exclusive state removes the upgrade round trip on private
    read-then-write; the price is an owner-recall on the first remote
    read of an E line.  Both sides of the trade-off are shown: a
    private-RMW microkernel (pure win) and ocean_cont (upgrades halve,
    but boundary-row recalls give the time back).
    """
    from repro.workloads.base import get_workload as _get

    stats = {}

    def run_all():
        for protocol in ("msi", "mesi"):
            for name in ("private_rmw", "ocean_cont"):
                config = paper_config(num_tiles=8)
                config.memory.protocol = protocol
                simulator = Simulator(config)
                if name == "private_rmw":
                    program = _private_rmw
                else:
                    program = _get(name).main(nthreads=8, scale=0.5)
                result = simulator.run(program)
                stats[(protocol, name)] = (result.simulated_cycles,
                                           result.counter(".upgrades"),
                                           result.main_result)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table("Ablation: MSI vs MESI (8 tiles)",
                  ["workload", "protocol", "simulated cycles",
                   "upgrade round trips"])
    for name in ("private_rmw", "ocean_cont"):
        for protocol in ("msi", "mesi"):
            cycles, upgrades, _ = stats[(protocol, name)]
            table.add_row(name, protocol.upper(), cycles, upgrades)
    save_artifact("ablation_protocols", table)

    for name in ("private_rmw", "ocean_cont"):
        # Functional agreement and strictly fewer upgrades under MESI.
        assert stats[("msi", name)][2] == stats[("mesi", name)][2]
        assert stats[("mesi", name)][1] < stats[("msi", name)][1]
    # The private-RMW pattern is a clean MESI win in simulated time.
    assert stats[("mesi", "private_rmw")][0] < \
        stats[("msi", "private_rmw")][0]

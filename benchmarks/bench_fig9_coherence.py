"""Figure 9: cache-coherence schemes on blackscholes vs target tiles.

The paper compares Dir4NB, Dir16NB, full-map and LimitLESS(4)
directories on PARSEC blackscholes (simsmall), scaling the target tile
count and plotting speed-up relative to simulated single-tile
execution.

Expected shapes (paper §4.4): full-map and LimitLESS track each other
closely (the heavily shared data is read-only, so LimitLESS stops
trapping once everyone has cached it) and scale near-perfectly to 32
tiles before parallelization overhead flattens the curve; Dir4NB stops
scaling around 4 tiles and Dir16NB around 16, as the limited pointers
constantly evict sharers of the hot read-only lines and serialize
those reads.

A fine scheduler quantum is used so that target threads interleave at
close to instruction granularity — with coarse quanta the sharer
pointers are not contended within a quantum and the thrashing the
paper measures disappears.
"""

from __future__ import annotations

import pytest

from repro.analysis.figures import render_series
from repro.analysis.tables import Table
from repro.sim.simulator import Simulator
from repro.workloads.base import get_workload

from conftest import paper_config, save_artifact

TILE_COUNTS = [1, 2, 4, 8, 16, 32, 64, 128, 256]
SCHEMES = [
    ("Dir4NB", "limited", 4),
    ("Dir16NB", "limited", 16),
    ("full-map", "full_map", 4),
    ("LimitLESS(4)", "limitless", 4),
]
OPTIONS = 2048  # fixed problem size: strong scaling, like simsmall
QUANTUM = 100


def run_roi(scheme: str, sharers: int, tiles: int) -> int:
    config = paper_config(num_tiles=tiles)
    config.memory.directory_type = scheme
    config.memory.directory_max_sharers = sharers
    config.host.quantum_instructions = QUANTUM
    simulator = Simulator(config)
    program = get_workload("blackscholes").main(nthreads=tiles,
                                                options=OPTIONS)
    return simulator.run(program).parallel_cycles


@pytest.mark.benchmark(group="fig9")
def test_fig9_coherence_schemes(benchmark):
    speedups = {}

    def run_all():
        for name, scheme, sharers in SCHEMES:
            baseline = None
            series = []
            for tiles in TILE_COUNTS:
                roi = run_roi(scheme, sharers, tiles)
                if baseline is None:
                    baseline = roi
                series.append(baseline / roi)
            speedups[name] = series

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table("Figure 9: blackscholes speed-up vs simulated "
                  "single-tile execution",
                  ["tiles"] + [name for name, _, _ in SCHEMES])
    for i, tiles in enumerate(TILE_COUNTS):
        table.add_row(tiles, *[f"{speedups[name][i]:.2f}"
                               for name, _, _ in SCHEMES])
    chart = render_series(
        "Figure 9 (speed-up at 32 tiles)",
        [name for name, _, _ in SCHEMES],
        {"speedup@32": [speedups[name][TILE_COUNTS.index(32)]
                        for name, _, _ in SCHEMES]}, unit="x")
    save_artifact("fig9_coherence", table.render() + "\n\n" + chart,
                  data=table.to_dict())

    at = {name: dict(zip(TILE_COUNTS, speedups[name]))
          for name, _, _ in SCHEMES}
    # Shape assertions (paper §4.4, Figure 9).
    # Full-map scales well to 32 tiles.
    assert at["full-map"][32] > 10
    # LimitLESS tracks full-map closely (read-only sharing).
    assert abs(at["LimitLESS(4)"][32] - at["full-map"][32]) \
        < 0.35 * at["full-map"][32]
    # The limited directories fall clearly behind full-map at 32 tiles.
    assert at["Dir4NB"][32] < 0.75 * at["full-map"][32]
    # Dir16NB sits between Dir4NB and full-map at high tile counts.
    assert at["Dir16NB"][32] >= at["Dir4NB"][32]
    # At 4 tiles all schemes are equivalent (pointers suffice).
    assert abs(at["Dir4NB"][4] - at["full-map"][4]) \
        < 0.25 * at["full-map"][4]

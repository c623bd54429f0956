"""Figure 8: cache-miss breakdown by type as line size varies.

The paper validates its memory system by reproducing the SPLASH-2
characterisation (Woo et al.): a single cache level (the L1 models are
disabled; every access goes to a 1 MB 4-way L2) while the line size
sweeps 4...256 bytes, with misses classified as cold / capacity /
true-sharing / false-sharing.

Expected shapes (paper §4.4): lu_cont and fft miss rates drop ~linearly
with line size (perfect spatial locality from contiguous allocation);
radix's false-sharing misses blow up at 256 B (the permutation-write
interleaving granularity); water_spatial and barnes trade true sharing
for false sharing as lines grow across record boundaries.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.sim.simulator import Simulator
from repro.workloads.base import get_workload

from conftest import paper_config, save_artifact

LINE_SIZES = [4, 8, 16, 32, 64, 128, 256]
BENCHMARKS = ["lu_cont", "water_spatial", "radix", "barnes", "fft",
              "ocean_cont"]
NTHREADS = 8
SCALE = 1.0
MB = 1024 * 1024

#: Per-workload extra parameters: the sharing signatures need several
#: timesteps (a reader must have been invalidated by a writer to incur
#: a sharing miss at all).
EXTRA_PARAMS = {
    "ocean_cont": {"iterations": 4},
    "water_spatial": {"iterations": 3},
    "barnes": {"iterations": 3},
}


def run_breakdown(name: str, line_bytes: int):
    config = paper_config(num_tiles=NTHREADS)
    # Woo et al. memory architecture: one cache level, 1 MB, 4-way.
    config.memory.l1i.enabled = False
    config.memory.l1d.enabled = False
    config.memory.l2.size_bytes = 1 * MB
    config.memory.l2.associativity = 4
    config.memory.l2.line_bytes = line_bytes
    config.memory.classify_misses = True
    simulator = Simulator(config)
    program = get_workload(name).main(nthreads=NTHREADS, scale=SCALE,
                                      **EXTRA_PARAMS.get(name, {}))
    result = simulator.run(program)
    accesses = result.counter(".lookups") or 1
    return {kind: count / accesses
            for kind, count in result.miss_breakdown.items()}, \
        sum(result.miss_breakdown.values()) / accesses


@pytest.mark.benchmark(group="fig8")
def test_fig8_miss_breakdown(benchmark):
    data = {}

    def run_all():
        for name in BENCHMARKS:
            for line in LINE_SIZES:
                data[(name, line)] = run_breakdown(name, line)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    sections = []
    for name in BENCHMARKS:
        table = Table(f"Figure 8 ({name}): miss rate by type vs "
                      "line size",
                      ["line B", "total %", "cold %", "capacity %",
                       "true-sharing %", "false-sharing %"])
        for line in LINE_SIZES:
            rates, total = data[(name, line)]
            table.add_row(line, f"{total * 100:.3f}",
                          f"{rates.get('cold', 0) * 100:.3f}",
                          f"{rates.get('capacity', 0) * 100:.3f}",
                          f"{rates.get('true_sharing', 0) * 100:.3f}",
                          f"{rates.get('false_sharing', 0) * 100:.3f}")
        sections.append(table.render())
    save_artifact("fig8_miss_linesize", "\n\n".join(sections))

    # --- Shape assertions (paper §4.4) ------------------------------------
    def total(name, line):
        return data[(name, line)][1]

    def rate(name, line, kind):
        return data[(name, line)][0].get(kind, 0.0)

    # lu_cont / fft: contiguous allocation -> miss rate falls steadily
    # with line size.
    for name in ("lu_cont", "fft"):
        assert total(name, 4) > total(name, 64) > total(name, 256), name

    # radix: false sharing spikes at 256 B once the line exceeds the
    # permutation interleaving granularity.
    assert rate("radix", 256, "false_sharing") > \
        3 * rate("radix", 64, "false_sharing")

    # water_spatial / barnes: true sharing falls and false sharing
    # rises as lines span multiple records.
    for name in ("water_spatial", "barnes"):
        assert rate(name, 8, "true_sharing") > \
            rate(name, 256, "true_sharing"), name
        assert rate(name, 256, "false_sharing") > \
            rate(name, 8, "false_sharing"), name

    # ocean_cont: boundary-row true sharing present at every line size.
    assert rate("ocean_cont", 64, "true_sharing") > 0

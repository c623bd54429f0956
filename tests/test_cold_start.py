"""Cold start: a process loads only what its run uses.

A fresh interpreter imports ``repro.cli`` and ``WorkloadRef`` and builds
an 8-tile inproc simulator, the set-up a CLI or benchmark run pays.
None of the optional subsystems, no unarmed model and no kernel may be
in ``sys.modules`` by then; a run then loads exactly its own kernel.
"""

import json
import os
import subprocess
import sys

from repro.workloads.base import KERNEL_MODULES

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

SCRIPT = """
import json, sys
import repro.cli
from repro.common.config import SimulationConfig
from repro.distrib.wire import WorkloadRef
from repro.sim.simulator import Simulator

def loaded():
    return sorted(name for name in sys.modules
                  if name == "repro" or name.startswith("repro."))

Simulator(SimulationConfig(num_tiles=8))
setup = loaded()
lines = 0
for name in setup:
    path = getattr(sys.modules[name], "__file__", None)
    with open(path, encoding="utf-8") as handle:
        lines += sum(1 for _ in handle)
Simulator(SimulationConfig(num_tiles=4)).run(WorkloadRef("fft", 4, 0.3))
print(json.dumps({"setup": setup, "lines": lines, "after_run": loaded()}))
"""

#: Never loaded by an inproc set-up: whole packages, then single modules.
UNUSED_PACKAGES = ("repro.net", "repro.serve", "repro.ckpt", "repro.sample",
                   "repro.check", "repro.obs", "repro.analysis")
UNUSED_MODULES = (
    "repro.distrib.coordinator", "repro.distrib.pool",
    "repro.telemetry.chrome", "repro.telemetry.sinks",
    "repro.telemetry.registry", "repro.telemetry.skew",
    "repro.profile.report",
    "repro.core.ooo_model", "repro.memory.miss_classifier")
KERNELS = {f"repro.workloads.{module}"
           for module in KERNEL_MODULES.values()}


def cold_start() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_an_inproc_set_up_loads_only_what_it_uses():
    report = cold_start()
    setup = set(report["setup"])
    unused = sorted(name for name in setup
                    if name in UNUSED_MODULES or name in KERNELS
                    or any(name == package or name.startswith(package + ".")
                           for package in UNUSED_PACKAGES))
    assert unused == []
    # Measured: 75 modules, 10,243 lines (104 and 14,971 while the
    # package __init__s re-exported their siblings).
    assert len(setup) <= 80
    assert report["lines"] <= 11_000
    # A run loads its own kernel's module and no other.
    assert set(report["after_run"]) & KERNELS == {"repro.workloads.fft"}

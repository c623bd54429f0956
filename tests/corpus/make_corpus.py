"""Regenerate the committed corpus: yesterday's artefacts as test data.

One target, a 4-tile ``fft`` at scale 0.3 and seed 42, stored four
ways, each beside the sha256 of the canonical result bytes of the run
it came from (``digests.json``):

* ``ckpt-inproc/`` and ``ckpt-mp/``: a checkpoint root holding one
  snapshot at turn 20 of the run's 32, per backend;
* ``library/``: a snapshot-library entry fast-forwarded to cycle 8000;
* ``results/``: the plain run's stored result.

Everything comes from seeds; nothing is downloaded.  Paths inside the
artefacts are relative to the output directory, so two runs at one
commit write the same checkpoint and result bytes.  A library entry's
snapshot names its primer's staging directory, which carries the
primer's process id, so its bytes differ from run to run and only its
digest repeats.  Usage, from the repository root::

    PYTHONPATH=src python tests/corpus/make_corpus.py OUT_DIR

``tests/test_corpus.py`` resumes, forks and loads what this writes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import sys

KERNEL, TILES, SCALE, SEED = "fft", 4, 0.3, 42
#: One snapshot per backend, at this turn (the run takes 32).
CKPT_TURN = 20
FF_UNTIL = 8000
#: What this script writes under its output directory.
OUTPUTS = ("ckpt-inproc", "ckpt-mp", "library", "results", "digests.json")


def target():
    from repro.common.config import SimulationConfig
    from repro.distrib.wire import WorkloadRef
    return (SimulationConfig(num_tiles=TILES, seed=SEED),
            WorkloadRef(KERNEL, TILES, SCALE))


def digest(result) -> str:
    """sha256 of ``result``'s canonical bytes, minus the note a
    library run adds about where its entry lives."""
    from repro.serve.store import canonical_result_bytes
    if "library" in result.sample:
        sample = {k: v for k, v in result.sample.items() if k != "library"}
        result = dataclasses.replace(result, sample=sample)
    return hashlib.sha256(canonical_result_bytes(result)).hexdigest()


def make() -> dict:
    from repro.sample.library import SnapshotLibrary
    from repro.serve.store import ResultStore, job_key
    from repro.sim.runner import run_simulation
    digests = {}
    for backend in ("inproc", "mp"):
        config, ref = target()
        config.distrib.backend = backend
        config.ckpt.dir = f"ckpt-{backend}"
        config.ckpt.every = CKPT_TURN
        config.ckpt.keep = 1
        digests[config.ckpt.dir] = digest(run_simulation(config, ref))
    config, ref = target()
    config.sample.ff_until = FF_UNTIL
    library = SnapshotLibrary("library")
    key, _primed = library.ensure(config, ref)
    digests["library"] = digest(library.fork(key, config).resume_run())
    config, ref = target()
    result = run_simulation(config, ref)
    ResultStore("results").put(job_key(config, ref), result)
    digests["results"] = digest(result)
    with open("digests.json", "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return digests


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: make_corpus.py OUT_DIR", file=sys.stderr)
        return 2
    out = argv[0]
    os.makedirs(out, exist_ok=True)
    for name in OUTPUTS:
        path = os.path.join(out, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
    here = os.getcwd()
    os.chdir(out)
    try:
        digests = make()
    finally:
        os.chdir(here)
    for name, value in sorted(digests.items()):
        print(f"{name:12s} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

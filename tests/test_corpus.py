"""Yesterday's artefacts still load to yesterday's answers.

``tests/corpus/`` holds one 4-tile ``fft 0.3`` target stored four
ways — an inproc and an mp checkpoint, a snapshot-library entry and a
stored result — with the sha256 of the canonical result bytes of the
run each came from (``tests/corpus/make_corpus.py`` writes them).  The
two checkpoints were written before the store became one module: that
they resume here is the check that the ``repro.ckpt/4`` format did not
move.  A change to a pickled shape keeps these loading, or bumps the
format and ships the old format's loader; a model change re-pins
``digests.json`` as it re-pins the bench digests.
"""

import json
import os
import shutil

import pytest

from repro.ckpt.recovery import load_checkpoint
from repro.sample.library import SnapshotLibrary
from repro.serve.store import ResultStore, job_key
from tests.corpus.make_corpus import FF_UNTIL, digest, target

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")

with open(os.path.join(CORPUS, "digests.json"), encoding="utf-8") as _f:
    DIGESTS = json.load(_f)


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    """A scratch copy, as the cwd: the artefacts' paths are relative."""
    shutil.copytree(CORPUS, tmp_path / "corpus")
    monkeypatch.chdir(tmp_path / "corpus")


@pytest.mark.parametrize("backend", ["inproc", "mp"])
def test_a_committed_checkpoint_resumes_to_its_digest(corpus, backend):
    root = f"ckpt-{backend}"
    simulator, manifest = load_checkpoint(root)
    assert (manifest["turn"], manifest["backend"]) == (20, backend)
    assert digest(simulator.resume_run()) == DIGESTS[root]


def test_the_committed_library_entry_forks_to_its_digest(corpus):
    config, ref = target()
    config.sample.ff_until = FF_UNTIL
    library = SnapshotLibrary("library")
    key = library.key(config, ref)
    assert library.keys() == [key]
    assert digest(library.fork(key, config).resume_run()) \
        == DIGESTS["library"]


def test_the_committed_result_loads_to_its_digest(corpus):
    config, ref = target()
    store = ResultStore("results")
    key = job_key(config, ref)
    assert store.keys() == [key]
    assert digest(store.get_result(key)) == DIGESTS["results"]

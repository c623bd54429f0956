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

The corpus is also the proof of :data:`repro.common.RETIRED_STATE`:
its pickles name classes, slots and bound methods the code has since
retired (the worker's per-service stand-ins, the host chargers and the
slots that held them, mp's straggler watchdog), and sharer dicts.
Every row but :data:`NOT_IN_CORPUS` is needed for some artefact to
load, or to resume to its digest; those two are built by hand in
``tests/ckpt/test_retired_state.py``.
"""

import json
import os
import shutil

import pytest

from repro.ckpt.recovery import load_checkpoint
from repro.ckpt.snapshot import load_bytes
from repro.common import RETIRED_STATE
from repro.common.errors import CheckpointError
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


def _resumed(backend: str) -> str:
    simulator, manifest = load_checkpoint(f"ckpt-{backend}")
    assert (manifest["turn"], manifest["backend"]) == (20, backend)
    return digest(simulator.resume_run())


def _forked() -> str:
    config, ref = target()
    config.sample.ff_until = FF_UNTIL
    library = SnapshotLibrary("library")
    key = library.key(config, ref)
    assert library.keys() == [key]
    return digest(library.fork(key, config).resume_run())


@pytest.mark.parametrize("backend", ["inproc", "mp"])
def test_a_committed_checkpoint_resumes_to_its_digest(corpus, backend):
    assert _resumed(backend) == DIGESTS[f"ckpt-{backend}"]


def test_the_committed_library_entry_forks_to_its_digest(corpus):
    assert _forked() == DIGESTS["library"]


def test_the_committed_result_loads_to_its_digest(corpus):
    config, ref = target()
    store = ResultStore("results")
    key = job_key(config, ref)
    assert store.keys() == [key]
    assert digest(store.get_result(key)) == DIGESTS["results"]


#: The rows of ``RETIRED_STATE`` no corpus artefact reaches.
NOT_IN_CORPUS = {"RemoteTask._sim", "Transport._hooks"}


def rows():
    """Every row of ``RETIRED_STATE``: ``Owner.member``, or a class."""
    for owner, members in RETIRED_STATE.items():
        if isinstance(members, dict):
            yield from (f"{owner}.{name}" for name in members)
        else:
            yield owner


def _pickles():
    return sorted(os.path.join(root, name)
                  for root, _dirs, names in os.walk(CORPUS)
                  for name in names if name.endswith(".pkl"))


@pytest.mark.parametrize("path", _pickles(),
                         ids=lambda path: os.path.relpath(path, CORPUS))
def test_without_the_table_no_corpus_pickle_loads(monkeypatch, path):
    for owner in list(RETIRED_STATE):
        monkeypatch.delitem(RETIRED_STATE, owner)
    with open(path, "rb") as f:
        blob = f.read()
    with pytest.raises(CheckpointError):
        load_bytes(blob)


def _corpus_loads() -> bool:
    """Every pickle loads, and every artefact resumes to its digest."""
    try:
        for path in _pickles():
            with open(path, "rb") as f:
                load_bytes(f.read())
        return _forked() == DIGESTS["library"] and all(
            _resumed(backend) == DIGESTS[f"ckpt-{backend}"]
            for backend in ("inproc", "mp"))
    except Exception:
        return False


@pytest.mark.parametrize("row", sorted(set(rows()) - NOT_IN_CORPUS))
def test_each_row_the_corpus_reaches_is_needed(corpus, monkeypatch, row):
    owner, _, name = row.partition(".")
    if name:
        monkeypatch.setitem(RETIRED_STATE, owner, {
            member: kind for member, kind in RETIRED_STATE[owner].items()
            if member != name})
    else:
        monkeypatch.delitem(RETIRED_STATE, owner)
    assert not _corpus_loads()

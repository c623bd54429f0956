"""Content-addressed result store: determinism makes cache hits correct.

A simulation here is a pure function of (semantic config, program,
args) — that is the repo's central, heavily tested invariant (equal
seeds give byte-identical metrics on every backend, with or without
observers).  So results can be *content addressed*: the store keys a
canonical JSON encoding of the :class:`~repro.sim.results.
SimulationResult` by :func:`job_key`, and a repeat submission with an
equal key may return the stored bytes without simulating — not as a
heuristic, but provably the same answer.

Layout: a store entry (:mod:`repro.ckpt.store`) per key, ``<key>/``
holding ``manifest.json`` and ``result.json``, the canonical bytes of
``{"format": "repro.result/1", "key": ..., "result": {...}}``.
Canonical means sorted keys, compact separators, no wall-clock or
host-address content — so two runs of the same job produce
byte-identical files.  A blob failing its sha256 is refused, not served.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from typing import Any, Dict, List, Optional

from repro.ckpt.store import (list_entries, manifest_path, program_descriptor,
                              read_entry, write_entry)
from repro.common.config import SimulationConfig, content_key
from repro.common.errors import ServeError
from repro.sim.results import SimulationResult

#: Version tag written into (and required from) every stored result.
FORMAT = "repro.result/1"
_BLOB = "result.json"


# -- canonical result encoding ------------------------------------------------


def result_to_jsonable(result: SimulationResult) -> Dict[str, Any]:
    """Flatten a result to a JSON-safe dict, losslessly where possible.

    Integer dict keys become strings (JSON objects), tuples become
    lists; :func:`result_from_jsonable` restores both.  A
    ``main_result`` that does not survive a JSON round trip is dropped
    to ``None`` (mirroring the sweep pool's unpicklable-result rule)
    and flagged in ``main_result_dropped``.
    """
    data = dataclasses.asdict(result)
    for key in ("thread_cycles", "thread_instructions",
                "thread_start_cycles", "core_busy_seconds"):
        data[key] = {str(tile): value
                     for tile, value in sorted(data[key].items())}
    data["skew_trace"] = [list(sample) for sample in data["skew_trace"]]
    data["main_result_dropped"] = False
    main = data["main_result"]
    try:
        if json.loads(json.dumps(main)) != main:
            raise ValueError("lossy")
    except (TypeError, ValueError):
        data["main_result"] = None
        data["main_result_dropped"] = True
    return data


def result_from_jsonable(data: Dict[str, Any]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from its JSON form."""
    data = dict(data)
    data.pop("main_result_dropped", None)
    for key in ("thread_cycles", "thread_instructions",
                "thread_start_cycles", "core_busy_seconds"):
        data[key] = {int(tile): value
                     for tile, value in data.get(key, {}).items()}
    data["skew_trace"] = [tuple(sample)
                         for sample in data.get("skew_trace", [])]
    return SimulationResult(**data)


def canonical_result_bytes(result: SimulationResult,
                           key: str = "") -> bytes:
    """The exact bytes the store writes for ``result`` under ``key``."""
    envelope = {"format": FORMAT, "key": key,
                "result": result_to_jsonable(result)}
    return json.dumps(envelope, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# -- job identity -------------------------------------------------------------


def job_key(config: SimulationConfig, program: Any,
            args: tuple = ()) -> str:
    """Content address of one job's result.

    Combines :meth:`SimulationConfig.content_hash` (semantic config +
    seed + wire version) with the program identity and arguments; two
    submissions with equal keys are guaranteed the same metrics.
    """
    try:
        return content_key({"config": config.content_hash(),
                            "program": program_descriptor(program),
                            "args": list(args)})
    except (TypeError, ValueError) as exc:
        raise ServeError(
            f"job arguments are not JSON-encodable: {exc}") from exc


# -- the store ----------------------------------------------------------------


class ResultStore:
    """On-disk map from content key to canonical result bytes."""

    def __init__(self, root: str) -> None:
        self.root = root

    def path_for(self, key: str) -> str:
        if not key or os.sep in key or key.startswith("."):
            raise ServeError(f"malformed result key {key!r}")
        return os.path.join(self.root, key)

    def __contains__(self, key: str) -> bool:
        """Whether an intact result is stored: a corrupt one is a miss,
        so its job runs again and :meth:`put` replaces it."""
        try:
            return self.get_bytes(key) is not None
        except ServeError:
            return False

    def keys(self) -> List[str]:
        """Stored keys, sorted (deterministic listing)."""
        return list_entries(self.root)

    def put(self, key: str, result: SimulationResult) -> bytes:
        """Store ``result`` under ``key`` atomically; returns the bytes.

        A duplicate ``put`` (two concurrent runs of the same job) must
        agree byte-for-byte — determinism guarantees it, and the store
        *checks* it: a mismatch raises :class:`ServeError` naming the
        key, surfacing a determinism bug instead of silently serving
        one of two different answers.  A stored copy that fails its
        checksum is no answer at all: it is dropped and rewritten.
        """
        blob = canonical_result_bytes(result, key)
        if key not in self:  # absent, or corrupt and dropped here
            shutil.rmtree(self.path_for(key), ignore_errors=True)
            if write_entry(self.root, key, {_BLOB: blob},
                           {"format": FORMAT}):
                return blob
        # A duplicate, or another writer's that landed first.
        if self.get_bytes(key) != blob:
            raise ServeError(
                f"determinism violation: result for key {key} "
                f"differs from the stored copy")
        return blob

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The stored canonical bytes, or ``None``; a blob that fails
        its checksum raises :class:`ServeError`, never returns."""
        if not os.path.isfile(manifest_path(self.path_for(key))):
            return None
        _manifest, blobs = read_entry(self.path_for(key), ServeError)
        return blobs[_BLOB]

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored envelope as a dict, or ``None``; verifies format."""
        blob = self.get_bytes(key)
        if blob is None:
            return None
        envelope = json.loads(blob.decode("utf-8"))
        if envelope.get("format") != FORMAT:
            raise ServeError(
                f"stored result {key} has unsupported format "
                f"{envelope.get('format')!r} (expected {FORMAT!r})")
        return envelope

    def get_result(self, key: str) -> Optional[SimulationResult]:
        """The stored result rebuilt as a :class:`SimulationResult`."""
        envelope = self.get(key)
        if envelope is None:
            return None
        return result_from_jsonable(envelope["result"])

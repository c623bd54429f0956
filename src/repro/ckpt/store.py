"""The one on-disk store: checkpoints, library entries and results.

Every stored thing is an *entry*: a directory ``<root>/<key>/`` of
blobs plus a ``manifest.json`` listing each blob's sha256 and size
(``files``) beside the kind's own fields.  A checkpoint root (format
``repro.ckpt/4``) holds ``LATEST`` and ``ckpt-NNNNNNNN/`` entries of
``coordinator.pkl`` (plus ``shardN.pkl`` on mp); a library entry is a
checkpoint with library fields; a result is ``result.json``.

A writer fills a stage of its own (``.{key}.{pid}.{n}``) and publishes
it with one ``os.replace``; if the key exists by then the incumbent
wins, and a failed write removes its stage.  A writer killed mid-write
cannot remove its stage; the next stage made under that root removes
every stage whose pid is no live process on this host.  A checkpoint
rewriting its turn steps the old one aside to ``.old`` first; a writer
dying between the two renames leaves that complete ``.old`` for
``latest()``.  Every blob is re-verified on read, raising the caller's
typed error.  Listings skip dot-names, and readers create nothing.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import os
import shutil
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Tuple, \
    Type, Union

from repro.common.errors import CheckpointError

#: Version tag written into (and required from) every checkpoint.
FORMAT = "repro.ckpt/4"

_MANIFEST = "manifest.json"
_LATEST = "LATEST"
_PREFIX = "ckpt-"

_STAGES = itertools.count()  # no two stages of one process share a name

#: What an entry's file holds: its bytes, or a function that writes
#: them to the file it is given (a snapshot streamed as it is pickled).
Blob = Union[bytes, Callable[[BinaryIO], None]]


# -- entries ------------------------------------------------------------------


def program_descriptor(program: Any) -> Dict[str, Any]:
    """Structural identity of a program, stable across processes: a
    named workload's name, threads, scale and parameters, else the
    sha256 of its pickled reference."""
    from repro.distrib.wire import WorkloadRef, make_program_ref, program_key
    ref = make_program_ref(program)
    if isinstance(ref, WorkloadRef):
        return {"kind": "workload", "workload": ref.workload,
                "nthreads": ref.nthreads, "scale": ref.scale,
                "params": dict(ref.params)}
    return {"kind": "pickled",
            "sha256": hashlib.sha256(program_key(ref)).hexdigest()}


def manifest_path(entry: str) -> str:
    """Where an entry's manifest lives; it exists once the entry does."""
    return os.path.join(entry, _MANIFEST)


def make_stage(root: str, key: str) -> str:
    """A fresh, empty staging directory of this writer's own; stages
    left under ``root`` by dead writers go first."""
    reclaim_stages(root)
    stage = os.path.join(root, f".{key}.{os.getpid()}.{next(_STAGES)}")
    os.makedirs(stage)
    return stage


def reclaim_stages(root: str) -> List[str]:
    """Remove the stages under ``root`` whose writer is no live process
    on this host (killed mid-write); returns their names, sorted."""
    reclaimed = []
    for name in sorted(os.listdir(root)) if os.path.isdir(root) else []:
        parts = name.split(".")  # "", key, pid, n
        if len(parts) < 4 or parts[0] or not all(
                part.isdigit() for part in parts[-2:]):
            continue
        try:
            os.kill(int(parts[-2]), 0)
        except OSError as exc:
            if exc.errno == errno.ESRCH:  # EPERM: alive, another user's
                shutil.rmtree(os.path.join(root, name), ignore_errors=True)
                reclaimed.append(name)
    return reclaimed


def _dump_manifest(entry: str, manifest: Dict[str, Any]) -> None:
    with open(manifest_path(entry), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)


def amend_manifest(entry: str, fields: Dict[str, Any]) -> None:
    """Add ``fields`` to the manifest of an entry not yet published."""
    manifest = read_manifest(entry)
    manifest.update(fields)
    _dump_manifest(entry, manifest)


class _HashingWriter:
    """A binary file's ``write`` that hashes and counts what it writes,
    so a blob's manifest line needs no second pass over its bytes."""

    __slots__ = ("_write", "_sha256", "_size")

    def __init__(self, handle: BinaryIO) -> None:
        self._write = handle.write
        self._sha256 = hashlib.sha256()
        self._size = 0

    def write(self, data: Any) -> Optional[int]:
        self._sha256.update(data)
        self._size += memoryview(data).nbytes
        return self._write(data)

    def meta(self) -> Dict[str, Any]:
        """The blob's manifest line: ``{"sha256", "size"}``."""
        return {"sha256": self._sha256.hexdigest(), "size": self._size}


def stage_entry(root: str, key: str, blobs: Dict[str, Blob],
                fields: Dict[str, Any]) -> str:
    """A stage holding ``blobs`` (file name -> :data:`Blob`) and a
    manifest of ``fields`` plus their checksums; a write that raises
    leaves no stage behind."""
    stage = make_stage(root, key)
    try:
        files: Dict[str, Dict[str, Any]] = {}
        for name, blob in sorted(blobs.items()):
            with open(os.path.join(stage, name), "wb") as handle:
                writer = _HashingWriter(handle)
                if callable(blob):
                    blob(writer)
                else:
                    writer.write(blob)
            files[name] = writer.meta()
        _dump_manifest(stage, {**fields, "files": files})
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    return stage


def publish(stage: str, final: str, step_aside: bool = False) -> bool:
    """Move the entry at ``stage`` to ``final`` by one ``os.replace``;
    returns whether it landed.  An incumbent wins and the stage is
    removed — unless ``step_aside``, the checkpoint rewrite of a turn,
    which renames the incumbent to ``.old`` first and removes it once
    the stage has landed.  A publish that raises removes its stage."""
    retired = final + ".old"
    try:
        if step_aside and os.path.exists(final):
            shutil.rmtree(retired, ignore_errors=True)
            os.replace(final, retired)
        os.replace(stage, final)
    except OSError as exc:
        shutil.rmtree(stage, ignore_errors=True)
        if exc.errno not in (errno.ENOTEMPTY, errno.EEXIST):
            raise
        return False
    if step_aside:
        shutil.rmtree(retired, ignore_errors=True)
    return True


def write_entry(root: str, key: str, blobs: Dict[str, bytes],
                fields: Dict[str, Any]) -> bool:
    """Stage an entry (:func:`stage_entry`) and :func:`publish` it as
    ``<root>/<key>``; returns whether it landed."""
    return publish(stage_entry(root, key, blobs, fields),
                   os.path.join(root, key))


def read_manifest(entry: str, error: Type[Exception] = CheckpointError
                  ) -> Dict[str, Any]:
    """An entry's manifest, blobs unread; ``error`` if there is none."""
    try:
        with open(manifest_path(entry), encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise error(f"{entry!r} is not a store entry (no readable "
                    f"{_MANIFEST}: {exc})") from exc


def read_entry(entry: str, error: Type[Exception] = CheckpointError
               ) -> Tuple[Dict[str, Any], Dict[str, bytes]]:
    """``(manifest, {file name: blob})`` of one entry; ``error`` on a
    missing manifest or blob, a checksum mismatch or a short blob."""
    manifest = read_manifest(entry, error)
    name = os.path.basename(entry)
    blobs: Dict[str, bytes] = {}
    for filename, meta in manifest.get("files", {}).items():
        try:
            with open(os.path.join(entry, filename), "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise error(f"{name}: missing blob {filename}: {exc}") from exc
        digest = hashlib.sha256(blob).hexdigest()
        if digest != meta.get("sha256"):
            raise error(f"{name}: {filename} is corrupt (sha256 {digest} "
                        f"!= manifest {meta.get('sha256')})")
        if len(blob) != meta.get("size"):
            raise error(f"{name}: {filename} truncated ({len(blob)} "
                        f"bytes, manifest says {meta.get('size')})")
        blobs[filename] = blob
    return manifest, blobs


def list_entries(root: str) -> List[str]:
    """Keys of the complete entries under ``root``, sorted; never a
    stage, and none for a missing root."""
    names = sorted(os.listdir(root)) if os.path.isdir(root) else []
    return [name for name in names if not name.startswith(".")
            and os.path.isfile(manifest_path(os.path.join(root, name)))]


# -- checkpoints --------------------------------------------------------------


class CheckpointStore:
    """Reads and writes checkpoints under one root directory."""

    def __init__(self, root: str, keep: int = 2,
                 config: Optional[Dict[str, Any]] = None) -> None:
        self.root = root
        self.keep = max(int(keep), 1)
        #: The run's config as :meth:`~repro.common.config.
        #: SimulationConfig.to_dict` gives it, made once when the run is
        #: armed and written into every manifest.
        self.config = config

    def __getstate__(self) -> Dict[str, Any]:
        """Root and policy only: a restored run is armed with its own
        store, config dict and all."""
        return {"root": self.root, "keep": self.keep}

    # -- writing --------------------------------------------------------------

    def write(self, turn: int, backend: str,
              blobs: Dict[str, Blob]) -> str:
        """Commit one checkpoint atomically; returns its directory."""
        name = f"{_PREFIX}{turn:08d}"
        stage = stage_entry(
            self.root, name,
            {f"{key}.pkl": blob for key, blob in blobs.items()},
            {"format": FORMAT, "turn": int(turn), "backend": backend,
             "config": self.config})
        publish(stage, os.path.join(self.root, name), step_aside=True)
        self._write_latest(name)
        self._prune()
        return os.path.join(self.root, name)

    def _write_latest(self, name: str) -> None:
        staging = os.path.join(self.root, _LATEST + ".tmp")
        with open(staging, "w", encoding="utf-8") as fh:
            fh.write(name + "\n")
        os.replace(staging, os.path.join(self.root, _LATEST))

    def _prune(self) -> None:
        names = self.list()
        for name in names[:-self.keep]:
            shutil.rmtree(os.path.join(self.root, name),
                          ignore_errors=True)

    # -- reading --------------------------------------------------------------

    def list(self) -> List[str]:
        """Complete checkpoints, oldest first (names sort by turn)."""
        return [name for name in list_entries(self.root)
                if name.startswith(_PREFIX)]

    def latest(self) -> Optional[str]:
        """Name of the newest complete checkpoint, or ``None``."""
        pointer = os.path.join(self.root, _LATEST)
        if os.path.isfile(pointer):
            with open(pointer, encoding="utf-8") as fh:
                name = fh.read().strip()
            if name and os.path.isfile(
                    manifest_path(os.path.join(self.root, name))):
                return name
        names = self.list()
        return names[-1] if names else None

    def read(self, name: Optional[str] = None
             ) -> Tuple[Dict[str, Any], Dict[str, bytes]]:
        """Load and verify one checkpoint (the latest by default).

        Returns ``(manifest, blobs)`` with blobs keyed by their
        manifest name minus the ``.pkl`` suffix.  Raises
        :class:`CheckpointError` on a missing checkpoint, an unknown
        format version or any checksum mismatch.
        """
        name = name or self.latest()
        if name is None:
            raise CheckpointError(f"no checkpoint found under {self.root!r}")
        manifest, files = read_entry(os.path.join(self.root, name))
        if manifest.get("format") != FORMAT:
            raise CheckpointError(
                f"{name}: unsupported snapshot format "
                f"{manifest.get('format')!r} (expected {FORMAT!r})")
        blobs = {filename[:-4] if filename.endswith(".pkl") else filename:
                 blob for filename, blob in files.items()}
        if "coordinator" not in blobs:
            raise CheckpointError(
                f"{name}: manifest lists no coordinator blob")
        return manifest, blobs

"""The surgical pickler: a live simulation graph -> one blob.

Nearly all simulation state is plain picklable data (clocks, caches,
directories, queues, stats, ``random.Random`` streams).  Exactly two
kinds of object cannot cross a snapshot:

1. **Host-side observers** — the telemetry bus and its channels, the
   host profiler, the sanitizers, and the live cluster/worker process
   plumbing.  Every component already treats ``None`` in those slots
   as "disabled", so the pickler *excises* them: each such object is
   serialized as ``None`` and the restored run simply runs unobserved.
2. **Thread generators** — the target programs themselves.  The
   interpreter handles those (:meth:`~repro.frontend.interpreter.
   ThreadInterpreter.__getstate__` drops the generator and keeps the
   send log); the generator excision here is a backstop for any other
   generator that sneaks into the graph.

Pickling one whole graph (rather than per-subsystem exports) is what
preserves shared references — the scheduler's threads ARE the kernel's
interpreters, the stats tree's children ARE the components' stat
groups — which in turn is what makes a restored run byte-identical.
"""

from __future__ import annotations

import copyreg
import io
import pickle
import sys
import types
from typing import Any, BinaryIO, Optional, Tuple

from repro.common import CLASS, METHOD, RETIRED_STATE, Retired
from repro.common.errors import CheckpointError, SnapshotWriteError

#: Classes serialized as ``None`` ("disabled"), by dotted location.
#: Looked up lazily in ``sys.modules`` so snapshotting never imports a
#: subsystem the run did not use.
_EXCISED_CLASSES = (
    ("repro.telemetry.bus", "TelemetryBus"),
    ("repro.telemetry.bus", "Channel"),
    ("repro.profile.timers", "HostProfiler"),
    ("repro.check.sanitize", "Sanitizers"),
    ("repro.distrib.coordinator", "WorkerCluster"),
    ("repro.distrib.worker", "Worker"),
    ("repro.obs.spans", "SpanEmitter"),
    ("repro.obs.flight", "FlightRecorder"),
)


def _none() -> None:
    """Reduction target of every excised object."""
    return None


def _excised_types() -> Tuple[type, ...]:
    out = []
    for module_name, class_name in _EXCISED_CLASSES:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        cls = getattr(module, class_name, None)
        if cls is not None:
            out.append(cls)
    return tuple(out)


#: No object is pinned (see :class:`SnapshotPickler`).
_NOTHING = object()


class SnapshotPickler(pickle.Pickler):
    """Pickler that excises unpicklable host-side objects to ``None``.

    ``pinned`` is ``(obj, state)``: ``obj`` is pickled with ``state``,
    already built, instead of asking it for its own (the run's config,
    whose state is a deep dict its simulator builds once per armed
    run).  The bytes are those ``obj``'s own ``__reduce_ex__`` makes.
    """

    def __init__(self, file: BinaryIO,
                 pinned: Optional[Tuple[Any, Any]] = None) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._excised = _excised_types()
        self._pinned, self._pinned_state = pinned or (_NOTHING, None)

    def reducer_override(self, obj: Any) -> Any:
        if obj is self._pinned:
            return copyreg.__newobj__, (type(obj),), self._pinned_state
        if isinstance(obj, types.GeneratorType):
            return (_none, ())
        if self._excised and isinstance(obj, self._excised):
            return (_none, ())
        return NotImplemented


def snapshot_to(obj: Any, file: BinaryIO,
                pinned: Optional[Tuple[Any, Any]] = None) -> None:
    """Serialize ``obj`` (a simulator or shard dict) into ``file``.

    The pickle is written frame by frame as it is built (protocol 5
    frames, ~64 KiB), so no copy of the whole snapshot is ever held.
    Observational: the graph's values are only read, and no instance
    ``__dict__`` is materialised (on CPython 3.11/3.12 that slows every
    later attribute read on the instance): the model classes keep their
    fields in ``__slots__`` and every ``__getstate__`` reads those,
    through :func:`repro.common.slot_state`.  ``pinned`` is
    :class:`SnapshotPickler`'s.  A failed write raises
    :class:`SnapshotWriteError`, anything else :class:`CheckpointError`.
    """
    try:
        SnapshotPickler(file, pinned).dump(obj)
    except OSError as exc:
        raise SnapshotWriteError(
            exc.errno,
            f"cannot write snapshot: {exc.strerror or exc}") from exc
    except Exception as exc:
        raise CheckpointError(f"cannot snapshot state: {exc}") from exc


def snapshot_bytes(obj: Any) -> bytes:
    """:func:`snapshot_to` into memory: the snapshot as one blob."""
    buffer = io.BytesIO()
    snapshot_to(obj, buffer)
    return buffer.getvalue()


def _member(obj: Any, name: str) -> Any:
    """A pickled bound method: ``getattr``, or ``None`` for a method
    :data:`~repro.common.RETIRED_STATE` retires from ``obj``'s class or
    a base."""
    try:
        return getattr(obj, name)
    except AttributeError:
        for cls in type(obj).__mro__:
            rows = RETIRED_STATE.get(cls.__name__)
            if isinstance(rows, dict) and rows.get(name) is METHOD:
                return None
        raise


class SnapshotUnpickler(pickle.Unpickler):
    """Loads what :class:`SnapshotPickler` wrote, older snapshots
    included: a class or bound method the code no longer has loads as
    its :data:`~repro.common.RETIRED_STATE` row says, or fails."""

    def find_class(self, module: str, name: str) -> Any:
        if module == "builtins" and name == "getattr":
            return _member
        try:
            return super().find_class(module, name)
        except AttributeError:
            if RETIRED_STATE.get(name) is CLASS:
                return Retired
            raise


def load_bytes(blob: bytes) -> Any:
    """Deserialize a snapshot blob (inverse of :func:`snapshot_bytes`)."""
    try:
        return SnapshotUnpickler(io.BytesIO(blob)).load()
    except Exception as exc:
        raise CheckpointError(
            f"cannot deserialize snapshot: {exc}") from exc

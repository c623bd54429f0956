"""The one wire: its version, its frame envelope, and the mp frame kinds.

Every frame on every channel — coordinator <-> worker, the fleet's job
verbs, the serve client's verbs — is one pickled ``(kind, payload)``
pair (:func:`encode_frame` / :func:`decode_frame`).  The version is not
in the frame: it is checked once per connection, by the JSON
:mod:`repro.net.handshake` that every socket peer passes before any
pickle is read, and forked pipe peers share this code image.

The module also defines *program references* — picklable stand-ins for
target programs.  Workload ``build()`` closures cannot cross a process
boundary, so the coordinator ships a :class:`WorkloadRef` (rebuilt from
the workload registry on the far side) or a :class:`PickledProgram`
(for module-level functions, e.g. the per-thread workers the workloads
spawn).  Both expose ``resolve()``, the duck-typed protocol
:meth:`repro.sim.simulator.Simulator.spawn_thread` already honors.
"""

from __future__ import annotations

import enum
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.distrib.errors import ProgramTransportError, WireFormatError

#: Bump on any incompatible change to frame payloads or pickling.
#: v2: TELEMETRY / COLLECT_TELEMETRY frames (event + histogram
#: aggregation from workers).
#: v3: HOST_STATS / COLLECT_HOST_STATS frames (worker host-profiler
#: scope exports for the merged cluster-wide host profile).
#: v4: CHECKPOINT / CKPT_ACK / RESTORE frames (coordinated snapshot
#: barrier and shard restore for fault-tolerant runs).
#: v5: ADOPT / RELEASE / GOODBYE frames (live shard migration between
#: workers and orderly departure of drained workers; :mod:`repro.net`).
#: v6: a mode-switch frame (execution-mode propagation for functional
#: fast-forward and interval sampling; gone in v10).
#: v7: one round trip per front-end op — KERNEL_CALL is ``(method,
#: args, casts)`` and QUANTUM_DONE ends with ``casts`` (the one-way
#: casts issued since the previous frame, applied before it),
#: KERNEL_CAST is a batch ``[(method, args), ...]``, and two fused
#: calls carry a LOAD/STORE's instruction fetch with its data access.
#: v8: the L1s live in the worker — ``memory_read`` / ``memory_write``
#: (L1 misses and upgrades; the reply carries the line) replace the five
#: per-access calls, ``store_data`` casts forward completed stores, and
#: RUN_QUANTUM ``(tile, budget, cycle_limit, l1_notes)``, KERNEL_REPLY
#: ``(value, l1_notes)`` and COLLECT_STATS carry the L1 notes due.
#: v9: pickled caches and directories in shard blobs (CKPT_ACK, ADOPT)
#: carry resident lines and ``line -> (state, sharers)``, not containers.
#: v10: the mode travels with the work — RUN_QUANTUM is ``(tile, budget,
#: cycle_limit, l1_notes, functional)`` and v6's frame is gone
#: (:mod:`repro.sample`).
#: v11: one version for every wire, checked once at connect — the net
#: handshake's and the serve verbs' own versions fold in; frames are
#: ``(kind, payload)`` and serve verbs are pickled, not JSON.
WIRE_VERSION = 11

#: Pickle protocol of every frame, pinned so peers under different
#: Pythons read each other (5: the highest of every supported one).
PICKLE_PROTOCOL = 5


class FrameKind(str, enum.Enum):
    """Frame kinds of the mp wire.  A member equals its value, so a
    verb sharing its name (``shutdown``, ``error``) still compares
    equal to the string a fleet or serve handler tests for."""

    #: coordinator -> worker: config + shard at startup.
    HELLO = "hello"
    #: coordinator -> worker: create an interpreter for a tile.
    SPAWN = "spawn"
    #: coordinator -> worker: run one scheduler quantum on a tile, after
    #: applying the L1 notes (purges, downgrades) due to the worker, in
    #: the execution mode named (functional fast-forward or detailed).
    RUN_QUANTUM = "run_quantum"
    #: worker -> coordinator: quantum finished (status + core state +
    #: the casts issued since the last KERNEL_CALL).
    QUANTUM_DONE = "quantum_done"
    #: worker -> coordinator: kernel RPC (needs a KERNEL_REPLY), with
    #: the casts issued since the previous frame, to apply first.
    KERNEL_CALL = "kernel_call"
    #: coordinator -> worker: RPC return value, and the L1 notes the
    #: call (or anything since the last frame) left for the worker.
    KERNEL_REPLY = "kernel_reply"
    #: worker -> coordinator: a batch of one-way kernel notifications
    #: (no reply).  Casts normally ride the next KERNEL_CALL or
    #: QUANTUM_DONE; this frame flushes them ahead of an unsolicited
    #: TELEMETRY push.
    KERNEL_CAST = "kernel_cast"
    #: coordinator -> worker: enqueue a user message on a local tile.
    DELIVER = "deliver"
    #: coordinator -> worker: forward a wake timestamp to a tile.
    NOTIFY_WAKE = "notify_wake"
    #: coordinator -> worker: request the flattened local stats
    #: (payload: the worker's last L1 notes, which move L1 counters).
    COLLECT_STATS = "collect_stats"
    #: worker -> coordinator: flattened local stats.
    STATS = "stats"
    #: coordinator -> worker: request buffered telemetry + histograms.
    COLLECT_TELEMETRY = "collect_telemetry"
    #: worker -> coordinator: a :class:`~repro.telemetry.aggregate.
    #: TelemetryBatch` (sent unsolicited when the event buffer fills
    #: during a quantum, and as the COLLECT_TELEMETRY reply).
    TELEMETRY = "telemetry"
    #: coordinator -> worker: request the worker's host-profiler state.
    COLLECT_HOST_STATS = "collect_host_stats"
    #: worker -> coordinator: a :class:`HostStatsBatch` (the worker's
    #: own busy/idle/serialization attribution; empty when the run is
    #: unprofiled).
    HOST_STATS = "host_stats"
    #: coordinator -> worker: snapshot the shard (barrier; the worker
    #: must be idle between quanta when this arrives).
    CHECKPOINT = "checkpoint"
    #: worker -> coordinator: a :class:`ShardCheckpoint` (the shard's
    #: pickled kernel + interpreters), acknowledging the barrier.
    CKPT_ACK = "ckpt_ack"
    #: coordinator -> worker: adopt a :class:`ShardCheckpoint` blob
    #: (sent after HELLO when resuming from a checkpoint).
    RESTORE = "restore"
    #: coordinator -> worker: merge a migrated :class:`ShardCheckpoint`
    #: blob into the worker's *existing* shard (live migration; unlike
    #: RESTORE the current kernel and interpreters are kept).
    ADOPT = "adopt"
    #: coordinator -> worker: your shard has been migrated elsewhere;
    #: discard it and continue with a fresh, empty one.  Sent to the
    #: *source* of a non-departing migration so stale kernels never
    #: double-report stats or collide with a later re-adoption.
    RELEASE = "release"
    #: coordinator -> worker: the worker has been drained; exit the
    #: loop cleanly (its tiles now live elsewhere).
    GOODBYE = "goodbye"
    #: coordinator -> worker: exit the worker loop.
    SHUTDOWN = "shutdown"
    #: worker -> coordinator: unrecoverable failure (with traceback).
    ERROR = "error"


#: Frame value -> member, so decoding an mp frame is one dict lookup.
_FRAME_KINDS: Dict[str, FrameKind] = {kind.value: kind for kind in FrameKind}


def encode_frame(kind: Any, payload: Any) -> bytes:
    """One frame: a :class:`FrameKind` (sent as its value) or a verb,
    and its payload."""
    if isinstance(kind, FrameKind):
        kind = kind.value
    try:
        return pickle.dumps((kind, payload), protocol=PICKLE_PROTOCOL)
    except Exception as exc:
        raise WireFormatError(f"cannot encode {kind} frame: {exc}") from exc


def decode_frame(blob: bytes) -> Tuple[Any, Any]:
    """The ``(kind, payload)`` of one frame; an mp kind comes back as
    its :class:`FrameKind` member, a verb as its string."""
    try:
        kind, payload = pickle.loads(blob)
        return _FRAME_KINDS.get(kind, kind), payload
    except Exception as exc:
        raise WireFormatError(f"undecodable frame: {exc}") from exc


@dataclass(frozen=True)
class HostStatsBatch:
    """One worker's host-profiler export, as carried on the wire (v3).

    ``scopes`` maps scope name -> ``{"calls", "cum_ns", "self_ns"}``
    (the :meth:`repro.profile.timers.HostProfiler.scope_dict` shape);
    the coordinator summarizes it into per-worker busy/idle/serialize
    time and merges all workers into the cluster-wide host profile.
    """

    worker: int
    scopes: Dict[str, Dict[str, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class ShardCheckpoint:
    """One worker's shard snapshot, as carried on the wire (v4).

    ``blob`` is the surgical pickle (:mod:`repro.ckpt.snapshot`) of
    ``{"kernel": KernelProxy, "interpreters": {tile: interpreter}}``;
    the coordinator never unpickles it — it stores the bytes in the
    checkpoint and ships them back verbatim in a RESTORE frame.
    """

    worker: int
    blob: bytes


# -- program references ------------------------------------------------------


@dataclass(frozen=True)
class WorkloadRef:
    """A main program named by workload-registry entry, not by object.

    ``resolve()`` rebuilds the program on whichever process unpickles
    the reference, so closure-laden ``build()`` products never need to
    cross the wire.
    """

    workload: str
    nthreads: int
    scale: float = 1.0
    params: Dict[str, Any] = field(default_factory=dict)

    def resolve(self) -> Callable[..., Any]:
        from repro.workloads.base import get_workload
        return get_workload(self.workload).main(
            self.nthreads, self.scale, **dict(self.params))


@dataclass(frozen=True)
class PickledProgram:
    """A program shipped as its pickle (module-level functions only)."""

    blob: bytes

    def resolve(self) -> Callable[..., Any]:
        return pickle.loads(self.blob)


def make_program_ref(program: Any) -> Any:
    """Make ``program`` shippable; pass existing references through."""
    if hasattr(program, "resolve"):
        return program
    try:
        return PickledProgram(pickle.dumps(
            program, protocol=PICKLE_PROTOCOL))
    except Exception as exc:
        raise ProgramTransportError(
            f"program {program!r} cannot cross a process boundary "
            f"({exc}); use a module-level function or a WorkloadRef"
        ) from exc


def program_key(ref: Any) -> bytes:
    """Stable identity of a program reference across processes.

    Used by the coordinator to allocate synthetic code regions: equal
    references (same workload spec, same pickled function) map to the
    same code base, mirroring the in-process ``id(program)`` keying.
    """
    return pickle.dumps(ref, protocol=PICKLE_PROTOCOL)

"""Loading checkpoints and the crash-recovery driver.

:func:`load_checkpoint` turns an on-disk snapshot back into a runnable
simulator: the coordinator blob is unpickled, the simulator re-arms
its host-side wiring with the same two functions a fresh build runs
(``Simulator._after_restore``; DESIGN.md §3), and — for an mp
snapshot — the shard blobs are stashed on the simulator for
``resume_run`` to ship to freshly started workers.

:func:`drive` is the fault-tolerance loop a checkpointing run is
launched under (:func:`repro.sim.runner.launch`): it starts the
simulation and, when
a worker dies (:class:`~repro.distrib.errors.WorkerCrashError` /
``WorkerTimeoutError``), sleeps an exponential backoff, reloads the
last consistent checkpoint into a *fresh* simulator and resumes — up
to ``config.ckpt.max_restarts`` attempts.  Each restart is logged in
``result.recoveries`` and, when tracing is enabled, emitted as a
WORKER-category ``recovery`` telemetry event.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.config import SimulationConfig
from repro.common.errors import CheckpointError
from repro.ckpt.snapshot import load_bytes
from repro.ckpt.store import CheckpointStore, manifest_path


def _locate(path: str, name: Optional[str]) -> Tuple[str, Optional[str]]:
    """``(root, name)`` of a checkpoint given either a checkpoint
    *root* (the ``--ckpt-dir``; ``name`` or the newest complete
    checkpoint is meant) or one specific ``ckpt-NNNNNNNN`` directory."""
    if name is None and os.path.isfile(manifest_path(path)):
        return os.path.dirname(path) or ".", os.path.basename(path)
    return path, name


def load_checkpoint(path: str, name: Optional[str] = None,
                    config: Optional[SimulationConfig] = None,
                    telemetry: Optional[Any] = None
                    ) -> Tuple[Any, Dict[str, Any]]:
    """Restore a simulator from a checkpoint directory.

    ``path`` and ``name`` select the checkpoint as :func:`_locate`
    describes.  ``config`` replaces the checkpointed run's
    configuration before the simulator re-arms; the caller vouches
    that it differs only in sections that cannot change the result —
    the observational ones, and for a snapshot-library fork the
    timing sections the fork re-dresses.  ``telemetry`` replaces that
    config's telemetry section alone.  Returns ``(simulator,
    manifest)``; drive the simulator with ``resume_run()``.
    """
    root, name = _locate(path, name)
    manifest, blobs = CheckpointStore(root).read(name)
    simulator = load_bytes(blobs["coordinator"])
    shards = {int(key[len("shard"):]): blob
              for key, blob in blobs.items() if key.startswith("shard")}
    if shards:
        simulator._restore_shards = shards
    if telemetry is not None:
        config = (config or simulator.config).copy()
        config.telemetry = telemetry
        config.validate()
    simulator._after_restore(config)
    return simulator, manifest


def _dump_flight(simulator: Any, failure: Exception) -> None:
    """Write the flight-recorder forensics bundle for a dead run."""
    flight = getattr(simulator, "flight", None)
    directory = simulator.config.telemetry.flight_dir
    if flight is None or not directory:
        return
    detail = str(failure).splitlines()[0] if str(failure) else ""
    try:
        flight.dump(directory, type(failure).__name__, detail=detail,
                    extra={"trace": simulator.config.telemetry.trace_id},
                    host_profile=getattr(simulator, "host_profile",
                                         None))
    except OSError:  # pragma: no cover - forensics must never mask
        pass         # the original failure


def _emit_recovery(simulator: Any, event: Dict[str, Any]) -> None:
    from repro.telemetry.events import EventCategory
    channel = simulator._channel(EventCategory.WORKER)
    if channel is not None:
        channel.emit("recovery", None, 0, dict(event))


def drive(simulator: Any, start: Callable[[], Any]) -> Tuple[Any, Any]:
    """Run ``start()`` to completion, restarting from checkpoints
    after crashes.

    ``start`` is the simulator's bound ``run`` (with its program) or
    ``resume_run``.  Returns ``(result, final_simulator)`` — the final
    simulator is the one that actually completed (a restored instance
    after a crash), which callers needing ``host_profile``/``stats``
    must use instead of the one they passed in.  Only infrastructure
    failures are retried; target faults and simulator bugs propagate
    immediately.  Without checkpointing enabled this is exactly
    ``start()``.
    """
    from repro.distrib.errors import WorkerCrashError, WorkerTimeoutError
    crashes = (WorkerCrashError, WorkerTimeoutError)
    try:
        return start(), simulator
    except crashes as exc:
        _dump_flight(simulator, exc)
        if not simulator.config.ckpt.enabled:
            raise
        failure = exc
    config = simulator.config
    recoveries = list(simulator.recoveries)
    attempt = 0
    while True:
        attempt += 1
        if attempt > config.ckpt.max_restarts:
            raise failure
        delay = (config.ckpt.backoff_base
                 * config.ckpt.backoff_factor ** (attempt - 1))
        time.sleep(delay)
        try:
            restored, manifest = load_checkpoint(config.ckpt.dir,
                                                 config=config)
        except CheckpointError as exc:
            raise CheckpointError(
                f"cannot recover from crash: {exc}") from failure
        event = {
            "attempt": attempt,
            "turn": manifest["turn"],
            "backoff_seconds": delay,
            "error": type(failure).__name__,
            "detail": str(failure).splitlines()[0] if str(failure) else "",
        }
        recoveries.append(event)
        restored.recoveries = list(recoveries)
        _emit_recovery(restored, event)
        try:
            return restored.resume_run(), restored
        except crashes as exc:
            _dump_flight(restored, exc)
            failure = exc


def run_with_recovery(simulator: Any, program: Any,
                      args: tuple = ()) -> Tuple[Any, Any]:
    """:func:`drive` a freshly built simulator through ``program``."""
    return drive(simulator, lambda: simulator.run(program, args))


def resume_with_recovery(path: str, name: Optional[str] = None,
                         telemetry: Optional[Any] = None
                         ) -> Tuple[Any, Any]:
    """``repro resume``: load a checkpoint and :func:`drive` it to
    completion.

    ``telemetry`` optionally replaces the checkpointed run's telemetry
    section (a :class:`~repro.common.config.TelemetryConfig`) — how
    ``repro resume --trace`` arms tracing on a run checkpointed
    without it.  Observational only: it cannot change the resumed
    result.
    """
    simulator, _manifest = load_checkpoint(path, name,
                                           telemetry=telemetry)
    return drive(simulator, simulator.resume_run)

"""One fleet: job-worker slots over channels, and the loop a worker runs.

Every process that runs whole simulations on someone else's behalf —
the serve daemon's forked workers, its ``repro worker --connect``
dial-ins and the sweep pool's children — is a :class:`FleetSlot` on the
supervisor's side and :func:`run_fleet_child` on its own, speaking four
verbs over one :class:`~repro.net.channel.Channel` in the one
``(kind, payload)`` envelope of :mod:`repro.distrib.wire`
(``check/wire_proto.json``, roles ``serve_daemon`` / ``serve_remote``):
``("job", item)``, ``("preempt", None)`` and ``("shutdown", None)``
down, ``("result", (job_id, status, payload))`` up, where status is
``ok`` (payload: the :class:`~repro.sim.results.SimulationResult`),
``preempted`` (the checkpoint directory to resume from) or ``failed``
(the traceback).  A forked child gets a
:class:`~repro.net.channel.PipeChannel` (a socketpair), a dial-in a
:class:`~repro.net.channel.TcpChannel`; nothing else differs, except
that a dead forked child can be forked again (``respawn``) and a
vanished remote host cannot.

Preemption has no side-band on any carrier: while a job runs the
supervisor sends only ``preempt`` or ``shutdown``, so the child's
preempt flag may poll the channel between quanta without ever
swallowing an assignment, and — the channel being FIFO — a ``preempt``
that lost a race with its job's completion arrives *before* the next
``job`` frame and is dropped there, while one sent after it belongs to
the new job.
"""

from __future__ import annotations

import multiprocessing.connection
import pickle
import traceback
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.distrib.wire import decode_frame, encode_frame
from repro.net.channel import (
    Channel,
    ChannelClosedError,
    ChannelError,
    fork_child,
)
from repro.serve.worker import JobPreempted, run_job

#: Seconds allowed for orderly worker shutdown before termination.
_SHUTDOWN_GRACE = 2.0

#: Seconds a supervisor waits for the rest of a frame a worker has
#: begun before it gives the worker up (its job is requeued).
_FRAME_STALL_S = 30.0


def _post(channel: Channel, frame: tuple) -> None:
    """Best-effort send of one ``(verb, payload)`` frame tuple: a peer
    that died under it is found by the next wait or read on the
    channel, not here."""
    try:
        channel.send_bytes(encode_frame(*frame))
    except ChannelClosedError:
        pass


class FleetSlot:
    """The supervisor's end of one job worker.

    ``job`` is whatever the supervisor tracks for the assignment in
    flight (the daemon's :class:`~repro.serve.jobs.ServeJob`, the
    pool's job index; ``None`` = idle), so which worker holds which
    job is a field, never a guess.  ``respawn`` forks a replacement
    child and returns its channel; ``None`` marks a dial-in, whose
    death removes the slot instead.
    """

    def __init__(self, index: int, channel: Channel,
                 respawn: Optional[Callable[[], Channel]] = None) -> None:
        self.index = index
        self.channel = channel
        channel.bound_frame_reads(_FRAME_STALL_S)
        self.respawn = respawn
        self.job: Any = None
        #: A preempt frame is in flight for the current job.
        self.preempt_pending = False

    @classmethod
    def fork(cls, index: int, name: str) -> "FleetSlot":
        """A slot whose worker is a forked child of this process."""
        def spawn() -> Channel:
            return fork_child(run_fleet_child, name)

        return cls(index, spawn(), spawn)

    def restart(self) -> None:
        """Replace a dead forked child; the slot comes back idle."""
        self.channel.close()
        self.channel = self.respawn()
        self.channel.bound_frame_reads(_FRAME_STALL_S)
        self.job = None
        self.preempt_pending = False

    def alive(self) -> bool:
        """A forked child's process, a dial-in's socket
        (:meth:`~repro.net.channel.PipeChannel.alive`)."""
        return self.channel.alive()

    def waitables(self) -> List[Any]:
        """What a blocked supervisor watches: the channel (a result,
        or a dial-in's EOF) and a forked child's death."""
        proc = self.channel.proc
        return [self.channel.fileno()] + (
            [proc.sentinel] if proc is not None else [])

    def assign(self, job: Any, item: tuple) -> None:
        """Start ``item`` — ``(job_id, config, program, args,
        resume_dir)`` — on this idle worker, tracked as ``job``."""
        self.job = job
        self.preempt_pending = False
        _post(self.channel, ("job", item))

    def preempt(self) -> None:
        """Ask the running job to checkpoint off at its next quantum."""
        self.preempt_pending = True
        _post(self.channel, ("preempt", None))

    def take_result(self) -> Optional[tuple]:
        """The finished job's ``(job_id, status, payload)``, freeing
        the slot — or ``None`` while nothing has arrived."""
        try:
            if not self.channel.poll():
                return None
            kind, payload = decode_frame(self.channel.recv_bytes())
        except ChannelClosedError:
            return None  # death: the supervisor's alive() pass sees it
        except ChannelError:
            # Stalled part-way through a frame: give the worker up, and
            # the supervisor's alive() pass requeues its job.
            proc = self.channel.proc
            if proc is not None:
                proc.terminate()
                proc.join(timeout=1.0)
            else:
                self.channel.close()
            return None
        if kind != "result":
            raise ChannelError(f"fleet worker {self.index} spoke "
                               f"{kind!r}, expected a result")
        self.job = None
        self.preempt_pending = False
        return payload

    def shutdown(self, grace: float = _SHUTDOWN_GRACE) -> None:
        """Ask the worker to stop (mid-job: checkpoint off and exit);
        a forked child still running after ``grace`` is terminated."""
        _post(self.channel, ("shutdown", None))
        proc = self.channel.proc
        if proc is not None:
            proc.join(timeout=grace)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self.channel.close()


def wait_for_slots(slots: Iterable[FleetSlot], timeout: Optional[float],
                   also: Sequence[Any] = ()) -> List[Any]:
    """Block until a slot has a result or lost its worker, one of the
    ``also`` waitables is ready, or ``timeout`` (``None`` = forever)
    passes; returns what is ready."""
    waitables = list(also)
    for slot in slots:
        waitables += slot.waitables()
    return multiprocessing.connection.wait(waitables, timeout)


# -- the worker side ---------------------------------------------------------


class _ChannelPreemptFlag:
    """The child's preempt flag: polls the channel between quanta.

    Mid-job the supervisor only ever sends ``preempt`` or ``shutdown``
    frames, so consuming here cannot eat a job assignment.  A
    ``shutdown`` received mid-job acts as a final preemption: the job
    checkpoints off and the loop exits after reporting it.
    """

    def __init__(self, channel: Channel) -> None:
        self._channel = channel
        self._set = False
        self.stopped = False

    def is_set(self) -> bool:
        while not self._set and self._channel.poll(0.0):
            kind = decode_frame(self._channel.recv_bytes())[0]
            if kind == "shutdown":
                self.stopped = True
            elif kind != "preempt":  # pragma: no cover - supervisor bug
                raise EOFError(f"unexpected {kind!r} frame mid-job")
            self._set = True
        return self._set

    def clear(self) -> None:
        self._set = False

    def next_job(self) -> Optional[tuple]:
        """Block for the next assignment; ``None`` means shut down."""
        while not self.stopped:
            kind, payload = decode_frame(self._channel.recv_bytes())
            if kind == "job":
                return payload
            if kind == "shutdown":
                break
            # A stale preempt aimed at the job we just finished.
        return None


def run_fleet_child(channel: Channel, ops: Any = None) -> None:
    """Serve jobs from a supervisor over one channel until shut down.

    ``ops`` is an optional worker-side telemetry channel (``repro
    worker --trace``): each assignment and outcome is mirrored as a
    local ``job.*`` event carrying the job's trace id, so a remote
    host's view of the work can be merged into the daemon's span tree.
    """
    flag = _ChannelPreemptFlag(channel)

    def report(name, job_id, trace, status, payload, **extra):
        if ops is not None:
            ops.emit(name, None, 0, dict(extra, job=job_id, trace=trace))
        _post(channel, ("result", (job_id, status, payload)))

    try:
        while True:
            item = flag.next_job()
            if item is None:
                return
            job_id, config, program, args, resume_dir = item
            trace = config.telemetry.trace_id
            if ops is not None:
                ops.emit("job.assigned", None, 0,
                         {"resumed": bool(resume_dir), "job": job_id,
                          "trace": trace})
            try:
                result = run_job(config, program, args, resume_dir, flag)
                try:
                    pickle.dumps(result.main_result)
                except Exception:
                    result.main_result = None  # cannot cross the channel
                report("job.done", job_id, trace, "ok", result)
            except JobPreempted as preempted:
                report("job.preempted", job_id, trace, "preempted",
                       preempted.checkpoint_dir,
                       ckpt=preempted.checkpoint_dir)
            except ChannelClosedError:
                raise
            except BaseException:
                report("job.failed", job_id, trace, "failed",
                       traceback.format_exc())
            if flag.stopped:
                return
    except (ChannelClosedError, EOFError):
        pass  # supervisor gone: nothing left to serve
    finally:
        channel.close()

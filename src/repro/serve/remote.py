"""Remote fleet workers: serve jobs over TCP channels.

With ``repro serve --listen host:port`` the daemon accepts dial-ins
from ``repro worker --connect`` and treats each as one extra fleet
slot.  The pump drives remote slots through the same three verbs it
uses on forked children — assign a job, poll for its result, signal
preemption — so the scheduling, retry and preemption policies apply
unchanged; only the carrier differs (pickled tuples over a framed
:class:`~repro.net.channel.TcpChannel` instead of pipes and a
``multiprocessing.Event``).

The one policy difference is death: a forked child is respawned in
place, but a vanished remote host cannot be — the slot is *removed*
and its job requeued against the normal retry budget, mirroring the
mp backend's drain semantics (capacity leaves, work does not).

Preemption over TCP has no side-band, so it rides the main channel:
while a job runs, the only frames the daemon may send are ``preempt``
and ``shutdown``, which lets the worker's
:class:`~repro.serve.worker.PreemptGuard` flag poll the channel
between quanta without ever swallowing a job assignment.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Any, Optional, Tuple

from repro.net.channel import Channel, ChannelClosedError

#: Pickle protocol for remote serve frames (matches the distrib wire).
_PICKLE_PROTOCOL = 4


def _send(channel: Channel, payload: Tuple) -> None:
    channel.send_bytes(pickle.dumps(payload, protocol=_PICKLE_PROTOCOL))


def _recv(channel: Channel) -> Tuple:
    return pickle.loads(channel.recv_bytes())


class _JobSender:
    """``task_send`` face of a remote slot (pipe-compatible errors)."""

    def __init__(self, channel: Channel) -> None:
        self._channel = channel

    def send(self, item: Optional[tuple]) -> None:
        payload = ("shutdown",) if item is None else ("job", item)
        try:
            _send(self._channel, payload)
        except ChannelClosedError as exc:
            raise OSError(str(exc)) from exc

    def close(self) -> None:
        pass


class _ResultReceiver:
    """``result_recv`` face of a remote slot."""

    def __init__(self, channel: Channel) -> None:
        self._channel = channel

    def poll(self, timeout: float = 0.0) -> bool:
        return self._channel.poll(timeout)

    def recv(self) -> tuple:
        try:
            kind, payload = _recv(self._channel)
        except ChannelClosedError as exc:
            raise EOFError(str(exc)) from exc
        if kind != "result":
            raise EOFError(f"remote worker spoke {kind!r}, "
                           f"expected a result")
        return payload

    def close(self) -> None:
        pass


class _PreemptSender:
    """``preempt_flag`` face of a remote slot.

    ``set`` is best-effort: a dead peer is reaped (and its job
    requeued) on the next supervision pass, exactly as when a local
    worker dies with a preempt signal in flight.
    """

    def __init__(self, channel: Channel) -> None:
        self._channel = channel

    def set(self) -> None:
        try:
            _send(self._channel, ("preempt",))
        except ChannelClosedError:
            pass

    def clear(self) -> None:
        pass


class RemoteFleetWorker:
    """One remote fleet slot: a handshaken channel, pump-compatible."""

    #: Remote capacity cannot be respawned; death removes the slot.
    respawnable = False
    proc = None

    def __init__(self, index: int, channel: Channel, hello: Any) -> None:
        self.index = index
        self.channel = channel
        self.hello = hello
        self.task_send = _JobSender(channel)
        self.result_recv = _ResultReceiver(channel)
        self.preempt_flag = _PreemptSender(channel)
        self.job = None
        self.preempt_pending = False

    @property
    def idle(self) -> bool:
        return self.job is None

    def alive(self) -> bool:
        return self.channel.alive()

    def describe(self) -> str:
        return self.channel.describe()

    def shutdown(self) -> None:
        try:
            _send(self.channel, ("shutdown",))
        except ChannelClosedError:
            pass
        self.channel.close()


class _ChannelPreemptFlag:
    """Worker-side preempt flag that polls the channel between quanta.

    Mid-job the daemon only ever sends ``preempt`` or ``shutdown``
    frames, so consuming here cannot eat a job assignment.  A
    ``shutdown`` received mid-job acts as a final preemption: the job
    checkpoints off and the loop exits after reporting it.
    """

    def __init__(self, channel: Channel) -> None:
        self._channel = channel
        self._set = False
        self.stopped = False

    def is_set(self) -> bool:
        if self._set:
            return True
        while self._channel.poll(0.0):
            kind = _recv(self._channel)[0]
            if kind == "preempt":
                self._set = True
            elif kind == "shutdown":
                self.stopped = True
                self._set = True
            else:  # pragma: no cover - daemon bug
                raise EOFError(f"unexpected {kind!r} frame mid-job")
        return self._set

    def clear(self) -> None:
        """Drop the flag *and* any buffered stale preempt frames.

        Mirrors ``preempt_flag.clear()`` in the forked-child loop: a
        preempt aimed at this slot's previous occupant must not leak
        into the job that was just assigned.  A buffered ``shutdown``
        is remembered, not dropped.
        """
        while self._channel.poll(0.0):
            if _recv(self._channel)[0] == "shutdown":
                self.stopped = True
        self._set = False

    def next_job(self) -> Optional[tuple]:
        """Block for the next assignment; ``None`` means shut down."""
        if self.stopped:
            return None
        while True:
            kind, *rest = _recv(self._channel)
            if kind == "job":
                return rest[0]
            if kind == "shutdown":
                return None
            # A stale preempt aimed at the job we just finished.


def run_remote_fleet_worker(channel: Channel, ops: Any = None) -> None:
    """Serve jobs from a daemon over one channel until shut down.

    ``ops`` is an optional worker-side telemetry channel (``repro
    worker --trace``): each assignment and outcome is mirrored as a
    local ``job.*`` event carrying the job's trace id, so a remote
    host's view of the work can be merged into the daemon's span tree.
    """
    from repro.serve.worker import JobPreempted, run_job
    flag = _ChannelPreemptFlag(channel)

    def note(name, job_id, trace, **extra):
        if ops is not None:
            record = dict(extra)
            record.update(job=job_id, trace=trace)
            ops.emit(name, None, 0, record)

    try:
        while True:
            item = flag.next_job()
            if item is None:
                return
            job_id, config, program, args, resume_dir = item
            trace = config.telemetry.trace_id
            flag.clear()
            note("job.assigned", job_id, trace,
                 resumed=bool(resume_dir))
            try:
                result = run_job(config, program, args, resume_dir,
                                 flag)
                note("job.done", job_id, trace)
                _send(channel, ("result", (job_id, "ok", result)))
            except JobPreempted as preempted:
                note("job.preempted", job_id, trace,
                     ckpt=preempted.checkpoint_dir)
                _send(channel, ("result", (job_id, "preempted",
                                           preempted.checkpoint_dir)))
            except ChannelClosedError:
                raise
            except BaseException:
                note("job.failed", job_id, trace)
                _send(channel, ("result",
                                (job_id, "failed",
                                 traceback.format_exc())))
            if flag.stopped:
                return
    except (ChannelClosedError, EOFError):
        pass  # daemon gone: nothing left to serve
    finally:
        channel.close()

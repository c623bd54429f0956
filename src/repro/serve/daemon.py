"""The serve daemon: a persistent scheduler over one worker fleet.

``SimServer`` owns three things:

* a **worker fleet** — one :class:`~repro.serve.fleet.FleetSlot` per
  worker, one job each: long-lived forked children, respawned on
  death, plus any ``repro worker --connect`` dial-ins, removed on
  death; either way the dead worker's job is requeued against its
  retry budget;
* a **job queue** (:mod:`repro.serve.jobs`) — strict priority, FIFO
  within a class, with checkpoint preemption when a higher-priority
  job arrives and every worker is busy;
* a **content-addressed result store** (:mod:`repro.serve.store`) — a
  repeat submission whose key is already stored is answered as
  ``cached`` without simulating.

One thread, the *pump*, runs the service and owns all its state.  It
sleeps in one wait over the fleet's channels, the forked children's
sentinels, both doors — :class:`~repro.net.listener.NetListener` s on
the Unix socket clients dial (:mod:`repro.serve.protocol`) and on the
optional TCP address remote workers dial — and every client's channel,
and wakes when one of them has something to say: a result, a death, a
dial-in or a request, answered inline.

Job and worker lifecycle events surface on the telemetry bus as
``serve.*`` events — the service's ops stream (``--trace-out``).
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
import traceback
from typing import Any, Dict, List, Optional

from repro.common.config import (
    CheckConfig,
    CkptConfig,
    DistribConfig,
    ProfileConfig,
    SimulationConfig,
    TelemetryConfig,
)
from repro.common.errors import ServeError, TransportError
from repro.distrib.errors import WireFormatError
from repro.distrib.wire import WIRE_VERSION, decode_frame, encode_frame
from repro.net.channel import Channel
from repro.net.listener import NetListener
from repro.serve.fleet import FleetSlot, wait_for_slots
from repro.serve.jobs import (
    CACHED,
    DONE,
    FAILED,
    PREEMPTED,
    QUEUED,
    RUNNING,
    JobQueue,
    ServeJob,
)
from repro.obs.spans import SpanEmitter, mint_trace_id
from repro.serve.protocol import ServerInfo, SubmitSpec, view_payload
from repro.serve.store import ResultStore, job_key
from repro.telemetry.events import EventCategory

#: Seconds the pump backs off after a supervision pass raised.
_CRASH_BACKOFF = 1.0
#: Seconds a client may stall the pump mid-frame (or leave a reply
#: unread) before it is dropped.
_CLIENT_STALL = 0.5


class SimServer:
    """The persistent simulation service (daemon side)."""

    def __init__(self, root: str, fleet: int = 2,
                 max_attempts: int = 3,
                 socket_path: Optional[str] = None,
                 telemetry: Optional[TelemetryConfig] = None,
                 listen: Optional[str] = None) -> None:
        if fleet < 1 and listen is None:
            raise ServeError("serve: fleet must have at least 1 worker "
                             "(or --listen for remote ones)")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.socket_path = socket_path or os.path.join(self.root,
                                                       "serve.sock")
        self.fleet_size = fleet
        self.max_attempts = max(1, int(max_attempts))
        self.store = ResultStore(os.path.join(self.root, "results"))

        self.queue = JobQueue()
        #: job_id -> ServeJob, in submission order.
        self.jobs: Dict[str, ServeJob] = {}
        self.workers: List[FleetSlot] = []
        self._job_ids = itertools.count(1)
        self._stop = threading.Event()
        #: Self-pipe ``(read, write)`` that wakes the blocked pump.
        self._wake: Optional[tuple] = None
        self._pump: Optional[threading.Thread] = None
        #: The client door (Unix socket) and its connected clients.
        self._listener: Optional[NetListener] = None
        self._clients: List[Channel] = []
        self._started = False
        #: ``host:port`` for remote ``repro worker --connect`` dial-ins
        #: (``None`` = local fleet only).
        self.listen = listen
        self._net_listener: Optional[NetListener] = None
        self._next_remote_index = 1000

        # Ops counters (the ``stats`` verb).
        self.submitted = 0
        self.cache_hits = 0
        self.preemptions = 0
        self.worker_deaths = 0

        # Fleet-metrics accounting (the ``metrics`` verb): wall-clock
        # bookkeeping for queue wait and worker utilization.  These
        # are host-side ops timers (like :mod:`repro.profile`), never
        # simulated time, so they cannot perturb results.
        self._started_at = time.monotonic()
        #: job_id -> the moment the job (re-)entered the queue.
        self._enqueued_at: Dict[str, float] = {}
        #: worker index -> the moment its current job was assigned.
        self._assigned_at: Dict[int, float] = {}
        #: priority -> {"total": seconds, "count": assignments}.
        self._wait_totals: Dict[int, Dict[str, float]] = {}
        #: worker index -> cumulative busy seconds / jobs run.
        self._worker_busy: Dict[int, float] = {}
        self._worker_jobs: Dict[int, int] = {}

        # Ops stream: serve.* lifecycle events on the telemetry bus.
        from repro.telemetry.bus import create_bus
        self.bus = create_bus(telemetry) if telemetry is not None \
            else None

        # Crash flight recorder: rides the bus as a pure observer, so
        # it sees every ops event (even masked-out categories) without
        # changing what the sinks record.  Must attach before any
        # channel is resolved — ``channel()`` honours the observer
        # mask.
        self.flight = None
        self._flight_dir = ""
        if telemetry is not None and telemetry.flight_dir:
            from repro.obs.flight import arm_flight_recorder
            self.bus, self.flight = arm_flight_recorder(self.bus)
            self._flight_dir = telemetry.flight_dir

        self._channel = (self.bus.channel(EventCategory.SERVE)
                         if self.bus is not None else None)
        #: Span stream (:mod:`repro.obs.spans`): job lifecycle trees.
        self._obs_channel = (self.bus.channel(EventCategory.OBS)
                             if self.bus is not None else None)
        #: job_id -> {"emitter", "job", "queue", "run"} span state.
        self._traces: Dict[str, Dict[str, Any]] = {}
        #: Cadence (seconds) for METRICS fleet.sample events, 0 = off.
        self._metrics_every = (telemetry.metrics_interval
                               if telemetry is not None else 0)
        self._metrics_channel = (
            self.bus.channel(EventCategory.METRICS)
            if self.bus is not None and self._metrics_every > 0
            else None)
        self._last_sample = self._started_at

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SimServer":
        """Bind the doors, fork the fleet, start the pump.

        The socket is claimed *first* so a second daemon on the same
        spool fails before forking anything.
        """
        if self._started:
            raise ServeError("serve: server already started")
        self._started = True
        if os.path.exists(self.socket_path):
            self._clear_stale_socket()
        self._listener = NetListener(self.socket_path, role="serve",
                                     wire_version=WIRE_VERSION, unix=True)
        if self.listen is not None:
            self._net_listener = NetListener(self.listen, role="serve",
                                             wire_version=WIRE_VERSION)
        self._wake = os.pipe()
        for index in range(self.fleet_size):
            worker = FleetSlot.fork(index, f"repro-serve-{index}")
            self.workers.append(worker)
            self._emit("worker.spawned", {"worker": index,
                                          "pid": worker.channel.proc.pid})
        self._pump = threading.Thread(target=self._pump_loop,
                                      name="serve-pump", daemon=True)
        self._pump.start()
        self._emit("server.started", {"fleet": self.fleet_size,
                                      "socket": self.socket_path})
        return self

    def _clear_stale_socket(self) -> None:
        """Probe a leftover socket file; unlink only if nobody answers.

        A daemon that died uncleanly leaves its socket behind — bind
        would fail with EADDRINUSE even though nothing is listening.
        Connecting distinguishes the two cases: a refused connection
        means the socket is stale (safe to unlink), an accepted one
        means a live daemon already serves this spool (fail loudly
        instead of hijacking it).
        """
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(self.socket_path)
        except (ConnectionRefusedError, socket.timeout):
            pass  # nobody home: stale
        except FileNotFoundError:
            return  # already gone
        except OSError as exc:
            raise ServeError(
                f"serve: cannot probe socket {self.socket_path}: "
                f"{exc}") from exc
        else:
            raise ServeError(
                f"serve: a daemon is already listening on "
                f"{self.socket_path}")
        finally:
            probe.close()
        try:
            os.unlink(self.socket_path)
        except FileNotFoundError:  # pragma: no cover - racing daemons
            pass

    @property
    def listen_address(self) -> Optional[str]:
        """The bound TCP address remote workers should dial, if any."""
        if self._net_listener is None:
            return None
        return self._net_listener.address

    def request_stop(self) -> None:
        """Ask the service to wind down (returns immediately)."""
        self._stop.set()
        wake = self._wake
        if wake is not None:
            os.write(wake[1], b"!")

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until a stop is requested; ``True`` if it was."""
        return self._stop.wait(timeout)

    def stop(self) -> None:
        """Stop the pump, retire the fleet, close the doors and bus.

        Graceful but immediate: queued jobs stay queued (and are
        reported as such by a later daemon over the same spool's
        store), running jobs checkpoint off at their next quantum and
        exit with their workers (terminated after a grace period).
        """
        self.request_stop()
        if self._pump is not None:
            self._pump.join(timeout=5.0)
            self._pump = None
        wake, self._wake = self._wake, None
        for fd in wake or ():
            os.close(fd)
        for worker in self.workers:
            worker.shutdown()
        self.workers = []
        for channel in self._clients:
            channel.close()
        self._clients = []
        for door in (self._listener, self._net_listener):
            if door is not None:
                door.close()
        self._listener = self._net_listener = None
        if os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:  # pragma: no cover - racing daemons
                pass
        self._emit("server.stopped", {})
        if self.bus is not None:
            self.bus.close()

    # -- telemetry ----------------------------------------------------------

    def _emit(self, name: str, args: Dict[str, Any]) -> None:
        if self._channel is not None:
            self._channel.emit(name, None, 0, args)

    def _emit_job(self, name: str, job: ServeJob,
                  extra: Optional[Dict[str, Any]] = None) -> None:
        args = {"job": job.job_id, "state": job.state,
                "priority": job.priority, "key": job.key}
        if job.trace_id:
            args["trace"] = job.trace_id
        if extra:
            args.update(extra)
        self._emit(name, args)

    # -- distributed tracing (repro.obs spans) ------------------------------

    def _trace_open(self, job: ServeJob) -> None:
        """Mint the job's trace and open its root lifecycle span."""
        emitter = SpanEmitter(self._obs_channel, job.trace_id)
        root = emitter.begin("job", job=job.job_id, key=job.key,
                             priority=job.priority)
        self._traces[job.job_id] = {"emitter": emitter, "job": root,
                                    "queue": "", "run": ""}

    def _trace_begin(self, job: ServeJob, op: str, **args: Any) -> str:
        """Open a child span (``queue``/``run``) under the job root."""
        state = self._traces.get(job.job_id)
        if state is None:
            return ""
        state[op] = state["emitter"].begin(op, parent=state["job"],
                                           job=job.job_id, **args)
        return state[op]

    def _trace_end(self, job: ServeJob, op: str, **args: Any) -> None:
        """Close the job's open ``op`` span, if any."""
        state = self._traces.get(job.job_id)
        if state is None or not state.get(op):
            return
        state["emitter"].end(state[op], op, **args)
        state[op] = ""

    def _trace_note(self, job: ServeJob, name: str,
                    **args: Any) -> None:
        """Attach an instant note to the job's root span."""
        state = self._traces.get(job.job_id)
        if state is not None:
            state["emitter"].note(state["job"], name, **args)

    def _trace_close(self, job: ServeJob, outcome: str) -> None:
        """Terminal state: close every open span and the root."""
        state = self._traces.pop(job.job_id, None)
        if state is None:
            return
        for op in ["run", "queue"]:
            if state.get(op):
                state["emitter"].end(state[op], op, outcome=outcome)
        state["emitter"].end(state["job"], "job", outcome=outcome)

    # -- submission ---------------------------------------------------------

    def submit(self, config: SimulationConfig, program: Any,
               args: tuple = (), priority: int = 0) -> ServeJob:
        """Admit one job; returns its (possibly already-cached) record."""
        key = job_key(config, program, args)
        job_id = f"job-{next(self._job_ids):06d}"
        job = ServeJob(job_id=job_id, key=key,
                       config=self._job_config(config, job_id),
                       program=program, args=tuple(args),
                       priority=int(priority),
                       seqno=self.queue.next_seqno(),
                       max_attempts=self.max_attempts)
        job.trace_id = mint_trace_id(job_id, key)
        self.jobs[job_id] = job
        self.submitted += 1
        self._trace_open(job)
        if key in self.store:
            job.state = CACHED
            self.cache_hits += 1
            self._emit_job("job.cached", job)
            self._trace_close(job, "cached")
        else:
            self.queue.push(job)
            self._enqueued_at[job_id] = time.monotonic()
            self._emit_job("job.submitted", job)
            self._trace_begin(job, "queue")
        return job

    def _job_config(self, config: SimulationConfig,
                    job_id: str) -> SimulationConfig:
        """The config a worker actually runs: semantics untouched,
        observational sections replaced by the service's own.

        Client-side observability settings are not honoured inside
        workers (they cannot change results — that is the cache
        premise — and a worker must not open the client's trace
        files); checkpointing is pointed at the job's private spool
        directory so preemption has somewhere to snapshot.
        """
        run = config.copy()
        run.distrib = DistribConfig()
        run.telemetry = TelemetryConfig()
        run.check = CheckConfig()
        run.profile = ProfileConfig()
        run.ckpt = CkptConfig(
            dir=os.path.join(self.root, "jobs", job_id, "ckpt"))
        run.validate()
        return run

    # -- the pump: scheduling, supervision, results -------------------------

    def _pump_loop(self) -> None:  # pragma: no cover - thread driver
        doors = [self._wake[0], self._listener]
        if self._net_listener is not None:
            doors.append(self._net_listener)
        while not self._stop.is_set():
            try:
                self.pump_once()
            except Exception:
                # A pump crash would silently freeze the service;
                # surface it on stderr and keep serving.
                traceback.print_exc()
                self._stop.wait(_CRASH_BACKOFF)
                continue
            # Sleep until a worker reports or dies, a client or a host
            # dials in, a client asks something or a stop is requested
            # — or the next metrics sample is due.
            timeout = None
            if self._metrics_channel is not None:
                timeout = max(0.0, self._last_sample + self._metrics_every
                              - time.monotonic())
            if doors[0] in wait_for_slots(self.workers, timeout,
                                          doors + self._clients):
                os.read(doors[0], 4096)

    def pump_once(self) -> None:
        """One pass: results and deaths first, so a request sees them;
        then the requests, so a submission is scheduled in the same
        pass (public for deterministic tests)."""
        self._accept_remote_workers()
        self._drain_results()
        self._reap_dead_workers()
        self._serve_clients()
        self._assign_idle_workers()
        self._consider_preemption()
        self._sample_metrics()

    def _release_worker(self, worker: Any) -> None:
        """Utilization bookkeeping when a worker gives up its job."""
        started = self._assigned_at.pop(worker.index, None)
        if started is None:
            return
        index = worker.index
        self._worker_busy[index] = (self._worker_busy.get(index, 0.0)
                                    + time.monotonic() - started)
        self._worker_jobs[index] = self._worker_jobs.get(index, 0) + 1

    def _accept_remote_workers(self) -> None:
        """Admit ``repro worker --connect`` dial-ins as fleet slots."""
        if self._net_listener is None:
            return
        for channel, hello in self._net_listener.pending(
                lambda exc: self._emit("worker.rejected",
                                       {"error": str(exc)})):
            index = self._next_remote_index
            self._next_remote_index += 1
            self.workers.append(FleetSlot(index, channel))
            self._emit("worker.joined", {"worker": index,
                                         "peer": channel.describe(),
                                         "host": hello.host,
                                         "pid": hello.pid})

    def _drain_results(self) -> None:
        for worker in self.workers:
            running = worker.job
            taken = worker.take_result()
            if taken is None:
                continue  # nothing yet (or dead: _reap_dead_workers)
            job_id, status, payload = taken
            job = self.jobs.get(job_id, running)
            self._release_worker(worker)
            if status == "ok":
                self._finish_ok(job, payload)
            elif status == "preempted":
                self._finish_preempted(job, payload)
            else:
                job.state = FAILED
                job.error = str(payload)
                self._emit_job("job.failed", job)
                self._trace_close(job, "failed")

    def _finish_ok(self, job: ServeJob, result: Any) -> None:
        try:
            self.store.put(job.key, result)
        except ServeError as exc:
            job.state = FAILED
            job.error = str(exc)
            self._emit_job("job.failed", job)
            self._trace_close(job, "failed")
            return
        job.state = DONE
        job.error = None
        job.resume_dir = None
        self._emit_job("job.done", job)
        self._trace_end(job, "run", outcome="done")
        self._trace_close(job, "done")

    def _finish_preempted(self, job: ServeJob, ckpt_dir: str) -> None:
        job.preemptions += 1
        self.preemptions += 1
        if job.cancel_requested:
            job.state = FAILED
            job.error = "cancelled by client"
            self._emit_job("job.failed", job, {"cancelled": True})
            self._trace_close(job, "cancelled")
            return
        job.state = PREEMPTED
        job.resume_dir = ckpt_dir
        self.queue.requeue(job)
        self._enqueued_at[job.job_id] = time.monotonic()
        self._emit_job("job.preempted", job, {"ckpt": ckpt_dir})
        self._trace_end(job, "run", outcome="preempted", ckpt=ckpt_dir)
        self._trace_begin(job, "queue", resumed=True)

    def _reap_dead_workers(self) -> None:
        removed: List[Any] = []
        for worker in self.workers:
            if worker.alive():
                continue
            job = worker.job
            self.worker_deaths += 1
            self._release_worker(worker)
            self._emit("worker.died", {
                "worker": worker.index,
                "job": job.job_id if job else None})
            if self.flight is not None:
                self.flight.dump(
                    self._flight_dir, "worker.died",
                    detail=f"worker {worker.index} died"
                           + (f" running {job.job_id}" if job else ""),
                    extra={"worker": worker.index,
                           "job": job.job_id if job else None,
                           "trace": job.trace_id if job else ""})
            if worker.respawn is not None:
                worker.restart()
                self._emit("worker.spawned", {
                    "worker": worker.index,
                    "pid": worker.channel.proc.pid})
            else:
                # A remote host cannot be respawned from here: the
                # slot leaves the fleet, its job does not.
                removed.append(worker)
                self._emit("worker.left", {"worker": worker.index})
            if job is None:
                continue
            job.deaths += 1
            self._trace_end(job, "run", outcome="died",
                            worker=worker.index)
            self._trace_note(job, "worker.died", worker=worker.index)
            if job.cancel_requested:
                job.state = FAILED
                job.error = "cancelled by client"
                self._emit_job("job.failed", job, {"cancelled": True})
                self._trace_close(job, "cancelled")
            elif job.deaths >= job.max_attempts:
                job.state = FAILED
                job.error = (f"worker died {job.deaths} time(s); "
                             f"retry budget ({job.max_attempts}) "
                             f"exhausted")
                self._emit_job("job.failed", job)
                self._trace_close(job, "failed")
            else:
                # The pool's requeue-on-dead-child rule, per job: the
                # job resumes from its last checkpoint if it has one,
                # from scratch otherwise.
                job.state = QUEUED
                self.queue.requeue(job)
                self._enqueued_at[job.job_id] = time.monotonic()
                self._emit_job("job.requeued", job,
                               {"deaths": job.deaths})
                self._trace_begin(job, "queue", requeued=True)
        for worker in removed:
            self.workers.remove(worker)
            worker.shutdown()

    def _assign_idle_workers(self) -> None:
        for worker in self.workers:
            if worker.job is not None or not worker.alive():
                continue
            job = self.queue.pop()
            if job is None:
                return
            job.state = RUNNING
            job.attempts += 1
            now = time.monotonic()
            queued_at = self._enqueued_at.pop(job.job_id, None)
            wait = now - queued_at if queued_at is not None else 0.0
            bucket = self._wait_totals.setdefault(
                job.priority, {"total": 0.0, "count": 0})
            bucket["total"] += wait
            bucket["count"] += 1
            self._assigned_at[worker.index] = now
            self._trace_end(job, "queue", wait_seconds=round(wait, 6))
            run_span = self._trace_begin(
                job, "run", worker=worker.index,
                resumed=job.resume_dir is not None)
            # Span context travels inside the job's config: the worker
            # (forked or TCP-remote) sees the same trace id, and any
            # simulator it builds parents its run span under ours.
            job.config.telemetry.trace_id = job.trace_id
            job.config.telemetry.span_parent = run_span
            # A worker that died between the alive() check and this
            # send is reaped, and the job requeued, on the next pass.
            worker.assign(job, (job.job_id, job.config, job.program,
                                job.args, job.resume_dir))
            self._emit_job("job.started", job,
                           {"worker": worker.index,
                            "resumed": job.resume_dir is not None})

    def _consider_preemption(self) -> None:
        top = self.queue.peek()
        if top is None:
            return
        victims = [
            worker for worker in self.workers
            if worker.job is not None and not worker.preempt_pending
            and worker.job.priority < top.priority]
        if not victims:
            return
        victim = min(victims,
                     key=lambda w: (w.job.priority, -w.job.seqno))
        victim.preempt()
        self._emit_job("job.preempt", victim.job,
                       {"for": top.job_id, "worker": victim.index})
        self._trace_note(victim.job, "preempt.request",
                         preempted_for=top.job_id,
                         worker=victim.index)

    def _sample_metrics(self) -> None:
        """Cadenced METRICS snapshot of the fleet (``fleet.sample``)."""
        if self._metrics_channel is None:
            return
        now = time.monotonic()
        if now - self._last_sample < self._metrics_every:
            return
        self._last_sample = now
        busy = sum(1 for worker in self.workers
                   if worker.job is not None)
        self._metrics_channel.emit("fleet.sample", None, 0, {
            "queue_depth": len(self.queue),
            "busy": busy,
            "idle": len(self.workers) - busy,
            "submitted": self.submitted,
            "cache_hits": self.cache_hits,
            "preemptions": self.preemptions,
            "worker_deaths": self.worker_deaths})

    def metrics_fields(self) -> Dict[str, Any]:
        """The live fleet-metrics snapshot (the ``metrics`` verb).

        The same structured fields back the Prometheus text rendering
        (:func:`repro.obs.prom.render_fleet_metrics`) and the ``repro
        top`` dashboard.
        """
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        busy = sum(1 for worker in self.workers
                   if worker.job is not None)
        now = time.monotonic()
        worker_busy = dict(self._worker_busy)
        for worker in self.workers:
            started = self._assigned_at.get(worker.index)
            if started is not None:
                worker_busy[worker.index] = (
                    worker_busy.get(worker.index, 0.0)
                    + now - started)
        return {
            "uptime_seconds": now - self._started_at,
            "queue_depth": len(self.queue),
            "jobs": states,
            "submitted": self.submitted,
            "cache_hits": self.cache_hits,
            "preemptions": self.preemptions,
            "worker_deaths": self.worker_deaths,
            "workers": {"busy": busy,
                        "idle": len(self.workers) - busy},
            "wait_seconds": {priority: dict(bucket)
                             for priority, bucket
                             in self._wait_totals.items()},
            "worker_busy_seconds": worker_busy,
            "worker_jobs": dict(self._worker_jobs),
        }

    # -- client verbs -------------------------------------------------------

    def _serve_clients(self) -> None:
        """Admit clients knocking on the Unix door; answer one request
        from each client that sent one."""
        for channel, _hello in self._listener.pending(
                lambda exc: self._emit("client.rejected",
                                       {"error": str(exc)})):
            channel.sock.settimeout(_CLIENT_STALL)
            self._clients.append(channel)
        for channel in list(self._clients):
            if channel.poll() and not self._answer(channel):
                self._clients.remove(channel)
                channel.close()

    def _answer(self, channel: Channel) -> bool:
        """Answer one request; ``False`` drops the client (it hung up,
        stalled past :data:`_CLIENT_STALL`, or broke the framing)."""
        try:
            kind, payload = decode_frame(channel.recv_bytes())
        except (TransportError, WireFormatError) as exc:
            # A last word (lost on a peer that hung up), then the
            # channel closes: the stream may no longer be framed.
            self._reply(channel, ("error", {"error": str(exc)}))
            return False
        try:
            if not isinstance(payload, dict):
                raise ServeError(f"malformed {kind!r} request: the "
                                 f"payload is not a dict")
            reply = self.handle_request(kind, payload)
        except ServeError as exc:
            return self._reply(channel, ("error", {"error": str(exc)}))
        except Exception:  # a daemon bug: on stderr; the pump serves on
            traceback.print_exc()
            return False
        return self._reply(channel, ("ok", reply))

    @staticmethod
    def _reply(channel: Channel, frame: tuple) -> bool:
        """Send one ``(kind, payload)`` reply; ``False`` if the client
        is gone."""
        try:
            channel.send_bytes(encode_frame(*frame))
        except (TransportError, WireFormatError):
            return False
        return True

    def handle_request(self, kind: str,
                       payload: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one client verb; returns the ``ok`` payload."""
        if kind == "ping":
            return {"protocol": WIRE_VERSION, "fleet": self.fleet_size}
        if kind == "submit":
            return self._handle_submit(payload)
        if kind == "status":
            return {"job": view_payload(self._job(payload).view())}
        if kind == "fetch":
            return self._handle_fetch(payload)
        if kind == "cancel":
            return self._handle_cancel(payload)
        if kind == "list":
            return {"jobs": [view_payload(job.view())
                             for job in self.jobs.values()]}
        if kind == "stats":
            return {"stats": view_payload(self._stats())}
        if kind == "metrics":
            from repro.obs.prom import render_fleet_metrics
            fields = self.metrics_fields()
            return {"fields": fields,
                    "text": render_fleet_metrics(fields)}
        if kind == "shutdown":
            self.request_stop()
            return {"stopping": True}
        raise ServeError(f"unknown serve request kind {kind!r}")

    def _job(self, payload: Dict[str, Any]) -> ServeJob:
        job_id = payload.get("job_id")
        job = self.jobs.get(job_id)
        if job is None:
            raise ServeError(f"unknown job {job_id!r}")
        return job

    def _handle_submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        try:
            spec = SubmitSpec(**payload)
        except TypeError as exc:
            raise ServeError(f"malformed submit payload: {exc}") from exc
        from repro.common.errors import ConfigError
        try:
            config = SimulationConfig.from_dict(spec.config)
        except (ConfigError, TypeError, ValueError) as exc:
            raise ServeError(f"bad job config: {exc}") from exc
        program = self._resolve_program(spec, config)
        job = self.submit(config, program, tuple(spec.args),
                          priority=spec.priority)
        return {"job": view_payload(job.view())}

    def _resolve_program(self, spec: SubmitSpec,
                         config: SimulationConfig) -> Any:
        from repro.distrib.wire import WorkloadRef
        if (spec.workload is None) == (spec.program is None):
            raise ServeError("submit needs exactly one of workload or "
                             "program")
        if spec.workload is not None:
            from repro.workloads.base import workload_names
            if spec.workload not in workload_names():
                raise ServeError(
                    f"unknown workload {spec.workload!r}")
            nthreads = spec.nthreads or config.num_tiles
            return WorkloadRef(spec.workload, nthreads, spec.scale,
                               dict(spec.params))
        if not hasattr(spec.program, "resolve"):
            raise ServeError(
                "program must be a program reference (WorkloadRef or "
                "PickledProgram)")
        return spec.program

    def _handle_fetch(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        job = self._job(payload)
        if job.state not in (DONE, CACHED):
            raise ServeError(
                f"job {job.job_id} is {job.state}, not fetchable"
                + (f": {job.error}" if job.error else ""))
        envelope = self.store.get(job.key)
        if envelope is None:  # pragma: no cover - store vanished
            raise ServeError(f"result for {job.job_id} missing from "
                             f"the store")
        return {"job": view_payload(job.view()),
                "result": envelope["result"]}

    def _handle_cancel(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        job = self._job(payload)
        if job.finished:
            raise ServeError(
                f"job {job.job_id} already {job.state}")
        if job.state in (QUEUED, PREEMPTED):
            self.queue.remove(job.job_id)
            job.state = FAILED
            job.error = "cancelled by client"
            self._emit_job("job.failed", job, {"cancelled": True})
            self._trace_close(job, "cancelled")
        else:  # running: cancellation rides the preemption path
            job.cancel_requested = True
            for worker in self.workers:
                if worker.job is job and not worker.preempt_pending:
                    worker.preempt()
        return {"job": view_payload(job.view())}

    def _stats(self) -> ServerInfo:
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return ServerInfo(
            protocol=WIRE_VERSION, fleet=self.fleet_size,
            states=states, submitted=self.submitted,
            cache_hits=self.cache_hits,
            preemptions=self.preemptions,
            worker_deaths=self.worker_deaths)

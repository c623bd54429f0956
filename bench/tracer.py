"""Span recorder and the patch table that puts it around each layer.

The benchmark measures per-layer host time *from outside*: nothing
under ``src/`` knows it is being traced.  :func:`install` rebinds the
public entry points of every layer (class attributes and a few module
globals) to timed wrappers and :func:`uninstall` puts the originals
back, so a traced op and the next untraced op run in the same process
with the same classes.  Classes rather than instances are patched
because two workloads need it: a simulator that writes checkpoints is
pickled whole (a closure in an instance ``__dict__`` would not
survive), and the snapshot library builds its simulators by
unpickling, where no construction hook exists.

Accounting is the stack discipline of ``repro.profile.timers`` — a
span's *self* time is its duration minus the part its child spans
cover, so self times partition the root span — but owned here, so a
rewrite of ``repro.profile`` cannot move the benchmark's spans.  Every
span is folded into per-name ``[calls, self_ns, cum_ns]``; *coarse*
spans (a whole op, one scheduler run, one checkpoint, one serve
request) are also kept individually with their parent and the id of
the operation they belong to.

Forked children (mp workers, pool children, the serve fleet) start
unpatched: a fork hook removes the wrappers in the child, so what the
parent waits for is the program's own speed, not the tracer's.  The
recorder is single-threaded; nothing it wraps may be called from a
second thread of the traced process (the serve daemon's threads call
none of the patched names).
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Folded row layout.
CALLS, SELF_NS, CUM_NS = 0, 1, 2


class Recorder:
    """Stack-based span recorder for one thread of one process."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns) -> None:
        self.clock = clock
        #: Open frames, innermost last: ``[start_ns, child_ns]``.
        self.stack: List[List[int]] = []
        #: name -> ``[calls, self_ns, cum_ns]``, cumulative since creation.
        self.totals: Dict[str, List[int]] = {}
        #: Coarse spans: ``[name, start_ns, end_ns, parent, op_id]`` with
        #: ``parent`` an index into this list (-1 for a root).
        self.spans: List[list] = []
        #: Counts the wrappers themselves make (bytes, scheduler turns).
        self.counts: Dict[str, int] = {}
        #: Id stamped on coarse spans; the workload sets it per operation.
        self.op_id = ""
        self._open_coarse: List[int] = []

    def row(self, name: str) -> List[int]:
        row = self.totals.get(name)
        if row is None:
            row = self.totals[name] = [0, 0, 0]
        return row

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- recording -------------------------------------------------------------

    def begin(self, name: str) -> Tuple[str, List[int], list]:
        """Open a coarse span; pair with :meth:`end`."""
        parent = self._open_coarse[-1] if self._open_coarse else -1
        self._open_coarse.append(len(self.spans))
        span = [name, 0, 0, parent, self.op_id]
        self.spans.append(span)
        frame = [self.clock(), 0]
        self.stack.append(frame)
        return name, frame, span

    def end(self, token: Tuple[str, List[int], list]) -> None:
        name, frame, span = token
        end = self.clock()
        self.stack.pop()
        self._open_coarse.pop()
        self._fold(self.row(name), frame, end)
        span[1], span[2] = frame[0], end

    def _fold(self, row: List[int], frame: List[int], end: int) -> None:
        elapsed = end - frame[0]
        row[CALLS] += 1
        row[SELF_NS] += elapsed - frame[1]
        row[CUM_NS] += elapsed
        if self.stack:
            self.stack[-1][1] += elapsed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A coarse span around a block of the benchmark's own code."""
        token = self.begin(name)
        try:
            yield
        finally:
            self.end(token)

    def wrap(self, name: str, fn: Callable,
             coarse: bool = False) -> Callable:
        """A callable that records every call of ``fn`` under ``name``.

        The hot (not coarse) wrapper repeats :meth:`_fold` inline: it
        runs hundreds of thousands of times per op and a method call
        would double its cost.
        """
        if coarse:
            def traced(*args, **kwargs):
                token = self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(token)
        else:
            row, stack, clock = self.row(name), self.stack, self.clock

            def traced(*args, **kwargs):
                frame = [clock(), 0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    elapsed = end - frame[0]
                    row[CALLS] += 1
                    row[SELF_NS] += elapsed - frame[1]
                    row[CUM_NS] += elapsed
                    if stack:
                        stack[-1][1] += elapsed

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- reading ---------------------------------------------------------------

    def mark(self) -> Dict[str, List[int]]:
        """A copy of the folded totals, for :meth:`since`."""
        return {name: list(row) for name, row in self.totals.items()}

    def since(self, mark: Dict[str, List[int]]) -> Dict[str, List[int]]:
        """Folded totals accumulated after ``mark`` was taken."""
        zero = [0, 0, 0]
        out = {}
        for name, row in self.totals.items():
            base = mark.get(name, zero)
            delta = [row[i] - base[i] for i in range(3)]
            if any(delta):
                out[name] = delta
        return out


# -- the patch table -----------------------------------------------------------


def _count_turns(recorder: Recorder, run: Callable) -> Callable:
    def counted(scheduler, *args, **kwargs):
        before = scheduler.turns
        try:
            return run(scheduler, *args, **kwargs)
        finally:
            recorder.count("host.turns", scheduler.turns - before)
    return counted


def _count_sent(recorder: Recorder, send_bytes: Callable) -> Callable:
    def counted(channel, blob):
        recorder.count("distrib.bytes_sent", len(blob))
        return send_bytes(channel, blob)
    return counted


def _count_received(recorder: Recorder, recv_bytes: Callable) -> Callable:
    def counted(channel):
        blob = recv_bytes(channel)
        recorder.count("distrib.bytes_recv", len(blob))
        return blob
    return counted


_CORE = ("execute", "execute_branch", "execute_memory", "execute_pseudo",
         "drain")
_SYNC = ("on_thread_added", "on_thread_done", "on_thread_blocked",
         "on_thread_woken", "on_quantum_end", "cycle_limit",
         "release_if_stalled")

#: ``(span name, module, class or None, attributes, coarse, shim)``.
#: A ``None`` class patches module globals — the name *as bound in that
#: module*, which is what its callers resolve.  Sync models override
#: the callbacks per subclass, so each class that defines one is listed.
PATCH_TABLE: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...], bool,
                         Optional[Callable]], ...] = (
    ("frontend.interpret", "repro.frontend.interpreter",
     "ThreadInterpreter", ("run",), False, None),
    ("core.model", "repro.core.perf_model", "CorePerfModel", _CORE,
     False, None),
    ("core.model", "repro.core.ooo_model", "OutOfOrderCoreModel", _CORE,
     False, None),
    ("memory.controller", "repro.memory.controller", "MemoryController",
     ("load", "store", "fetch"), False, None),
    ("memory.coherence", "repro.memory.coherence", "CoherenceEngine",
     ("read_access", "write_access"), False, None),
    ("memory.dram", "repro.memory.dram", "DramController",
     ("read", "post_write"), False, None),
    ("network.fabric", "repro.network.interface", "NetworkFabric",
     ("send", "transfer"), False, None),
    ("sync.model", "repro.sync.model", "SynchronizationModel", _SYNC,
     False, None),
    ("sync.model", "repro.sync.lax", "LaxModel", _SYNC, False, None),
    ("sync.model", "repro.sync.barrier", "LaxBarrierModel", _SYNC,
     False, None),
    ("sync.model", "repro.sync.p2p", "LaxP2PModel", _SYNC, False, None),
    ("host.scheduler", "repro.host.scheduler", "Scheduler", ("run",),
     True, _count_turns),
    ("sim.build", "repro.sim.runner", None, ("create_simulator",),
     True, None),
    ("sim.build", "repro.sim.experiment", None, ("create_simulator",),
     True, None),
    ("distrib.launch", "repro.distrib.coordinator", "WorkerCluster",
     ("__init__",), True, None),
    ("distrib.shutdown", "repro.distrib.coordinator", "WorkerCluster",
     ("shutdown",), True, None),
    ("distrib.send", "repro.distrib.coordinator", "WorkerCluster",
     ("send",), False, None),
    ("distrib.recv", "repro.distrib.coordinator", "WorkerCluster",
     ("recv",), False, None),
    ("distrib.encode", "repro.distrib.coordinator", None,
     ("encode_frame",), False, None),
    ("distrib.decode", "repro.distrib.coordinator", None,
     ("decode_frame",), False, None),
    ("distrib.service", "repro.distrib.coordinator", "RemoteTask",
     ("run",), False, None),
    ("distrib.pool", "repro.distrib.pool", None, ("run_jobs",), True,
     None),
    ("distrib.channel_send", "repro.net.channel", "PipeChannel",
     ("send_bytes",), False, _count_sent),
    ("distrib.channel_send", "repro.net.channel", "TcpChannel",
     ("send_bytes",), False, _count_sent),
    ("distrib.channel_recv", "repro.net.channel", "PipeChannel",
     ("recv_bytes",), False, _count_received),
    ("distrib.channel_recv", "repro.net.channel", "TcpChannel",
     ("recv_bytes",), False, _count_received),
    ("net.accept", "repro.net.listener", "NetListener", ("accept",),
     True, None),
    ("serve.daemon_start", "repro.serve.daemon", "SimServer", ("start",),
     True, None),
    ("serve.submit", "repro.serve.client", "ServeClient", ("submit",),
     True, None),
    ("serve.wait", "repro.serve.client", "ServeClient", ("wait",),
     True, None),
    ("serve.status", "repro.serve.client", "ServeClient", ("status",),
     True, None),
    ("serve.fetch", "repro.serve.client", "ServeClient", ("fetch",),
     True, None),
    ("ckpt.save", "repro.sim.simulator", "Simulator",
     ("save_checkpoint",), True, None),
    ("ckpt.store_write", "repro.ckpt.store", "CheckpointStore",
     ("write",), True, None),
    ("ckpt.load", "repro.ckpt.recovery", None, ("load_checkpoint",),
     True, None),
    ("sample.prime", "repro.sample.library", "SnapshotLibrary",
     ("prime",), True, None),
    ("sample.fork", "repro.sample.library", "SnapshotLibrary", ("fork",),
     True, None),
)

Patch = Tuple[Any, str, Any]

#: Patches live in this process, for the fork hook: a process-wide
#: hook cannot be handed the list any other way.
_live: List[Patch] = []
_fork_hook_registered = False


def install(recorder: Recorder) -> List[Patch]:
    """Rebind every entry of :data:`PATCH_TABLE`; returns the undo list."""
    global _fork_hook_registered
    if _live:
        raise RuntimeError("tracer already installed in this process")
    patches: List[Patch] = []
    for span, module_name, cls_name, attrs, coarse, shim in PATCH_TABLE:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        for attr in attrs:
            # vars(): only what this class itself defines, so a
            # subclass does not get a second wrapper around a method
            # it inherits already wrapped.
            original = vars(owner).get(attr)
            if original is None:
                continue
            target = shim(recorder, original) if shim else original
            setattr(owner, attr, recorder.wrap(span, target, coarse))
            patches.append((owner, attr, original))
    _live.extend(patches)
    if not _fork_hook_registered:
        os.register_at_fork(after_in_child=lambda: uninstall(list(_live)))
        _fork_hook_registered = True
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Put back every original :func:`install` replaced."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    del _live[:]

"""The table that puts the host profiler's timers around each layer.

:func:`installed` rebinds *class* attributes (and the wire codec's
module globals) to timed wrappers for the length of one run and puts
the originals back after — no model module is edited, no instance
carries anything, and with profiling off nothing here runs at all.
Classes, not instances: a simulator that checkpoints is pickled whole
and one that resumes or forks from a library is built by unpickling,
and a class attribute is there for all of them and in none of their
snapshots.  Hence two profiled simulators may exist at once but only
one may *run* at a time in a process; a second :func:`installed` raises.

Scope names form the per-subsystem attribution the reports aggregate:

======================  ====================================================
``scheduler.quantum``   one scheduler turn (dispatch + the quantum body)
``frontend.interpret``  op-stream interpretation (inproc tile threads)
``core.model``          the core performance model (timing of instructions)
``memory.controller``   per-tile memory controller (inproc tile threads)
``memory.coherence``    the directory coherence engine
``memory.dram``         DRAM controller queue/service models
``network.fabric``      network model send/transfer
``sync.model``          synchronization-model callbacks
``mp.quantum_service``  coordinator servicing one remote quantum
``mp.wire.*``           wire encode/decode/send on the coordinator side
``mp.idle.wait``        coordinator blocked on a worker channel
======================  ====================================================

and, in an mp worker (shipped in ``HOST_STATS``): ``quantum.run``
(interpreting the op stream; RPC waits nest inside and subtract out),
``idle.wait`` (blocked on the control channel) and ``wire.encode`` /
``wire.decode`` / ``wire.send``.

Nested scopes subtract correctly: ``memory.controller`` calls into
``memory.coherence`` which calls ``memory.dram`` and ``network.fabric``,
and each layer's *self* time excludes its callees.
"""

from __future__ import annotations

import contextlib
import importlib
import os
from typing import Any, Iterator, List, Optional, Tuple

from repro.profile.timers import HostProfiler

#: What the two timed core models consume.  The unit-cost model that
#: stands in under fast-forward (``UnitCostCoreModel``) answers to the
#: same names and has no ``core.model`` row on purpose: it models no
#: timing, so its two additions count as interpretation, and
#: ``bench/tracer.py``'s rows — which these seven are held equal to —
#: do not name it.
_CORE = ("execute", "execute_branch", "execute_memory", "execute_pseudo",
         "drain")
_SYNC = ("on_thread_added", "on_thread_done", "on_thread_blocked",
         "on_thread_woken", "on_quantum_end", "cycle_limit",
         "release_if_stalled")

#: ``(scope, module, class or None, attributes)``.  A ``None`` class
#: patches module globals — the name *as bound in that module*, which is
#: what its callers resolve.  Sync models override the callbacks per
#: subclass, so each class that defines one is listed.
Row = Tuple[str, str, Optional[str], Tuple[str, ...]]

_MODELS: Tuple[Row, ...] = (
    ("scheduler.quantum", "repro.host.scheduler", "Scheduler",
     ("_run_quantum",)),
    ("frontend.interpret", "repro.frontend.interpreter",
     "ThreadInterpreter", ("run",)),
    ("core.model", "repro.core.perf_model", "CorePerfModel", _CORE),
    ("core.model", "repro.core.ooo_model", "OutOfOrderCoreModel", _CORE),
    ("memory.controller", "repro.memory.controller", "MemoryController",
     ("load", "store", "fetch")),
    ("memory.coherence", "repro.memory.coherence", "CoherenceEngine",
     ("read_access", "write_access")),
    ("memory.dram", "repro.memory.dram", "DramController",
     ("read", "post_write")),
    ("network.fabric", "repro.network.interface", "NetworkFabric",
     ("send", "transfer")),
    ("sync.model", "repro.sync.model", "SynchronizationModel", _SYNC),
    ("sync.model", "repro.sync.lax", "LaxModel", _SYNC),
    ("sync.model", "repro.sync.barrier", "LaxBarrierModel", _SYNC),
    ("sync.model", "repro.sync.p2p", "LaxP2PModel", _SYNC),
)

_COORDINATOR: Tuple[Row, ...] = (
    ("mp.quantum_service", "repro.distrib.coordinator", "RemoteTask",
     ("run",)),
    ("mp.idle.wait", "repro.distrib.coordinator", "WorkerCluster",
     ("recv",)),
    ("mp.wire.decode", "repro.distrib.coordinator", None,
     ("decode_frame",)),
    ("mp.wire.encode", "repro.distrib.coordinator", None,
     ("encode_frame",)),
    ("mp.wire.send", "repro.net.channel", "PipeChannel", ("send_bytes",)),
    ("mp.wire.send", "repro.net.channel", "TcpChannel", ("send_bytes",)),
)

_WORKER: Tuple[Row, ...] = (
    ("quantum.run", "repro.frontend.interpreter", "ThreadInterpreter",
     ("run",)),
    ("idle.wait", "repro.net.channel", "PipeChannel", ("recv_bytes",)),
    ("idle.wait", "repro.net.channel", "TcpChannel", ("recv_bytes",)),
    ("wire.decode", "repro.distrib.worker", None, ("decode_frame",)),
    ("wire.encode", "repro.distrib.worker", None, ("encode_frame",)),
    ("wire.send", "repro.net.channel", "PipeChannel", ("send_bytes",)),
    ("wire.send", "repro.net.channel", "TcpChannel", ("send_bytes",)),
)

#: What each kind of process times.  ``inproc`` and ``mp`` are the
#: ``distrib.backend`` of the simulator that runs; ``worker.busy`` —
#: ``quantum.run`` alone — is the mp worker of an unprofiled run that
#: still owes the rebalance policy or the watchdog its busy signal.
TABLES = {"inproc": _MODELS, "mp": _MODELS + _COORDINATOR,
          "worker": _WORKER, "worker.busy": _WORKER[:1]}

#: ``(owner, attribute, original)`` of every patch live in this
#: process: a process-wide fork hook cannot be handed them any other way.
_live: List[Tuple[Any, str, Any]] = []
_fork_hook_registered = False


def uninstall() -> None:
    """Put back every original :func:`installed` replaced."""
    while _live:
        owner, attr, original = _live.pop()
        setattr(owner, attr, original)


@contextlib.contextmanager
def installed(profiler: Optional[HostProfiler], role: str) -> Iterator[None]:
    """Time every entry point of ``TABLES[role]`` with ``profiler`` for
    the enclosed run; nothing at all when ``profiler`` is ``None``."""
    global _fork_hook_registered
    if profiler is None:
        yield
        return
    if _live:
        raise RuntimeError(
            "a profiled run is already under way in this process")
    if not _fork_hook_registered:
        # A forked child (mp worker, fleet child) starts unpatched:
        # the parent's profiler is not the child's to write to.
        os.register_at_fork(after_in_child=uninstall)
        _fork_hook_registered = True
    profiler.start_run()
    try:
        for scope, module_name, cls_name, attrs in TABLES[role]:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            for attr in attrs:
                # vars(): only what this class itself defines, so a
                # subclass does not get a second wrapper around a
                # method it inherits already wrapped.
                original = vars(owner).get(attr)
                if original is None:
                    getattr(owner, attr)  # inherited; a renamed one raises
                    continue
                setattr(owner, attr, profiler.wrap(scope, original))
                _live.append((owner, attr, original))
        yield
    finally:
        uninstall()

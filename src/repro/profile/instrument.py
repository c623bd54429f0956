"""Attach the host profiler to a built simulator.

Instrumentation works by rebinding *instance* attributes to timed
wrappers after the simulator is fully wired — no model module is
edited, no subclass exists, and with profiling off nothing here runs,
so the disabled path costs literally zero (the classes keep their
original, unwrapped methods).

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
``mp.idle.wait``        coordinator blocked on a worker pipe
======================  ====================================================

Nested scopes subtract correctly: ``memory.controller`` calls into
``memory.coherence`` which calls ``memory.dram`` and ``network.fabric``,
and each layer's *self* time excludes its callees.
"""

from __future__ import annotations

from typing import Any

from repro.frontend.interpreter import ThreadInterpreter

#: Core-model methods timed under ``core.model``.
_CORE_METHODS = ("execute", "execute_branch", "execute_memory",
                 "execute_pseudo", "drain")

#: Sync-model callbacks timed under ``sync.model``.
_SYNC_METHODS = ("on_thread_added", "on_thread_done", "on_thread_blocked",
                 "on_thread_woken", "on_quantum_end", "cycle_limit",
                 "release_if_stalled")


def instrument_simulator(sim: Any) -> None:
    """Wrap the hot subsystem entry points of ``sim`` with timed scopes.

    Requires ``sim.profiler`` to be a live
    :class:`~repro.profile.timers.HostProfiler`.  Works for both the
    in-process simulator and the mp coordinator (whose tile tasks are
    RemoteTask stubs — their ``run`` is the quantum service loop).
    """
    profiler = sim.profiler
    wrap = profiler.wrap

    for controller in sim.controllers:
        controller.load = wrap("memory.controller", controller.load)
        controller.store = wrap("memory.controller", controller.store)
        controller.fetch = wrap("memory.controller", controller.fetch)

    engine = sim.engine
    engine.read_access = wrap("memory.coherence", engine.read_access)
    engine.write_access = wrap("memory.coherence", engine.write_access)
    for dram in engine.drams:
        dram.read = wrap("memory.dram", dram.read)
        dram.post_write = wrap("memory.dram", dram.post_write)

    fabric = sim.fabric
    fabric.send = wrap("network.fabric", fabric.send)
    fabric.transfer = wrap("network.fabric", fabric.transfer)

    sync_model = sim.sync_model
    for name in _SYNC_METHODS:
        setattr(sync_model, name, wrap("sync.model",
                                       getattr(sync_model, name)))

    scheduler = sim.scheduler
    scheduler._run_quantum = wrap("scheduler.quantum",
                                  scheduler._run_quantum)

    # Interpreters appear as threads spawn; hook the spawn path so each
    # new task's quantum body (and, inproc, its core model) is timed.
    original_spawn = sim.spawn_thread

    def profiled_spawn(program, args, parent_tile, parent_clock):
        thread_id = original_spawn(program, args, parent_tile,
                                   parent_clock)
        # interpreters is keyed by TileId; the returned ThreadId shares
        # its integer value (TileId subclasses int, so lookup matches).
        task = sim.interpreters.get(thread_id)
        if task is not None and not getattr(task, "_profiled", False):
            _instrument_task(profiler, task)
        return thread_id

    sim.spawn_thread = profiled_spawn


def _instrument_task(profiler: Any, task: Any) -> None:
    """Time one tile task: the interpreter body and its core model."""
    task._profiled = True
    if isinstance(task, ThreadInterpreter):
        task.run = profiler.wrap("frontend.interpret", task.run)
        core = task.core
        for name in _CORE_METHODS:
            if hasattr(core, name):
                setattr(core, name,
                        profiler.wrap("core.model", getattr(core, name)))
    else:
        # A RemoteTask stub: its run() is the coordinator's quantum
        # service loop (wire + RPC dispatch for one remote quantum).
        task.run = profiler.wrap("mp.quantum_service", task.run)

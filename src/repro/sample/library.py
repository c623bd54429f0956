"""The snapshot library: one fast-forward shared across a config sweep.

A configuration sweep (core-model studies, network studies) typically
varies only sections that functional fast-forward ignores — the timing
models.  Every variant therefore computes *exactly the same*
architectural state while fast-forwarding to the region of interest,
and the work can be done once: the library fast-forwards a *primer*
run to ``sample.ff_until``, checkpoints at the switch point (the same
consistency boundary :mod:`repro.ckpt` always snapshots at) and files
the checkpoint under a key derived from

* the workload's structural descriptor (which workload, how many
  threads, its scale and parameters),
* the configuration's *prefix hash*
  (:meth:`~repro.common.config.SimulationConfig.prefix_hash` — the
  semantic sections minus the timing-only ones), and
* the fast-forward target itself.

Each sweep variant then *forks* from the stored snapshot: the restored
simulator is re-dressed with the variant's timing models (core and
network — precisely the sections the prefix hash dropped) and resumed
in detailed mode.  Because the fast-forward path never touches the
timing models, a forked run is byte-identical to an unshared run of
the same variant; :func:`SnapshotLibrary.verify` checks exactly that,
loudly, and :class:`~repro.common.errors.SampleError` means the
prefix-irrelevance contract was broken.

An entry *is* the switch-point checkpoint, a :mod:`repro.ckpt.store`
entry ``<library root>/<key>/``: ``coordinator.pkl`` (plus shards on
mp) and a manifest that also carries the ``library`` format, the
descriptor, prefix hash, target and primer telemetry.  A primer
checkpoints into a stage of its own and publishes it with one
``os.replace``, so racing primers of one prefix never see a half entry
or each other's stage; the loser's work is discarded.  An entry of
another layout sits under a key this build never computes, and
``repro sample gc`` drops it.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, Dict, List, Tuple

from repro.ckpt.store import (CheckpointStore, amend_manifest, make_stage,
                              manifest_path, program_descriptor, publish,
                              read_entry, read_manifest)
from repro.common.config import SampleConfig, SimulationConfig, content_key
from repro.common.errors import CheckpointError, SampleError
from repro.sample.controller import FastForwardDone

#: On-disk entry format version, the ``library`` field of its manifest.
LIBRARY_FORMAT = "repro.sample/5"


def roi_metrics(result: Any) -> Dict[str, Any]:
    """The result fields the determinism check compares byte-for-byte.

    Everything semantic: cycles, per-thread clocks and instruction
    counts, the full counter tree, and the sampling summary minus its
    ``library`` annotation (which legitimately differs between a forked
    and an unshared run).  Host wall-clock estimates are modelled — and
    identical too — but float formatting is not what the check is
    about, so they are left out.
    """
    sample = {k: v for k, v in result.sample.items() if k != "library"}
    return {
        "simulated_cycles": result.simulated_cycles,
        "parallel_cycles": result.parallel_cycles,
        "thread_cycles": dict(result.thread_cycles),
        "thread_instructions": dict(result.thread_instructions),
        "thread_start_cycles": dict(result.thread_start_cycles),
        "total_instructions": result.total_instructions,
        "counters": dict(result.counters),
        "sample": sample,
    }


class SnapshotLibrary:
    """Keyed store of fast-forward switch-point checkpoints."""

    def __init__(self, root: str) -> None:
        self.root = root
        #: Sweep-level accounting: how many variants primed a new entry
        #: versus forked an existing one.  ``primes`` counts actual
        #: fast-forwards performed — a shared-prefix sweep asserts it
        #: stays at 1.
        self.stats = {"primes": 0, "hits": 0}

    # -- keying ---------------------------------------------------------------

    def key(self, config: SimulationConfig, program: Any,
            args: tuple = ()) -> str:
        """The library key of ``config``'s functional prefix.

        The content key of the program descriptor, its arguments, the
        config's prefix hash and the fast-forward target — no repr of
        live objects, no addresses, so the key is stable across
        processes and ``PYTHONHASHSEED`` values.
        """
        try:
            return content_key({"descriptor": program_descriptor(program),
                                "args": list(args),
                                "prefix": config.prefix_hash(),
                                "ff_until": config.sample.ff_until})
        except (TypeError, ValueError) as exc:
            raise SampleError(
                f"program arguments are not JSON-encodable: {exc}") from exc

    def entry_dir(self, key: str) -> str:
        return os.path.join(self.root, key)

    def has(self, key: str) -> bool:
        """Whether a complete entry exists; a complete entry of
        another format version is an error, never a silent miss."""
        return (os.path.isfile(manifest_path(self.entry_dir(key)))
                and bool(self.meta(key)))

    def meta(self, key: str) -> Dict[str, Any]:
        """The entry's manifest; SampleError unless it is this format's."""
        meta = self._manifest(key)
        if meta.get("library") != LIBRARY_FORMAT:
            raise SampleError(
                f"library entry {key!r} in {self.root} has format "
                f"{meta.get('library')!r}, this build reads "
                f"{LIBRARY_FORMAT!r}; `repro sample gc --library "
                f"{self.root}` drops it")
        return meta

    def keys(self) -> List[str]:
        """Every key a library wrote, sorted, whatever its layout: its
        manifest names a ``library`` format, or it holds
        ``LIBRARY.json`` (``/4`` and older).  ``sample gc`` drops
        nothing else, whatever else the root holds."""
        names = os.listdir(self.root) if os.path.isdir(self.root) else []
        return sorted(key for key in names
                      if not key.startswith(".") and self._owns(key))

    def _manifest(self, key: str) -> Dict[str, Any]:
        """``key``'s manifest; an old entry (``LIBRARY.json`` beside a
        nested checkpoint root) reads as its layout alone."""
        entry = self.entry_dir(key)
        if os.path.isfile(os.path.join(entry, "LIBRARY.json")):
            return {"library": "repro.sample/4 or older"}
        return read_manifest(entry, SampleError)

    def _owns(self, key: str) -> bool:
        try:
            return "library" in self._manifest(key)
        except SampleError:
            return False

    def entries(self) -> List[Tuple[str, Dict[str, Any]]]:
        """Every complete entry as ``(key, manifest)``, key-sorted."""
        return [(key, self.meta(key)) for key in self.keys()]

    def drop(self, key: str) -> bool:
        """Delete one entry; whether it existed."""
        entry = self.entry_dir(key)
        if not os.path.isdir(entry):
            return False
        shutil.rmtree(entry)
        return True

    # -- priming --------------------------------------------------------------

    def prime(self, config: SimulationConfig, program: Any,
              args: tuple = ()) -> str:
        """Fast-forward once and file the switch-point checkpoint.

        Runs a primer simulation — the variant's config, checkpointing
        into a stage of this call's own — on the config's own backend,
        with ``stop_after_ff`` set so the run checkpoints at the switch
        and unwinds.  The checkpoint gains the library's fields and is
        published as the entry, unless another primer's got there
        first.  Returns the entry directory.
        """
        if config.sample.ff_until <= 0:
            raise SampleError("priming needs sample.ff_until > 0")
        key = self.key(config, program, args)
        stage = make_stage(self.root, key)
        try:
            checkpoint = self._prime_into(stage, config, program, args)
            self.stats["primes"] += 1
            # Lost a priming race if this lands nowhere; both entries
            # hold byte-identical state (that is the whole point).
            publish(checkpoint, self.entry_dir(key))
        finally:
            shutil.rmtree(stage, ignore_errors=True)
        return self.entry_dir(key)

    def _prime_into(self, stage: str, config: SimulationConfig,
                    program: Any, args: tuple) -> str:
        """The primer's switch-point checkpoint in ``stage``, amended."""
        primer_config = self._primer_config(config, stage)
        from repro.sim.runner import create_simulator
        simulator = create_simulator(primer_config)
        controller = simulator.sample_controller
        assert controller is not None  # sample.enabled via ff_until
        controller.stop_after_ff = True
        try:
            simulator.run(program, args)
        except FastForwardDone:
            pass
        else:
            raise SampleError(
                f"workload finished before the fast-forward target "
                f"(ff_until={config.sample.ff_until}); there is no "
                f"detailed region to share")
        checkpoint = os.path.join(stage, CheckpointStore(stage).latest())
        amend_manifest(checkpoint, {
            "library": LIBRARY_FORMAT,
            "descriptor": program_descriptor(program),
            "prefix_hash": config.prefix_hash(),
            "ff_until": config.sample.ff_until,
            "num_tiles": config.num_tiles,
            "events": self._sample_events(simulator),
        })
        return checkpoint

    @staticmethod
    def _primer_config(config: SimulationConfig,
                       stage: str) -> SimulationConfig:
        """The primer's config: the variant minus everything post-FF."""
        primer = config.copy()
        # Fast-forward only — the primer never runs the variant's
        # interval schedule, and must not try to fork a library itself.
        primer.sample = SampleConfig(ff_until=config.sample.ff_until)
        # Checkpoints go to the stage; no periodic cadence, the
        # controller writes the single switch-point snapshot itself.
        primer.ckpt.dir = stage
        primer.ckpt.every = 0
        primer.ckpt.keep = 1
        # In-memory SAMPLE telemetry so the primer's mode switches land
        # in the entry metadata; no file sinks (the variant's paths are
        # not ours to write).
        primer.telemetry.enabled = True
        primer.telemetry.events = ["sample"]
        primer.telemetry.trace_path = None
        primer.telemetry.metrics_interval = 0
        primer.telemetry.trace_id = ""
        primer.telemetry.span_parent = ""
        primer.telemetry.flight_dir = ""
        primer.validate()
        return primer

    @staticmethod
    def _sample_events(simulator: Any) -> List[Dict[str, Any]]:
        """The primer's SAMPLE telemetry, for the entry metadata."""
        bus = getattr(simulator, "telemetry", None)
        if bus is None:
            return []
        from repro.telemetry.events import EventCategory
        return [event.to_dict() for event in bus.ordered_events()
                if event.category == EventCategory.SAMPLE]

    # -- forking --------------------------------------------------------------

    def ensure(self, config: SimulationConfig, program: Any,
               args: tuple = ()) -> Tuple[str, bool]:
        """Prime the entry for ``config`` unless present.

        Returns ``(key, primed)`` where ``primed`` says whether this
        call performed the fast-forward.  An entry whose blobs fail
        their checksums is a miss: it is dropped and primed again.
        """
        key = self.key(config, program, args)
        if self.has(key):
            try:
                read_entry(self.entry_dir(key), SampleError)
            except SampleError:
                self.drop(key)
            else:
                self.stats["hits"] += 1
                return key, False
        self.prime(config, program, args)
        return key, True

    def fork(self, key: str, config: SimulationConfig) -> Any:
        """A runnable simulator: the stored snapshot, re-dressed.

        Restores the entry's checkpoint armed for ``config`` (its
        telemetry, checkpoint policy and boundary stages, exactly as a
        fresh build of ``config`` has them) and swaps in ``config``'s
        timing models (core and network — the prefix-irrelevant
        sections).  Drive the result with ``resume_run()``.
        """
        if not self.has(key):
            raise SampleError(f"no library entry {key!r} in {self.root}")
        from repro.ckpt.recovery import load_checkpoint
        try:
            simulator, _ = load_checkpoint(self.root, key, config=config)
        except CheckpointError as exc:
            raise SampleError(f"library entry {key!r}: {exc}") from exc
        _redress_fork(simulator)
        return simulator

    # -- the determinism check ------------------------------------------------

    def verify(self, config: SimulationConfig, program: Any,
               args: tuple = ()) -> Dict[str, Any]:
        """Loud check: a forked run must equal an unshared run, exactly.

        Runs ``config`` twice — once forked from the library (priming
        if needed) and once from cycle zero without the library — and
        compares :func:`roi_metrics` byte-for-byte via canonical JSON.
        Raises :class:`~repro.common.errors.SampleError` naming every
        differing field on mismatch; returns the comparison summary on
        success.
        """
        key, primed = self.ensure(config, program, args)
        forked = self.fork(key, config).resume_run()
        unshared_config = config.copy()
        unshared_config.sample.library = None
        from repro.sim.runner import create_simulator
        unshared = create_simulator(unshared_config).run(program, args)
        ours, theirs = roi_metrics(forked), roi_metrics(unshared)
        blob_f = json.dumps(ours, sort_keys=True, default=str)
        blob_u = json.dumps(theirs, sort_keys=True, default=str)
        if blob_f != blob_u:
            differing = sorted(
                field for field in {**ours, **theirs}
                if json.dumps(ours.get(field), sort_keys=True,
                              default=str)
                != json.dumps(theirs.get(field), sort_keys=True,
                              default=str))
            raise SampleError(
                "snapshot-library determinism violation: forked run "
                f"diverged from the unshared run in {differing} "
                f"(key {key!r}); the prefix-irrelevance contract of "
                "functional fast-forward is broken")
        return {"key": key, "primed": primed,
                "simulated_cycles": forked.simulated_cycles,
                "identical": True}


# -- fork-time re-dressing ----------------------------------------------------


def _redress_fork(simulator: Any) -> None:
    """Swap a restored snapshot's timing models for its new config's.

    Only the prefix-irrelevant sections may differ between the primer
    and the variant, so this touches exactly the core models, the
    network models and the sampling policy; everything else (memory
    system, sync, host layout) is identical by construction of the
    library key.  Model rebuilds are gated on actual config inequality
    so a same-config fork keeps the snapshot's objects untouched.
    """
    from repro.core.factory import redress_core
    config = simulator.config
    for tile, interpreter in simulator.interpreters.items():
        # (mp: the workers re-dress their own shards on RESTORE)
        redress_core(interpreter, config.core_config_for(int(tile)))
    fabric = simulator.fabric
    if fabric.config != config.network:
        # Nothing routed during fast-forward (functional sends bypass
        # the models), so the primer's models are pristine.
        fabric.build_models(config.network)
    controller = simulator.sample_controller
    if controller is not None:
        controller.config = config.sample
        controller.stop_after_ff = False
        # The primer ran fast-forward-only, so its switch-point stage
        # opened a measurement window (everything past ``ff_until`` is
        # DETAIL without intervals).  Re-evaluate under the variant's
        # geometry: an unshared run of the variant opens a window at
        # that same turn only if its phase there is measured (warmup
        # is not), and warmup-first period ordering guarantees the two
        # runs agree on every field when it is.
        if controller._open_window is not None:
            from repro.sample.intervals import phase_at
            phase = phase_at(config.sample, controller._horizon)
            if not phase.measured:
                controller._open_window = None


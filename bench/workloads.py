"""The eight workloads: pinned sizes, the op each rep runs, and why.

A workload is one *op* — a fixed piece of work a user of the simulator
would wait for — run once per rep in a fresh process.  Sizes are
constants, never tuned to the host, so two commits run identical
work; the only input is the seed, which becomes ``SimulationConfig.
seed`` (job *i* of an op uses ``seed + i``).  Fleets, pools and
machine counts are the pinned constant :data:`FLEET`.

Ops take 2–3.5 s on the 2-core sandbox they were sized on, smaller
than the issue first proposed: the host's noise comes in bursts, which
a quartile over many short reps rejects and one long op adds up, so a
30-second run is spent on seven to twelve reps.

``BENCHMARK.json`` declares four of the eight for the driver's gate
(``inproc_hit_8t``, ``inproc_share_8t``, ``mp_pipe_8t``,
``ckpt_library_8t``); the other four run the same way by hand.  The
driver's time limit covers all its runs of every declared workload:
eight workloads left each run 10 s, too short to be steady on a shared
host, and the gated four are the ones that keep one CPU busy, which
the host disturbs least.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Workers per fleet / pool / simulated machines: pinned, never nproc.
FLEET = 2

Kernels = Tuple[Tuple[str, float], ...]


@dataclass
class Context:
    """What one rep hands its workload."""

    seed: int
    #: Empty directory for this rep, inside ``bench/out``.
    scratch: str
    #: Live span recorder on a traced rep, else ``None``.
    recorder: Optional[Any] = None
    #: ``""`` for the workload's own op; ``"serial"`` (sweep only) or
    #: an observer name (kernel sets only) for the traced pass's extras.
    variant: str = ""

    def op(self, op_id: str) -> None:
        """Stamp the spans that follow with the operation they serve."""
        if self.recorder is not None:
            self.recorder.op_id = op_id


@dataclass
class Outcome:
    """What one op produced."""

    #: op label -> ``SimulationResult``; every one is digested.
    results: Dict[str, Any]
    #: Operations attempted (simulations, jobs, requests).
    attempted: int = 0
    #: One message per failed operation.
    failures: List[str] = field(default_factory=list)
    #: Σ ``total_instructions`` over results *simulated* in the op.
    instructions: int = 0
    #: The workload's own end-to-end metrics.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Per-layer facts the workload measures itself (counts, bytes).
    facts: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.attempted = self.attempted or len(self.results)
        self.instructions = self.instructions or sum(
            r.total_instructions for r in self.results.values())


def sim_config(tiles: int, seed: int) -> Any:
    from repro.common.config import SimulationConfig
    return SimulationConfig(num_tiles=tiles, seed=seed)


def program(kernel: str, tiles: int, scale: float) -> Any:
    from repro.distrib.wire import WorkloadRef
    return WorkloadRef(kernel, tiles, scale)


_now = time.perf_counter


class Workload:
    """One benchmark workload; subclasses fill in the op."""

    name = ""
    why = ""
    #: ``{character metric: (op, bound)}`` asserted on every rep.
    limits: Dict[str, tuple] = {}
    #: Confine the rep and its children to one CPU (see ``mp_*``).
    one_cpu = False

    def prepare(self, ctx: Context) -> Any:
        """Set-up: everything before the first timed op."""
        raise NotImplementedError

    def run(self, ctx: Context, state: Any) -> Outcome:
        """The timed op."""
        raise NotImplementedError

    def reference(self, ctx: Context, state: Any) -> Dict[str, Any]:
        """Results the op's must equal, by label, computed another way."""
        return {}

    def probe(self, ctx: Context, state: Any,
              outcome: Outcome) -> Dict[str, float]:
        """Extra per-layer facts for the traced pass (untraced code)."""
        return {}

    def finish(self, ctx: Context, state: Any) -> None:
        """Tear down what :meth:`prepare` started."""


# -- kernel sets: inproc and mp --------------------------------------------------


class KernelSet(Workload):
    """Run a fixed list of kernels, one simulator each, back to back."""

    def __init__(self, name: str, why: str, kernels: Kernels,
                 tiles: int = 8, backend: str = "inproc",
                 transport: str = "pipe", machines: int = 1,
                 limits: Optional[Dict[str, tuple]] = None) -> None:
        self.name, self.why, self.kernels = name, why, kernels
        self.tiles, self.backend = tiles, backend
        self.transport, self.machines = transport, machines
        self.limits = limits or {}
        # An mp run is a synchronous exchange of ~140k frames between
        # the coordinator and one active worker.  On the sandbox (a
        # 2-vCPU VM) a frame to a process on the other CPU wakes a
        # halted vCPU through the hypervisor, 60-100 us against 14 us
        # for a context switch on one CPU, and the kernel's placement
        # of the three processes decides which: the same unpinned op
        # took 2.7 s or 8 s, run to run, and with the workers pinned
        # away from the coordinator 8-15 s; in a spell when the host
        # took vCPUs away, one unpinned op took 105 s.  One CPU gives
        # the mode the scheduler mostly picks by itself and repeats
        # within a few percent.
        self.one_cpu = backend == "mp"

    def _configs(self, ctx: Context, backend: str) -> List[Any]:
        configs = []
        for index in range(len(self.kernels)):
            config = sim_config(self.tiles, ctx.seed + index)
            config.host.num_machines = self.machines
            config.distrib.backend = backend
            config.distrib.transport = self.transport
            if ctx.variant == "telemetry":
                config.telemetry.enabled = True
            elif ctx.variant == "profile":
                config.profile.enabled = True
            elif ctx.variant == "sanitize":
                config.check.sanitize = True
            elif ctx.variant == "flight":
                config.telemetry.flight_dir = os.path.join(ctx.scratch,
                                                           "flight")
            configs.append(config)
        return configs

    def _simulators(self, ctx: Context, backend: str) -> List[tuple]:
        from repro.sim.runner import create_simulator
        return [(f"{kernel}@{scale:g}", create_simulator(config),
                 program(kernel, self.tiles, scale))
                for (kernel, scale), config
                in zip(self.kernels, self._configs(ctx, backend))]

    def prepare(self, ctx: Context) -> List[tuple]:
        return self._simulators(ctx, self.backend)

    def run(self, ctx: Context, state: List[tuple]) -> Outcome:
        results = {}
        for label, simulator, ref in state:
            ctx.op(label)
            results[label] = simulator.run(ref)
        return Outcome(results)

    def reference(self, ctx: Context, state: Any) -> Dict[str, Any]:
        if self.backend == "inproc":
            return {}
        return {label: simulator.run(ref) for label, simulator, ref
                in self._simulators(ctx, "inproc")}


# -- the sweep pool --------------------------------------------------------------


class SweepPool(Workload):
    name = "sweep_pool_8t"
    why = ("the one path with real host parallelism: distrib.pool fork, "
           "requeue and result pickling, 7 fft configs over 2 workers")
    # An odd job count: the two workers split 4/3 however they race.
    # With an even count a small delay turns 4/4 into 5/3 and moves
    # the makespan by a whole job.
    JOBS, KERNEL, SCALE, TILES = 7, "fft", 2.0, 8
    #: Configs the reference re-runs serially on an untraced pass; the
    #: traced pass's ``serial`` variant covers all of them.
    REFERENCE_JOBS = 2

    def prepare(self, ctx: Context) -> List[Any]:
        return [sim_config(self.TILES, ctx.seed + i)
                for i in range(self.JOBS)]

    def _sweep(self, configs: List[Any], workers: int) -> Dict[str, Any]:
        from repro.sim.experiment import sweep
        results = sweep(configs, program(self.KERNEL, self.TILES,
                                         self.SCALE), workers=workers)
        return {f"job{i}": result for i, result in enumerate(results)}

    def run(self, ctx: Context, state: List[Any]) -> Outcome:
        ctx.op("sweep")
        workers = 1 if ctx.variant == "serial" else FLEET
        return Outcome(self._sweep(state, workers))

    def reference(self, ctx: Context, state: List[Any]) -> Dict[str, Any]:
        return self._sweep(state[:self.REFERENCE_JOBS], 1)


# -- the serve daemon ------------------------------------------------------------


class ServeMix(Workload):
    name = "serve_mix"
    why = ("serve daemon, JSON protocol, ResultStore and job_key: cache "
           "hits (no simulation) beside misses (simulation-bound), so a "
           "protocol gain that costs dispatch shows")
    KERNEL, SCALE, TILES = "fft", 1.0, 8
    # The burst is odd for the reason the sweep's job count is.
    SEQUENTIAL, BURST, DUPLICATES = 4, 7, 120
    POLL = 0.002

    def _config(self, ctx: Context, index: int) -> Any:
        return sim_config(self.TILES, ctx.seed + index)

    def prepare(self, ctx: Context) -> tuple:
        from repro.serve.client import ServeClient
        from repro.serve.daemon import SimServer
        # A Unix socket path is capped near 100 bytes and the checkout
        # may sit anywhere: bind it by a relative name from the scratch
        # directory instead.
        os.chdir(ctx.scratch)
        server = SimServer("spool", fleet=FLEET,
                           socket_path="serve.sock").start()
        client = ServeClient("serve.sock")
        client.wait_up()
        return server, client

    def _submit(self, client: Any, config: Any) -> Dict[str, Any]:
        return client.submit(config, workload=self.KERNEL,
                             nthreads=self.TILES, scale=self.SCALE)

    def run(self, ctx: Context, state: tuple) -> Outcome:
        from repro.serve.store import result_from_jsonable
        _server, client = state
        results: Dict[str, Any] = {}
        failures: List[str] = []
        configs: Dict[str, Any] = {}

        def collect(label: str, job_id: str) -> None:
            view = client.wait(job_id, poll=self.POLL)
            if view["state"] != "done":
                failures.append(f"{label}: ended {view['state']}: "
                                f"{view.get('error')}")
                return
            results[label] = result_from_jsonable(
                client.fetch(job_id)["result"])

        hits: List[float] = []

        def duplicates(count: int) -> None:
            labels = sorted(results)
            for _ in range(count):
                k = len(hits)
                label = labels[k % len(labels)]
                ctx.op(f"hit{k}")
                start = _now()
                view = self._submit(client, configs[label])
                envelope = client.fetch(view["job_id"])
                hits.append(_now() - start)
                if view["state"] != "cached":
                    failures.append(f"hit{k}: duplicate of {label} came "
                                    f"back {view['state']}, not cached")
                elif (result_from_jsonable(envelope["result"])
                        != results[label]):
                    failures.append(f"hit{k}: cached result differs "
                                    f"from {label}'s")

        # A hit takes 2 ms: all of them in one stretch would time one
        # moment of the host, so a share follows every miss and the
        # burst.
        share = self.DUPLICATES // (self.SEQUENTIAL + 1)
        misses = []
        for i in range(self.SEQUENTIAL):
            label = f"miss{i}"
            ctx.op(label)
            configs[label] = self._config(ctx, i)
            start = _now()
            view = self._submit(client, configs[label])
            if view["state"] == "cached":
                failures.append(f"{label}: first submission was cached")
            collect(label, view["job_id"])
            misses.append(_now() - start)
            duplicates(share)

        ctx.op("burst")
        start = _now()
        burst = []
        for j in range(self.BURST):
            label = f"burst{j}"
            configs[label] = self._config(ctx, 100 + j)
            burst.append((label, self._submit(client,
                                              configs[label])["job_id"]))
        for label, job_id in burst:
            collect(label, job_id)
        makespan = _now() - start
        duplicates(self.DUPLICATES - len(hits))
        return Outcome(
            results,
            attempted=self.SEQUENTIAL + self.BURST + self.DUPLICATES,
            failures=failures,
            extra={"miss_latency_s": statistics.median(misses),
                   "hit_latency_s": statistics.median(hits),
                   "jobs_per_s": self.BURST / makespan},
            facts={"serve.jobs_waited": self.SEQUENTIAL + self.BURST})

    def _direct(self, ctx: Context, index: int) -> Any:
        from repro.sim.runner import create_simulator
        return create_simulator(self._config(ctx, index)).run(
            program(self.KERNEL, self.TILES, self.SCALE))

    def reference(self, ctx: Context, state: tuple) -> Dict[str, Any]:
        return {"miss0": self._direct(ctx, 0),
                f"burst{self.BURST - 1}":
                    self._direct(ctx, 100 + self.BURST - 1)}

    def probe(self, ctx: Context, state: tuple,
              outcome: Outcome) -> Dict[str, float]:
        """Direct-run wall of the miss job, and store/key costs on a
        scratch store (the daemon's own store is used off-thread)."""
        from repro.serve.store import ResultStore, job_key
        # The daemon's process has simulated nothing yet; the first
        # direct run pays lazy imports a fleet worker paid at start-up.
        self._direct(ctx, 0)
        start = _now()
        result = self._direct(ctx, 0)
        direct = _now() - start
        store = ResultStore(os.path.join(ctx.scratch, "probe-store"))
        config = self._config(ctx, 0)
        ref = program(self.KERNEL, self.TILES, self.SCALE)
        rounds = 20
        timings = {"put": [], "get": [], "key": []}
        for i in range(rounds):
            start = _now()
            key = job_key(config, ref)
            timings["key"].append(_now() - start)
            start = _now()
            store.put(f"{i:02d}{key}", result)
            timings["put"].append(_now() - start)
            start = _now()
            store.get_bytes(f"{i:02d}{key}")
            timings["get"].append(_now() - start)
        return {
            "serve.dispatch_overhead_s":
                outcome.extra["miss_latency_s"] - direct,
            "serve.store_put_s": statistics.median(timings["put"]),
            "serve.store_get_s": statistics.median(timings["get"]),
            "serve.job_key_s": statistics.median(timings["key"]),
        }

    def finish(self, ctx: Context, state: tuple) -> None:
        state[0].stop()


# -- checkpoints and the snapshot library -------------------------------------------


def _tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _dirs, names in os.walk(root)
               for name in names)


class CkptLibrary(Workload):
    name = "ckpt_library_8t"
    why = ("ckpt writes beside ckpt reads (restore, library fork) plus "
           "sample fast-forward: one op-stream or checkpoint format "
           "change moves all four of its times")
    KERNEL, SCALE, TILES = "fft", 2.0, 8
    CKPT_EVERY = 50
    MIN_CHECKPOINTS = 4
    FF_UNTIL, PERIOD, DETAIL, WARMUP = 50_000, 25_000, 7_000, 6_000

    def prepare(self, ctx: Context) -> Dict[str, Any]:
        from repro.sim.runner import create_simulator
        ckpt_dir = os.path.join(ctx.scratch, "ckpt")
        library = os.path.join(ctx.scratch, "library")
        os.makedirs(library)
        plain = sim_config(self.TILES, ctx.seed)
        checkpointed = plain.copy()
        checkpointed.ckpt.dir = ckpt_dir
        checkpointed.ckpt.every = self.CKPT_EVERY
        checkpointed.ckpt.keep = 99
        sampled = plain.copy()
        sampled.sample.ff_until = self.FF_UNTIL
        sampled.sample.period = self.PERIOD
        sampled.sample.detail = self.DETAIL
        sampled.sample.warmup = self.WARMUP
        sampled.sample.library = library
        # Warm variants change only what the library key leaves out.
        ff_only = sampled.copy()
        ff_only.sample.period = ff_only.sample.detail = 0
        ff_only.sample.warmup = 0
        core = sampled.copy()
        core.core.model = "out_of_order"
        network = sampled.copy()
        network.network.hop_latency = 4
        return {
            "ckpt_dir": ckpt_dir, "library": library,
            "plain": create_simulator(plain),
            "checkpointed": create_simulator(checkpointed),
            "sampled": sampled,
            "warm": {"fork_ff_only": ff_only, "fork_core": core,
                     "fork_network": network},
        }

    def run(self, ctx: Context, state: Dict[str, Any]) -> Outcome:
        from repro.ckpt.recovery import resume_with_recovery
        from repro.ckpt.store import CheckpointStore
        from repro.sample.library import SnapshotLibrary
        from repro.sim.runner import run_simulation
        ref = program(self.KERNEL, self.TILES, self.SCALE)
        results: Dict[str, Any] = {}
        failures: List[str] = []
        times: Dict[str, float] = {}

        def timed(label: str, call: Any) -> Any:
            ctx.op(label)
            start = _now()
            results[label] = call()
            times[label] = _now() - start
            return results[label]

        timed("plain", lambda: state["plain"].run(ref))
        timed("checkpointed", lambda: state["checkpointed"].run(ref))
        names = CheckpointStore(state["ckpt_dir"], keep=99).list()
        if len(names) < self.MIN_CHECKPOINTS:
            failures.append(f"checkpointed: {len(names)} checkpoints "
                            f"written, need {self.MIN_CHECKPOINTS}")
        ckpt_bytes = _tree_bytes(state["ckpt_dir"])
        timed("resumed", lambda: resume_with_recovery(
            state["ckpt_dir"], name=names[len(names) // 2])[0])
        # The library's flags must read one prime, then forks only.
        primed = [timed("prime", lambda: run_simulation(state["sampled"],
                                                        ref))
                  .sample["library"]["primed"]]
        for label, config in state["warm"].items():
            primed.append(timed(label, lambda: run_simulation(config, ref))
                          .sample["library"]["primed"])
        if primed != [True] + [False] * len(state["warm"]):
            failures.append(f"library: primed flags {primed}, expected "
                            f"one prime, then forks")
        entries = SnapshotLibrary(state["library"]).entries()
        if len(entries) != 1:
            failures.append(f"library: {len(entries)} entries, expected "
                            f"exactly 1")

        truth = results["plain"].simulated_cycles
        estimate = results["prime"].sample["extrapolation"]
        ff_instructions = (results["fork_ff_only"].sample["windows"][0]
                           ["instructions_before"])
        return Outcome(
            results, failures=failures,
            extra={"ckpt_run_s": times["checkpointed"],
                   "ckpt_resume_s": times["resumed"],
                   "lib_prime_s": times["prime"],
                   # The variants cost 0.2, 0.3 and 0.5 s: their mean.
                   "lib_fork_s": statistics.mean(
                       times[label] for label in state["warm"])},
            facts={
                "ckpt.count": len(names),
                "ckpt.bytes_per_ckpt": ckpt_bytes / max(len(names), 1),
                "ckpt.run_overhead_frac":
                    times["checkpointed"] / times["plain"] - 1.0,
                "sample.library_bytes": _tree_bytes(state["library"]),
                "sample.primes": sum(primed),
                "sample.ff_instructions": ff_instructions,
                "sample.cycle_error_frac":
                    abs(estimate["cycles"] - truth) / truth,
                "sample.ci_covers": float(
                    estimate["cycles_low"] <= truth
                    <= estimate["cycles_high"]),
            })

    def reference(self, ctx: Context,
                  state: Dict[str, Any]) -> Dict[str, Any]:
        """Uninterrupted and unshared runs the op's must equal."""
        from repro.sim.runner import create_simulator
        ref = program(self.KERNEL, self.TILES, self.SCALE)
        unshared = state["warm"]["fork_core"].copy()
        unshared.sample.library = None
        plain = create_simulator(sim_config(self.TILES, ctx.seed)).run(ref)
        return {"plain": plain, "checkpointed": plain, "resumed": plain,
                "fork_core": create_simulator(unshared).run(ref)}


# -- the table ---------------------------------------------------------------------

WORKLOADS: Tuple[Workload, ...] = (
    KernelSet(
        "inproc_hit_8t",
        "0.4 coherence tx per kilo-instruction and 95% L1D hits: the "
        "frontend interpreter, core model and controller hit path do "
        "the work, coherence and network almost none",
        (("ocean_cont", 1.0), ("fmm", 8.0), ("water_spatial", 4.0)),
        limits={"memory.coh_tx_per_kinstr": ("<=", 1.0),
                "memory.l1d_hit_ratio": (">=", 0.93)}),
    KernelSet(
        "inproc_share_8t",
        "4.7 coherence tx and 19 messages per kilo-instruction: "
        "coherence, directory, DRAM, fabric and transport dominate; "
        "the bypass for hit-path work",
        (("blackscholes", 16.0), ("fft", 2.0), ("water_nsquared", 2.0),
         ("lu_non_cont", 1.0)),
        limits={"memory.coh_tx_per_kinstr": (">=", 3.5)}),
    KernelSet(
        "inproc_scale_256t",
        "the same model layers at 256 tiles: long mesh routes and "
        "sharer lists, scheduler and sync turns, per-tile construction "
        "cost in setup_s, RSS",
        (("barnes", 0.25), ("blackscholes", 1.0)), tiles=256),
    KernelSet(
        "mp_pipe_8t",
        "backend=mp over pipes, 2 machines: wire encode/decode and "
        "coordinator wait dominate, model layers are a small share; "
        "hit-path work should barely move it",
        (("fft", 1.0), ("water_spatial", 1.0)), backend="mp",
        machines=FLEET,
        limits={"transport.messages_cross_machine": (">", 0)}),
    KernelSet(
        "mp_tcp_8t",
        "the same op over self-dialed loopback TCP: net handshake, "
        "TcpChannel and transport.frames instead of pipes, so a gain "
        "for one carrier that costs the other shows",
        (("fft", 1.0), ("water_spatial", 1.0)), backend="mp",
        transport="tcp", machines=FLEET,
        limits={"transport.messages_cross_machine": (">", 0)}),
    SweepPool(),
    ServeMix(),
    CkptLibrary(),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

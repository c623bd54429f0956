"""Per-layer metrics of one traced rep, from the recorder's folded spans.

Span names come from ``tracer.PATCH_TABLE``; metric names are the ones
``BENCHMARK.json`` declares.  ``*_self_s`` is self time inside the op
(the span's duration minus what its child spans cover), so the self
times of one op, the root span's remainder included, add up to the
op's wall-clock — ``bench.self_time_closure_frac`` checks that they
do, and ``bench.unattributed_frac`` how much of it is the remainder.
A layer the workload does not reach reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, List

from tracer import CALLS, CUM_NS, SELF_NS

Totals = Dict[str, List[int]]

#: Counts that repeat exactly for a seed: two runs of one commit, or of
#: two commits where only speed changed, must agree on every one.
EXACT_COUNTS = frozenset((
    "frontend.interpret_calls", "frontend.instr_per_call",
    "core.model_calls", "memory.controller_calls",
    "memory.coherence_calls", "memory.dram_calls",
    "memory.l1d_hit_ratio", "memory.l2_hit_ratio",
    "memory.coh_tx_per_kinstr", "network.fabric_calls",
    "network.packets", "transport.msgs_per_kinstr",
    "transport.cross_process_ratio", "sync.model_calls", "host.turns",
    "host.instr_per_turn", "distrib.frames_sent", "distrib.frames_recv",
    "distrib.bytes_sent", "distrib.bytes_recv",
    "distrib.frames_per_turn", "ckpt.count", "sample.primes",
))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: Totals, op: Totals, counts: Dict[str, int],
                  outcome: Any, wall_ns: int,
                  import_ns: int) -> Dict[str, float]:
    """Everything one traced rep can say about the layers."""
    zero = [0, 0, 0]

    def self_s(name: str) -> float:
        return op.get(name, zero)[SELF_NS] / 1e9

    def cum_s(name: str, totals: Totals = op) -> float:
        return totals.get(name, zero)[CUM_NS] / 1e9

    def calls(name: str) -> int:
        return op.get(name, zero)[CALLS]

    def rtt_s(name: str) -> float:
        return _ratio(cum_s(name), calls(name))

    instructions = outcome.instructions
    turns = counts.get("host.turns", 0)
    frames_sent = calls("distrib.channel_send")
    frames_recv = calls("distrib.channel_recv")
    op_self_ns = sum(row[SELF_NS] for row in op.values())
    metrics = {
        "frontend.interpret_self_s": self_s("frontend.interpret"),
        "frontend.interpret_calls": calls("frontend.interpret"),
        "frontend.instr_per_call": _ratio(instructions,
                                          calls("frontend.interpret")),
        "core.model_self_s": self_s("core.model"),
        "core.model_calls": calls("core.model"),
        "memory.controller_self_s": self_s("memory.controller"),
        "memory.controller_calls": calls("memory.controller"),
        "memory.coherence_self_s": self_s("memory.coherence"),
        "memory.coherence_calls": calls("memory.coherence"),
        "memory.dram_self_s": self_s("memory.dram"),
        "memory.dram_calls": calls("memory.dram"),
        "network.fabric_self_s": self_s("network.fabric"),
        "network.fabric_calls": calls("network.fabric"),
        "sync.model_self_s": self_s("sync.model"),
        "sync.model_calls": calls("sync.model"),
        "host.scheduler_self_s": self_s("host.scheduler"),
        "host.turns": turns,
        "host.instr_per_turn": _ratio(instructions, turns),
        "sim.import_s": import_ns / 1e9,
        "sim.build_s": cum_s("sim.build", setup) + cum_s("sim.build"),
        "sim.other_self_s": self_s("op"),
        "distrib.launch_s": cum_s("distrib.launch"),
        "distrib.shutdown_s": cum_s("distrib.shutdown"),
        "distrib.frames_sent": frames_sent,
        "distrib.frames_recv": frames_recv,
        "distrib.bytes_sent": counts.get("distrib.bytes_sent", 0),
        "distrib.bytes_recv": counts.get("distrib.bytes_recv", 0),
        "distrib.frames_per_turn": _ratio(frames_sent + frames_recv,
                                          turns),
        "distrib.encode_self_s": self_s("distrib.encode"),
        "distrib.decode_self_s": self_s("distrib.decode"),
        "distrib.send_self_s": (self_s("distrib.send")
                                + self_s("distrib.channel_send")),
        # WorkerCluster.recv polls the channel until a frame is ready,
        # then reads it: both are the coordinator waiting on a worker.
        "distrib.recv_wait_s": (self_s("distrib.recv")
                                + self_s("distrib.channel_recv")),
        "distrib.service_self_s": self_s("distrib.service"),
        # The pool's parent forks, feeds and collects; its self time is
        # nearly all waiting for the children that simulate.
        "distrib.pool_wait_s": self_s("distrib.pool"),
        "net.accept_s": cum_s("net.accept"),
        "serve.daemon_start_s": cum_s("serve.daemon_start", setup),
        "serve.submit_rtt_s": rtt_s("serve.submit"),
        "serve.status_rtt_s": rtt_s("serve.status"),
        "serve.fetch_rtt_s": rtt_s("serve.fetch"),
        # ServeClient.wait minus its status calls: sleeping between polls.
        "serve.wait_sleep_s": self_s("serve.wait"),
        "serve.polls_per_job": _ratio(
            calls("serve.status"),
            outcome.facts.get("serve.jobs_waited", 0)),
        "ckpt.save_self_s": self_s("ckpt.save"),
        "ckpt.store_write_s": cum_s("ckpt.store_write"),
        "ckpt.load_s": cum_s("ckpt.load"),
        "sample.prime_self_s": self_s("sample.prime"),
        "sample.fork_self_s": self_s("sample.fork"),
        "sample.ff_instr_per_host_s": _ratio(
            outcome.facts.get("sample.ff_instructions", 0),
            cum_s("sample.prime")),
        "bench.self_time_closure_frac": _ratio(
            abs(op_self_ns - wall_ns), wall_ns),
        # Closure holds by construction while every span nests on one
        # thread; what shows missing instrumentation is the share of
        # the op no wrapped entry point covers.
        "bench.unattributed_frac": _ratio(
            op.get("op", zero)[SELF_NS], wall_ns),
    }
    return {name: float(value) for name, value in metrics.items()}

"""repro.obs acceptance: span trees, the metrics endpoint, flight dumps.

The ISSUE's acceptance demos against a live daemon:

* a served job that is preempted, runs on a TCP-remote worker and
  resumes yields ONE causally-connected span tree — a single trace id,
  no orphan spans, every lifecycle phase a child of the job root;
* the ``metrics`` verb serves live fleet gauges both structured and in
  Prometheus text exposition, and ``repro top`` renders them;
* a SIGKILLed fleet worker leaves a flight-recorder bundle naming the
  dead worker.
"""

from __future__ import annotations

import contextlib
import glob
import json
import multiprocessing
import os
import shutil
import signal
import tempfile
import time

from repro.common.config import SimulationConfig, TelemetryConfig
from repro.distrib.wire import WIRE_VERSION
from repro.obs.flight import load_bundles
from repro.obs.spans import (build_span_tree, orphan_spans,
                             span_records)
from repro.serve.client import ServeClient
from repro.serve.daemon import SimServer

FAST_SCALE = 0.05
LONG_SCALE = 10.0


def _config(seed: int) -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=2, seed=seed)
    cfg.host.quantum_instructions = 200
    return cfg


def _obs_telemetry(**kwargs) -> TelemetryConfig:
    return TelemetryConfig(enabled=True, events=["serve", "obs"],
                           **kwargs)


@contextlib.contextmanager
def running_server(**kwargs):
    # Short tempdir: AF_UNIX socket paths cap out around 107 chars.
    root = tempfile.mkdtemp(dir="/tmp", prefix="ro-")
    server = SimServer(root, **kwargs).start()
    client = ServeClient(server.socket_path)
    try:
        client.wait_up()
        yield server, client
    finally:
        server.stop()
        shutil.rmtree(root, ignore_errors=True)


def _remote_worker_main(address: str, trace_dir: str = "") -> None:
    from repro.net.listener import connect_worker
    from repro.serve import fleet
    from repro.serve.fleet import run_fleet_child
    if trace_dir:
        # Record what each assignment's *simulator* emits on this
        # side of the wire: turn the job's own obs tracing on, one
        # JSONL file per assignment.
        run_job, assignments = fleet.run_job, iter(range(10 ** 6))

        def traced_run_job(config, *rest):
            config.telemetry.enabled = True
            config.telemetry.events = ["obs"]
            config.telemetry.trace_path = os.path.join(
                trace_dir, f"assignment{next(assignments)}.jsonl")
            return run_job(config, *rest)
        fleet.run_job = traced_run_job
    channel, welcome = connect_worker(address, WIRE_VERSION,
                                      timeout=10.0)
    run_fleet_child(channel)


def _dial_worker(address: str,
                 trace_dir: str = "") -> multiprocessing.Process:
    proc = multiprocessing.get_context("fork").Process(
        target=_remote_worker_main, args=(address, trace_dir),
        daemon=True)
    proc.start()
    return proc


def _worker_side_events(trace_dir: str) -> list:
    events = []
    pattern = os.path.join(trace_dir, "assignment*.jsonl")
    for name in sorted(glob.glob(pattern)):
        with open(name) as handle:
            events += [json.loads(line) for line in handle]
    return events


def _reap(proc) -> None:
    if proc is not None and proc.is_alive():
        proc.terminate()
        proc.join(timeout=5.0)


def _wait_until(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.02)


def _span_events(server: SimServer):
    return [event for event in server.bus.events
            if event.name.startswith("span.")]


def _kill_once_program(ctx, flag_path):
    yield from ctx.compute(50)
    if not os.path.exists(flag_path):
        with open(flag_path, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    yield from ctx.compute(50)


# -- distributed tracing ------------------------------------------------------


def test_preempted_migrated_resumed_job_is_one_span_tree():
    """THE tracing acceptance demo: submit to a single TCP-remote
    slot, preempt with a higher-priority job, resume — the whole
    lifecycle is one connected tree under one trace id."""
    proc = None
    try:
        with running_server(fleet=0, listen="127.0.0.1:0",
                            telemetry=_obs_telemetry()) \
                as (server, client):
            proc = _dial_worker(server.listen_address, server.root)
            _wait_until(lambda: server.workers, 10,
                        "remote worker never joined")
            low = client.submit(config=_config(1),
                                workload="matrix_multiply", nthreads=2,
                                scale=LONG_SCALE, priority=0)
            assert low["trace_id"], "submit reply carries the trace id"
            _wait_until(lambda: client.status(
                low["job_id"])["state"] == "running", 30,
                "job never started")
            high = client.submit(config=_config(2), workload="fft",
                                 nthreads=2, scale=0.1, priority=5)
            assert client.wait(high["job_id"],
                               timeout=120)["state"] == "done"
            low_final = client.wait(low["job_id"], timeout=300)
            assert low_final["state"] == "done"
            assert low_final["preemptions"] >= 1
            assert low_final["trace_id"] == low["trace_id"]

            events = _span_events(server)
            tree = build_span_tree(events)
            assert orphan_spans(events) == []
            # Two traces total (low and high), each with its own root.
            assert set(tree["traces"]) == {low["trace_id"],
                                           high["trace_id"]}
            spans = tree["spans"]
            low_spans = {sid: s for sid, s in spans.items()
                         if s["trace"] == low["trace_id"]}
            roots = [sid for sid in tree["roots"] if sid in low_spans]
            assert len(roots) == 1, "one connected tree per job"
            root = roots[0]
            assert low_spans[root]["op"] == "job"
            assert low_spans[root]["outcome"] == "done"
            # Every other span of the trace hangs off the root.
            assert set(tree["children"][root]) == \
                set(low_spans) - {root}
            # queue → run(preempted) → queue(resumed) → run(done).
            runs = [s for s in low_spans.values() if s["op"] == "run"]
            queues = [s for s in low_spans.values()
                      if s["op"] == "queue"]
            assert sorted(s["outcome"] for s in runs) == \
                ["done", "preempted"]
            assert len(queues) == 2
            assert any(s["args"].get("resumed") for s in queues)
            resumed_run = [s for s in runs
                           if s["args"].get("resumed")]
            assert len(resumed_run) == 1
            assert resumed_run[0]["outcome"] == "done"
            # The worker's resumed simulator hangs its own ``sim.run``
            # span under *that* assignment's span, not the first one's
            # it was checkpointed with.
            assert [s["parent"] for s in span_records(
                _worker_side_events(server.root)).values()
                if s["op"] == "sim.run" and s["args"]["resumed"]] \
                == [resumed_run[0]["span"]]
            # The preempt request is an instant note on the root span.
            notes = low_spans[root].get("notes", [])
            assert any(n["note"] == "preempt.request" for n in notes)
            assert all(s["ended"] for s in low_spans.values())
        proc.join(timeout=30.0)
    finally:
        _reap(proc)


def test_cached_submission_gets_its_own_closed_trace():
    with running_server(fleet=1, telemetry=_obs_telemetry()) \
            as (server, client):
        first = client.submit(config=_config(21),
                              workload="matrix_multiply", nthreads=2,
                              scale=FAST_SCALE)
        client.wait(first["job_id"], timeout=120)
        second = client.submit(config=_config(21),
                               workload="matrix_multiply", nthreads=2,
                               scale=FAST_SCALE)
        assert second["state"] == "cached"
        events = _span_events(server)
        spans = build_span_tree(events)["spans"]
        cached = [s for s in spans.values()
                  if s["trace"] == second["trace_id"]
                  and s["op"] == "job"]
        assert len(cached) == 1
        assert cached[0]["outcome"] == "cached"
        assert orphan_spans(events) == []


# -- live fleet metrics -------------------------------------------------------


def test_metrics_verb_serves_fields_and_prometheus_text():
    with running_server(fleet=1) as (server, client):
        view = client.submit(config=_config(31),
                             workload="matrix_multiply", nthreads=2,
                             scale=FAST_SCALE)
        client.wait(view["job_id"], timeout=120)
        client.submit(config=_config(31), workload="matrix_multiply",
                      nthreads=2, scale=FAST_SCALE)  # cache hit
        payload = client.metrics()
        fields = payload["fields"]
        assert fields["submitted"] == 2
        assert fields["cache_hits"] == 1
        assert fields["jobs"]["done"] == 1
        assert fields["jobs"]["cached"] == 1
        assert fields["workers"]["busy"] + fields["workers"]["idle"] == 1
        assert fields["uptime_seconds"] > 0
        # The same snapshot, rendered for scrapers.
        text = payload["text"]
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "repro_serve_submitted_total 2" in text
        assert "repro_serve_cache_hits_total 1" in text
        assert 'repro_serve_jobs{state="done"} 1' in text
        # One assignment left the queue: its wait time is accounted.
        assert 'repro_serve_wait_jobs_total{priority="0"} 1' in text
        assert 'repro_serve_worker_jobs_total{worker="0"} 1' in text


def test_repro_top_cli_once_and_prom(capsys):
    from repro.cli import main
    with running_server(fleet=1) as (server, client):
        view = client.submit(config=_config(41),
                             workload="matrix_multiply", nthreads=2,
                             scale=FAST_SCALE)
        client.wait(view["job_id"], timeout=120)
        assert main(["top", "--dir", server.root, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro serve fleet" in out
        assert "submitted 1" in out
        assert main(["top", "--dir", server.root, "--prom"]) == 0
        prom = capsys.readouterr().out
        assert "repro_serve_submitted_total 1" in prom
        assert prom.endswith("\n")


def test_repro_top_fails_cleanly_without_a_daemon(capsys):
    from repro.cli import main
    root = tempfile.mkdtemp(dir="/tmp", prefix="ro-")
    try:
        assert main(["top", "--dir", root, "--once"]) == 1
        assert main(["top", "--dir", root, "--prom"]) == 1
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_metrics_interval_emits_fleet_samples():
    telemetry = TelemetryConfig(enabled=True,
                                events=["serve", "metrics"],
                                metrics_interval=1)
    with running_server(fleet=1, telemetry=telemetry) \
            as (server, client):
        view = client.submit(config=_config(51),
                             workload="matrix_multiply", nthreads=2,
                             scale=FAST_SCALE)
        client.wait(view["job_id"], timeout=120)
        _wait_until(
            lambda: any(e.name == "fleet.sample"
                        for e in server.bus.events),
            15, "no fleet.sample event within the cadence")
        sample = next(e for e in server.bus.events
                      if e.name == "fleet.sample")
        assert sample.category_name == "metrics"
        assert "queue_depth" in sample.args


# -- crash flight recorder ----------------------------------------------------


def test_worker_sigkill_dumps_a_flight_bundle(tmp_path):
    """A fleet worker dying violently leaves a forensics bundle that
    names the dead worker, its job and the job's trace."""
    flag = str(tmp_path / "died-once")
    flight_dir = str(tmp_path / "flight")
    telemetry = _obs_telemetry(flight_dir=flight_dir)
    with running_server(fleet=1, telemetry=telemetry) \
            as (server, client):
        view = client.submit(config=_config(61),
                             program=_kill_once_program, args=(flag,))
        final = client.wait(view["job_id"], timeout=120)
        assert final["state"] == "done"
        assert final["deaths"] == 1
        bundles = load_bundles(flight_dir)
        assert len(bundles) == 1
        (bundle,) = bundles
        assert bundle["reason"] == "worker.died"
        assert bundle["extra"]["worker"] == 0
        assert bundle["extra"]["job"] == view["job_id"]
        assert bundle["extra"]["trace"] == view["trace_id"]
        assert "worker 0 died" in bundle["detail"]
        # The ring captured the story leading up to the death.
        names = [event["name"] for event in bundle["events"]]
        assert "job.submitted" in names
        assert all(event["cat"] in ("serve", "obs")
                   for event in bundle["events"])

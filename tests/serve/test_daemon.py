"""End-to-end serve daemon tests: the ISSUE's acceptance demos.

Each test runs a real daemon (forked worker fleet, Unix socket) and a
real client.  The load-bearing assertions are byte-level: a served
result equals the canonical bytes of a direct in-process run of the
same job — for plain runs and for cache hits.  What one worker does
with one job (assign, preempt and resume, die and be requeued) is
``test_fleet.py``, once per carrier.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time

import pytest

from repro.common.config import SimulationConfig, TelemetryConfig
from repro.common.errors import ServeError
from repro.distrib.wire import WIRE_VERSION, WorkloadRef, decode_frame
from repro.net.listener import connect_unix
from repro.serve.client import ServeClient
from repro.serve.daemon import SimServer
from repro.serve.store import canonical_result_bytes
from repro.sim.simulator import Simulator

#: Problem size that runs in ~tens of milliseconds.
FAST_SCALE = 0.05
#: Problem size long enough (~1s) to be preempted or cancelled.
LONG_SCALE = 10.0


def _config(seed: int) -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=2, seed=seed)
    cfg.host.quantum_instructions = 200
    return cfg


def _direct_bytes(seed: int, workload: str, scale: float) -> bytes:
    """Canonical bytes of an undisturbed in-process run."""
    result = Simulator(_config(seed)).run(
        WorkloadRef(workload, 2, scale))
    return canonical_result_bytes(result)


@contextlib.contextmanager
def running_server(**kwargs):
    # A short tempdir, not pytest's tmp_path: the spool holds an
    # AF_UNIX socket and those paths cap out around 107 characters.
    root = tempfile.mkdtemp(dir="/tmp", prefix="rs-")
    server = SimServer(root, **kwargs).start()
    client = ServeClient(server.socket_path)
    try:
        client.wait_up()
        yield server, client
    finally:
        server.stop()
        shutil.rmtree(root, ignore_errors=True)


def _always_kill_program(ctx):
    yield from ctx.compute(50)
    os.kill(os.getpid(), signal.SIGKILL)
    yield from ctx.compute(1)  # pragma: no cover - never reached


def test_fleet_serves_concurrent_submissions_byte_identical():
    """One fleet, four concurrent submissions, every served result
    byte-identical to its direct in-process run."""
    with running_server(fleet=2) as (server, client):
        seeds = [11, 12, 13, 14]
        views = [client.submit(config=_config(seed),
                               workload="matrix_multiply", nthreads=2,
                               scale=FAST_SCALE)
                 for seed in seeds]
        finals = [client.wait(view["job_id"], timeout=120)
                  for view in views]
        assert [v["state"] for v in finals] == ["done"] * 4
        for seed, view in zip(seeds, views):
            served = client.fetch_result(view["job_id"])
            assert canonical_result_bytes(served) == _direct_bytes(
                seed, "matrix_multiply", FAST_SCALE)
        stats = client.stats()
        assert stats["submitted"] == 4
        assert stats["states"] == {"done": 4}


def test_submit_names_a_kernel_not_yet_loaded(monkeypatch):
    """The daemon checks a workload against the kernel table, not the
    factories loaded so far; the worker loads the module it runs."""
    from repro.workloads.base import WORKLOADS
    monkeypatch.delitem(WORKLOADS, "radix", raising=False)
    monkeypatch.delitem(sys.modules, "repro.workloads.radix",
                        raising=False)
    with running_server(fleet=1) as (server, client):
        view = client.submit(config=_config(5), workload="radix",
                             nthreads=2, scale=FAST_SCALE)
        assert client.wait(view["job_id"], timeout=120)["state"] == "done"
        served = client.fetch_result(view["job_id"])
    assert canonical_result_bytes(served) == _direct_bytes(
        5, "radix", FAST_SCALE)


def test_duplicate_submission_is_a_cache_hit():
    with running_server(fleet=1) as (server, client):
        first = client.submit(config=_config(21),
                              workload="matrix_multiply", nthreads=2,
                              scale=FAST_SCALE)
        client.wait(first["job_id"], timeout=120)
        second = client.submit(config=_config(21),
                               workload="matrix_multiply", nthreads=2,
                               scale=FAST_SCALE)
        # Provably-correct hit: same key, state cached, never queued.
        assert second["state"] == "cached"
        assert second["key"] == first["key"]
        assert second["attempts"] == 0
        a = client.fetch_result(first["job_id"])
        b = client.fetch_result(second["job_id"])
        assert canonical_result_bytes(a) == canonical_result_bytes(b)
        assert client.stats()["cache_hits"] == 1


def test_a_corrupt_stored_result_is_refused_not_served():
    """A cached result whose blob fails its checksum is an error
    naming the key, never a cache hit with someone else's numbers, and
    the next submission of the job computes it again."""
    with running_server(fleet=1) as (server, client):
        view = client.submit(config=_config(22),
                             workload="matrix_multiply", nthreads=2,
                             scale=FAST_SCALE)
        assert client.wait(view["job_id"], timeout=120)["state"] == "done"
        blob_path = os.path.join(server.store.path_for(view["key"]),
                                 "result.json")
        with open(blob_path, "rb") as handle:
            blob = handle.read()
        at = blob.index(b'"simulated_cycles":') + len(b'"simulated_cycles":')
        digit = b"1" if blob[at:at + 1] != b"1" else b"2"
        with open(blob_path, "wb") as handle:
            handle.write(blob[:at] + digit + blob[at + 1:])
        with pytest.raises(ServeError, match="corrupt") as refused:
            client.fetch(view["job_id"])
        assert view["key"] in str(refused.value)
        # A corrupt copy is a miss: submitting again runs the job and
        # replaces it with the right answer.
        again = client.submit(config=_config(22),
                              workload="matrix_multiply", nthreads=2,
                              scale=FAST_SCALE)
        assert again["state"] != "cached"
        assert client.wait(again["job_id"], timeout=120)["state"] == "done"
        assert canonical_result_bytes(
            client.fetch_result(again["job_id"])) == _direct_bytes(
                22, "matrix_multiply", FAST_SCALE)


def test_seed_flip_misses_the_cache():
    with running_server(fleet=1) as (server, client):
        first = client.submit(config=_config(31),
                              workload="matrix_multiply", nthreads=2,
                              scale=FAST_SCALE)
        client.wait(first["job_id"], timeout=120)
        flipped = client.submit(config=_config(32),
                                workload="matrix_multiply", nthreads=2,
                                scale=FAST_SCALE)
        assert flipped["state"] != "cached"
        assert flipped["key"] != first["key"]
        assert client.wait(flipped["job_id"],
                           timeout=120)["state"] == "done"
        assert client.stats()["cache_hits"] == 0


def test_retry_budget_exhaustion_fails_the_job():
    with running_server(fleet=1, max_attempts=2) as (server, client):
        view = client.submit(config=_config(42),
                             program=_always_kill_program)
        final = client.wait(view["job_id"], timeout=120)
        assert final["state"] == "failed"
        assert final["deaths"] == 2
        assert "retry budget" in final["error"]
        # The fleet survives its losses: the next job still runs.
        follow = client.submit(config=_config(43),
                               workload="matrix_multiply", nthreads=2,
                               scale=FAST_SCALE)
        assert client.wait(follow["job_id"],
                           timeout=120)["state"] == "done"


def test_cancel_queued_and_running_jobs():
    with running_server(fleet=1) as (server, client):
        runner = client.submit(config=_config(51),
                               workload="matrix_multiply", nthreads=2,
                               scale=LONG_SCALE)
        queued = client.submit(config=_config(52),
                               workload="matrix_multiply", nthreads=2,
                               scale=FAST_SCALE)
        # Cancelling a queued job fails it immediately.
        view = client.cancel(queued["job_id"])
        assert view["state"] == "failed"
        assert view["error"] == "cancelled by client"
        # Cancelling the runner rides the preemption path.
        client.cancel(runner["job_id"])
        final = client.wait(runner["job_id"], timeout=120)
        assert final["state"] == "failed"
        assert final["error"] == "cancelled by client"
        # Terminal jobs cannot be re-cancelled; unknown ids are errors.
        with pytest.raises(ServeError, match="already failed"):
            client.cancel(runner["job_id"])
        with pytest.raises(ServeError, match="unknown job"):
            client.cancel("job-999999")


def test_submit_validation_errors():
    with running_server(fleet=1) as (server, client):
        with pytest.raises(ServeError, match="unknown workload"):
            client.submit(config=_config(1), workload="not-a-workload")
        with pytest.raises(ServeError, match="exactly one"):
            client.submit(config=_config(1))
        with pytest.raises(ServeError, match="bad job config"):
            client.request("submit", {
                "config": {"num_tiles": 0}, "workload": "fft"})
        with pytest.raises(ServeError, match="not fetchable"):
            view = client.submit(config=_config(1), workload="fft",
                                 nthreads=2, scale=LONG_SCALE)
            client.fetch(view["job_id"])


def test_job_states_surface_on_the_telemetry_bus():
    telemetry = TelemetryConfig(enabled=True, events=["serve"])
    with running_server(fleet=1, telemetry=telemetry) \
            as (server, client):
        view = client.submit(config=_config(61),
                             workload="matrix_multiply", nthreads=2,
                             scale=FAST_SCALE)
        client.wait(view["job_id"], timeout=120)
        client.submit(config=_config(61), workload="matrix_multiply",
                      nthreads=2, scale=FAST_SCALE)
        names = {event.name for event in server.bus.events}
        assert {"server.started", "worker.spawned", "job.submitted",
                "job.started", "job.done", "job.cached"} <= names
        categories = {event.category_name
                      for event in server.bus.events}
        assert categories == {"serve"}


def test_status_list_and_ping_verbs():
    with running_server(fleet=1) as (server, client):
        assert client.ping()["protocol"] == WIRE_VERSION
        assert client.alive()
        view = client.submit(config=_config(71),
                             workload="matrix_multiply", nthreads=2,
                             scale=FAST_SCALE)
        client.wait(view["job_id"], timeout=120)
        jobs = client.list_jobs()
        assert [job["job_id"] for job in jobs] == [view["job_id"]]
        with pytest.raises(ServeError, match="unknown job"):
            client.status("job-424242")


def test_torn_and_oversized_frames_leave_the_daemon_quiet(capfd):
    """A client that hangs up mid-frame — in the handshake or after it
    — is a hang-up, not a daemon fault; an oversized length prefix or
    an undecodable frame is answered like any other bad request.  None
    reaches the daemon's stderr, and the pump serves on."""
    import struct

    from repro.net.frames import MAX_FRAME_BYTES

    with running_server(fleet=1) as (server, client):
        with socket.socket(socket.AF_UNIX) as torn:
            torn.connect(server.socket_path)
            torn.sendall(b"\x00\x00")
        assert client.alive()  # served after the torn one was
        torn, _welcome = connect_unix(server.socket_path, WIRE_VERSION)
        torn.sock.sendall(b"\x00\x00")
        torn.close()
        assert client.alive()
        for bad in (struct.pack(">I", MAX_FRAME_BYTES + 1),
                    struct.pack(">I", 3) + b"\x80\x05."):
            channel, _welcome = connect_unix(server.socket_path,
                                             WIRE_VERSION)
            channel.sock.sendall(bad)
            kind, payload = decode_frame(channel.recv_bytes())
            channel.close()
            assert kind == "error"
            assert "limit" in payload["error"] or \
                "undecodable" in payload["error"]
        assert client.alive()
    assert capfd.readouterr().err == ""


def test_a_rogue_handshake_at_the_client_door_is_skipped(capfd):
    """Valid JSON that is no handshake frame fails the dial-in alone:
    the pump rejects it quietly and answers the next ping."""
    from repro.net.frames import send_frame

    with running_server(fleet=1) as (server, client):
        with socket.socket(socket.AF_UNIX) as rogue:
            rogue.connect(server.socket_path)
            send_frame(rogue, b"5")
            assert client.ping()["fleet"] == 1
        assert client.alive()
    assert capfd.readouterr().err == ""


def test_one_client_is_one_connection():
    """A client dials once and keeps its channel: twenty verbs cost
    the daemon exactly one accept."""
    with running_server(fleet=1) as (server, _client):
        door = server._listener
        accept = door.accept
        accepted = []

        def counting(timeout=0.0):
            pair = accept(timeout)
            if pair is not None:
                accepted.append(pair)
            return pair

        door.accept = counting
        client = ServeClient(server.socket_path)
        for i in range(20):
            if i % 2:
                client.ping()
            else:
                client.stats()
        assert len(accepted) == 1
        client.close()


def test_the_pump_is_the_only_service_thread():
    with running_server(fleet=1) as (server, client):
        names = {thread.name for thread in threading.enumerate()}
        assert "serve-pump" in names
        assert not any("listen" in name for name in names)
        assert client.alive()


def test_a_stalled_client_costs_the_pump_a_bounded_wait():
    """A client that writes half a frame header and goes quiet is
    dropped after the stall bound; meanwhile a running job's result
    is still stored and a second client is still answered."""
    from repro.serve import daemon as daemon_module

    bound = daemon_module._CLIENT_STALL
    with running_server(fleet=1) as (server, client):
        view = client.submit(config=_config(17), workload="matrix_multiply",
                             nthreads=2, scale=FAST_SCALE)
        stalled, _welcome = connect_unix(server.socket_path, WIRE_VERSION)
        stalled.sock.sendall(b"\x00\x00")
        second = ServeClient(server.socket_path)
        start = time.monotonic()
        assert second.ping()["fleet"] == 1
        assert time.monotonic() - start < bound + 2.0
        assert client.wait(view["job_id"], timeout=60)["state"] == "done"
        assert client.fetch_result(view["job_id"]) is not None
        # The stalled client was dropped, not left wedged in the pump.
        assert stalled.poll(bound + 2.0)
        stalled.close()
        second.close()


def test_cli_verbs_against_a_live_daemon(capsys):
    """The repro submit/status/fetch CLI speaks to a real daemon."""
    from repro.cli import main
    with running_server(fleet=1) as (server, client):
        spool = server.root
        assert main(["submit", "--dir", spool,
                     "--workload", "matrix_multiply", "--tiles", "2",
                     "--scale", str(FAST_SCALE), "--seed", "81",
                     "--quantum", "200", "--wait"]) == 0
        out = capsys.readouterr().out
        assert "done" in out
        job_id = out.split()[0]
        assert main(["status", "--dir", spool]) == 0
        status_out = capsys.readouterr().out
        assert job_id in status_out
        assert "submitted=1" in status_out
        assert main(["fetch", "--dir", spool, job_id]) == 0
        fetch_out = capsys.readouterr().out
        assert "simulated cycles" in fetch_out


def test_cli_fails_cleanly_without_a_daemon(capsys):
    from repro.cli import main
    root = tempfile.mkdtemp(dir="/tmp", prefix="rs-")
    try:
        assert main(["status", "--dir", root]) == 1
        assert "cannot reach serve daemon" in capsys.readouterr().err
        assert main(["serve", "--dir", root, "--stop"]) == 1
    finally:
        shutil.rmtree(root, ignore_errors=True)

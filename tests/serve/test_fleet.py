"""One fleet, two carriers: the same slot class and child loop whether
the worker is a forked child on a ``PipeChannel`` or a ``repro worker
--connect`` dial-in on a ``TcpChannel``.

Every case runs once per carrier.  The only thing allowed to differ is
what a death costs: a forked child is forked again in place, a
vanished remote host takes its slot with it — the job survives both.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import time

import pytest

from repro.common.config import TelemetryConfig
from repro.distrib.wire import WIRE_VERSION, WorkloadRef
from repro.net.listener import NetListener, connect_worker
from repro.serve.fleet import FleetSlot, run_fleet_child
from repro.serve.store import canonical_result_bytes
from tests.serve.test_daemon import (
    FAST_SCALE,
    LONG_SCALE,
    _config,
    _direct_bytes,
    running_server,
)

CARRIERS = ("pipe", "tcp")


def _dial_in_main(address: str) -> None:
    """What ``repro worker --connect`` does once welcomed by a daemon."""
    channel, welcome = connect_worker(address, WIRE_VERSION,
                                      timeout=10.0)
    assert welcome.role == "serve"
    run_fleet_child(channel)


def _dial(address: str) -> multiprocessing.Process:
    proc = multiprocessing.get_context("fork").Process(
        target=_dial_in_main, args=(address,), daemon=True)
    proc.start()
    return proc


def _wait_until(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


def _dial_into(server, procs: list) -> None:
    """One more ``repro worker --connect`` joins ``server``'s fleet."""
    procs.append(_dial(server.listen_address))
    _wait_until(lambda: server.workers, 10, "remote worker never joined")


@contextlib.contextmanager
def one_worker_server(carrier: str):
    """A daemon whose whole fleet is one worker on ``carrier``; also
    yields the dial-in processes started so far (none for pipes)."""
    telemetry = TelemetryConfig(enabled=True, events=["serve"])
    fleet = (dict(fleet=1) if carrier == "pipe"
             else dict(fleet=0, listen="127.0.0.1:0"))
    procs: list = []
    try:
        with running_server(telemetry=telemetry, **fleet) \
                as (server, client):
            if carrier == "tcp":
                _dial_into(server, procs)
            assert len(server.workers) == 1
            yield server, client, procs
        # The daemon's stop sent ``shutdown``: dial-ins exit cleanly.
        for proc in procs:
            proc.join(timeout=30.0)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)


def _kill_once_program(ctx, flag_path):
    """Takes its worker down with it on the first attempt only."""
    yield from ctx.compute(50)
    if not os.path.exists(flag_path):
        with open(flag_path, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    yield from ctx.compute(50)


def _event_names(server) -> set:
    return {event.name for event in server.bus.events}


@pytest.mark.parametrize("carrier", CARRIERS)
def test_assigned_job_returns_byte_identical(carrier):
    with one_worker_server(carrier) as (server, client, procs):
        view = client.submit(config=_config(91),
                             workload="matrix_multiply", nthreads=2,
                             scale=FAST_SCALE)
        assert client.wait(view["job_id"], timeout=120)["state"] == "done"
        served = client.fetch_result(view["job_id"])
        assert canonical_result_bytes(served) == _direct_bytes(
            91, "matrix_multiply", FAST_SCALE)
        assert ("worker.spawned" if carrier == "pipe"
                else "worker.joined") in _event_names(server)
    # A dial-in that honoured the shutdown frame exits 0.
    assert [proc.exitcode for proc in procs] == [0] * len(procs)


@pytest.mark.parametrize("carrier", CARRIERS)
def test_preempted_job_checkpoints_and_resumes_byte_identical(carrier):
    """A higher-priority arrival checkpoints the runner off the only
    worker — the signal rides the job channel on either carrier — and
    the preempted job later resumes to a result byte-identical to an
    undisturbed run."""
    with one_worker_server(carrier) as (server, client, _procs):
        low = client.submit(config=_config(1),
                            workload="matrix_multiply", nthreads=2,
                            scale=LONG_SCALE, priority=0)
        _wait_until(lambda: client.status(
            low["job_id"])["state"] == "running", 30, "job never started")
        high = client.submit(config=_config(2), workload="fft",
                             nthreads=2, scale=0.1, priority=5)
        assert client.wait(high["job_id"], timeout=120)["state"] == "done"
        low_final = client.wait(low["job_id"], timeout=300)
        assert low_final["state"] == "done"
        assert low_final["preemptions"] >= 1
        assert client.stats()["preemptions"] >= 1
        served = client.fetch_result(low["job_id"])
        assert canonical_result_bytes(served) == _direct_bytes(
            1, "matrix_multiply", LONG_SCALE)


@pytest.mark.parametrize("carrier", CARRIERS)
def test_sigkilled_worker_requeues_its_job_within_budget(carrier,
                                                         tmp_path):
    """SIGKILL mid-job: a forked child is respawned in its slot, a
    remote host's slot leaves the fleet (fresh capacity must dial in);
    either way the job is requeued, charged one death, and finishes."""
    flag = str(tmp_path / "died-once")
    with one_worker_server(carrier) as (server, client, procs):
        slot = server.workers[0]
        view = client.submit(config=_config(41),
                             program=_kill_once_program, args=(flag,))
        _wait_until(lambda: server.worker_deaths, 30,
                    "worker never died")
        if carrier == "pipe":
            assert server.workers == [slot]  # same slot, new child
        else:
            _wait_until(lambda: not server.workers, 10,
                        "dead slot never removed")
            assert client.status(view["job_id"])["state"] == "queued"
            _dial_into(server, procs)
        final = client.wait(view["job_id"], timeout=120)
        assert final["state"] == "done"
        assert final["deaths"] == 1
        assert final["attempts"] == 2
        assert client.stats()["worker_deaths"] == 1
        names = _event_names(server)
        assert "job.requeued" in names
        assert ("worker.left" in names) == (carrier == "tcp")


# -- the slot itself, no daemon ----------------------------------------------


@contextlib.contextmanager
def one_slot(carrier: str):
    """A bare :class:`FleetSlot` with a live worker behind it."""
    if carrier == "pipe":
        slot, proc, listener = FleetSlot.fork(0, "test-fleet-0"), None, None
    else:
        listener = NetListener("127.0.0.1:0", role="serve",
                               wire_version=WIRE_VERSION)
        proc = _dial(listener.address)
        channel, _hello = listener.accept(10.0)
        slot = FleetSlot(0, channel)
    try:
        yield slot
    finally:
        slot.shutdown()
        if proc is not None:
            proc.join(timeout=10.0)
            listener.close()


def _run_on(slot: FleetSlot, job_id: str, seed: int, scale: float):
    slot.assign(job_id, (job_id, _config(seed),
                         WorkloadRef("matrix_multiply", 2, scale), (),
                         None))
    assert slot.job == job_id
    assert slot.channel.poll(120), f"{job_id} never reported"


@pytest.mark.parametrize("carrier", CARRIERS)
def test_stale_preempt_does_not_leak_into_the_next_job(carrier):
    """A ``preempt`` that lost the race with its job's completion
    reaches the child between jobs; the next occupant of the worker
    must run undisturbed."""
    with one_slot(carrier) as slot:
        assert (slot.respawn is not None) == (carrier == "pipe")
        _run_on(slot, "first", 5, FAST_SCALE)
        # The result is in, the supervisor has not looked yet: this
        # preempt is aimed at a job that no longer runs.
        slot.preempt()
        assert slot.preempt_pending
        job_id, status, _payload = slot.take_result()
        assert (job_id, status) == ("first", "ok")
        assert slot.job is None and not slot.preempt_pending
        _run_on(slot, "second", 6, 1.0)
        job_id, status, result = slot.take_result()
        assert (job_id, status) == ("second", "ok"), result
        assert canonical_result_bytes(result) == _direct_bytes(
            6, "matrix_multiply", 1.0)

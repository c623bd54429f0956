"""WorkerCluster failure surfaces over both carriers (pipe and TCP).

The satellite contract: a peer that closes mid-frame, exits nonzero,
or fails the handshake must produce the right *typed* error promptly —
never a hang, never a bare builtin.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import struct
import threading

import pytest

from repro.common.config import SimulationConfig
from repro.distrib.coordinator import WorkerCluster
from repro.distrib.errors import WorkerCrashError
from repro.distrib.wire import WIRE_VERSION, FrameKind
from repro.host.cluster import ClusterLayout
from repro.net.handshake import HandshakeError
from repro.net.listener import connect_worker
from repro.net.frames import send_frame


def _dial_with_retry(port: int, wire_version: int, deadline: float = 10.0):
    """Dial a listener that a concurrent thread is still binding."""
    import time
    stop = time.monotonic() + deadline
    while True:
        try:
            return connect_worker(f"127.0.0.1:{port}", wire_version,
                                  timeout=5.0)
        except HandshakeError as exc:
            if "cannot reach" not in str(exc) or \
                    time.monotonic() > stop:
                raise
            time.sleep(0.02)


@contextlib.contextmanager
def _rogue(port: int, hello: bytes):
    """A raw dial-in whose opening handshake frame is ``hello``."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        send_frame(sock, hello)
        yield sock


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _config(transport: str, **distrib) -> SimulationConfig:
    cfg = SimulationConfig(num_tiles=4, seed=5)
    cfg.host.num_machines = 2
    cfg.host.cores_per_machine = 2
    cfg.distrib.transport = transport
    cfg.distrib.worker_timeout = 10.0
    cfg.distrib.shutdown_timeout = 2.0
    for key, value in distrib.items():
        setattr(cfg.distrib, key, value)
    cfg.validate()
    return cfg


@pytest.mark.parametrize("transport", ["pipe", "tcp"])
def test_killed_worker_is_crash_with_exit_code_not_hang(transport):
    cfg = _config(transport)
    layout = ClusterLayout(cfg.num_tiles, cfg.host)
    with WorkerCluster(layout, cfg) as cluster:
        victim = cluster._channels[1].proc
        assert victim is not None  # self-dialed TCP workers are local
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        with pytest.raises(WorkerCrashError, match="worker 1"):
            cluster.send(1, FrameKind.COLLECT_STATS, None)
            cluster.recv(1)


@pytest.mark.parametrize("transport", ["pipe", "tcp"])
def test_clean_peer_close_is_crash_error_not_hang(transport):
    """A worker that exits its loop (GOODBYE) closes the channel; a
    subsequent recv must fail typed, on both carriers."""
    cfg = _config(transport)
    layout = ClusterLayout(cfg.num_tiles, cfg.host)
    with WorkerCluster(layout, cfg) as cluster:
        cluster.send(0, FrameKind.GOODBYE, None)
        proc = cluster._channels[0].proc
        if proc is not None:
            proc.join(timeout=5.0)
        with pytest.raises(WorkerCrashError, match="worker 0"):
            cluster.recv(0)


def test_tcp_peer_closing_mid_frame_is_crash_error():
    """A remote worker dying halfway through a frame write surfaces as
    a crash, not a hang on the missing bytes."""
    port = _free_port()
    cfg = _config("tcp", listen=f"127.0.0.1:{port}", expect_workers=1,
                  connect_timeout=10.0)
    layout = ClusterLayout(cfg.num_tiles, cfg.host)

    def _half_frame_worker():
        channel, _welcome = _dial_with_retry(port, WIRE_VERSION)
        channel.recv_bytes()  # the HELLO
        # Claim 1000 bytes, deliver 9, vanish.
        channel.sock.sendall(struct.pack(">I", 1000) + b"half-sent")
        channel.close()

    thread = threading.Thread(target=_half_frame_worker)
    thread.start()
    cluster = WorkerCluster(layout, cfg)
    try:
        with pytest.raises(WorkerCrashError, match="worker 0"):
            cluster.recv(0)
    finally:
        thread.join(timeout=5.0)
        cluster.shutdown()


def test_tcp_handshake_version_mismatch_fails_both_sides():
    """During cluster formation a mismatched dialer is fatal and typed
    on the coordinator, and rejected with the reason on the worker."""
    port = _free_port()
    cfg = _config("tcp", listen=f"127.0.0.1:{port}", expect_workers=1,
                  connect_timeout=10.0)
    layout = ClusterLayout(cfg.num_tiles, cfg.host)
    worker_error = {}

    def _stale_worker():
        try:
            _dial_with_retry(port, WIRE_VERSION - 1)
        except HandshakeError as exc:
            worker_error["exc"] = exc

    thread = threading.Thread(target=_stale_worker)
    thread.start()
    with pytest.raises(HandshakeError, match="wire mismatch"):
        WorkerCluster(layout, cfg)
    thread.join(timeout=5.0)
    assert "wire mismatch" in str(worker_error["exc"])


def test_mid_run_join_rejects_mismatched_peer_without_dying():
    """After formation, a bad dial-in is skipped by poll_joins — the
    running cluster keeps serving its existing workers."""
    port = _free_port()
    cfg = _config("tcp", listen=f"127.0.0.1:{port}")
    layout = ClusterLayout(cfg.num_tiles, cfg.host)
    with WorkerCluster(layout, cfg) as cluster:
        with pytest.raises(HandshakeError):
            connect_worker(f"127.0.0.1:{port}", WIRE_VERSION + 7,
                           timeout=10.0)
        assert cluster.poll_joins() == []
        # Valid JSON that is no handshake frame is rejected the same way.
        with _rogue(port, b"5"):
            assert cluster.poll_joins() == []
        assert cluster.workers() == [0, 1]
        stats = cluster.collect_stats()
        assert len(stats) == 2


def test_mid_run_join_registers_a_tileless_worker():
    port = _free_port()
    cfg = _config("tcp", listen=f"127.0.0.1:{port}")
    layout = ClusterLayout(cfg.num_tiles, cfg.host)
    joined = {}

    def _joiner():
        channel, welcome = connect_worker(f"127.0.0.1:{port}",
                                          WIRE_VERSION, timeout=10.0)
        joined["welcome"] = welcome
        joined["hello_blob"] = channel.recv_bytes()
        channel.close()

    with WorkerCluster(layout, cfg) as cluster:
        thread = threading.Thread(target=_joiner)
        thread.start()
        import time
        new = []
        for _ in range(250):
            new = cluster.poll_joins()
            if new:
                break
            time.sleep(0.02)
        thread.join(timeout=5.0)
        assert new == [2]
        assert cluster.tiles_of(2) == []
        assert cluster.workers() == [0, 1, 2]
        assert joined["welcome"].config_fingerprint == \
            cfg.content_hash()
        cluster._active[2] = False  # joiner hung up; skip its SHUTDOWN


def test_rogue_dial_ins_mid_run_leave_the_result_byte_identical():
    """Dial-ins that fail the handshake mid-run — a peer one version
    ahead, a frame that is JSON but no object — are skipped at the
    quantum boundary; the run finishes byte-identical to inproc."""
    from repro.distrib.wire import WorkloadRef
    from repro.net.handshake import Hello, encode_handshake
    from repro.serve.store import canonical_result_bytes
    from repro.sim.runner import create_simulator
    from repro.sim.simulator import Simulator

    ref = WorkloadRef("matrix_multiply", nthreads=4, scale=0.05)
    inproc = _config("pipe")
    inproc.distrib.backend = "inproc"
    port = _free_port()
    cfg = _config("tcp", listen=f"127.0.0.1:{port}")
    cfg.distrib.backend = "mp"
    cfg.host.quantum_instructions = 200
    inproc.host.quantum_instructions = 200
    ahead = encode_handshake(Hello(role="worker",
                                   wire_version=WIRE_VERSION + 1, pid=1,
                                   host="rogue"))
    sim = create_simulator(cfg)
    turns = {"n": 0}

    def _rogues_then_net(scheduler):
        turns["n"] += 1
        if turns["n"] == 2:
            with _rogue(port, ahead), _rogue(port, b"5"):
                sim._net_stage(scheduler)
            return
        sim._net_stage(scheduler)

    sim.scheduler.set_stage("net", 1, _rogues_then_net)
    result = sim.run(ref)
    assert turns["n"] > 2
    assert canonical_result_bytes(result) == canonical_result_bytes(
        Simulator(inproc).run(ref))

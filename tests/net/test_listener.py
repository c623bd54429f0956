"""Listener accept loop and the worker-side dialer."""

from __future__ import annotations

import threading
import time

import pytest

from repro.net.handshake import HandshakeError
from repro.net.listener import (
    NetListener,
    connect_unix,
    connect_worker,
    parse_address,
)


def test_parse_address():
    assert parse_address("10.0.0.7:4242") == ("10.0.0.7", 4242)
    assert parse_address(":9000") == ("127.0.0.1", 9000)
    with pytest.raises(ValueError, match="host:port"):
        parse_address("no-port-here")


def test_accept_times_out_to_none():
    listener = NetListener("127.0.0.1:0", role="coordinator",
                           wire_version=5)
    assert listener.accept(0.0) is None
    assert listener.accept(0.05) is None
    listener.close()


def test_an_empty_accept_is_a_poll_not_a_sleep():
    """The coordinator's net stage and the serve pump ask on every
    pass; with nobody waiting that must cost a poll(2), not the 1 ms a
    sub-millisecond socket timeout rounds up to."""
    listener = NetListener("127.0.0.1:0", role="coordinator",
                           wire_version=5)
    try:
        start = time.perf_counter()
        for _ in range(200):
            assert listener.accept(0.0) is None
        assert time.perf_counter() - start < 0.05
    finally:
        listener.close()


def test_unix_door_hands_out_a_framed_channel(tmp_path):
    path = str(tmp_path / "door.sock")
    listener = NetListener(path, role="serve", wire_version=5, unix=True)
    assert listener.address == path
    accepted = {}
    thread = threading.Thread(
        target=lambda: accepted.update(pair=listener.accept(5.0)))
    thread.start()
    channel, welcome = connect_unix(path, wire_version=5)
    thread.join(timeout=5.0)
    server_channel, hello = accepted["pair"]
    assert (welcome.role, hello.role) == ("serve", "client")
    channel.send_bytes(b"ping")
    assert server_channel.recv_bytes() == b"ping"
    channel.close()
    server_channel.close()
    listener.close()
    with pytest.raises(HandshakeError, match="connect failed"):
        connect_unix(str(tmp_path / "nobody.sock"), wire_version=5)


def test_dial_accept_round_trip_carries_fingerprint_and_pid():
    listener = NetListener("127.0.0.1:0", role="coordinator",
                           wire_version=5, config_fingerprint="f00d")
    accepted = {}

    def _accept():
        accepted["pair"] = listener.accept(5.0)

    thread = threading.Thread(target=_accept)
    thread.start()
    channel, welcome = connect_worker(listener.address, wire_version=5)
    thread.join(timeout=5.0)
    assert welcome.role == "coordinator"
    assert welcome.config_fingerprint == "f00d"
    server_channel, hello = accepted["pair"]
    assert hello.role == "worker"
    import os
    assert hello.pid == os.getpid()
    # The handshaken pair is a live framed byte path in both directions.
    channel.send_bytes(b"ping")
    assert server_channel.recv_bytes() == b"ping"
    server_channel.send_bytes(b"pong")
    assert channel.recv_bytes() == b"pong"
    channel.close()
    server_channel.close()
    listener.close()


def test_version_mismatch_fails_dialer_and_listener():
    listener = NetListener("127.0.0.1:0", role="coordinator",
                           wire_version=5)
    failures = {}

    def _accept():
        try:
            listener.accept(5.0)
        except HandshakeError as exc:
            failures["listener"] = exc

    thread = threading.Thread(target=_accept)
    thread.start()
    with pytest.raises(HandshakeError, match="wire mismatch"):
        connect_worker(listener.address, wire_version=4)
    thread.join(timeout=5.0)
    assert isinstance(failures.get("listener"), HandshakeError)
    listener.close()


def test_unreachable_listener_is_a_handshake_error():
    listener = NetListener("127.0.0.1:0", role="coordinator",
                           wire_version=5)
    address = listener.address
    listener.close()
    with pytest.raises(HandshakeError, match="cannot reach"):
        connect_worker(address, wire_version=5, timeout=1.0)

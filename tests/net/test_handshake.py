"""The hello/welcome exchange: round trips and loud version failures."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.net.handshake import (
    HandshakeError,
    Hello,
    Reject,
    Welcome,
    decode_handshake,
    encode_handshake,
    greet_dialer,
    greet_listener,
)


def test_frames_round_trip():
    for frame in (
        Hello(role="worker", wire_version=5, pid=42, host="box"),
        Welcome(role="coordinator", wire_version=5,
                config_fingerprint="abc123"),
        Reject(reason="wrong wire"),
    ):
        assert decode_handshake(encode_handshake(frame)) == frame


def test_decode_rejects_garbage():
    with pytest.raises(HandshakeError):
        decode_handshake(b"\x80\x04not json")
    with pytest.raises(HandshakeError):
        decode_handshake(b'{"kind": "no-such-frame"}')


@pytest.mark.parametrize("blob", [b"5", b'"x"', b"null"])
def test_json_that_is_not_an_object_is_a_handshake_error(blob):
    """Valid JSON but no frame: typed, so a listener's caller that
    skips bad dial-ins (a running cluster, the serve daemon's doors)
    survives it."""
    with pytest.raises(HandshakeError, match="not an object"):
        decode_handshake(blob)


def _paired_greet(listener_fn, dialer_fn):
    """Run both greeting halves over a socketpair; return their fates."""
    a, b = socket.socketpair()
    results = {}

    def _listener():
        try:
            results["listener"] = listener_fn(a)
        except Exception as exc:  # noqa: BLE001 - recorded for asserts
            results["listener"] = exc

    thread = threading.Thread(target=_listener)
    thread.start()
    try:
        results["dialer"] = dialer_fn(b)
    except Exception as exc:  # noqa: BLE001 - recorded for asserts
        results["dialer"] = exc
    thread.join(timeout=5.0)
    a.close()
    b.close()
    return results


def test_matched_versions_exchange_roles_and_fingerprint():
    results = _paired_greet(
        lambda s: greet_dialer(s, "coordinator", wire_version=5,
                               config_fingerprint="deadbeef"),
        lambda s: greet_listener(s, wire_version=5))
    hello = results["listener"]
    welcome = results["dialer"]
    assert isinstance(hello, Hello) and hello.role == "worker"
    assert isinstance(welcome, Welcome)
    assert welcome.role == "coordinator"
    assert welcome.config_fingerprint == "deadbeef"


def test_wire_version_skew_fails_both_ends():
    results = _paired_greet(
        lambda s: greet_dialer(s, "coordinator", wire_version=5,
                               config_fingerprint=""),
        lambda s: greet_listener(s, wire_version=4))
    assert isinstance(results["listener"], HandshakeError)
    assert isinstance(results["dialer"], HandshakeError)
    assert "wire" in str(results["dialer"]).lower()
    # The one version check names both sides' versions, on both ends.
    for end in ("listener", "dialer"):
        assert "v4" in str(results[end]) and "v5" in str(results[end])


def test_peer_vanishing_mid_handshake_is_a_handshake_error():
    a, b = socket.socketpair()
    b.close()
    with pytest.raises(HandshakeError):
        greet_listener(a, wire_version=5)
    a.close()

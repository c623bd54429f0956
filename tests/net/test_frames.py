"""Length-prefixed framing tests: round trips, truncation, limits."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.common.errors import TransportError
from repro.net.frames import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    recv_frame,
    send_frame,
)


def _pair():
    return socket.socketpair()


def test_round_trip_preserves_bytes():
    a, b = _pair()
    try:
        for payload in (b"", b"x", b"hello" * 1000, bytes(range(256))):
            send_frame(a, payload)
            assert recv_frame(b) == payload
    finally:
        a.close()
        b.close()


def test_frames_keep_boundaries():
    a, b = _pair()
    try:
        send_frame(a, b"first")
        send_frame(a, b"second")
        assert recv_frame(b) == b"first"
        assert recv_frame(b) == b"second"
    finally:
        a.close()
        b.close()


def test_large_frame_crosses_in_chunks():
    # Bigger than any single send/recv buffer, forcing partial reads.
    payload = b"\xab" * (4 * 1024 * 1024)
    a, b = _pair()
    try:
        writer = threading.Thread(target=send_frame, args=(a, payload))
        writer.start()
        received = recv_frame(b)
        writer.join()
        assert received == payload
    finally:
        a.close()
        b.close()


def test_oversized_frame_rejected_before_send():
    a, b = _pair()
    try:
        with pytest.raises(TransportError):
            send_frame(a, b"x" * (MAX_FRAME_BYTES + 1))
    finally:
        a.close()
        b.close()


def test_truncated_frame_raises():
    a, b = _pair()
    try:
        # Length prefix promises 100 bytes; deliver 3 and hang up.
        import struct
        a.sendall(struct.pack(">I", 100) + b"abc")
        a.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(b)
    finally:
        b.close()


"""Length-prefixed byte framing over stream sockets.

The byte-level building block under every socket-borne channel in the
repo (:class:`repro.net.channel.TcpChannel`, over TCP or a Unix
socket, and the handshake before it).  A frame is a 4-byte big-endian
length followed by that many payload bytes; the framing layer moves
opaque ``bytes`` and knows nothing about what they encode — schema and
versioning live with :mod:`repro.distrib.wire`.
"""

from __future__ import annotations

import socket
import struct

from repro.common.errors import TransportError

#: Frame length prefix: unsigned 32-bit big-endian.
_LENGTH = struct.Struct(">I")

#: Upper bound on one frame; a corrupt or hostile length prefix fails
#: here instead of as a multi-gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(TransportError):
    """The byte stream violated the framing discipline.

    Raised for an oversized length prefix (corrupt or hostile peer)
    and for truncated reads — every way a stream can stop being a
    sequence of well-formed frames, as one typed error callers can
    catch without also swallowing unrelated transport failures.
    """


class ConnectionClosed(FrameError):
    """The peer closed the stream (possibly mid-frame)."""


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`ConnectionClosed`."""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed(
                f"peer closed with {remaining} of {count} bytes unread")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame (blocking)."""
    length = _LENGTH.unpack(recv_exact(sock, _LENGTH.size))[0]
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"incoming frame claims {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return recv_exact(sock, length) if length else b""

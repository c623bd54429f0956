"""The hello/welcome exchange that opens every TCP channel.

Before a single pickle crosses a socket, the two ends exchange one
JSON frame each (over the :mod:`repro.net.frames` framing):

* the dialer sends a :class:`Hello` carrying its
  :data:`repro.distrib.wire.WIRE_VERSION` — the one version of every
  wire, handshake included — and which role it wants to play;
* the listener answers with a :class:`Welcome` carrying its own
  version, its role (``coordinator`` for a simulation, ``serve`` for
  a job daemon), and — for a coordinator — the config fingerprint
  (:meth:`~repro.common.config.SimulationConfig.content_hash`) of the
  run the worker is joining, or a :class:`Reject` naming why not.

Version skew fails both ends loudly with :class:`HandshakeError` at
connect time; no frame after this exchange carries a version.  JSON
(not pickle) keeps the exchange safe to run against an untrusted or
mismatched peer: nobody unpickles a byte from a peer it has not
greeted.

The frame schema below is covered by the W001 wire lint with the rest
of the wire: bump ``WIRE_VERSION`` on any incompatible change and
re-accept the manifest.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
from dataclasses import asdict, dataclass
from typing import Union

from repro.common.errors import TransportError
from repro.net.frames import FrameError, recv_frame, send_frame


class HandshakeError(TransportError):
    """The peer spoke a different protocol, version, or config.

    Based on :class:`~repro.common.errors.TransportError` (not the
    distrib hierarchy): :mod:`repro.net` sits below both consumers —
    the mp coordinator and the serve daemon — and must import
    neither.
    """


@dataclass(frozen=True)
class Hello:
    """Dialer's opening frame: who am I, which protocol do I speak."""

    role: str
    wire_version: int
    pid: int
    host: str


@dataclass(frozen=True)
class Welcome:
    """Listener's acceptance: its version, role and run fingerprint.

    ``trace`` is the listener's distributed-trace ID (empty when the
    run is untraced): a worker that joins mid-run tags its own
    telemetry with it so the merged timeline stays one span tree.
    """

    role: str
    wire_version: int
    config_fingerprint: str
    trace: str = ""


@dataclass(frozen=True)
class Reject:
    """Listener's refusal, with a human-readable reason."""

    reason: str


_KINDS = {"hello": Hello, "welcome": Welcome, "reject": Reject}
_NAMES = {cls: kind for kind, cls in _KINDS.items()}

HandshakeFrame = Union[Hello, Welcome, Reject]


def encode_handshake(message: HandshakeFrame) -> bytes:
    body = {"kind": _NAMES[type(message)]}
    body.update(asdict(message))
    return json.dumps(body, sort_keys=True).encode("utf-8")


def decode_handshake(blob: bytes) -> HandshakeFrame:
    try:
        body = json.loads(blob.decode("utf-8"))
        if not isinstance(body, dict):
            raise TypeError(f"a JSON {type(body).__name__}, not an object")
        cls = _KINDS[body.pop("kind")]
        return cls(**body)
    except (ValueError, KeyError, TypeError) as exc:
        raise HandshakeError(
            f"peer sent an undecodable handshake frame: {exc}") from exc


def _recv_handshake(sock: socket.socket) -> HandshakeFrame:
    try:
        return decode_handshake(recv_frame(sock))
    except FrameError as exc:
        raise HandshakeError(
            f"peer hung up during the handshake: {exc}") from exc


def _send_handshake(sock: socket.socket, frame: HandshakeFrame) -> None:
    try:
        send_frame(sock, encode_handshake(frame))
    except OSError as exc:
        raise HandshakeError(
            f"peer hung up during the handshake: {exc}") from exc


def greet_listener(sock: socket.socket, wire_version: int,
                   role: str = "worker") -> Welcome:
    """Dialer side: send Hello, validate the Welcome (or Reject)."""
    _send_handshake(sock, Hello(
        role=role, wire_version=wire_version, pid=os.getpid(),
        host=socket.gethostname()))
    reply = _recv_handshake(sock)
    if isinstance(reply, Reject):
        raise HandshakeError(f"listener rejected us: {reply.reason}")
    if not isinstance(reply, Welcome):
        raise HandshakeError(
            f"expected welcome, got {type(reply).__name__}")
    if reply.wire_version != wire_version:
        raise HandshakeError(
            f"pickle wire mismatch: peer speaks v{reply.wire_version}, "
            f"we speak v{wire_version}")
    return reply


def greet_dialer(sock: socket.socket, role: str, wire_version: int,
                 config_fingerprint: str, trace: str = "") -> Hello:
    """Listener side: validate the Hello, answer Welcome or Reject."""
    hello = _recv_handshake(sock)
    if not isinstance(hello, Hello):
        raise HandshakeError(
            f"expected hello, got {type(hello).__name__}")
    if hello.wire_version != wire_version:
        reason = (f"pickle wire mismatch: you speak "
                  f"v{hello.wire_version}, we speak v{wire_version}")
        with contextlib.suppress(HandshakeError):
            _send_handshake(sock, Reject(reason=reason))
        raise HandshakeError(
            f"rejected {hello.role} {hello.host}/{hello.pid}: {reason}")
    _send_handshake(sock, Welcome(
        role=role, wire_version=wire_version,
        config_fingerprint=config_fingerprint, trace=trace))
    return hello

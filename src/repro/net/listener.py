"""Listening doors and the dialers that knock on them.

A listener owns one bound stream socket — TCP for remote workers
(``repro worker --connect host:port``), or a Unix path for the serve
daemon's local clients.  Each accepted connection runs the
:mod:`repro.net.handshake` exchange before it becomes a
:class:`~repro.net.channel.TcpChannel`; a peer with a mismatched
version is rejected on the spot and never touches the pickle wire.

Accepting is deliberately pull-based — :meth:`NetListener.accept` with
an explicit timeout — because membership changes only at quantum
boundaries: the coordinator polls for dial-ins from its scheduler
hook, so a join can never interleave with a running quantum; asking
when nobody waits costs one ``poll(2)``, not a sleep.
"""

from __future__ import annotations

import select
import socket
import time
from typing import Any, Callable, Iterator, Optional, Tuple

from repro.net.channel import TcpChannel
from repro.net.handshake import (
    HandshakeError,
    Hello,
    Welcome,
    greet_dialer,
    greet_listener,
)

#: Seconds a half-open handshake may stall the accept loop.
_HANDSHAKE_TIMEOUT = 10.0
#: Seconds between dial retries while a coordinator is still binding.
_DIAL_RETRY = 0.1


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``host:port`` (host may be empty for wildcard bind)."""
    host, _, port = address.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise ValueError(
            f"bad address {address!r}; expected host:port") from None


class NetListener:
    """A bound, listening socket that hands out handshaken channels.

    ``address`` is ``host:port``, or a filesystem path when ``unix``.
    """

    def __init__(self, address: str, role: str, wire_version: int,
                 config_fingerprint: str = "", trace: str = "",
                 unix: bool = False) -> None:
        self.role = role
        self.wire_version = wire_version
        self.config_fingerprint = config_fingerprint
        self.trace = trace
        if unix:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.bind(address)
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind(parse_address(address))
        self._sock.listen(64)
        # Readiness comes from the poll; a dial-in that vanished between
        # the poll and the accept must not block the caller.
        self._sock.setblocking(False)
        self._poller = select.poll()
        self._poller.register(self._sock, select.POLLIN)

    @property
    def address(self) -> str:
        name = self._sock.getsockname()
        return name if isinstance(name, str) else f"{name[0]}:{name[1]}"

    def fileno(self) -> int:
        """The listening descriptor: readable when a dial-in waits."""
        return self._sock.fileno()

    def accept(self, timeout: float = 0.0
               ) -> Optional[Tuple[TcpChannel, Hello]]:
        """Accept and handshake one dial-in; ``None`` on timeout.

        Raises :class:`~repro.net.handshake.HandshakeError` when the
        peer connected but spoke the wrong protocol — the caller
        decides whether that is fatal (cluster formation) or merely
        reportable (a bad mid-run join attempt).
        """
        if not self._poller.poll(timeout * 1000.0):
            return None
        try:
            conn, addr = self._sock.accept()
        except (BlockingIOError, InterruptedError):
            return None
        peer = f"{addr[0]}:{addr[1]}" if addr else self.address
        return _handshaken(conn, peer, lambda sock: greet_dialer(
            sock, self.role, self.wire_version, self.config_fingerprint,
            trace=self.trace))

    def pending(self, rejected: Callable[[HandshakeError], Any]
                ) -> Iterator[Tuple[TcpChannel, Hello]]:
        """Every dial-in waiting now, handshaken, without blocking; one
        that fails the handshake is handed to ``rejected`` and skipped."""
        while True:
            try:
                accepted = self.accept(0.0)
            except HandshakeError as exc:
                rejected(exc)
                continue
            if accepted is None:
                return
            yield accepted

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def _handshaken(sock: socket.socket, peer: str,
                greet: Callable[[socket.socket], Any]
                ) -> Tuple[TcpChannel, Any]:
    """Run one side of the handshake (``greet``) on a connected socket
    under the handshake timeout: the socket as a blocking channel, and
    the peer's frame."""
    sock.settimeout(_HANDSHAKE_TIMEOUT)
    try:
        frame = greet(sock)
    except HandshakeError:
        sock.close()
        raise
    except OSError as exc:
        sock.close()
        raise HandshakeError(
            f"handshake with {peer} failed: {exc}") from exc
    sock.settimeout(None)
    if sock.family == socket.AF_INET:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpChannel(sock, peer=peer), frame


def connect_worker(address: str, wire_version: int,
                   timeout: float = 30.0,
                   role: str = "worker") -> Tuple[TcpChannel, Welcome]:
    """Dial a listener and handshake; the worker side of a join.

    ``timeout`` bounds the whole dial, retries included: workers and
    coordinator are launched independently (often by the same script,
    on different hosts), so a connection refused before the deadline
    means "not bound *yet*", not "wrong address".
    """
    host, port = parse_address(address)
    deadline = time.monotonic() + timeout
    while True:
        remaining = max(deadline - time.monotonic(), 0.001)
        try:
            sock = socket.create_connection((host, port),
                                            timeout=remaining)
            break
        except OSError as exc:
            if time.monotonic() + _DIAL_RETRY >= deadline:
                raise HandshakeError(
                    f"cannot reach coordinator at {address}: "
                    f"{exc}") from exc
            time.sleep(_DIAL_RETRY)
    return _handshaken(sock, address, lambda sock: greet_listener(
        sock, wire_version, role=role))


def connect_unix(path: str, wire_version: int,
                 role: str = "client") -> Tuple[TcpChannel, Welcome]:
    """Dial a Unix-socket listener once and handshake (no retries: a
    local daemon is either there or not)."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(_HANDSHAKE_TIMEOUT)
    try:
        sock.connect(path)
    except OSError as exc:
        sock.close()
        raise HandshakeError(f"connect failed: {exc}") from exc
    return _handshaken(sock, path, lambda sock: greet_listener(
        sock, wire_version, role=role))

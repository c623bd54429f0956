"""Coordinator-side TCP accept loop and the worker-side dialer.

A listener owns one bound TCP socket that remote workers dial into
(``repro worker --connect host:port``).  Each accepted connection runs
the :mod:`repro.net.handshake` exchange before it becomes a
:class:`~repro.net.channel.TcpChannel`; a peer with mismatched
versions is rejected on the spot and never touches the pickle wire.

Accepting is deliberately pull-based — :meth:`NetListener.accept` with
an explicit timeout — because membership changes only at quantum
boundaries: the coordinator polls for dial-ins from its scheduler
hook, so a join can never interleave with a running quantum.
"""

from __future__ import annotations

import socket
from typing import Optional, Tuple

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


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``host:port`` (host may be empty for wildcard bind)."""
    host, _, port = address.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise ValueError(
            f"bad address {address!r}; expected host:port") from None


class NetListener:
    """A bound, listening socket that hands out handshaken channels."""

    def __init__(self, address: str, role: str, wire_version: int,
                 config_fingerprint: str = "", trace: str = "") -> None:
        self.role = role
        self.wire_version = wire_version
        self.config_fingerprint = config_fingerprint
        self.trace = trace
        host, port = parse_address(address)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)

    @property
    def address(self) -> str:
        host, port = self._sock.getsockname()[:2]
        return f"{host}:{port}"

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
        self._sock.settimeout(timeout if timeout > 0 else 0.000001)
        try:
            conn, addr = self._sock.accept()
        except (socket.timeout, BlockingIOError):
            return None
        finally:
            self._sock.settimeout(None)
        conn.settimeout(_HANDSHAKE_TIMEOUT)
        try:
            hello = greet_dialer(conn, self.role, self.wire_version,
                                 self.config_fingerprint, trace=self.trace)
        except HandshakeError:
            conn.close()
            raise
        except OSError as exc:
            conn.close()
            raise HandshakeError(
                f"handshake with {addr!r} failed: {exc}") from exc
        conn.settimeout(None)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return TcpChannel(conn, peer=f"{addr[0]}:{addr[1]}"), hello

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


#: Seconds between dial retries while a coordinator is still binding.
_DIAL_RETRY = 0.1


def connect_worker(address: str, wire_version: int,
                   timeout: float = 30.0,
                   role: str = "worker") -> Tuple[TcpChannel, Welcome]:
    """Dial a listener and handshake; the worker side of a join.

    ``timeout`` bounds the whole dial, retries included: workers and
    coordinator are launched independently (often by the same script,
    on different hosts), so a connection refused before the deadline
    means "not bound *yet*", not "wrong address".
    """
    import time
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
    sock.settimeout(_HANDSHAKE_TIMEOUT)
    try:
        welcome = greet_listener(sock, wire_version, role=role)
    except HandshakeError:
        sock.close()
        raise
    except OSError as exc:
        sock.close()
        raise HandshakeError(
            f"handshake with {address} failed: {exc}") from exc
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpChannel(sock, peer=address), welcome

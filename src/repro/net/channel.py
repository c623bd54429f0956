"""Channel: the byte pipe a coordinator/worker pair speaks over.

The cluster logic (:mod:`repro.distrib.coordinator`) is written
against this small surface — blocking framed send/recv, a bounded
poll, best-effort liveness — so the same code drives a forked child
over a multiprocessing pipe and a remote worker over TCP (or a Unix
socket).  A channel moves opaque ``bytes``; the frames on top
(:mod:`repro.distrib.wire`) neither know nor care which transport
carried them, which is what keeps the paths byte-identical.

Close/crash semantics are normalized: any "the peer is gone" condition
(EOF, broken pipe, reset) surfaces as :class:`ChannelClosedError`, so
callers distinguish *dead peer* from *malformed traffic*
(:class:`~repro.net.frames.FrameError`) without transport-
specific except clauses.
"""

from __future__ import annotations

import select
import socket
from typing import Optional

from repro.common.errors import TransportError
from repro.net.frames import (
    ConnectionClosed,
    FrameError,
    recv_frame,
    send_frame,
)


class ChannelError(TransportError):
    """A channel operation failed below the wire format."""


class ChannelClosedError(ChannelError):
    """The peer end of the channel is gone (EOF, broken pipe, reset)."""


class Channel:
    """One framed, bidirectional byte pipe to a single peer.

    ``proc`` is the locally-spawned process behind the channel when
    there is one (forked pipe workers, self-dialed TCP workers) and
    ``None`` for remote peers — liveness then rests on the socket.
    """

    kind = "base"
    proc = None

    def __init__(self, fd: int) -> None:
        #: Registered once: a wait is then a single ``poll(2)`` with no
        #: per-call selector set-up, and — unlike ``select(2)`` — has
        #: no ``FD_SETSIZE`` ceiling on the descriptor number.
        self._poller = select.poll()
        self._poller.register(fd, select.POLLIN)
        self._fd = fd

    def send_bytes(self, blob: bytes) -> None:
        raise NotImplementedError

    def recv_bytes(self) -> bytes:
        raise NotImplementedError

    def poll(self, timeout: float = 0.0) -> bool:
        """True when a frame (or EOF) is ready to be received.

        Hang-up, error and closed-descriptor events count as ready:
        the ``recv_bytes`` that follows raises the closed error.
        """
        return bool(self._poller.poll(timeout * 1000.0))

    def fileno(self) -> int:
        """The descriptor :meth:`poll` watches, for a supervisor that
        blocks on many channels at once."""
        return self._fd

    def alive(self) -> bool:
        """Best-effort: could the peer still send us a frame?"""
        raise NotImplementedError

    def exitcode(self) -> Optional[int]:
        """Exit code of the peer process, when one is attached."""
        proc = self.proc
        return proc.exitcode if proc is not None else None

    def describe(self) -> str:
        return self.kind

    def close(self) -> None:
        raise NotImplementedError


class PipeChannel(Channel):
    """A duplex multiprocessing pipe, optionally owning the child."""

    kind = "pipe"

    def __init__(self, conn, proc=None) -> None:
        super().__init__(conn.fileno())
        self.conn = conn
        self.proc = proc

    def send_bytes(self, blob: bytes) -> None:
        try:
            self.conn.send_bytes(blob)
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise ChannelClosedError(f"pipe closed: {exc}") from exc

    def recv_bytes(self) -> bytes:
        try:
            return self.conn.recv_bytes()
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise ChannelClosedError(f"pipe closed: {exc}") from exc

    def poll(self, timeout: float = 0.0) -> bool:
        # A closed descriptor number may already name another file.
        return self.conn.closed or super().poll(timeout)

    def alive(self) -> bool:
        if self.proc is not None:
            return self.proc.is_alive()
        return not self.conn.closed

    def describe(self) -> str:
        if self.proc is not None:
            return f"pipe pid {self.proc.pid}"
        return "pipe"

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class TcpChannel(Channel):
    """A connected stream socket under length-prefixed framing (TCP,
    or a Unix socket: ``peer`` names the other end either way)."""

    kind = "tcp"

    def __init__(self, sock: socket.socket, peer: str, proc=None) -> None:
        super().__init__(sock.fileno())
        self.sock = sock
        self.proc = proc
        self._closed = False
        self._eof = False
        self.peer = peer

    def send_bytes(self, blob: bytes) -> None:
        try:
            send_frame(self.sock, blob)
        except FrameError:
            raise
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            self._eof = True
            raise ChannelClosedError(
                f"tcp peer {self.peer} gone: {exc}") from exc

    def recv_bytes(self) -> bytes:
        try:
            return recv_frame(self.sock)
        except ConnectionClosed as exc:
            self._eof = True
            raise ChannelClosedError(
                f"tcp peer {self.peer} closed: {exc}") from exc
        except FrameError:
            raise  # protocol violation, not a dead peer
        except (ConnectionError, OSError) as exc:
            self._eof = True
            raise ChannelClosedError(
                f"tcp peer {self.peer} gone: {exc}") from exc

    def poll(self, timeout: float = 0.0) -> bool:
        return self._closed or self._eof or super().poll(timeout)

    def alive(self) -> bool:
        """Liveness without consuming data: peek one byte nonblocking.

        The peek is the arbiter even when ``proc`` has exited: frames
        the dead process wrote may still sit unread in the socket
        buffer, and the channel stays alive until they are consumed.
        """
        if self._closed or self._eof:
            return False
        try:
            chunk = self.sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
        except (BlockingIOError, InterruptedError):
            return True
        except OSError:
            self._eof = True
            return False
        if chunk == b"":
            self._eof = True
            return False
        return True

    def describe(self) -> str:
        return f"tcp {self.peer}"

    def close(self) -> None:
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

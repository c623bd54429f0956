"""Channel: the byte pipe a coordinator/worker pair speaks over.

The cluster logic (:mod:`repro.distrib.coordinator`) is written
against this small surface — blocking framed send/recv, a bounded
poll, best-effort liveness — and every carrier is a stream socket
under one framing (:mod:`repro.net.frames`): a socketpair to a forked
child, TCP to a remote worker, or a Unix socket to a serve client.  A
channel moves opaque ``bytes``; the frames on top
(:mod:`repro.distrib.wire`) neither know nor care which transport
carried them, which is what keeps the paths byte-identical.

Close/crash semantics are normalized: any "the peer is gone" condition
(EOF, broken pipe, reset) surfaces as :class:`ChannelClosedError`, so
callers distinguish *dead peer* from *malformed traffic*
(:class:`~repro.net.frames.FrameError`) without transport-
specific except clauses.
"""

from __future__ import annotations

import multiprocessing
import select
import socket
import struct
from typing import Any, Callable, Optional

from repro.common.errors import TransportError
from repro.net.frames import ConnectionClosed, recv_frame, send_frame


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


class TcpChannel(Channel):
    """A connected stream socket under the length-prefixed framing of
    :mod:`repro.net.frames` — TCP, a Unix socket, or (as
    :class:`PipeChannel`) a socketpair to a forked child; ``peer``
    names the other end."""

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
        except OSError as exc:
            self._eof = True
            raise ChannelClosedError(
                f"{self.describe()} gone: {exc}") from exc

    def bound_frame_reads(self, seconds: float) -> None:
        """Fail a read that waits ``seconds`` for more of a frame with
        :class:`ChannelError` instead of blocking for good.  A kernel
        receive timeout: a read that does not stall pays nothing for it
        (a socket timeout would poll before every read)."""
        whole = int(seconds)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                             struct.pack("ll", whole,
                                         int((seconds - whole) * 1e6)))

    def recv_bytes(self) -> bytes:
        try:
            return recv_frame(self.sock)
        except ConnectionClosed as exc:
            self._eof = True
            raise ChannelClosedError(
                f"{self.describe()} closed: {exc}") from exc
        except BlockingIOError as exc:
            raise ChannelError(
                f"{self.describe()} stalled mid-frame") from exc
        except OSError as exc:
            self._eof = True
            raise ChannelClosedError(
                f"{self.describe()} gone: {exc}") from exc

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
        return f"{self.kind} {self.peer}".rstrip()

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


class PipeChannel(TcpChannel):
    """One end of a ``socket.socketpair()`` between a process and a
    child it forked (:func:`fork_child`): the same framing as TCP.
    Where this end owns the child, liveness is the child's process: a
    process the child forked holds a copy of the child's end, so EOF
    alone does not say the child died."""

    kind = "pipe"

    def __init__(self, sock: socket.socket, proc=None) -> None:
        super().__init__(sock, "" if proc is None else f"pid {proc.pid}",
                         proc)

    def alive(self) -> bool:
        if self.proc is not None:
            return self.proc.is_alive()
        return super().alive()


def fork_child(target: Callable[[Channel], Any], name: str) -> PipeChannel:
    """Fork a daemon child that runs ``target(channel)`` on its end of
    a fresh socketpair; returns this end, owning the child."""
    mine, theirs = socket.socketpair()
    proc = multiprocessing.get_context("fork").Process(
        target=_child_main, args=(target, theirs, mine), name=name,
        daemon=True)
    try:
        proc.start()
    finally:
        theirs.close()
    return PipeChannel(mine, proc)


def _child_main(target: Callable[[Channel], Any], sock: socket.socket,
                parent_end: socket.socket) -> None:  # pragma: no cover
    # The parent's end is the parent's: a copy held here would keep
    # this child from ever reading EOF once the parent is gone.
    parent_end.close()
    target(PipeChannel(sock))

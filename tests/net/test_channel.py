"""Channel semantics both carriers must share: framing, EOF, liveness.

Both are a stream socket under :mod:`repro.net.frames`: a socketpair to
a forked child (``PipeChannel``) or TCP (``TcpChannel``), so every
fault below is run on each."""

from __future__ import annotations

import socket
import struct

import pytest

from repro.net.channel import (
    ChannelClosedError,
    PipeChannel,
    TcpChannel,
    fork_child,
)
from repro.net.frames import FrameError


def _tcp_pair():
    a, b = socket.socketpair()
    return TcpChannel(a, peer="left"), TcpChannel(b, peer="right")


def _pipe_pair():
    a, b = socket.socketpair()
    return PipeChannel(a), PipeChannel(b)


@pytest.fixture(params=["tcp", "pipe"])
def pair(request):
    left, right = _tcp_pair() if request.param == "tcp" else _pipe_pair()
    yield left, right
    left.close()
    right.close()


def test_round_trip_and_poll(pair):
    left, right = pair
    assert not right.poll(0.0)
    left.send_bytes(b"hello across")
    assert right.poll(1.0)
    assert right.recv_bytes() == b"hello across"
    assert not right.poll(0.0)


def test_peer_close_surfaces_as_channel_closed(pair):
    left, right = pair
    left.close()
    assert right.poll(1.0)  # EOF counts as "ready"
    with pytest.raises(ChannelClosedError):
        right.recv_bytes()


def test_locally_closed_channel_polls_ready_then_raises(pair):
    """A closed channel must never look idle: the coordinator's wait
    loop would otherwise sit out the whole worker timeout on it."""
    left, right = pair
    right.close()
    assert right.poll(0.0)
    with pytest.raises(ChannelClosedError):
        right.recv_bytes()


def test_poll_works_above_fd_setsize():
    """``select(2)`` cannot watch descriptors >= 1024 (FD_SETSIZE); a
    1024-tile multi-host coordinator or a busy serve daemon gets
    there.  The channel's poller has no such ceiling."""
    import fcntl
    import resource
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    wanted = 1200
    if soft < wanted:
        if hard != resource.RLIM_INFINITY and hard < wanted:
            pytest.skip("RLIMIT_NOFILE hard limit below 1200")
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (wanted, hard))
        except (ValueError, OSError):
            pytest.skip("not permitted to raise RLIMIT_NOFILE")
    a, b = socket.socketpair()
    high = socket.socket(fileno=fcntl.fcntl(b.fileno(), fcntl.F_DUPFD,
                                            1100))
    b.close()
    left, right = TcpChannel(a, peer="low"), TcpChannel(high, peer="high")
    try:
        assert high.fileno() >= 1024
        assert not right.poll(0.0)
        left.send_bytes(b"above the ceiling")
        assert right.poll(1.0)
        assert right.recv_bytes() == b"above the ceiling"
        left.close()
        assert right.poll(1.0)  # EOF is ready, too
        with pytest.raises(ChannelClosedError):
            right.recv_bytes()
    finally:
        left.close()
        right.close()
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


def test_send_to_closed_peer_raises_channel_closed(pair):
    left, right = pair
    right.close()
    with pytest.raises(ChannelClosedError):
        for _ in range(64):  # outrun any socket buffering
            left.send_bytes(b"x" * 4096)


def test_a_partial_frame_then_close_is_channel_closed(pair):
    """A peer dying mid-frame must not hang or mis-deliver."""
    left, right = pair
    left.sock.sendall(struct.pack(">I", 1000) + b"only-forty-bytes-of-it")
    left.close()
    with pytest.raises(ChannelClosedError, match="closed"):
        right.recv_bytes()


def test_an_oversized_frame_is_protocol_violation_not_eof(pair):
    left, right = pair
    left.sock.sendall(struct.pack(">I", 0xFFFFFFF0))
    with pytest.raises(FrameError) as raised:
        right.recv_bytes()
    assert not isinstance(raised.value, ChannelClosedError)


def test_tcp_alive_tracks_peer_eof():
    left, right = _tcp_pair()
    assert right.alive()
    left.send_bytes(b"last words")
    left.close()
    assert right.alive()  # buffered frame still readable
    assert right.recv_bytes() == b"last words"
    assert not right.alive()
    right.close()


def test_pipe_alive_tracks_child_process():
    channel = fork_child(lambda child: child.recv_bytes(), "recv-once")
    proc = channel.proc
    assert channel.alive()
    assert channel.exitcode() is None
    channel.send_bytes(b"done")
    proc.join(timeout=5.0)
    assert not channel.alive()
    assert channel.exitcode() == 0
    assert "pid" in channel.describe()
    channel.close()


def test_describe_names_the_transport():
    left, right = _tcp_pair()
    assert left.describe().startswith("tcp ")
    left.close()
    right.close()
    a, b = socket.socketpair()
    assert PipeChannel(a).describe() == "pipe"
    a.close()
    b.close()


def _recv_until_eof(channel):
    try:
        while True:
            channel.recv_bytes()
    except ChannelClosedError:
        pass


def test_a_forked_child_reads_eof_once_its_parent_end_closes():
    """The child holds no copy of the parent's end, so the end's last
    descriptor closing — as when the parent is killed, with no
    ``shutdown`` — is EOF to the child, not a child left waiting."""
    channel = fork_child(_recv_until_eof, "eof-reader")
    channel.send_bytes(b"one frame")
    channel.sock.close()
    channel.proc.join(timeout=5.0)
    try:
        assert channel.exitcode() == 0
    finally:
        if channel.proc.is_alive():
            channel.proc.terminate()

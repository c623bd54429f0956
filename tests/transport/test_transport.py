"""Physical transport: delivery, ordering, filtering, accounting."""

import pytest

from repro.common.config import HostConfig
from repro.common.errors import TransportError
from repro.common.ids import TileId
from repro.host.cluster import ClusterLayout, Locality
from repro.transport.message import Message, MessageKind
from repro.transport.transport import Transport


@pytest.fixture
def transport():
    layout = ClusterLayout(8, HostConfig(num_machines=2))
    return Transport(layout)


def msg(src, dst, kind=MessageKind.USER, payload=None, size=8, tag=None):
    return Message(src=TileId(src), dst=TileId(dst), kind=kind,
                   payload=payload, size_bytes=size, tag=tag)


class TestDelivery:
    def test_send_then_poll(self, transport):
        transport.send(msg(0, 1, payload="hello"))
        got = transport.poll(TileId(1), MessageKind.USER)
        assert got.payload == "hello"

    def test_poll_empty_returns_none(self, transport):
        assert transport.poll(TileId(1), MessageKind.USER) is None

    def test_a_tile_holds_a_queue_only_for_kinds_it_was_sent(
            self, transport):
        transport.send(msg(0, 1, kind=MessageKind.MEMORY))
        assert list(transport._queues[1]) == [MessageKind.MEMORY]
        assert transport._queues[2] == {}
        assert transport.poll(TileId(2), MessageKind.USER) is None
        assert transport.poll_match(TileId(2), MessageKind.USER,
                                    tag=1) is None
        assert transport.pending(TileId(2), MessageKind.USER) == 0
        assert transport._queues[2] == {}  # reads made no queue
        assert transport.total_pending() == 1

    def test_fifo_order_preserved(self, transport):
        for i in range(5):
            transport.send(msg(0, 1, payload=i))
        got = [transport.poll(TileId(1), MessageKind.USER).payload
               for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]

    def test_kinds_have_separate_queues(self, transport):
        transport.send(msg(0, 1, kind=MessageKind.MEMORY, payload="m"))
        transport.send(msg(0, 1, kind=MessageKind.USER, payload="u"))
        assert transport.poll(TileId(1), MessageKind.USER).payload == "u"
        assert transport.poll(TileId(1), MessageKind.MEMORY).payload == "m"

    def test_send_returns_locality(self, transport):
        assert transport.send(msg(0, 1)) is Locality.CROSS_MACHINE
        assert transport.send(msg(0, 2)) is Locality.SAME_PROCESS

    def test_out_of_range_destination_rejected(self, transport):
        with pytest.raises(TransportError):
            transport.send(msg(0, 99))

    def test_out_of_range_source_rejected(self, transport):
        with pytest.raises(TransportError):
            transport.send(msg(99, 0))


class TestFiltering:
    def test_poll_match_by_src(self, transport):
        transport.send(msg(2, 1, payload="a"))
        transport.send(msg(3, 1, payload="b"))
        got = transport.poll_match(TileId(1), MessageKind.USER,
                                   src=TileId(3))
        assert got.payload == "b"
        # Non-matching message stays queued, in order.
        assert transport.poll(TileId(1), MessageKind.USER).payload == "a"

    def test_poll_match_by_tag(self, transport):
        transport.send(msg(0, 1, payload="x", tag=1))
        transport.send(msg(0, 1, payload="y", tag=2))
        assert transport.poll_match(TileId(1), MessageKind.USER,
                                    tag=2).payload == "y"

    def test_poll_match_no_match(self, transport):
        transport.send(msg(0, 1, tag=1))
        assert transport.poll_match(TileId(1), MessageKind.USER,
                                    tag=9) is None
        assert transport.pending(TileId(1), MessageKind.USER) == 1


class TestAccounting:
    def test_hooks_fire_on_send(self, transport):
        events = []
        transport.delivery_hook = lambda m, loc: events.append(loc)
        transport.send(msg(0, 1))
        assert events == [Locality.CROSS_MACHINE]

    def test_account_fires_hooks_without_enqueue(self, transport):
        events = []
        transport.delivery_hook = lambda m, loc: events.append(loc)
        transport.account(TileId(0), TileId(2), MessageKind.MEMORY, 64)
        assert events == [Locality.SAME_PROCESS]
        assert transport.total_pending() == 0

    def test_a_snapshot_holding_a_hook_list_restores_its_one_hook(
            self, transport):
        """``repro.ckpt/4`` snapshots written while the hook was a list
        still load: its one entry becomes the hook."""
        events = []
        _dict, state = transport.__reduce_ex__(2)[2]
        del state["delivery_hook"]
        state["_hooks"] = [lambda m, loc: events.append(loc)]
        restored = Transport.__new__(Transport)
        restored.__setstate__((None, state))
        restored.send(msg(0, 1))
        assert events == [Locality.CROSS_MACHINE]
        assert restored.pending(TileId(1), MessageKind.USER) == 1

    def test_byte_and_message_counters(self, transport):
        transport.send(msg(0, 1, size=100))
        transport.account(TileId(0), TileId(1), MessageKind.MEMORY, 50)
        assert transport.stats.counter("messages_sent").value == 2
        assert transport.stats.counter("bytes_sent").value == 150

    def test_locality_counters(self, transport):
        transport.send(msg(0, 2))  # same process
        transport.send(msg(0, 1))  # cross machine
        assert transport.stats.counter("messages_same_process").value == 1
        assert transport.stats.counter("messages_cross_machine").value == 1


class TestMessage:
    def test_latency_from_timestamps(self):
        m = msg(0, 1)
        m.timestamp = 100
        m.arrival_time = 150
        assert m.latency == 50

    def test_latency_never_negative(self):
        m = msg(0, 1)
        m.timestamp = 100
        m.arrival_time = 50
        assert m.latency == 0

    def test_sequence_numbers_monotonic(self):
        a, b = msg(0, 1), msg(0, 1)
        assert b.seqno > a.seqno

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            msg(0, 1, size=-1)

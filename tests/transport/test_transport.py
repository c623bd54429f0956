"""Physical transport: delivery, ordering, filtering, accounting."""

import pytest

from repro.common.config import HostConfig, SimulationConfig
from repro.common.errors import TransportError
from repro.common.ids import TileId
from repro.host.cluster import ClusterLayout, Locality
from repro.transport.message import Message, MessageKind
from repro.sim.runner import create_simulator
from repro.transport.transport import Transport


@pytest.fixture
def transport():
    layout = ClusterLayout(8, HostConfig(num_machines=2))
    return Transport(layout)


def msg(src, dst, kind=MessageKind.USER, payload=None, size=8, tag=None):
    return Message(src=TileId(src), dst=TileId(dst), kind=kind,
                   payload=payload, size_bytes=size, tag=tag)


#: Eight tiles striped over four processes on two machines: tile 0's
#: peer at each locality.
PEER = {Locality.SAME_PROCESS: 4, Locality.SAME_MACHINE: 2,
        Locality.CROSS_MACHINE: 1}


class _Running:
    """Stands for the thread whose quantum is open."""


def _one_transfer(locality, kind, queued: bool) -> dict:
    """What one 72-byte transfer from tile 0 to ``PEER[locality]`` at
    cycle 1000 leaves behind in a fresh traced, sanitized simulator
    whose quantum is open."""
    config = SimulationConfig(num_tiles=8, seed=5)
    config.host.num_machines = 2
    config.host.num_processes = 4
    config.telemetry.enabled = True
    config.check.sanitize = True
    config.validate()
    sim = create_simulator(config)
    scheduler = sim.scheduler
    scheduler._running = _Running()
    src, dst = TileId(0), TileId(PEER[locality])
    assert sim.layout.locality(src, dst) is locality
    if queued:
        latency = sim.fabric.send(src, dst, kind, None, 72, 1000).latency
    else:
        latency = sim.fabric.transfer(src, dst, kind, 72, 1000)
    counters = sim.transport.stats.counters
    return {
        "latency": latency,
        "counters": {name: counter.value
                     for name, counter in counters.items()},
        "factors": list(sim.cost_model._factors),
        "charged": (scheduler._quantum_charge,
                    scheduler._quantum_blocking),
        "msg": [event.args for event in sim.telemetry.events
                if event.name == "msg"],
        "checked": sim.sanitizers.messages_checked,
        "pending": sim.transport.total_pending(),
    }


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

    @pytest.mark.parametrize("kind", [MessageKind.MEMORY,
                                      MessageKind.SYSTEM],
                             ids=lambda kind: kind.value)
    @pytest.mark.parametrize("locality", list(Locality),
                             ids=lambda locality: locality.value)
    def test_a_leg_is_a_send_that_is_not_queued(self, locality, kind):
        """``fabric.transfer`` (a coherence or control leg, accounted
        with no :class:`Message`) and ``fabric.send`` cost and count
        the same; only the send leaves a message queued."""
        leg = _one_transfer(locality, kind, queued=False)
        send = _one_transfer(locality, kind, queued=True)
        assert leg.pop("pending") == 0
        assert send.pop("pending") == 1
        assert leg == send
        assert leg["checked"] == 1
        assert len(leg["msg"]) == 1

    @pytest.mark.parametrize("tiles,processes,machines",
                             [(8, 1, 1), (8, 4, 2), (12, 6, 3), (7, 3, 2)])
    def test_a_leg_stripes_tiles_as_the_layout_does(self, tiles, processes,
                                                    machines):
        """``account`` spells ``ClusterLayout.locality`` inline; every
        tile pair counts at the locality the layout names."""
        layout = ClusterLayout(tiles, HostConfig(num_machines=machines,
                                                 num_processes=processes))
        transport = Transport(layout)
        counters = transport.stats.counters
        for a in range(tiles):
            for b in range(tiles):
                before = {name: c.value for name, c in counters.items()}
                transport.account(TileId(a), TileId(b), MessageKind.MEMORY,
                                  8)
                bumped = [name for name, c in counters.items()
                          if c.value != before[name]]
                assert bumped == [
                    "messages_sent", "bytes_sent",
                    f"messages_{layout.locality(TileId(a), TileId(b)).value}"]

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

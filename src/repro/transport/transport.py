"""The transport fabric: per-tile delivery queues over the cluster layout.

All inter-tile communication — coherence traffic, user messages, system
control — goes through :class:`Transport` (paper §3.3.1).  Delivery is
physically immediate (a deque append) and in physical send order, which
is exactly the paper's semantics: the network forwards messages
immediately regardless of their simulated timestamps.  Host-time costs
of message transfer are charged separately by the scheduler using the
locality class this module reports.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.common import restore_slots, slot_state
from repro.common.errors import TransportError
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.host.cluster import ClusterLayout, Locality
from repro.transport.message import Message, MessageKind

#: Called for every delivered message: (message, locality).  The
#: simulator's, which charges host communication costs.
DeliveryHook = Callable[[Message, Locality], None]
#: Bound once (an enum's class attribute costs ~0.1 µs); nearest first.
_NEAR, _MID, _FAR = Locality
_SYSTEM = MessageKind.SYSTEM


class Transport:
    """In-memory message fabric between tiles.

    Each tile owns one inbound FIFO per traffic class.  ``send`` is the
    only mutation entry point; receivers either poll (memory/system
    handlers) or block via the scheduler (user messaging API).
    """

    __slots__ = ("layout", "_queues", "delivery_hook", "stats", "_sent",
                 "_bytes", "_by_locality", "charge_leg", "sanitizers")

    def __init__(self, layout: ClusterLayout,
                 stats: Optional[StatGroup] = None) -> None:
        self.layout = layout
        #: Per tile, one FIFO per message kind it has been sent.
        self._queues: List[Dict[MessageKind, Deque[Message]]] = [
            {} for _ in range(layout.num_tiles)]
        #: Fired on every delivery (cost charging); one is all there is.
        self.delivery_hook: Optional[DeliveryHook] = None
        self.stats = stats if stats is not None else StatGroup("transport")
        self._sent = self.stats.counter("messages_sent")
        self._bytes = self.stats.counter("bytes_sent")
        self._by_locality = {
            loc: self.stats.counter(f"messages_{loc.value}")
            for loc in Locality
        }
        #: :meth:`account`'s charger and checker, armed, never pickled.
        self.charge_leg: Optional[Callable[..., None]] = None
        self.sanitizers = None

    def __getstate__(self) -> tuple:
        slots = slot_state(self)
        del slots["charge_leg"], slots["sanitizers"]
        return None, slots

    def __setstate__(self, state: tuple) -> None:
        restore_slots(self, state)
        self.charge_leg = self.sanitizers = None

    # -- sending ------------------------------------------------------------

    def send(self, message: Message) -> Locality:
        """Deliver ``message`` to its destination queue immediately.

        Returns the locality class of the transfer so callers can charge
        modelled costs.
        """
        dst = int(message.dst)
        if not 0 <= dst < self.layout.num_tiles:
            raise TransportError(f"destination tile {dst} out of range")
        if not 0 <= int(message.src) < self.layout.num_tiles:
            raise TransportError(f"source tile {int(message.src)} out of range")
        locality = self.layout.locality(message.src, message.dst)
        self._deliver(message)
        self._sent.add()
        self._bytes.add(message.size_bytes)
        self._by_locality[locality].add()
        hook = self.delivery_hook
        if hook is not None:
            hook(message, locality)
        return locality

    def _deliver(self, message: Message) -> None:
        """Place a validated message in its destination queue.

        The single physical delivery point: subclasses (e.g. the
        distributed backend's :class:`~repro.distrib.shard.ShardTransport`)
        override this to route the message to the process owning the
        destination tile instead of a local queue.
        """
        queues = self._queues[int(message.dst)]
        queue = queues.get(message.kind)
        if queue is None:
            queue = queues[message.kind] = deque()
        queue.append(message)

    def account(self, src: TileId, dst: TileId, kind: MessageKind,
                size_bytes: int) -> None:
        """Account for a transfer that is processed synchronously.

        Coherence and system-control messages are serviced at the
        destination the moment they are sent (the engine processes them
        inline), so nothing is enqueued and no :class:`Message` is
        built — but the transfer still happened physically: the
        statistics, the sanitizers' count and the host charge are
        :meth:`send`'s.  The locality is ``ClusterLayout.locality``'s
        striping spelled inline.
        """
        layout = self.layout
        a, b = src % layout.num_processes, dst % layout.num_processes
        machines = layout.num_machines
        locality = (_NEAR if a == b
                    else _MID if a % machines == b % machines else _FAR)
        self._sent.value += 1
        self._bytes.value += size_bytes
        self._by_locality[locality].value += 1
        if self.sanitizers is not None:
            self.sanitizers.messages_checked += 1
        if self.charge_leg is not None:
            self.charge_leg(locality, size_bytes, kind is not _SYSTEM)

    # -- receiving ----------------------------------------------------------

    def poll(self, tile: TileId, kind: MessageKind) -> Optional[Message]:
        """Dequeue the oldest pending message of ``kind``, if any."""
        queue = self._queues[int(tile)].get(kind)
        return queue.popleft() if queue else None

    def poll_match(self, tile: TileId, kind: MessageKind,
                   src: Optional[TileId] = None,
                   tag: Optional[int] = None) -> Optional[Message]:
        """Dequeue the oldest message matching ``src``/``tag`` filters.

        Non-matching messages stay queued in order, mirroring tagged
        receive in the user messaging API.
        """
        queue = self._queues[int(tile)].get(kind, ())
        for i, msg in enumerate(queue):
            if src is not None and msg.src != src:
                continue
            if tag is not None and msg.tag != tag:
                continue
            del queue[i]
            return msg
        return None

    def pending(self, tile: TileId, kind: MessageKind) -> int:
        """Number of queued messages of ``kind`` at ``tile``."""
        return len(self._queues[int(tile)].get(kind, ()))

    def total_pending(self) -> int:
        """Total queued messages across all tiles (deadlock detection)."""
        return sum(len(q) for per_tile in self._queues
                   for q in per_tile.values())

"""Cross-process transport: coordinator-side routing + worker queues.

In the mp backend the physical message fabric is split in two:

* :class:`ShardTransport` lives in the coordinator.  It *is* the
  simulation's :class:`~repro.transport.transport.Transport` — all
  sends, statistics and host-cost hooks run there exactly as in-process
  — but the delivery step relays each message to the worker owning the
  destination tile as a DELIVER frame instead of appending to a local
  deque.

* :class:`ShardQueues` lives in each worker and holds the inbound
  queues of that worker's tile shard, preserving the poll / poll_match
  / pending semantics interpreters rely on.

Because one pipe per worker carries frames in FIFO order and the
coordinator serializes all sends, physical delivery order is identical
to the in-process backend — the property the paper's "deliver in the
order received" semantics (§3.3) and the reproducibility acceptance
test both rest on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.host.cluster import ClusterLayout
from repro.transport.message import Message, MessageKind
from repro.transport.transport import Transport


class ShardTransport(Transport):
    """Transport whose delivery step crosses process boundaries."""

    __slots__ = ("_cluster",)

    def __init__(self, layout: ClusterLayout,
                 stats: Optional[StatGroup] = None) -> None:
        super().__init__(layout, stats)
        self._cluster = None

    def attach(self, cluster) -> None:
        """Connect the worker cluster; until then delivery is local."""
        self._cluster = cluster

    def _deliver(self, message: Message) -> None:
        if self._cluster is None:
            super()._deliver(message)
            return
        self._cluster.deliver(message)


class ShardQueues:
    """Worker-local inbound message queues for one tile shard."""

    def __init__(self, tiles: List[TileId]) -> None:
        self._queues: Dict[int, Dict[MessageKind, Deque[Message]]] = {
            int(t): {kind: deque() for kind in MessageKind}
            for t in tiles
        }

    def enqueue(self, message: Message) -> None:
        self._queues[int(message.dst)][message.kind].append(message)

    def absorb(self, other: "ShardQueues") -> None:
        """Take over another shard's tile queues (live migration).

        Tiles are owned by exactly one worker at a time, so a
        collision means the coordinator mis-routed a migration; fail
        loudly rather than silently merging two queue histories.
        """
        for tile, queues in other._queues.items():
            if tile in self._queues:
                raise ValueError(
                    f"tile {tile} already owned by this shard")
            self._queues[tile] = queues

    def poll(self, tile: TileId, kind: MessageKind) -> Optional[Message]:
        queue = self._queues[int(tile)][kind]
        return queue.popleft() if queue else None

    def poll_match(self, tile: TileId, kind: MessageKind,
                   src: Optional[TileId] = None,
                   tag: Optional[int] = None) -> Optional[Message]:
        queue = self._queues[int(tile)][kind]
        for i, msg in enumerate(queue):
            if src is not None and msg.src != src:
                continue
            if tag is not None and msg.tag != tag:
                continue
            del queue[i]
            return msg
        return None

    def pending(self, tile: TileId, kind: MessageKind) -> int:
        return len(self._queues[int(tile)][kind])

"""Messages carried by the physical transport.

Every inter-tile interaction in Graphite — memory-system coherence
traffic, application-level messages, system/control traffic — travels as
a :class:`Message` with a simulated-time *timestamp* set from the
sender's local clock (paper §3.6.1).  Timestamps are the only mechanism
by which loosely synchronized tiles agree on time.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.ids import TileId

_sequence = itertools.count()


class MessageKind(enum.Enum):
    """Traffic class of a message; selects the network model used."""

    #: By identity, in C: no ``Enum.__hash__`` frame per packet.  (Members
    #: are singletons, and no set of kinds is iterated into a result.)
    __hash__ = object.__hash__

    #: Application-level messages sent via the user messaging API.
    USER = "user"
    #: Memory-subsystem traffic (coherence requests, data, DRAM).
    MEMORY = "memory"
    #: Simulator-internal control traffic (MCP/LCP, spawn, syscalls).
    #: Always routed over the zero-delay model so it cannot perturb
    #: simulation results (paper §3.3).
    SYSTEM = "system"


@dataclass
class Message:
    """A timestamped point-to-point message.

    ``timestamp`` is in target cycles at send time; the network model
    adds its modelled latency to produce ``arrival_time``.  Functionally
    the message is delivered immediately regardless of timestamps
    (paper §3.3: "the network forwards messages immediately and delivers
    them in the order they are received").
    """

    src: TileId
    dst: TileId
    kind: MessageKind
    payload: Any = None
    size_bytes: int = 8
    timestamp: int = 0
    #: Target-cycle arrival time; filled in by the network model.
    arrival_time: int = 0
    #: Monotonic sequence number preserving physical send order.
    seqno: int = field(default_factory=lambda: next(_sequence))
    #: Optional tag for user-API receive filtering.
    tag: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("message size must be non-negative")

    @property
    def latency(self) -> int:
        """Modelled network latency in target cycles."""
        return max(self.arrival_time - self.timestamp, 0)

    # -- pickling (wire format) ---------------------------------------------
    #
    # Messages cross process boundaries in the distributed backend, so
    # their pickled form is an explicit, versioned field tuple rather
    # than a raw ``__dict__`` dump.  Unpickling restores the original
    # ``seqno`` and does NOT consume the receiving process's sequence
    # counter: physical send order is assigned exactly once, by the
    # process that created the message.

    _PICKLE_VERSION = 1

    def __getstate__(self) -> tuple:
        return (self._PICKLE_VERSION, int(self.src), int(self.dst),
                self.kind.value, self.payload, self.size_bytes,
                self.timestamp, self.arrival_time, self.seqno, self.tag)

    def __setstate__(self, state: tuple) -> None:
        version = state[0]
        if version != self._PICKLE_VERSION:
            raise ValueError(
                f"Message pickle version {version!r} is not supported "
                f"(expected {self._PICKLE_VERSION})")
        (_, src, dst, kind, payload, size_bytes,
         timestamp, arrival_time, seqno, tag) = state
        self.src = TileId(src)
        self.dst = TileId(dst)
        self.kind = MessageKind(kind)
        self.payload = payload
        self.size_bytes = size_bytes
        self.timestamp = timestamp
        self.arrival_time = arrival_time
        self.seqno = seqno
        self.tag = tag

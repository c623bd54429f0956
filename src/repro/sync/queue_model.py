"""Queueing model compatible with lax synchronization (paper §3.6.1).

A cycle-accurate simulator buffers packets and dequeues one per cycle;
that is impossible here because packets are processed immediately, out
of simulated-time order, with timestamps possibly in the past or far
future.  Instead each queue keeps an *independent clock* representing
the time when everything currently queued will have been processed:

* a packet's queueing delay is the difference between the queue clock
  and the (approximated) global clock;
* the queue clock then advances by the packet's processing time.

Error is introduced because packets are modelled out of order, but the
*aggregate* queueing delay is correct.
"""

from __future__ import annotations

from repro.common.stats import StatGroup
from repro.sync.progress import ProgressEstimator


class LaxQueueModel:
    """One contended resource (a network link, a DRAM channel).

    ``max_backlog`` bounds the modelled queue occupancy, in packets: a
    physical queue can never hold more requests than there are
    requesters in the system, so the delay of one packet is capped at
    ``max_backlog`` service times.  Without the bound, clock skew under
    lax synchronization can masquerade as queueing delay, feed the
    charged delay back into the requester's clock, and diverge.
    """

    __slots__ = ("_progress", "_queue_clock", "_delay_total",
                 "_requests", "_max_backlog")

    def __init__(self, progress: ProgressEstimator, stats: StatGroup,
                 max_backlog: int = 0) -> None:
        self._progress = progress
        self._queue_clock = 0.0
        self._max_backlog = (max_backlog if max_backlog > 0
                             else progress.window_size)
        self._delay_total = stats.counter("queue_delay_cycles")
        self._requests = stats.counter("queue_requests")

    def access(self, arrival_time: int, processing_time: int) -> int:
        """Model one packet; returns delay + service time in cycles.

        ``arrival_time`` is the packet's timestamp; it feeds the
        global-progress window since every packet is an observation of
        some tile's clock — but the delay itself is computed against
        the *windowed estimate only*, never against the individual
        timestamp.  Anchoring to a single packet's (possibly far-future)
        timestamp would let one run-ahead tile drag the queue clock
        forward and charge every later requester the clock skew as
        queueing delay — a positive feedback loop the window exists to
        prevent (paper §3.6.1: "the large window is necessary to
        eliminate outliers from overly influencing the result").
        """
        global_clock = self._progress.observe(arrival_time)
        delay = max(self._queue_clock - global_clock, 0.0)
        # A bounded queue: no packet can wait behind more than
        # max_backlog others, whatever the apparent clock skew says.
        delay = min(delay, float(self._max_backlog * processing_time))
        self._queue_clock = max(self._queue_clock, global_clock) \
            + processing_time
        total = int(delay) + processing_time
        self._delay_total.value += int(delay)
        self._requests.value += 1
        return total

    @property
    def queue_clock(self) -> float:
        return self._queue_clock

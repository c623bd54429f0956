"""Crash flight recorder: a bounded ring of recent telemetry events.

Aircraft-style forensics for distributed runs: every process can keep
the last N telemetry events (and the last wire-frame summaries it sent
or received) in a fixed-size ring, costing nothing when disabled and
O(capacity) memory when on.  When a worker crashes, a handshake fails
or a protocol error kills a connection, the recovery path dumps the
ring as a JSON bundle — the events leading up to the failure, the
frames in flight, and optionally a host-profile snapshot — into
``telemetry.flight_dir``.

The recorder attaches to the telemetry bus as an *observer*
(:meth:`~repro.telemetry.bus.TelemetryBus.observe`), the same
mechanism the runtime sanitizers use: observed events are not
recorded by the bus unless their category is also in the trace mask,
so flight recording changes neither the exported trace nor — being
purely host-side — any simulated result.
"""

from __future__ import annotations

import json
import os
import socket
import time
from collections import deque
from typing import Any, Dict, List, Optional

#: On-disk bundle format tag, bumped with any layout change.
FLIGHT_FORMAT = "repro.flight/1"


def event_to_dict(event: Any) -> dict:
    """JSON-ready form of a telemetry event (mirrors JsonlTraceSink)."""
    return {"cat": event.category_name, "name": event.name,
            "tile": event.tile, "t": event.t, "args": event.args,
            "seq": event.seq, "origin": event.origin}


class FlightRecorder:
    """Fixed-capacity ring of recent events and wire-frame summaries."""

    def __init__(self, capacity: int = 256,
                 frame_capacity: int = 64) -> None:
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.frames: deque = deque(maxlen=frame_capacity)
        #: Paths of bundles written by this recorder, oldest first.
        self.dumped: List[str] = []

    # -- feeds ---------------------------------------------------------------

    def on_event(self, event: Any) -> None:
        """Bus observer: every emitted/absorbed event lands here."""
        self.events.append(event)

    def note_frame(self, direction: str, peer: Any, kind: Any,
                   size: int) -> None:
        """Record one wire frame summary (never the payload)."""
        self.frames.append({"dir": direction, "peer": str(peer),
                            "kind": str(kind), "bytes": int(size)})

    # -- dumping -------------------------------------------------------------

    def bundle(self, reason: str, detail: str = "",
               extra: Optional[dict] = None,
               host_profile: Optional[dict] = None) -> dict:
        return {
            "format": FLIGHT_FORMAT,
            "reason": reason,
            "detail": detail,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "unix_time": time.time(),
            "events": [event_to_dict(e) for e in self.events],
            "frames": list(self.frames),
            "extra": dict(extra or {}),
            "host_profile": host_profile,
        }

    def dump(self, directory: str, reason: str, detail: str = "",
             extra: Optional[dict] = None,
             host_profile: Optional[dict] = None) -> str:
        """Write one bundle into ``directory``; returns its path.

        File names carry the pid and a per-recorder counter so
        concurrent processes dumping into a shared flight directory
        never collide.  The write is atomic (tmp + rename): a crash
        mid-dump must not leave a truncated bundle that chokes the
        post-mortem tooling.
        """
        os.makedirs(directory, exist_ok=True)
        name = f"flight-{os.getpid()}-{len(self.dumped):03d}.json"
        path = os.path.join(directory, name)
        payload = self.bundle(reason, detail, extra, host_profile)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True,
                      default=str)
            handle.write("\n")
        os.replace(tmp, path)
        self.dumped.append(path)
        return path


def arm_flight_recorder(bus: Any, capacity: int) -> tuple:
    """Attach a :class:`FlightRecorder` observing every category to
    ``bus`` — a mask-0 bus that records nothing when there is none.
    Returns ``(bus, recorder)``.  Arm before any channel is resolved:
    ``channel()`` honours the observer mask."""
    from repro.telemetry.bus import TelemetryBus
    from repro.telemetry.events import ALL_CATEGORIES
    if bus is None:
        bus = TelemetryBus(0)
    recorder = FlightRecorder(capacity)
    bus.observe(recorder.on_event, ALL_CATEGORIES)
    return bus, recorder


def load_bundles(directory: str) -> List[Dict[str, Any]]:
    """Read every flight bundle under ``directory``, sorted by name."""
    bundles = []
    if not os.path.isdir(directory):
        return bundles
    for name in sorted(os.listdir(directory)):
        if name.startswith("flight-") and name.endswith(".json"):
            with open(os.path.join(directory, name),
                      encoding="utf-8") as handle:
                bundles.append(json.load(handle))
    return bundles

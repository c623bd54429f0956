"""The serve client/daemon protocol: its payload schema and job states.

After the :mod:`repro.net.handshake` on the daemon's Unix socket, every
exchange is one request frame up, one reply frame down: ``(verb,
payload)`` in the envelope of :mod:`repro.distrib.wire`.  The verbs are
``check/wire_proto.json``'s ``serve_client`` / ``serve_api`` roles; the
dataclasses below are the payload schema, under the one
``WIRE_VERSION`` and its W001 fingerprint (``check/wire_schema.json``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: The job lifecycle surfaced to clients and the telemetry ops stream:
#: ``queued`` (waiting for a worker), ``running`` (on a worker),
#: ``preempted`` (checkpointed off its worker, waiting to resume),
#: ``done`` (result stored), ``failed`` (error or cancelled, see the
#: status ``error`` field), ``cached`` (submission hit the result
#: store; never ran).
JOB_STATES = ("queued", "running", "preempted", "done", "failed",
              "cached")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cached")


@dataclass(frozen=True)
class SubmitSpec:
    """One job submission, as carried in a ``submit`` payload.

    Exactly one of ``workload`` (a registry name, rebuilt daemon-side
    as a :class:`~repro.distrib.wire.WorkloadRef`) or ``program`` (a
    program reference: anything with ``resolve()``, e.g. a
    :class:`~repro.distrib.wire.PickledProgram`) names the program.
    ``config`` is a :meth:`~repro.common.config.SimulationConfig.
    to_dict` tree; omitted sections take defaults.
    """

    config: Dict[str, Any] = field(default_factory=dict)
    workload: Optional[str] = None
    nthreads: int = 0
    scale: float = 1.0
    params: Dict[str, Any] = field(default_factory=dict)
    program: Any = None
    args: List[Any] = field(default_factory=list)
    priority: int = 0


@dataclass(frozen=True)
class JobView:
    """One job's client-visible status, as carried in replies."""

    job_id: str
    state: str
    priority: int = 0
    attempts: int = 0
    deaths: int = 0
    preemptions: int = 0
    key: str = ""
    #: Deterministic distributed-trace id minted at submit; every span
    #: of the job's lifecycle carries it (:mod:`repro.obs.spans`).
    trace_id: str = ""
    error: Optional[str] = None


@dataclass(frozen=True)
class ServerInfo:
    """The ``stats`` reply payload: one daemon's ops counters."""

    protocol: int
    fleet: int
    states: Dict[str, int] = field(default_factory=dict)
    submitted: int = 0
    cache_hits: int = 0
    preemptions: int = 0
    worker_deaths: int = 0


def view_payload(view: Any) -> Dict[str, Any]:
    """Flatten a protocol dataclass into a frame payload dict."""
    return dataclasses.asdict(view)

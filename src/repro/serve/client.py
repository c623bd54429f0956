"""The thin serve client: one channel to the daemon, kept open.

``ServeClient`` wraps the request/reply protocol of
:mod:`repro.serve.protocol` for in-process use and for the ``repro
submit/status/fetch/cancel`` CLI verbs.  The first request dials the
daemon's Unix socket and passes the net handshake; each request is then
one frame up, one frame down on that channel (dialed afresh if the
daemon went away).  An ``error`` reply raises :class:`ServeError`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.common.config import SimulationConfig
from repro.common.errors import ServeError, TransportError
from repro.distrib.errors import WireFormatError
from repro.distrib.wire import WIRE_VERSION, decode_frame, encode_frame
from repro.net.channel import TcpChannel
from repro.net.listener import connect_unix
from repro.serve import protocol
from repro.serve.store import result_from_jsonable

#: Default per-request socket timeout (seconds).
_TIMEOUT = 30.0


class ServeClient:
    """Client handle on a running serve daemon's Unix socket."""

    def __init__(self, socket_path: str,
                 timeout: float = _TIMEOUT) -> None:
        self.socket_path = socket_path
        self.timeout = timeout
        self._channel: Optional[TcpChannel] = None

    # -- transport ----------------------------------------------------------

    def _connected(self) -> TcpChannel:
        """The open channel, dialed now if there is none or the daemon
        hung up on it (idle, the daemon sends nothing: readable = EOF)."""
        if self._channel is not None and not self._channel.poll():
            return self._channel
        self.close()
        try:
            channel, _welcome = connect_unix(self.socket_path,
                                             WIRE_VERSION)
        except TransportError as exc:
            raise ServeError(
                f"cannot reach serve daemon at {self.socket_path}: "
                f"{exc}") from exc
        channel.sock.settimeout(self.timeout)
        self._channel = channel
        return channel

    def close(self) -> None:
        """Hang up (the next request dials again)."""
        if self._channel is not None:
            self._channel.close()
            self._channel = None

    def _exchange(self, frame: tuple) -> Dict[str, Any]:
        """Send one ``(verb, payload)`` frame tuple (the shape the
        wire-protocol lint extracts as this role's send sites)."""
        return self.request(*frame)

    def request(self, kind: str,
                payload: Optional[Dict[str, Any]] = None
                ) -> Dict[str, Any]:
        """One request/reply exchange; raises on ``error`` replies."""
        try:
            blob = encode_frame(kind, payload or {})
        except WireFormatError as exc:
            raise ServeError(str(exc)) from exc
        channel = self._connected()
        try:
            channel.send_bytes(blob)
            reply_kind, reply = decode_frame(channel.recv_bytes())
        except (TransportError, WireFormatError) as exc:
            self.close()
            raise ServeError(
                f"serve daemon at {self.socket_path} dropped the "
                f"{kind} request: {exc}") from exc
        if reply_kind == "error":
            raise ServeError(reply.get("error", "serve request failed"))
        if reply_kind != "ok":
            raise ServeError(
                f"unexpected serve reply kind {reply_kind!r}")
        return reply

    # -- verbs --------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self._exchange(("ping", {}))

    def alive(self) -> bool:
        """``True`` when a compatible daemon answers the socket."""
        try:
            return "protocol" in self.ping()
        except ServeError:
            return False

    def submit(self, config: Optional[SimulationConfig] = None,
               workload: Optional[str] = None,
               nthreads: int = 0, scale: float = 1.0,
               params: Optional[Dict[str, Any]] = None,
               program: Any = None, args: tuple = (),
               priority: int = 0) -> Dict[str, Any]:
        """Submit one job; returns the daemon's job view.

        Pass either ``workload`` (a registry name) or ``program`` (a
        module-level function or an existing program reference, shipped
        as its reference — closures and lambdas are rejected exactly as
        the sweep pool rejects them).
        """
        payload: Dict[str, Any] = {
            "config": (config.to_dict() if config is not None else {}),
            "args": list(args),
            "priority": int(priority),
        }
        if (workload is None) == (program is None):
            raise ServeError(
                "submit needs exactly one of workload or program")
        if workload is not None:
            payload.update(workload=workload, nthreads=int(nthreads),
                           scale=float(scale),
                           params=dict(params or {}))
        else:
            from repro.distrib.wire import make_program_ref
            payload["program"] = make_program_ref(program)
        return self._exchange(("submit", payload))["job"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._exchange(("status", {"job_id": job_id}))["job"]

    def fetch(self, job_id: str) -> Dict[str, Any]:
        """The stored result envelope's ``result`` dict for a job."""
        return self._exchange(("fetch", {"job_id": job_id}))

    def fetch_result(self, job_id: str):
        """The job's :class:`~repro.sim.results.SimulationResult`."""
        return result_from_jsonable(self.fetch(job_id)["result"])

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._exchange(("cancel", {"job_id": job_id}))["job"]

    def list_jobs(self) -> List[Dict[str, Any]]:
        return self._exchange(("list", {}))["jobs"]

    def stats(self) -> Dict[str, Any]:
        return self._exchange(("stats", {}))["stats"]

    def metrics(self) -> Dict[str, Any]:
        """Live fleet metrics: ``{"fields": {...}, "text": "..."}``.

        ``fields`` is the structured snapshot ``repro top`` renders;
        ``text`` is the same data in Prometheus exposition format.
        """
        return self._exchange(("metrics", {}))

    def shutdown(self) -> Dict[str, Any]:
        return self._exchange(("shutdown", {}))

    # -- conveniences -------------------------------------------------------

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 0.05) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns its view."""
        deadline = time.monotonic() + timeout
        while True:
            view = self.status(job_id)
            if view["state"] in protocol.TERMINAL_STATES:
                return view
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"timed out after {timeout:.0f}s waiting for "
                    f"{job_id} (state {view['state']!r})")
            time.sleep(poll)

    def wait_up(self, timeout: float = 10.0,
                poll: float = 0.05) -> None:
        """Block until the daemon answers pings (startup race helper)."""
        deadline = time.monotonic() + timeout
        while not self.alive():
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"serve daemon at {self.socket_path} did not come "
                    f"up within {timeout:.0f}s")
            time.sleep(poll)

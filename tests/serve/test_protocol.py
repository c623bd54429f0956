"""Serve protocol tests: verbs in the one frame envelope, socket flow."""

from __future__ import annotations

import json
import shutil
import socket
import tempfile
import time

import pytest

from repro.common.config import TelemetryConfig
from repro.distrib.errors import WireFormatError
from repro.distrib.wire import (
    WIRE_VERSION,
    WorkloadRef,
    decode_frame,
    encode_frame,
)
from repro.net.channel import TcpChannel
from repro.net.handshake import HandshakeError
from repro.net.listener import connect_unix, connect_worker
from repro.serve.client import ServeClient
from repro.serve.daemon import SimServer
from repro.serve.protocol import (
    JOB_STATES,
    TERMINAL_STATES,
    JobView,
    ServerInfo,
    SubmitSpec,
    view_payload,
)


class TestFrames:
    def test_round_trip(self):
        kind, payload = decode_frame(encode_frame(
            "submit", {"workload": "fft", "priority": 3}))
        assert kind == "submit"
        assert payload == {"workload": "fft", "priority": 3}

    @pytest.mark.parametrize("blob", [
        b"not json",
        b"[1,2,3]",
        json.dumps({"kind": "ping", "payload": {}}).encode(),
        json.dumps({"v": 2, "payload": {}}).encode(),
        json.dumps({"v": 2, "kind": "ping", "payload": [1]}).encode(),
    ])
    def test_malformed_frames_rejected(self, blob):
        # Garbage, and the JSON envelope clients spoke before the one
        # wire, are not a pickled (kind, payload) pair.
        with pytest.raises(WireFormatError, match="undecodable"):
            decode_frame(blob)

    def test_unencodable_payload_raises(self):
        with pytest.raises(WireFormatError, match="cannot encode"):
            encode_frame("submit", {"bad": lambda: None})

    def test_version_mismatch_fails_loudly(self):
        """No frame carries a version: a peer one ``WIRE_VERSION``
        behind is refused by the handshake at both of a daemon's doors
        (the TCP worker door, the Unix client door), and both ends get
        a typed error naming both versions — the dialer raises, the
        daemon reports the rejection and serves on."""
        old, new = f"v{WIRE_VERSION - 1}", f"v{WIRE_VERSION}"
        root = tempfile.mkdtemp(dir="/tmp", prefix="rp-")
        server = SimServer(root, fleet=0, listen="127.0.0.1:0",
                           telemetry=TelemetryConfig(
                               enabled=True, events=["serve"])).start()
        try:
            for dial in (lambda: connect_worker(server.listen_address,
                                                WIRE_VERSION - 1,
                                                timeout=5.0),
                         lambda: connect_unix(server.socket_path,
                                              WIRE_VERSION - 1)):
                with pytest.raises(HandshakeError, match=f"{old}.*{new}"):
                    dial()
            rejected = {}
            deadline = time.monotonic() + 10.0
            while len(rejected) < 2 and time.monotonic() < deadline:
                rejected = {event.name: event.args["error"]
                            for event in list(server.bus.events)
                            if event.name.endswith(".rejected")}
                time.sleep(0.01)
            assert set(rejected) == {"worker.rejected", "client.rejected"}
            for error in rejected.values():
                assert old in error and new in error
            assert ServeClient(server.socket_path).ping()["protocol"] \
                == WIRE_VERSION
        finally:
            server.stop()
            shutil.rmtree(root, ignore_errors=True)


class TestSocketFlow:
    def test_message_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        client, daemon = TcpChannel(a, peer="a"), TcpChannel(b, peer="b")
        try:
            client.send_bytes(encode_frame("submit", {"workload": "radix"}))
            assert decode_frame(daemon.recv_bytes()) == (
                "submit", {"workload": "radix"})
            daemon.send_bytes(encode_frame(
                "ok", {"job": {"job_id": "job-000001"}}))
            assert decode_frame(client.recv_bytes()) == (
                "ok", {"job": {"job_id": "job-000001"}})
        finally:
            client.close()
            daemon.close()


class TestSchema:
    def test_job_states_cover_the_lifecycle(self):
        assert JOB_STATES == ("queued", "running", "preempted", "done",
                              "failed", "cached")
        assert set(TERMINAL_STATES) < set(JOB_STATES)

    def test_views_flatten_to_json_safe_payloads(self):
        view = JobView(job_id="job-000001", state="done", key="k")
        payload = view_payload(view)
        assert json.loads(json.dumps(payload)) == payload
        info = ServerInfo(protocol=1, fleet=2, states={"done": 1})
        assert json.loads(json.dumps(view_payload(info))) \
            == view_payload(info)

    def test_submit_spec_round_trips_through_a_frame(self):
        # The program reference rides the frame as itself.
        spec = SubmitSpec(config={"seed": 9}, nthreads=4, scale=0.5,
                          program=WorkloadRef("fft", 4, 0.5), priority=2)
        payload = dict(view_payload(spec), program=spec.program)
        kind, decoded = decode_frame(encode_frame("submit", payload))
        assert kind == "submit"
        assert SubmitSpec(**decoded) == spec

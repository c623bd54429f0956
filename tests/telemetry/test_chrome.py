"""Chrome trace-event exporter: structure Perfetto can load."""

from __future__ import annotations

import json

from repro.common.config import SimulationConfig
from repro.distrib.wire import WorkloadRef
from repro.sim.simulator import Simulator
from repro.telemetry.chrome import SIM_TRACK, write_chrome_trace
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.events import ALL_CATEGORIES, EventCategory


def _trace_doc(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    assert isinstance(doc, dict) and "traceEvents" in doc
    return doc["traceEvents"]


class TestExporter:
    def test_quantum_becomes_complete_event(self, tmp_path):
        bus = TelemetryBus(ALL_CATEGORIES)
        bus.channel(EventCategory.QUANTUM).emit(
            "quantum", 2, 1000,
            {"cycles": 1500, "instructions": 80, "status": "ran"})
        path = tmp_path / "t.json"
        n = write_chrome_trace(bus.ordered_events(), str(path),
                               clock_hz=1e9)
        assert n >= 1
        events = _trace_doc(path)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 1
        # 1000 cycles at 1 GHz = 1 us; 500 cycles duration = 0.5 us.
        assert complete[0]["ts"] == 1.0
        assert complete[0]["dur"] == 0.5
        assert complete[0]["tid"] == 2

    def test_message_becomes_flow_pair(self, tmp_path):
        bus = TelemetryBus(ALL_CATEGORIES)
        bus.channel(EventCategory.NETWORK).emit(
            "msg", 0, 100, {"src": 0, "dst": 3, "kind": "user",
                            "bytes": 8, "latency": 40})
        path = tmp_path / "t.json"
        write_chrome_trace(bus.ordered_events(), str(path))
        events = _trace_doc(path)
        start = [e for e in events if e["ph"] == "s"]
        finish = [e for e in events if e["ph"] == "f"]
        assert len(start) == 1 and len(finish) == 1
        assert start[0]["id"] == finish[0]["id"]
        assert start[0]["tid"] == 0 and finish[0]["tid"] == 3
        assert finish[0]["ts"] > start[0]["ts"]
        assert finish[0]["bp"] == "e"

    def test_dram_becomes_counter(self, tmp_path):
        bus = TelemetryBus(ALL_CATEGORIES)
        bus.channel(EventCategory.DRAM).emit(
            "read", 1, 10, {"occupancy": 3, "latency": 100, "bytes": 64})
        path = tmp_path / "t.json"
        write_chrome_trace(bus.ordered_events(), str(path))
        counters = [e for e in _trace_doc(path) if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["args"] == {"occupancy": 3}

    def test_tileless_events_land_on_sim_track(self, tmp_path):
        bus = TelemetryBus(ALL_CATEGORIES)
        bus.channel(EventCategory.SYNC).emit("clock_skew", None, 50,
                                             {"threads": 4})
        path = tmp_path / "t.json"
        write_chrome_trace(bus.ordered_events(), str(path))
        instants = [e for e in _trace_doc(path) if e["ph"] == "i"]
        assert instants[0]["tid"] == SIM_TRACK


class TestEndToEnd:
    def test_16_tile_mesh_run_produces_loadable_trace(self, tmp_path):
        """Acceptance: per-tile tracks, flow events, valid JSON."""
        path = tmp_path / "mesh.json"
        cfg = SimulationConfig(num_tiles=16, seed=3)
        cfg.network.memory_model = "mesh"
        cfg.telemetry.enabled = True
        cfg.telemetry.trace_path = str(path)
        cfg.validate()
        Simulator(cfg).run(WorkloadRef("fft", nthreads=8, scale=0.05))
        events = _trace_doc(path)
        assert events, "trace must not be empty"
        phases = {e["ph"] for e in events}
        assert {"X", "s", "f", "M"} <= phases
        tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert len(tids) > 1, "expected multiple per-tile tracks"
        metadata = {e["name"] for e in events if e["ph"] == "M"}
        assert "thread_name" in metadata

"""Event bus semantics: masks, channels, ordering, aggregation."""

from __future__ import annotations

import pickle

import pytest

from repro.common.config import SimulationConfig, TelemetryConfig
from repro.common.errors import ConfigError
from repro.telemetry.aggregate import TelemetryBatch, merge_batch
from repro.telemetry.bus import TelemetryBus, create_bus
from repro.telemetry.events import (
    ALL_CATEGORIES,
    Event,
    EventCategory,
    parse_event_mask,
)
from repro.telemetry.sinks import MemorySink


class TestEventMask:
    def test_all(self):
        assert parse_event_mask(["all"]) == ALL_CATEGORIES

    def test_single(self):
        assert parse_event_mask(["cache"]) == EventCategory.CACHE

    def test_union(self):
        mask = parse_event_mask(["cache", "network"])
        assert mask == (EventCategory.CACHE | EventCategory.NETWORK)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            parse_event_mask(["caches"])


class TestChannels:
    def test_disabled_config_builds_no_bus(self):
        assert create_bus(TelemetryConfig()) is None

    @pytest.mark.parametrize("name, sink", [
        ("t.json", "ChromeTraceSink"), ("t.jsonl", "JsonlTraceSink"),
        ("t.json.log", "JsonlTraceSink")])
    def test_the_trace_path_extension_picks_the_sink(self, tmp_path,
                                                     name, sink):
        config = TelemetryConfig(enabled=True,
                                 trace_path=str(tmp_path / name))
        bus = create_bus(config)
        assert [type(s).__name__ for s in bus.sinks] == [sink]
        bus.close()

    def test_masked_category_resolves_none(self):
        bus = TelemetryBus(parse_event_mask(["cache"]))
        assert bus.channel(EventCategory.CACHE) is not None
        assert bus.channel(EventCategory.NETWORK) is None

    def test_emit_reaches_store_and_sinks(self):
        bus = TelemetryBus(ALL_CATEGORIES)
        sink = bus.subscribe(MemorySink())
        bus.channel(EventCategory.SYNC).emit("stall", 3, 100,
                                             {"cycles": 7})
        assert len(bus.events) == 1
        assert len(sink.events) == 1
        event = sink.events[0]
        assert event.category_name == "sync"
        assert event.tile == 3 and event.t == 100
        assert event.args == {"cycles": 7}

    def test_seq_is_emission_order(self):
        bus = TelemetryBus(ALL_CATEGORIES)
        channel = bus.channel(EventCategory.QUANTUM)
        for t in (30, 10, 20):
            channel.emit("quantum", 0, t)
        assert [e.seq for e in bus.events] == [0, 1, 2]

    def test_ordered_events_sorts_by_time_then_origin_seq(self):
        bus = TelemetryBus(ALL_CATEGORIES)
        channel = bus.channel(EventCategory.QUANTUM)
        for t in (30, 10, 20):
            channel.emit("quantum", 0, t)
        bus.absorb([Event(EventCategory.SYNC, "stall", 1, 10)], origin=2)
        ordered = bus.ordered_events()
        assert [e.t for e in ordered] == [10, 10, 20, 30]
        # Coordinator (origin 0) sorts before the worker at equal t.
        assert [e.origin for e in ordered[:2]] == [0, 2]

    def test_drain_pending_empties_store(self):
        bus = TelemetryBus(ALL_CATEGORIES)
        bus.channel(EventCategory.DRAM).emit("read", 0, 5)
        drained = bus.drain_pending()
        assert len(drained) == 1
        assert bus.events == []


class TestAggregation:
    def test_batch_pickle_roundtrip(self):
        batch = TelemetryBatch(
            worker=1,
            events=[Event(EventCategory.SYNC, "stall", 2, 50,
                          {"cycles": 3}, seq=9)],
            histograms={"sim.h": {"count": 1, "total": 2.0,
                                  "sq_total": 4.0, "min": 2.0,
                                  "max": 2.0, "samples": [2.0],
                                  "stride": 1}})
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.worker == batch.worker
        assert clone.events == batch.events
        assert clone.histograms == batch.histograms
        assert len(clone) == 1

    def test_merge_batch_stamps_origin(self):
        bus = TelemetryBus(ALL_CATEGORIES)
        batch = TelemetryBatch(
            worker=3, events=[Event(EventCategory.SYNC, "stall", 0, 1)])
        merged = merge_batch(bus, None, batch)
        assert merged == 1
        assert bus.events[0].origin == 4  # worker index + 1
        assert bus.absorbed == 1

    def test_content_key_ignores_bookkeeping(self):
        a = Event(EventCategory.CACHE, "fill", 1, 9, {"line": 64},
                  seq=4, origin=0)
        b = Event(EventCategory.CACHE, "fill", 1, 9, {"line": 64},
                  seq=77, origin=3)
        assert a.content_key() == b.content_key()
        assert a != b  # full equality still sees seq/origin


class TestZeroOverheadContract:
    def test_disabled_run_has_no_bus_anywhere(self):
        from repro.sim.simulator import Simulator
        cfg = SimulationConfig(num_tiles=2)
        cfg.validate()
        sim = Simulator(cfg)
        assert sim.telemetry is None
        assert sim.scheduler._tele_quantum is None
        assert sim.fabric._tele is None

    def test_events_config_validated(self):
        cfg = SimulationConfig(num_tiles=2)
        cfg.telemetry.enabled = True
        cfg.telemetry.events = ["bogus"]
        with pytest.raises(ConfigError):
            cfg.validate()

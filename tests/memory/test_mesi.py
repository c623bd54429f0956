"""The MESI protocol variant (Exclusive state)."""

import pytest

from repro.common.config import SimulationConfig
from repro.common.errors import ConfigError
from repro.memory.cache import LineState
from repro.memory.directory import DirState
from tests.conftest import MemoryRig

HEAP = 0x1000_0000


def rig(protocol="mesi", tiles=4):
    config = SimulationConfig(num_tiles=tiles)
    config.memory.protocol = protocol
    return MemoryRig(config)


class TestExclusiveGrant:
    def test_uncontended_read_returns_exclusive(self):
        r = rig()
        r.load_int(0, HEAP)
        line = r.engine.hierarchies[0].l2.peek(r.space.line_of(HEAP))
        assert line.state is LineState.EXCLUSIVE
        r.engine.check_coherence_invariants()

    def test_msi_never_grants_exclusive(self):
        r = rig(protocol="msi")
        r.load_int(0, HEAP)
        line = r.engine.hierarchies[0].l2.peek(r.space.line_of(HEAP))
        assert line.state is LineState.SHARED

    def test_second_reader_gets_shared(self):
        r = rig()
        r.load_int(0, HEAP)
        r.load_int(1, HEAP)
        for tile in (0, 1):
            line = r.engine.hierarchies[tile].l2.peek(
                r.space.line_of(HEAP))
            assert line.state is LineState.SHARED
        r.engine.check_coherence_invariants()

    def test_directory_records_exclusive_holder_as_owner(self):
        r = rig()
        r.load_int(2, HEAP)
        home = int(r.space.home_tile(HEAP))
        entry = r.engine.directories[home].entries[r.space.line_of(HEAP)]
        assert entry.state is DirState.MODIFIED
        assert int(entry.owner) == 2


class TestSilentUpgrade:
    def test_store_to_exclusive_is_silent(self):
        r = rig()
        r.load_int(0, HEAP)
        transfers_before = r.transport.stats.counter(
            "messages_sent").value
        latency = r.store_int(0, HEAP, 7)
        transfers_after = r.transport.stats.counter(
            "messages_sent").value
        # No coherence traffic at all; just the cache write.
        assert transfers_after == transfers_before
        assert latency <= r.config.memory.l1d.access_latency + \
            r.config.memory.l2.access_latency
        line = r.engine.hierarchies[0].l2.peek(r.space.line_of(HEAP))
        assert line.state is LineState.MODIFIED
        r.engine.check_coherence_invariants()

    def test_msi_pays_upgrade_for_same_pattern(self):
        """Read-then-write: MESI silent, MSI needs the round trip."""
        msi = rig(protocol="msi")
        msi.load_int(0, HEAP)
        msi_latency = msi.store_int(0, HEAP, 7)
        mesi = rig(protocol="mesi")
        mesi.load_int(0, HEAP)
        mesi_latency = mesi.store_int(0, HEAP, 7)
        assert mesi_latency < msi_latency

    def test_functional_value_after_silent_upgrade(self):
        r = rig()
        r.load_int(0, HEAP)
        r.store_int(0, HEAP, 99)
        value, _ = r.load_int(3, HEAP)
        assert value == 99
        r.engine.check_coherence_invariants()


class TestRecalls:
    def test_remote_read_downgrades_exclusive_holder(self):
        r = rig()
        r.load_int(0, HEAP)        # E at tile 0
        value, _ = r.load_int(1, HEAP)
        assert value == 0
        line = r.engine.hierarchies[0].l2.peek(r.space.line_of(HEAP))
        assert line.state is LineState.SHARED
        r.engine.check_coherence_invariants()

    def test_remote_write_invalidates_exclusive_holder(self):
        r = rig()
        r.load_int(0, HEAP)        # E at tile 0
        r.store_int(1, HEAP, 5)
        assert r.engine.hierarchies[0].l2.peek(
            r.space.line_of(HEAP)) is None
        value, _ = r.load_int(2, HEAP)
        assert value == 5
        r.engine.check_coherence_invariants()

    def test_exclusive_eviction_is_clean(self):
        config = SimulationConfig(num_tiles=2)
        config.memory.protocol = "mesi"
        config.memory.l1i.enabled = False
        config.memory.l1d.enabled = False
        config.memory.l2.size_bytes = 4096
        config.memory.l2.associativity = 2
        r = MemoryRig(config)
        r.load_int(0, HEAP)
        writes_before = sum(v for k, v in r.stats.to_dict().items()
                            if "dram" in k and k.endswith(".writes"))
        for i in range(1, 200):  # force eviction of the E line
            r.load_int(0, HEAP + i * 4096)
        writes_after = sum(v for k, v in r.stats.to_dict().items()
                           if "dram" in k and k.endswith(".writes"))
        assert writes_after == writes_before  # clean: no writebacks
        r.engine.check_coherence_invariants()


class TestValidation:
    def test_unknown_protocol_rejected(self):
        config = SimulationConfig()
        config.memory.protocol = "moesi"
        with pytest.raises(ConfigError):
            config.validate()

    def test_full_simulation_under_mesi(self):
        from repro.sim.simulator import Simulator
        from repro.workloads.base import get_workload
        from tests.conftest import tiny_config

        config = tiny_config(4)
        config.memory.protocol = "mesi"
        simulator = Simulator(config)
        result = simulator.run(
            get_workload("radix").main(nthreads=4, scale=0.2))
        assert result.main_result is True
        simulator.engine.check_coherence_invariants()

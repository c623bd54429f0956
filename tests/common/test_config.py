"""Configuration validation and (de)serialisation."""

import dataclasses
import math

import pytest

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    DramConfig,
    HostConfig,
    MemoryConfig,
    NetworkConfig,
    SimulationConfig,
    SyncConfig,
)
from repro.common.errors import ConfigError
from repro.common.units import GB, KB, MB


class TestTable1Defaults:
    """The defaults must match Table 1 of the paper."""

    def test_clock_is_1ghz(self):
        assert CoreConfig().clock_hz == 1_000_000_000

    def test_l1_geometry(self):
        cfg = MemoryConfig()
        for l1 in (cfg.l1i, cfg.l1d):
            assert l1.size_bytes == 32 * KB
            assert l1.line_bytes == 64
            assert l1.associativity == 8

    def test_l2_geometry(self):
        l2 = MemoryConfig().l2
        assert l2.size_bytes == 3 * MB
        assert l2.line_bytes == 64
        assert l2.associativity == 24

    def test_coherence_is_full_map_directory(self):
        assert MemoryConfig().directory_type == "full_map"

    def test_dram_bandwidth(self):
        assert DramConfig().total_bandwidth_bytes_per_s == \
            pytest.approx(5.13 * GB)

    def test_interconnect_is_mesh(self):
        net = NetworkConfig()
        assert net.user_model == "mesh"
        assert net.memory_model == "mesh"

    def test_system_traffic_uses_magic_network(self):
        assert NetworkConfig().system_model == "magic"

    def test_paper_sync_study_parameters(self):
        sync = SyncConfig()
        assert sync.barrier_interval == 1000
        assert sync.p2p_slack == 100_000


class TestCacheConfig:
    def test_num_sets(self):
        cfg = CacheConfig(size_bytes=32 * KB, line_bytes=64,
                          associativity=8)
        assert cfg.num_sets == 64

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigError):
            CacheConfig(line_bytes=48).validate()

    def test_rejects_zero_associativity(self):
        with pytest.raises(ConfigError):
            CacheConfig(associativity=0).validate()

    def test_rejects_size_not_multiple_of_way_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, line_bytes=64,
                        associativity=4).validate()

    def test_single_line_cache_is_valid(self):
        CacheConfig(size_bytes=64, line_bytes=64,
                    associativity=1).validate()


class TestMemoryConfig:
    def test_rejects_unknown_directory(self):
        cfg = MemoryConfig(directory_type="snooping")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_rejects_l1_l2_line_mismatch(self):
        cfg = MemoryConfig()
        cfg.l1d.line_bytes = 32
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_line_mismatch_allowed_when_l1_disabled(self):
        cfg = MemoryConfig()
        cfg.l1d.enabled = False
        cfg.l1i.enabled = False
        cfg.l1d.line_bytes = 32
        cfg.l1i.line_bytes = 32
        cfg.validate()


class TestHostConfig:
    def test_default_is_one_8core_machine(self):
        host = HostConfig()
        assert host.num_machines == 1
        assert host.cores_per_machine == 8

    def test_processes_default_to_one_per_machine(self):
        host = HostConfig(num_machines=4)
        assert host.resolved_processes() == 4

    def test_total_cores(self):
        assert HostConfig(num_machines=8).total_cores == 64

    def test_rejects_fewer_processes_than_machines(self):
        host = HostConfig(num_machines=4, num_processes=2)
        with pytest.raises(ConfigError):
            host.validate()

    def test_rejects_bad_jitter(self):
        with pytest.raises(ConfigError):
            HostConfig(jitter=1.5).validate()

    @pytest.mark.parametrize("jitter", [0.3, 0.5, 0.11])
    def test_rejects_jitter_that_can_draw_a_negative_cost(self, jitter):
        """Sigma 0.3 and 0.5 used to pass here and kill `fft` on 4 tiles
        (seed 1) mid-run with "cannot charge negative host time"."""
        with pytest.raises(ConfigError, match="negative"):
            HostConfig(jitter=jitter).validate()
        HostConfig(jitter=0.1).validate()
        # The worst deviate Box-Muller can produce over 53-bit uniforms
        # still leaves a positive factor at the limit.
        worst = math.sqrt(-2.0 * math.log(2.0 ** -53))
        assert 8.5 < worst < 8.6 and 1.0 - worst * 0.1 > 0.0


class TestSyncConfig:
    @pytest.mark.parametrize("model", ["lax", "lax_barrier", "lax_p2p"])
    def test_all_three_models_valid(self, model):
        SyncConfig(model=model).validate()

    def test_rejects_unknown_model(self):
        with pytest.raises(ConfigError):
            SyncConfig(model="cycle_accurate").validate()

    def test_rejects_zero_barrier_interval(self):
        with pytest.raises(ConfigError):
            SyncConfig(barrier_interval=0).validate()


class TestSerialisation:
    def test_round_trip_preserves_everything(self):
        original = SimulationConfig(num_tiles=64, seed=7)
        original.sync.model = "lax_p2p"
        original.memory.directory_type = "limitless"
        original.host.num_machines = 4
        restored = SimulationConfig.from_dict(original.to_dict())
        assert restored.to_dict() == original.to_dict()

    def test_partial_dict_applies_defaults(self):
        cfg = SimulationConfig.from_dict({"num_tiles": 16})
        assert cfg.num_tiles == 16
        assert cfg.memory.l2.size_bytes == 3 * MB

    def test_nested_cache_section(self):
        cfg = SimulationConfig.from_dict({
            "memory": {"l2": {"size_bytes": 1 * MB, "associativity": 4},
                       "l1i": {"enabled": False},
                       "l1d": {"enabled": False}},
        })
        assert cfg.memory.l2.size_bytes == 1 * MB
        assert not cfg.memory.l1d.enabled

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict({"core": {"pipeline_width": 4}})

    def test_copy_is_independent(self):
        cfg = SimulationConfig()
        clone = cfg.copy()
        clone.memory.l2.size_bytes = 1 * MB
        assert cfg.memory.l2.size_bytes == 3 * MB

    def test_validate_called_on_from_dict(self):
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict({"num_tiles": 0})

    def test_to_dict_is_plain_data(self):
        data = SimulationConfig().to_dict()
        assert isinstance(data, dict)
        assert not dataclasses.is_dataclass(data["memory"])


class TestContentHash:
    """``content_hash()`` is the cache key of the serve result store:
    equal semantics must hash equal, any semantic change must not."""

    def test_equal_configs_hash_equal(self):
        assert SimulationConfig(num_tiles=8, seed=3).content_hash() \
            == SimulationConfig(num_tiles=8, seed=3).content_hash()

    def test_copy_hashes_equal(self):
        cfg = SimulationConfig(num_tiles=16, seed=5)
        cfg.sync.model = "lax_barrier"
        assert cfg.copy().content_hash() == cfg.content_hash()

    @pytest.mark.parametrize("mutate", [
        lambda c: setattr(c, "seed", c.seed + 1),
        lambda c: setattr(c, "num_tiles", c.num_tiles * 2),
        lambda c: setattr(c.sync, "model", "lax_p2p"),
        lambda c: setattr(c.memory.l2, "size_bytes", 1 * MB),
        lambda c: setattr(c.memory, "directory_type", "limited"),
        lambda c: setattr(c.network, "memory_model", "analytical"),
        lambda c: setattr(c.host, "quantum_instructions", 123),
    ])
    def test_any_semantic_field_change_changes_the_hash(self, mutate):
        base = SimulationConfig(num_tiles=8, seed=3)
        changed = base.copy()
        mutate(changed)
        assert changed.content_hash() != base.content_hash()

    @pytest.mark.parametrize("mutate", [
        lambda c: setattr(c.distrib, "backend", "mp"),
        lambda c: setattr(c.telemetry, "enabled", True),
        lambda c: setattr(c.check, "sanitize", True),
        lambda c: setattr(c.profile, "enabled", True),
        lambda c: setattr(c.ckpt, "dir", "/tmp/ckpt-here"),
    ])
    def test_observational_sections_do_not_change_the_hash(self, mutate):
        base = SimulationConfig(num_tiles=8, seed=3)
        changed = base.copy()
        mutate(changed)
        assert changed.content_hash() == base.content_hash()

    def test_semantic_dict_drops_only_observational_sections(self):
        from repro.common.config import OBSERVATIONAL_SECTIONS
        cfg = SimulationConfig()
        semantic = cfg.semantic_dict()
        full = cfg.to_dict()
        assert set(full) - set(semantic) == set(OBSERVATIONAL_SECTIONS)
        for section in OBSERVATIONAL_SECTIONS:
            assert section not in semantic

    def test_hash_is_stable_across_interpreter_processes(self):
        """The cache key must not depend on interpreter state (hash
        randomization, dict order): a daemon hashes submissions from
        other processes, possibly days apart."""
        import os
        import subprocess
        import sys
        script = (
            "from repro.common.config import SimulationConfig\n"
            "c = SimulationConfig(num_tiles=8, seed=3)\n"
            "c.sync.model = 'lax_p2p'\n"
            "print(c.content_hash())\n")
        hashes = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True)
            hashes.add(out.stdout.strip())
        local = SimulationConfig(num_tiles=8, seed=3)
        local.sync.model = "lax_p2p"
        hashes.add(local.content_hash())
        assert len(hashes) == 1

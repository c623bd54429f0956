"""Result-store tests: canonical encoding, atomicity, job identity."""

from __future__ import annotations

import json

import pytest

from repro.ckpt.store import write_entry
from repro.common.config import SimulationConfig
from repro.common.errors import ServeError
from repro.distrib.wire import PickledProgram, WorkloadRef
from repro.serve.store import (
    FORMAT,
    ResultStore,
    canonical_result_bytes,
    job_key,
    program_descriptor,
    result_from_jsonable,
    result_to_jsonable,
)
from repro.sim.results import SimulationResult


def _result(cycles: int = 1000) -> SimulationResult:
    return SimulationResult(
        simulated_cycles=cycles,
        wall_clock_seconds=1.5,
        native_seconds=0.01,
        thread_cycles={0: cycles, 1: cycles - 7},
        thread_instructions={0: 400, 1: 380},
        counters={"transport.messages_sent": 12},
        thread_start_cycles={0: 0, 1: 55},
        core_busy_seconds={0: 0.7, 1: 0.6},
        skew_trace=[(10.0, 2.0, -1.0)],
        miss_breakdown={"cold": 3},
        main_result={"checksum": 42},
    )


def _ref():
    return WorkloadRef("matrix_multiply", 2, 0.05)


class TestCanonicalEncoding:
    def test_round_trip_is_lossless(self):
        original = _result()
        rebuilt = result_from_jsonable(result_to_jsonable(original))
        assert rebuilt == original
        # Dict keys come back as ints, tuples as tuples.
        assert set(rebuilt.thread_cycles) == {0, 1}
        assert rebuilt.skew_trace == [(10.0, 2.0, -1.0)]

    def test_bytes_are_deterministic(self):
        assert canonical_result_bytes(_result(), "k") \
            == canonical_result_bytes(_result(), "k")

    def test_bytes_differ_when_metrics_differ(self):
        assert canonical_result_bytes(_result(1000), "k") \
            != canonical_result_bytes(_result(1001), "k")

    def test_unjsonable_main_result_dropped_and_flagged(self):
        result = _result()
        result.main_result = object()
        data = result_to_jsonable(result)
        assert data["main_result"] is None
        assert data["main_result_dropped"] is True
        rebuilt = result_from_jsonable(data)
        assert rebuilt.main_result is None


class TestJobKey:
    def _config(self, seed: int = 42) -> SimulationConfig:
        return SimulationConfig(num_tiles=2, seed=seed)

    def test_equal_jobs_share_a_key(self):
        assert job_key(self._config(), _ref()) \
            == job_key(self._config(), _ref())

    def test_seed_flip_changes_the_key(self):
        assert job_key(self._config(7), _ref()) \
            != job_key(self._config(8), _ref())

    def test_observational_sections_do_not_change_the_key(self):
        plain = self._config()
        observed = self._config()
        observed.telemetry.enabled = True
        observed.ckpt.dir = "/tmp/somewhere"
        observed.profile.enabled = True
        observed.distrib.backend = "mp"
        assert job_key(plain, _ref()) == job_key(observed, _ref())

    def test_program_identity_is_in_the_key(self):
        config = self._config()
        assert job_key(config, _ref()) \
            != job_key(config, WorkloadRef("fft", 2, 0.05))
        assert job_key(config, _ref()) \
            != job_key(config, WorkloadRef("matrix_multiply", 2, 0.06))

    def test_args_are_in_the_key(self):
        config = self._config()
        assert job_key(config, _ref(), ("a",)) \
            != job_key(config, _ref(), ("b",))

    def test_unjsonable_args_rejected(self):
        with pytest.raises(ServeError, match="JSON"):
            job_key(self._config(), _ref(), (object(),))

    def test_workload_descriptor_is_structural(self):
        desc = program_descriptor(_ref())
        assert desc["kind"] == "workload"
        assert desc["workload"] == "matrix_multiply"

    def test_pickled_descriptor_hashes_the_blob(self):
        a = program_descriptor(PickledProgram(b"blob-a"))
        b = program_descriptor(PickledProgram(b"blob-b"))
        assert a["kind"] == "pickled"
        assert a["sha256"] != b["sha256"]


class TestResultStore:
    KEY = "a" * 64

    def test_put_then_get_round_trips(self, tmp_path):
        store = ResultStore(str(tmp_path))
        blob = store.put(self.KEY, _result())
        assert self.KEY in store
        assert store.get_bytes(self.KEY) == blob
        envelope = store.get(self.KEY)
        assert envelope["format"] == FORMAT
        assert store.get_result(self.KEY) == _result()

    def test_duplicate_identical_put_is_idempotent(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(self.KEY, _result())
        store.put(self.KEY, _result())
        assert store.keys() == [self.KEY]

    def test_conflicting_put_is_a_determinism_violation(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(self.KEY, _result(1000))
        with pytest.raises(ServeError, match="determinism violation"):
            store.put(self.KEY, _result(9999))

    def test_a_corrupt_copy_is_a_miss_and_put_replaces_it(self, tmp_path):
        store = ResultStore(str(tmp_path))
        blob = store.put(self.KEY, _result())
        path = tmp_path / self.KEY / "result.json"
        path.write_bytes(blob.replace(b'"simulated_cycles":1000',
                                      b'"simulated_cycles":1001'))
        assert self.KEY not in store
        with pytest.raises(ServeError, match="corrupt"):
            store.get_bytes(self.KEY)
        assert store.put(self.KEY, _result()) == blob
        assert store.get_bytes(self.KEY) == blob

    def test_missing_key_is_absent(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert self.KEY not in store
        assert store.get(self.KEY) is None
        assert store.get_result(self.KEY) is None

    def test_malformed_keys_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for bad in ("", "../escape", ".hidden"):
            with pytest.raises(ServeError):
                store.path_for(bad)

    def test_no_tmp_droppings_after_put(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(self.KEY, _result())
        assert [p.name for p in tmp_path.iterdir()] == [self.KEY]

    def test_unsupported_format_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path))
        blob = json.dumps({"format": "repro.result/999", "result": {}})
        write_entry(store.root, self.KEY, {"result.json": blob.encode()},
                    {"format": FORMAT})
        with pytest.raises(ServeError, match="unsupported format"):
            store.get(self.KEY)

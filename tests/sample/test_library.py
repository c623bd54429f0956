"""Snapshot library: keying, entries, prefix sharing, determinism."""

import json
import os
import subprocess
import sys

import pytest

from repro.common.config import SimulationConfig
from repro.common.errors import SampleError
from repro.ckpt.store import program_descriptor
from repro.sample.library import SnapshotLibrary, roi_metrics
from repro.serve.store import canonical_result_bytes
from repro.sim.experiment import sweep
from repro.sim.runner import run_simulation
from tests.conftest import dead_pid, tiny_config


def long_program(ctx):
    base = yield from ctx.malloc(512)
    for i in range(400):
        yield from ctx.store_u64(base + (i % 16) * 8, i)
        yield from ctx.compute(20)


def library_config(tmp_path=None, ff_until=1500, **overrides):
    config = tiny_config(2)
    config.sample.ff_until = ff_until
    if tmp_path is not None:
        config.sample.library = str(tmp_path / "lib")
    for dotted, value in overrides.items():
        section, _, field = dotted.partition("__")
        setattr(getattr(config, section), field, value)
    config.validate()
    return config


class TestKeying:
    def key(self, library, **overrides):
        return library.key(library_config(**overrides), long_program)

    def test_stable(self, tmp_path):
        library = SnapshotLibrary(str(tmp_path))
        assert self.key(library) == self.key(library)

    def test_core_model_swap_shares_entry(self, tmp_path):
        """Timing-only sections are prefix-irrelevant: a core-model
        study forks every variant from one snapshot."""
        library = SnapshotLibrary(str(tmp_path))
        assert (self.key(library)
                == self.key(library, core__model="out_of_order"))

    def test_network_swap_shares_entry(self, tmp_path):
        library = SnapshotLibrary(str(tmp_path))
        assert (self.key(library)
                == self.key(library, network__memory_model="ring"))

    def test_interval_geometry_shares_entry(self, tmp_path):
        """Sampling geometry past the switch point is post-prefix."""
        library = SnapshotLibrary(str(tmp_path))
        base = self.key(library)
        config = library_config(ff_until=1500)
        config.sample.period = 4000
        config.sample.detail = 1000
        config.sample.warmup = 500
        assert library.key(config, long_program) == base

    def test_seed_flip_changes_key(self, tmp_path):
        library = SnapshotLibrary(str(tmp_path))
        config = library_config()
        config.seed = 7
        assert library.key(config, long_program) != self.key(library)

    def test_ff_target_changes_key(self, tmp_path):
        library = SnapshotLibrary(str(tmp_path))
        assert self.key(library) != self.key(library, sample__ff_until=999)

    def test_workload_identity_changes_key(self, tmp_path):
        from repro.distrib.wire import WorkloadRef
        library = SnapshotLibrary(str(tmp_path))
        config = library_config()
        a = library.key(config, WorkloadRef("fft", 2, 0.3))
        b = library.key(config, WorkloadRef("fft", 2, 0.5))
        c = library.key(config, WorkloadRef("lu", 2, 0.3))
        assert len({a, b, c}) == 3

    def test_args_change_key(self, tmp_path):
        library = SnapshotLibrary(str(tmp_path))
        config = library_config()
        assert (library.key(config, long_program, ())
                != library.key(config, long_program, (1,)))

    def test_unencodable_args_are_a_typed_error(self, tmp_path):
        library = SnapshotLibrary(str(tmp_path))
        with pytest.raises(SampleError, match="JSON-encodable"):
            library.key(library_config(), long_program, (object(),))

    def test_key_stable_across_hash_seeds(self, tmp_path):
        """The key must not depend on ``PYTHONHASHSEED`` — a serve
        fleet's children must agree on entry identity."""
        script = (
            "from repro.common.config import SimulationConfig\n"
            "from repro.distrib.wire import WorkloadRef\n"
            "from repro.sample.library import SnapshotLibrary\n"
            "c = SimulationConfig(num_tiles=4, seed=11)\n"
            "c.sample.ff_until = 5000\n"
            "c.validate()\n"
            "lib = SnapshotLibrary(%r)\n"
            "print(lib.key(c, WorkloadRef('fft', 4, 0.3)))\n"
            % str(tmp_path))
        keys = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (os.path.join(os.getcwd(), "src"),
                            env.get("PYTHONPATH")) if p)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True)
            keys.add(out.stdout.strip())
        assert len(keys) == 1

    def test_descriptor_for_named_workload(self):
        from repro.distrib.wire import WorkloadRef
        descriptor = program_descriptor(WorkloadRef("fft", 4, 0.5))
        assert descriptor["workload"] == "fft"
        assert descriptor["nthreads"] == 4
        assert descriptor["scale"] == 0.5


class TestEntries:
    def test_prime_then_hit(self, tmp_path):
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        key, primed = library.ensure(config, long_program)
        assert primed and library.has(key)
        again, primed_again = library.ensure(config, long_program)
        assert again == key and not primed_again
        assert library.stats == {"primes": 1, "hits": 1}

    def test_meta_records_identity_and_events(self, tmp_path):
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        key, _ = library.ensure(config, long_program)
        meta = library.meta(key)
        assert meta["library"] == "repro.sample/5"
        assert meta["ff_until"] == config.sample.ff_until
        assert meta["prefix_hash"] == config.prefix_hash()
        # The primer's SAMPLE telemetry rides along: exactly one
        # fast-forward completion.
        names = [event["name"] for event in meta["events"]]
        assert names.count("ff.done") == 1

    def test_foreign_format_entry_is_a_typed_error(self, tmp_path):
        """An entry written by another layout version must never be
        forked silently: every lookup names the entry and the fix."""
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        key, _ = library.ensure(config, long_program)
        path = os.path.join(library.entry_dir(key), "manifest.json")
        with open(path) as handle:
            meta = json.load(handle)
        for old in ("repro.sample/3", "repro.sample/4"):  # previous layouts
            meta["library"] = old
            with open(path, "w") as handle:
                json.dump(meta, handle)
            for lookup in (lambda: library.has(key),
                           lambda: library.meta(key),
                           lambda: library.ensure(config, long_program),
                           lambda: library.fork(key, config)):
                with pytest.raises(SampleError, match="repro sample gc"):
                    lookup()
        # ... and the fix it names works, sparing usable entries.
        other = library_config(tmp_path, ff_until=1800)
        kept, _ = library.ensure(other, long_program)
        from repro.cli import main
        assert main(["sample", "gc", "--library", library.root]) == 0
        assert library.keys() == [kept]

    def test_gc_drops_an_old_nested_entry_and_spares_stages(
            self, tmp_path, capsys):
        """A ``/4`` entry (``LIBRARY.json`` over a nested checkpoint
        root) is no entry of this layout: ``ls`` names the fix, ``gc``
        drops it, keeps the current entry, drops a dead primer's stage
        and never touches a live primer's."""
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        key, _ = library.ensure(config, long_program)
        old = os.path.join(library.root, "2e5ee2b2a401fc1f")
        os.makedirs(os.path.join(old, "ckpt-00000001"))
        for name, text in (("LIBRARY.json", '{"format": "repro.sample/4"}'),
                           ("LATEST", "ckpt-00000001\n"),
                           ("ckpt-00000001/manifest.json", "{}")):
            with open(os.path.join(old, name), "w") as handle:
                handle.write(text)
        live = f".{key}.{os.getpid()}.999999"
        dead = f".{key}.{dead_pid()}.0"
        for stage in (live, dead):
            os.makedirs(os.path.join(library.root, stage))
            with open(os.path.join(library.root, stage, "manifest.json"),
                      "w") as handle:
                handle.write("{}")
        from repro.cli import main
        assert main(["sample", "ls", "--library", library.root]) == 1
        assert "`repro sample gc" in capsys.readouterr().err
        assert main(["sample", "gc", "--library", library.root]) == 0
        out = capsys.readouterr().out
        assert "dropped 2e5ee2b2a401fc1f" in out
        assert f"dropped {dead}" in out
        assert sorted(os.listdir(library.root)) == [live, key]
        assert main(["sample", "ls", "--library", library.root,
                     "--json"]) == 0
        [listed] = json.loads(capsys.readouterr().out)
        assert sorted(listed) == ["backend", "descriptor", "events",
                                  "ff_until", "key", "num_tiles",
                                  "prefix_hash"]
        assert listed["key"] == key

    def test_gc_leaves_what_no_library_wrote(self, tmp_path, capsys):
        """Pointed at the wrong directory, ``gc`` drops nothing: a
        checkpoint root's turns and ``LATEST``, a nested checkpoint
        root and a stray file all survive, beside a library entry."""
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        key, _ = library.ensure(config, long_program)
        from repro.ckpt.store import CheckpointStore
        for root in (library.root, os.path.join(library.root, "run")):
            CheckpointStore(root, config=config.to_dict()).write(
                turn=20, backend="inproc", blobs={"coordinator": b"state"})
        with open(os.path.join(library.root, "notes.txt"), "w") as handle:
            handle.write("mine")
        before = sorted(os.listdir(library.root))
        from repro.cli import main
        assert main(["sample", "gc", "--library", library.root,
                     "--keep", "0"]) == 0
        assert "dropped ckpt" not in capsys.readouterr().out
        assert sorted(os.listdir(library.root)) == [
            name for name in before if name != key]
        assert sorted(os.listdir(os.path.join(library.root, "run"))) == [
            "LATEST", "ckpt-00000020"]
        assert main(["sample", "ls", "--library", library.root]) == 0
        assert "no entries" in capsys.readouterr().out

    def test_a_corrupt_entry_is_primed_again(self, tmp_path):
        """An entry whose blob fails its checksum cannot be forked;
        the next ``ensure`` treats it as a miss and primes it anew."""
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        key, _ = library.ensure(config, long_program)
        blob = os.path.join(library.entry_dir(key), "coordinator.pkl")
        with open(blob, "r+b") as handle:
            handle.seek(100)
            byte = handle.read(1)
            handle.seek(100)
            handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(SampleError, match="corrupt"):
            library.fork(key, config)
        assert library.ensure(config, long_program) == (key, True)
        forked = library.fork(key, config).resume_run()
        unshared = config.copy()
        unshared.sample.library = None
        assert (roi_metrics(forked)
                == roi_metrics(run_simulation(unshared, long_program)))

    def test_entries_and_drop(self, tmp_path):
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        key, _ = library.ensure(config, long_program)
        assert [k for k, _ in library.entries()] == [key]
        assert library.drop(key)
        assert library.entries() == []
        assert not library.drop(key)

    def test_a_second_primer_of_one_key_leaves_the_first_whole(
            self, tmp_path, monkeypatch):
        """A second primer of the same key, run between the first's
        fast-forward and its metadata write, must neither kill the
        first nor leave two entries: both return the one entry, and a
        fork from it equals the unshared run."""
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        events = SnapshotLibrary._sample_events
        inner = []

        def nested(simulator):
            if not inner:
                inner.append(None)
                inner[0] = library.prime(config, long_program)
            return events(simulator)

        monkeypatch.setattr(SnapshotLibrary, "_sample_events",
                            staticmethod(nested))
        outer = library.prime(config, long_program)
        key = library.key(config, long_program)
        assert inner == [outer] == [library.entry_dir(key)]
        assert [k for k, _ in library.entries()] == [key]
        assert os.listdir(library.root) == [key]  # no staging left over
        monkeypatch.undo()
        outcome = library.verify(config, long_program)
        assert outcome["identical"] and not outcome["primed"]

    def test_priming_requires_ff(self, tmp_path):
        config = library_config(tmp_path, ff_until=0)
        library = SnapshotLibrary(str(tmp_path / "lib"))
        with pytest.raises(SampleError):
            library.prime(config, long_program)

    def test_short_workload_fails_loudly(self, tmp_path):
        config = library_config(tmp_path, ff_until=10_000_000)
        library = SnapshotLibrary(config.sample.library)
        with pytest.raises(SampleError, match="finished before"):
            library.prime(config, long_program)

    def test_fork_unknown_key(self, tmp_path):
        library = SnapshotLibrary(str(tmp_path))
        with pytest.raises(SampleError, match="no library entry"):
            library.fork("deadbeefdeadbeef", library_config())


class TestForkDeterminism:
    def test_forked_equals_unshared(self, tmp_path):
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        outcome = library.verify(config, long_program)
        assert outcome["identical"]

    def test_core_variant_forked_equals_unshared(self, tmp_path):
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        library.ensure(config, long_program)
        variant = library_config(tmp_path, core__model="out_of_order")
        outcome = library.verify(variant, long_program)
        assert outcome["identical"]
        assert not outcome["primed"]  # shared the in-order prefix
        assert library.stats["primes"] == 1

    def test_interval_variant_forked_equals_unshared(self, tmp_path):
        """Warmup-first period geometry keeps an interval-sampled fork
        byte-identical to the unshared run (the fork must discard the
        primer's open window when the variant starts in warmup)."""
        config = library_config(tmp_path)
        config.sample.period = 4000
        config.sample.detail = 1000
        config.sample.warmup = 600
        config.validate()
        library = SnapshotLibrary(config.sample.library)
        outcome = library.verify(config, long_program)
        assert outcome["identical"]


    def test_a_fork_snapshotted_mid_block_resumes_identically(
            self, tmp_path):
        """A fork leaves fast-forward with no jitter drawn (it charges
        nothing); checkpointed from there on, every snapshot holds a
        partly spent block and resumes to the unshared run's bytes."""
        from repro.ckpt.recovery import load_checkpoint
        from repro.ckpt.store import CheckpointStore
        from repro.distrib.wire import make_program_ref
        from repro.host.costmodel import BLOCK
        unshared = run_simulation(library_config(), long_program)
        config = library_config(tmp_path, ckpt__dir=str(tmp_path / "ck"),
                                ckpt__every=3, ckpt__keep=99)
        library = SnapshotLibrary(config.sample.library)
        key, _ = library.ensure(config, long_program)
        assert library.fork(key, config).cost_model._factors == []
        forked = run_simulation(config, make_program_ref(long_program))
        assert not forked.sample["library"]["primed"]
        names = CheckpointStore(config.ckpt.dir).list()
        assert len(names) >= 3
        for name in names:
            restored, _ = load_checkpoint(config.ckpt.dir, name)
            assert 0 < len(restored.cost_model._factors) < BLOCK
            assert (canonical_result_bytes(restored.resume_run())
                    == canonical_result_bytes(unshared))


class TestSharedPrefixSweep:
    def test_three_variant_sweep_primes_once(self, tmp_path):
        """The acceptance scenario: a 3-variant sweep over one prefix
        performs exactly one fast-forward."""
        library = SnapshotLibrary(str(tmp_path / "lib"))
        configs = []
        for model, width in (("in_order", 1), ("in_order", 2),
                             ("out_of_order", 2)):
            config = library_config(tmp_path)
            config.core.model = model
            config.core.dispatch_width = width
            config.validate()
            configs.append(config)
        results = sweep(configs, long_program, share_prefix=True,
                        library=library)
        assert len(results) == 3
        assert library.stats == {"primes": 1, "hits": 2}
        keys = {r.sample["library"]["key"] for r in results}
        assert len(keys) == 1
        assert [r.sample["library"]["primed"] for r in results] \
            == [True, False, False]
        # Exactly one fast-forward in the primed entry's telemetry.
        meta = library.meta(keys.pop())
        names = [event["name"] for event in meta["events"]]
        assert names.count("ff.done") == 1

    def test_explicit_library_needs_no_config_root(self, tmp_path):
        """The documented calling convention: passing ``library=``
        serves every fast-forwarding variant even when no config names
        a library directory — sweep fills the root in itself."""
        library = SnapshotLibrary(str(tmp_path / "lib"))
        configs = []
        for model in ("in_order", "out_of_order"):
            config = library_config(None)  # sample.library unset
            config.core.model = model
            config.validate()
            assert not config.sample.library
            configs.append(config)
        results = sweep(configs, long_program, share_prefix=True,
                        library=library)
        assert library.stats == {"primes": 1, "hits": 1}
        assert [r.sample["library"]["root"] for r in results] \
            == [library.root] * 2

    def test_single_job_pooled_sweep_forks_like_the_serial_one(
            self, tmp_path):
        """One job leaves the pool one effective worker, which used to
        bypass the library: no annotation, a second fast-forward."""
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        [pooled] = sweep([config], long_program, workers=2,
                         share_prefix=True, library=library)
        assert pooled.sample["library"]["primed"] is False
        assert library.stats["primes"] == 1
        [serial] = sweep([config], long_program, share_prefix=True)
        assert (canonical_result_bytes(pooled)
                == canonical_result_bytes(serial))

    def test_sweep_without_share_prefix_runs_unshared(self, tmp_path):
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        results = sweep([config], long_program)
        assert len(results) == 1
        assert library.stats == {"primes": 0, "hits": 0}

    def test_launch_with_library_annotates_result(self, tmp_path):
        config = library_config(tmp_path)
        result = run_simulation(config, long_program)
        annotation = result.sample["library"]
        assert annotation["primed"]
        assert annotation["root"] == config.sample.library
        forked = run_simulation(config, long_program)
        assert not forked.sample["library"]["primed"]
        assert (roi_metrics(forked) == roi_metrics(result))

"""The command-line interface."""

import json

import pytest

from repro.cli import main
from repro.workloads.base import KERNEL_MODULES


class TestListWorkloads:
    def test_lists_all(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        for name in KERNEL_MODULES:
            assert name in out


class TestShowConfig:
    def test_emits_valid_json_defaults(self, capsys):
        assert main(["show-config"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["num_tiles"] == 32
        assert data["memory"]["l2"]["size_bytes"] == 3 * 1024 * 1024


class TestRun:
    def test_text_output(self, capsys):
        code = main(["run", "--workload", "fmm", "--tiles", "4",
                     "--scale", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated run-time" in out
        assert "slowdown" in out

    def test_json_output(self, capsys):
        code = main(["run", "--workload", "cholesky", "--tiles", "4",
                     "--scale", "0.2", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "cholesky"
        assert data["simulated_cycles"] > 0
        assert data["instructions"] > 0

    def test_threads_defaults_to_tiles(self, capsys):
        main(["run", "--workload", "fmm", "--tiles", "4",
              "--scale", "0.2", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["threads"] == 4

    def test_directory_and_sync_options(self, capsys):
        code = main(["run", "--workload", "blackscholes", "--tiles",
                     "4", "--scale", "0.2", "--directory", "limitless",
                     "--sync", "lax_p2p", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sync"] == "lax_p2p"

    def test_classify_misses(self, capsys):
        main(["run", "--workload", "fmm", "--tiles", "4", "--scale",
              "0.2", "--classify-misses", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert sum(data["miss_breakdown"].values()) > 0

    def test_quantum_override(self, capsys):
        code = main(["run", "--workload", "fmm", "--tiles", "4",
                     "--scale", "0.2", "--quantum", "100", "--json"])
        assert code == 0

    def test_unknown_workload_fails(self):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError):
            main(["run", "--workload", "specint"])

    def test_bad_choice_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "fmm", "--sync", "strict"])

    def test_machines_option(self, capsys):
        main(["run", "--workload", "fmm", "--tiles", "4", "--scale",
              "0.2", "--machines", "2", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["machines"] == 2


class TestCheckpointCli:
    def test_run_then_resume_matches(self, tmp_path, capsys):
        """`repro run --ckpt-dir` then `repro resume` end-to-end: the
        resumed run reports the same metrics as the checkpointed run
        (the CI resume-smoke job is this flow across two processes)."""
        ckpt = str(tmp_path / "ck")
        code = main(["run", "--workload", "matrix_multiply", "--tiles",
                     "4", "--scale", "0.05", "--quantum", "200",
                     "--ckpt-dir", ckpt, "--ckpt-every", "20",
                     "--json"])
        assert code == 0
        original = json.loads(capsys.readouterr().out)
        assert original["recoveries"] == []

        assert main(["resume", ckpt, "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        shared = set(original) & set(resumed)
        assert "simulated_cycles" in shared
        for key in shared:
            assert resumed[key] == original[key], key

    def test_resume_text_output(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ck")
        main(["run", "--workload", "matrix_multiply", "--tiles", "4",
              "--scale", "0.05", "--quantum", "200",
              "--ckpt-dir", ckpt, "--ckpt-every", "20", "--json"])
        capsys.readouterr()
        assert main(["resume", ckpt]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert "simulated run-time" in out

    def test_ckpt_every_requires_dir(self):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError, match="ckpt-dir"):
            main(["run", "--workload", "fmm", "--tiles", "4",
                  "--scale", "0.2", "--ckpt-every", "10"])

    def test_resume_without_checkpoint_fails(self, tmp_path, capsys):
        """A usage error, not a traceback; and reading creates nothing."""
        missing = tmp_path / "nothing-here"
        assert main(["resume", str(missing)]) == 1
        assert capsys.readouterr().err.startswith("resume: no checkpoint")
        assert not missing.exists()


class _Stop(Exception):
    """Raised by a stub to end a verb once its config is built."""


#: Every target flag away from its default.
ALL_TARGET_FLAGS = ["--workload", "radix", "--tiles", "8", "--threads",
                    "4", "--scale", "0.5", "--seed", "7", "--machines",
                    "2", "--cores", "2", "--sync", "lax_barrier",
                    "--directory", "limited", "--sharers", "2",
                    "--network", "ring", "--quantum", "150",
                    "--classify-misses"]


class TestOneFrontDoor:
    """``run``, ``submit`` and ``sample prime`` name a target with the
    same flags and build the same config from them."""

    def _run(self, monkeypatch, argv):
        import repro.cli
        built = {}

        def launch(config, program):
            built.update(config=config, program=program)
            raise _Stop
        monkeypatch.setattr(repro.cli, "launch", launch)
        with pytest.raises(_Stop):
            main(["run"] + argv)
        return built["config"], built["program"]

    def _submit(self, monkeypatch, argv):
        from repro.distrib.wire import WorkloadRef
        import repro.serve.cli
        built = {}

        class Client:
            def submit(self, config, workload, nthreads, scale,
                       priority):
                built.update(config=config, program=WorkloadRef(
                    workload, nthreads, scale))
                raise _Stop
        monkeypatch.setattr(repro.serve.cli, "_client",
                            lambda args: Client())
        with pytest.raises(_Stop):
            main(["submit", "--dir", "spool"] + argv)
        return built["config"], built["program"]

    def _prime(self, monkeypatch, argv):
        from repro.sample.library import SnapshotLibrary
        built = {}

        def ensure(library, config, program, args=()):
            built.update(config=config, program=program)
            raise _Stop
        monkeypatch.setattr(SnapshotLibrary, "ensure", ensure)
        with pytest.raises(_Stop):
            main(["sample", "prime", "--library", "lib"] + argv)
        return built["config"], built["program"]

    @pytest.mark.parametrize("flags", [
        ALL_TARGET_FLAGS,
        ["--workload", "fft", "--tiles", "4", "--directory",
         "limitless", "--network", "torus", "--sync", "lax_p2p"],
    ])
    def test_run_submit_and_prime_build_one_config(self, monkeypatch,
                                                   flags):
        run, run_program = self._run(monkeypatch, flags)
        submit, submit_program = self._submit(monkeypatch, flags)
        assert submit.content_hash() == run.content_hash()
        assert submit_program == run_program
        ff = ["--ff-until", "8000"]
        run_ff, _ = self._run(monkeypatch, flags + ff)
        prime, prime_program = self._prime(monkeypatch, flags + ff)
        assert prime.content_hash() == run_ff.content_hash()
        assert prime.prefix_hash() == run_ff.prefix_hash()
        assert prime_program == run_program

    def test_prime_files_the_entry_a_limited_directory_run_forks(
            self, tmp_path, capsys):
        library = str(tmp_path / "slib")
        target = ["--workload", "fft", "--tiles", "4", "--scale", "0.3",
                  "--ff-until", "8000", "--directory", "limited"]
        assert main(["sample", "prime", "--library", library]
                    + target) == 0
        assert "primed" in capsys.readouterr().out
        assert main(["run"] + target + ["--sample-library", library,
                                        "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sample"]["library"]["primed"] is False

    @pytest.mark.parametrize("spec", ["10:2", "a:b:c"])
    def test_malformed_sample_spec_is_a_config_error(self, spec):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError, match="interval spec"):
            main(["run", "--workload", "fft", "--ff-until", "100",
                  "--sample", spec])

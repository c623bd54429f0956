"""The shipped examples must run cleanly (they are the quickstart docs)."""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "simulated run-time" in out
        assert "slowdown" in out

    def test_custom_workload(self, capsys):
        out = run_example("custom_workload.py", capsys)
        assert "all jobs accounted for: True" in out

    def test_network_exploration(self, capsys):
        out = run_example("network_exploration.py", capsys)
        assert "mesh_contention" in out

    @pytest.mark.slow
    def test_sync_tradeoffs(self, capsys):
        out = run_example("sync_tradeoffs.py", capsys)
        assert "lax_barrier" in out

    @pytest.mark.slow
    def test_coherence_study(self, capsys):
        out = run_example("coherence_study.py", capsys)
        assert "Dir4NB" in out

"""The class table: every row names something real, and the model
layers are the same entry points the benchmark's tracer times."""

from __future__ import annotations

import importlib
import importlib.util
import os
import types

import pytest

from repro.profile.timers import HostProfiler
from repro.profile.instrument import TABLES, installed

#: Layers ``repro.profile`` and ``bench/tracer.py`` must both bracket at
#: the same calls, or a layer's share of one run means two things.
MODEL_LAYERS = {"frontend.interpret", "core.model", "memory.controller",
                "memory.coherence", "memory.dram", "network.fabric",
                "sync.model"}


def table_targets() -> dict:
    """``{(owner, attribute): what it is bound to now}`` for every
    entry point ``repro.profile.instrument`` may rebind."""
    targets = {}
    for rows in TABLES.values():
        for _scope, module, cls, attrs in rows:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            for attr in attrs:
                targets[owner, attr] = getattr(owner, attr)
    return targets


def test_every_row_resolves_to_a_plain_function():
    """A renamed entry point fails here, not as a silently thinner
    profile; and only plain functions rebind as methods."""
    for key, target in table_targets().items():
        assert isinstance(target, types.FunctionType), key


def test_model_layers_match_the_benchmark_tracer():
    path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "bench", "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    theirs = {row[:4] for row in tracer.PATCH_TABLE
              if row[0] in MODEL_LAYERS}
    ours = {row for row in TABLES["inproc"] if row[0] in MODEL_LAYERS}
    assert ours == theirs
    assert {row[0] for row in ours} == MODEL_LAYERS


def test_one_profiled_run_at_a_time():
    with installed(HostProfiler(), "inproc"):
        with pytest.raises(RuntimeError, match="already under way"):
            with installed(HostProfiler(), "worker"):
                pass  # pragma: no cover
    with installed(HostProfiler(), "worker"):
        pass  # the first one put everything back

"""Digests: a mismatch names the op and the first differing field."""

import dataclasses

import checks


def tiny_result(seed=7):
    from repro.common.config import SimulationConfig
    from repro.distrib.wire import WorkloadRef
    from repro.sim.runner import create_simulator
    config = SimulationConfig(num_tiles=4, seed=seed)
    return create_simulator(config).run(WorkloadRef("fft", 4, 0.2))


def test_mismatch_names_op_and_first_differing_field():
    result = tiny_result()
    ours = {"fft@0.2": checks.result_digest(result)}
    same = {"fft@0.2": checks.result_digest(tiny_result())}
    assert checks.compare_digests("x", ours, same) == []

    moved = dataclasses.replace(
        result, simulated_cycles=result.simulated_cycles + 1,
        thread_cycles={**result.thread_cycles, 0: 1})
    theirs = {"fft@0.2": checks.result_digest(moved)}
    (problem,) = checks.compare_digests("pins", ours, theirs)
    assert "op fft@0.2" in problem
    # Fields are compared in name order: simulated_cycles < thread_cycles.
    assert "'simulated_cycles'" in problem


def test_library_annotation_is_not_part_of_the_digest():
    result = tiny_result()
    forked = dataclasses.replace(
        result, sample={"library": {"root": "/tmp/x", "primed": True}})
    primed = dataclasses.replace(
        result, sample={"library": {"root": "/tmp/y", "primed": False}})
    assert checks.result_digest(forked) == checks.result_digest(primed)


def test_missing_op_is_a_failure_unless_reference():
    digest = checks.result_digest(tiny_result())
    both = {"a": digest, "b": digest}
    assert len(checks.compare_digests("x", both, {"a": digest})) == 1
    assert checks.compare_digests("x", both, {"a": digest},
                                  require_all=False) == []


def test_repin_reports_what_changed(tmp_path):
    path = str(tmp_path / "pins.json")
    digest = checks.result_digest(tiny_result())
    other = checks.result_digest(tiny_result(seed=8))
    assert checks.write_pins({"w": {"a": digest}}, path) == [
        f"w/a: absent -> {digest['sha256'][:12]}"]
    assert checks.write_pins({"w": {"a": digest}}, path) == []
    (change,) = checks.write_pins({"w": {"a": other}}, path)
    assert digest["sha256"][:12] in change and other["sha256"][:12] in change
    assert checks.load_pins(path) == {"w": {"a": other}}


def test_character_limits():
    character = {"memory.coh_tx_per_kinstr": 2.0}
    assert checks.character_failures(
        character, {"memory.coh_tx_per_kinstr": ("<=", 1.0)})
    assert not checks.character_failures(
        character, {"memory.coh_tx_per_kinstr": (">=", 1.0)})

"""Core-model factory: the swappable-module point of paper §3.1.

"Because the core performance model is isolated from the functional
portion of the simulator, there is great flexibility in implementing it
to match the target architecture."  Both models consume the same
instruction / pseudo-instruction streams and expose the same interface,
so swapping them changes every downstream clock-derived quantity —
memory and network utilization included — without touching functional
execution.
"""

from __future__ import annotations

from repro.common.config import CoreConfig
from repro.common.errors import ConfigError
from repro.common.stats import StatGroup
from repro.core.perf_model import CoreModel, CorePerfModel


def create_core_model(config: CoreConfig, stats: StatGroup,
                      telemetry=None, tile=None) -> CoreModel:
    """Instantiate the configured core timing model.

    ``telemetry`` is an optional SYNC-category channel for stall
    events; ``tile`` labels them (the core model itself has no notion
    of placement).
    """
    if config.model == "in_order":
        return CorePerfModel(config, stats, telemetry, tile)
    if config.model == "out_of_order":
        from repro.core.ooo_model import OutOfOrderCoreModel
        return OutOfOrderCoreModel(config, stats, telemetry, tile)
    raise ConfigError(f"unknown core model {config.model!r}")


def redress_core(interpreter, target: CoreConfig) -> None:
    """Give a restored thread the core model ``target`` describes.

    A snapshot-library fork (:mod:`repro.sample.library`) resumes a
    shared fast-forward checkpoint under a *variant* config; a plain
    resume restores under the identical one and rebuilds nothing.
    Fast-forward advances only the clock and the retired-instruction
    counter, so a freshly built model plus those two is exactly the
    state an unshared run of the variant has; the ``core`` stat
    subtree is rebuilt with it, so no counter of the primer's model
    type survives.
    """
    old = interpreter.core
    if not hasattr(old, "config") or old.config == target:
        return  # (mp coordinator stubs carry no model at all)
    tile = int(interpreter.tile)
    stats = interpreter.kernel.stats.child(f"thread{tile}")
    stats.children.pop("core", None)
    core = create_core_model(target, stats.child("core"),
                             telemetry=None, tile=tile)
    core.clock.forward_to(old.clock.now)
    if old.instruction_count:
        core._instructions.add(old.instruction_count)
    interpreter.core = core

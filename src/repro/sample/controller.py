"""The sample controller: the boundary stage that switches execution mode.

Armed by the simulator as the scheduler's ``sample`` stage with period
1, so it runs between every pair of scheduler quanta — the same
consistency boundary checkpoints use.  Each invocation computes the progress horizon (the
maximum live thread clock — elapsed target time), asks
:mod:`repro.sample.intervals` which phase that horizon falls in, and
reconciles the simulator's execution mode with the phase.  Detail
windows are measured by differencing the horizon and the scheduler's
retired-instruction total at the window edges;
:mod:`repro.sample.stats` turns the resulting per-window CPI samples
into an extrapolated whole-run cycle count.

Everything here reads only backend-identical state (thread clocks,
instruction totals, the turn counter), so a sampled run remains
byte-identical across the inproc and mp backends.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.config import SampleConfig
from repro.common.errors import SimulationError
from repro.sample.intervals import DETAIL, phase_at


class FastForwardDone(SimulationError):
    """Internal unwind: a fast-forward-only run reached its target.

    Raised by the controller (between quanta, like serve preemption's
    :class:`~repro.serve.worker.JobPreempted`) when ``stop_after_ff``
    is set — the snapshot-library priming path, which wants the
    checkpoint written at the switch point and nothing further.
    """

    def __init__(self, checkpoint_dir: str) -> None:
        super().__init__(f"fast-forward complete: {checkpoint_dir}")
        self.checkpoint_dir = checkpoint_dir


class SampleController:
    """Drives mode switches and window measurement for one simulator."""

    def __init__(self, simulator: Any, config: SampleConfig) -> None:
        self.simulator = simulator
        self.config = config
        #: SAMPLE-category telemetry channel, or ``None``; set by the
        #: simulator's ``_arm_boundary`` on build and after a restore.
        self.channel: Optional[Any] = None
        #: Library priming (:mod:`repro.sample.library`): checkpoint at
        #: the fast-forward switch point and unwind with
        #: :class:`FastForwardDone` instead of running on.
        self.stop_after_ff = False
        #: Set once the initial ``ff_until`` fast-forward completed.
        self.ff_done = config.ff_until <= 0
        #: Cycle and turn at which the initial fast-forward ended.
        self.ff_cycle: Optional[int] = None
        self.ff_turn: Optional[int] = None
        #: Every mode switch: ``{"turn", "cycle", "mode"}``.
        self.switches: List[Dict[str, Any]] = []
        #: Closed measurement windows (see :meth:`_close_window`).
        self.windows: List[Dict[str, Any]] = []
        self._open_window: Optional[Dict[str, Any]] = None
        # Monotone progress horizon: ``max(live clocks)`` can regress
        # when the leading thread finishes (DONE threads leave the
        # pool), which must never run a phase backwards or produce a
        # negative-length window.
        self._horizon = 0

    # -- the boundary stage --------------------------------------------------

    def __call__(self, scheduler: Any) -> None:
        clocks = scheduler.thread_clocks()
        if not clocks:
            return
        # Phases and windows are both gated on the *horizon* — the
        # maximum live thread clock, i.e. elapsed target time.  The
        # minimum would pin the schedule to whichever thread is blocked
        # longest (a worker parked on a recv during a serial phase
        # freezes the minimum for tens of thousands of cycles), which
        # both stalls mode switches and makes measurement windows cover
        # wildly unequal stretches of target time; horizon gating keeps
        # window placement time-uniform, which is what makes the
        # ratio-estimator extrapolation (:mod:`repro.sample.stats`)
        # unbiased.  Either choice is deterministic and
        # backend-identical; this one is also statistically sound.
        self._horizon = max(self._horizon, max(clocks))
        horizon = self._horizon
        phase = phase_at(self.config, horizon)
        finished_ff = not self.ff_done and not phase.functional
        if finished_ff:
            self.ff_done = True
            self.ff_cycle = horizon
            self.ff_turn = scheduler.turns
            self._emit("ff.done", horizon,
                       {"target": self.config.ff_until,
                        "turn": scheduler.turns})
        self._reconcile_mode(scheduler, horizon, phase.functional)
        self._reconcile_window(scheduler, horizon,
                               phase.name == DETAIL)
        if finished_ff and self.stop_after_ff:
            # Library priming: snapshot at the switch point and unwind.
            # The snapshot is written only after this stage's full
            # bookkeeping — mode flipped back to detailed, measurement
            # window opened — so a fork resumes with *exactly* the
            # state an unshared run carries out of this invocation.
            path = self.simulator.save_checkpoint()
            raise FastForwardDone(path)

    def _reconcile_mode(self, scheduler: Any, horizon: int,
                        functional: bool) -> None:
        if functional == self.simulator.exec_functional:
            return
        mode = "functional" if functional else "detailed"
        self.simulator.set_execution_mode(mode)
        self.switches.append({"turn": scheduler.turns,
                              "cycle": horizon, "mode": mode})
        self._emit("mode", horizon,
                   {"mode": mode, "turn": scheduler.turns})

    # -- measurement windows -------------------------------------------------

    def _reconcile_window(self, scheduler: Any, horizon: int,
                          measuring: bool) -> None:
        if measuring and self._open_window is None:
            self._open_window = {
                "start": horizon,
                "start_turn": scheduler.turns,
                "start_clock_sum": scheduler.total_cycles(),
                "start_instructions": scheduler.instructions_retired,
            }
        elif not measuring and self._open_window is not None:
            self._close_window(scheduler, horizon)

    def _close_window(self, scheduler: Any, horizon: int) -> None:
        opened = self._open_window
        assert opened is not None
        self._open_window = None
        instructions = (scheduler.instructions_retired
                        - opened["start_instructions"])
        window = {
            "start": opened["start"],
            "end": horizon,
            "turns": scheduler.turns - opened["start_turn"],
            # Position in the retired-instruction stream, for the
            # gap-reconstruction extrapolator (:mod:`repro.sample.
            # stats`): instructions retired before the window opened.
            "instructions_before": opened["start_instructions"],
            # Horizon advance: how far elapsed target time moved during
            # the window.  This is the numerator of the CPI that
            # extrapolates ``simulated_cycles`` (a whole-machine rate —
            # all threads retire concurrently while the horizon moves).
            "cycles": horizon - opened["start"],
            # Summed per-thread clock advance, for per-core CPI studies.
            "clock_sum": (scheduler.total_cycles()
                          - opened["start_clock_sum"]),
            "instructions": instructions,
        }
        self.windows.append(window)
        self._emit("window", horizon, dict(window))

    # -- reporting -----------------------------------------------------------

    def summary(self, result: Any) -> Dict[str, Any]:
        """The run's ``result.sample`` payload (see ``sim/results``)."""
        if self._open_window is not None:
            # The run ended inside a detail window; close it at the
            # final frontier so its measurements are not dropped.
            scheduler = self.simulator.scheduler
            horizon = max(self._horizon, result.simulated_cycles)
            self._close_window(scheduler, horizon)
        data: Dict[str, Any] = {
            "config": {
                "ff_until": self.config.ff_until,
                "period": self.config.period,
                "detail": self.config.detail,
                "warmup": self.config.warmup,
                "confidence": self.config.confidence,
            },
            "mode_switches": list(self.switches),
            "windows": [dict(w) for w in self.windows],
        }
        if self.config.ff_until > 0:
            data["ff"] = {"until": self.config.ff_until,
                          "cycle": self.ff_cycle,
                          "turn": self.ff_turn}
        if self.config.intervals_enabled:
            from repro.sample.stats import extrapolate
            data["extrapolation"] = extrapolate(
                self.windows, result.total_instructions,
                self.config.confidence)
        return data

    def _emit(self, name: str, t: int, args: Dict[str, Any]) -> None:
        if self.channel is not None:
            self.channel.emit(name, None, t, args)

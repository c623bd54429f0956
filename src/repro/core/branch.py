"""Branch prediction model.

A classic table of two-bit saturating counters indexed by the low bits
of the branch PC.  The front-end supplies the dynamic outcome (the
"branch path" dynamic information of paper §3.1); the model predicts,
compares, and reports whether the misprediction penalty applies.
"""

from __future__ import annotations

from repro.common.stats import StatGroup

_STRONG_NOT_TAKEN = 0
_WEAK_NOT_TAKEN = 1
_WEAK_TAKEN = 2
_STRONG_TAKEN = 3


class BranchPredictor:
    """Two-bit saturating-counter bimodal predictor."""

    __slots__ = ("_mask", "_table", "_predicted", "_mispredicted")

    def __init__(self, entries: int, stats: StatGroup) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("predictor entries must be a power of two")
        self._mask = entries - 1
        #: One byte per counter (a snapshot may restore a list).
        self._table = bytearray([_WEAK_NOT_TAKEN]) * entries
        self._predicted = stats.counter("branches")
        self._mispredicted = stats.counter("mispredictions")

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict branch at ``pc``; train on ``taken``.

        Returns True when the prediction was wrong (penalty applies).
        """
        index = (pc >> 2) & self._mask
        state = self._table[index]
        prediction = state >= _WEAK_TAKEN
        mispredicted = prediction != taken
        if taken:
            if state < _STRONG_TAKEN:
                self._table[index] = state + 1
        else:
            if state > _STRONG_NOT_TAKEN:
                self._table[index] = state - 1
        self._predicted.add()
        if mispredicted:
            self._mispredicted.add()
        return mispredicted

    @property
    def misprediction_rate(self) -> float:
        total = self._predicted.value
        return self._mispredicted.value / total if total else 0.0

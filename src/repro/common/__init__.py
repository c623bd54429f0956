"""Shared infrastructure: configuration, units, RNG streams, statistics.

These utilities underpin every other subpackage.  Nothing in here knows
about simulation semantics; it is deliberately dependency-free.
"""

import copyreg
from typing import Any


def slot_state(obj: Any) -> dict:
    """``{slot: value}`` over ``obj``'s class and bases for a ``__getstate__``
    to edit, ``obj.__dict__`` unread (see :mod:`repro.ckpt.snapshot`)."""
    return {name: getattr(obj, name)
            for name in copyreg._slotnames(type(obj))
            if hasattr(obj, name)}

"""Instruction classification for the core performance model.

The front-end does not carry real opcodes; it classifies instructions
into cost classes.  Classes not present in the configured cost table
default to one cycle (paper: "instruction costs are all modeled and
configurable").
"""

from __future__ import annotations

import enum


class InstructionClass(enum.Enum):
    """Cost class of a dynamic instruction."""

    GENERIC = "generic"
    IALU = "ialu"
    IMUL = "imul"
    IDIV = "idiv"
    FPU_ADD = "fpu_add"
    FPU_MUL = "fpu_mul"
    FPU_DIV = "fpu_div"
    BRANCH = "branch"
    JMP = "jmp"
    LOAD = "load"
    STORE = "store"


#: Cost charged when a class is missing from the config table.  The
#: models read a class's cost as ``table.get(klass._value_,
#: DEFAULT_COST)``, once per instruction: ``_value_`` is the member's
#: plain attribute, the public ``value`` a descriptor two Python frames
#: deep.
DEFAULT_COST = 1

"""Shared infrastructure: configuration, units, RNG streams, statistics.

These utilities underpin every other subpackage.  Nothing in here knows
about simulation semantics (:data:`RETIRED_STATE` names retired state,
as strings only); it is deliberately dependency-free.
"""

import copyreg
from typing import Any, Dict


def slot_state(obj: Any) -> dict:
    """``{slot: value}`` over ``obj``'s class and bases for a ``__getstate__``
    to edit, ``obj.__dict__`` unread (see :mod:`repro.ckpt.snapshot`)."""
    return {name: getattr(obj, name)
            for name in copyreg._slotnames(type(obj))
            if hasattr(obj, name)}


class Retired:
    """What an instance of a retired class loads as: nothing."""

    def __setstate__(self, state: Any) -> None:
        pass


#: The row kinds of :data:`RETIRED_STATE`; a renamed or converted
#: slot's row is ``(the slot it becomes, a converter or None)``.
CLASS, METHOD, DROP = "class", "method", "drop"

#: What older snapshots hold that the code no longer has, by class name;
#: a class's rows apply to its subclasses.  ``SnapshotUnpickler`` loads
#: a ``CLASS`` as a :class:`Retired` and a ``METHOD`` as ``None``,
#: :func:`restore_slots` applies the slot rows, and any other name the
#: code lacks fails the load.  To retire a name, add its row and delete
#: it: ``tests/corpus/`` keeps the old names and is the test.
RETIRED_STATE: Dict[str, Any] = {
    # The worker's per-service stand-ins, before the kernel-call table.
    "_FabricProxy": CLASS, "_AllocatorProxy": CLASS, "_McpProxy": CLASS,
    "_FutexProxy": CLASS, "_ThreadsProxy": CLASS, "_SyscallsProxy": CLASS,
    "KernelProxy": {"allocator": DROP, "fabric": DROP, "mcp": DROP,
                    "_code_bases": DROP, "_pending_code_base": DROP,
                    "charge_memory_access": METHOD},
    # Host charges as calls, before they were logged as codes.
    "HostCostModel": {"charge_memory_access": METHOD,
                      "charge_instructions": METHOD, "charge_trap": METHOD},
    "Simulator": {"charge_instructions": DROP, "charge_trap": DROP},
    "MemoryController": {"_charge_host": DROP},
    # The straggler watchdog, reader of a retired config field.
    "DistribSimulator": {"_watchdog": DROP},
    "RemoteTask": {"_sim": ("kernel", None)},
    # The delivery hook was a list, one entry long.
    "Transport": {"_hooks": ("delivery_hook",
                             lambda hooks: hooks[0] if hooks else None)},
    # A directory entry's sharers were a dict.
    "Directory": {"entries": ("entries", lambda entries: {
        line: (state, tuple(sharers))
        for line, (state, sharers) in entries.items()})},
}


def restore_slots(obj: Any, state: Any) -> None:
    """The inverse of :func:`slot_state`, and a ``__setstate__`` as it
    stands: sets ``obj``'s slots from ``state`` (``{slot: value}``, or
    ``(None, {slot: value})`` as a slotted class pickles by default)
    once the slot rows of :data:`RETIRED_STATE` for its class and bases
    are applied.  A slot the class lacks raises ``AttributeError``."""
    if type(state) is tuple:
        state = state[1]
    for cls in type(obj).__mro__:
        rows = RETIRED_STATE.get(cls.__name__)
        if isinstance(rows, dict):
            for name, row in rows.items():
                if name in state:
                    value = state.pop(name)
                    if row is not DROP:
                        becomes, convert = row
                        state[becomes] = (value if convert is None
                                          else convert(value))
    for name, value in state.items():
        setattr(obj, name, value)

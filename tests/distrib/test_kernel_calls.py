"""The kernel-call table is the surface: what a tile calls on its kernel
is a row of ``KERNEL_CALLS`` (or one of a few local calls), every row is
bound on each side, and each codec gives back what was sent."""

from __future__ import annotations

import ast
import inspect

import pytest

from repro.common.ids import ThreadId, TileId
from repro.distrib.coordinator import DistribSimulator
from repro.distrib.wire import CODECS, KERNEL_CALLS, bind_handlers
from repro.distrib.worker import KernelProxy
from repro.frontend import interpreter
from repro.sim.simulator import Simulator
from repro.transport.message import MessageKind

NAMES = [row[0] for row in KERNEL_CALLS]

#: What an interpreter calls on its kernel that never crosses the wire:
#: host charges (batched by the worker) and its network endpoint.
LOCAL_CALLS = {"charge_instructions", "charge_trap", "interface"}

#: Kernel calls the mp backend serves by a method of its own.
DISTRIB_ONLY = {"memory_read", "memory_write"}


def _kernel_calls_in_interpreter() -> set:
    """Every ``kernel.<name>(...)`` / ``self.kernel.<name>(...)``."""
    tree = ast.parse(inspect.getsource(interpreter))
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if (isinstance(owner, ast.Name) and owner.id == "kernel") or (
                    isinstance(owner, ast.Attribute)
                    and owner.attr == "kernel"):
                called.add(node.func.attr)
    return called


def test_the_interpreter_calls_only_table_rows_and_local_calls():
    called = _kernel_calls_in_interpreter()
    assert called - set(NAMES) - LOCAL_CALLS == set()
    # The walk sees the calls at all: the hot ones and a few rows.
    assert {"charge_instructions", "futex_wait", "spawn_thread",
            "fabric_transfer", "interface"} <= called


def test_every_row_is_bound_on_each_side():
    assert len(set(NAMES)) == len(NAMES)
    handlers = bind_handlers(object())
    assert list(handlers) == NAMES
    for name, mode, path, arguments, reply in KERNEL_CALLS:
        assert mode in ("rpc", "cast"), name
        assert set(arguments + reply) <= set(CODECS), name
        assert (reply == "-") >= (mode == "cast"), name
        assert callable(getattr(KernelProxy, name)), name
        served = DistribSimulator if name in DISTRIB_ONLY else Simulator
        assert callable(getattr(served, name)), name
    for name in LOCAL_CALLS:  # (a simulator's charges are slots)
        assert hasattr(KernelProxy, name) and hasattr(Simulator, name)


def _module_level_program(ctx):
    yield from ctx.compute(1)


#: A value of the type each codec letter stands for.
SAMPLES = {
    ".": (7, "seven", b"\x07"),
    "t": (TileId(3),),
    "k": (MessageKind.USER, MessageKind.SYSTEM),
    "p": (_module_level_program,),
    "h": (ThreadId(5),),
}


class _Recorder:
    """Stands in for any attribute path of a simulator: records the
    call and returns the reply it was primed with."""

    def __init__(self) -> None:
        self.calls = []
        self.reply = None

    def __getattr__(self, name: str) -> "_Recorder":
        return self

    def __call__(self, *args):
        self.calls.append(args)
        return self.reply


class _Wire:
    """A worker's ``rpc``/``cast``: hands the encoded call straight to
    the coordinator's handler and the encoded reply back."""

    def __init__(self, handlers) -> None:
        self.handlers = handlers
        self.sent = []

    def rpc(self, name, args):
        reply = self.handlers[name](*args)
        self.sent.append((name, args, reply))
        return reply

    cast = rpc


def _same(decoded, original, letter: str) -> bool:
    if letter == "p":  # one way: the reference resolves to the program
        return decoded.resolve() is original
    return type(decoded) is type(original) and decoded == original


@pytest.mark.parametrize("row", KERNEL_CALLS, ids=NAMES)
def test_each_codec_round_trips_worker_to_coordinator_and_back(row):
    name, mode, _path, arguments, reply = row
    sim = _Recorder()
    wire = _Wire(bind_handlers(sim))
    proxy = KernelProxy.__new__(KernelProxy)
    proxy._worker = wire
    proxy.exec_functional = False
    for variant in range(3):
        values = [SAMPLES[letter][variant % len(SAMPLES[letter])]
                  for letter in arguments]
        sent_back = {"-": "dropped", ".": ("a", 1), "h": ThreadId(9)}[reply]
        sim.reply = sent_back
        answer = getattr(proxy, name)(*values)
        assert len(sim.calls) == variant + 1
        received = sim.calls[-1]
        assert len(received) == len(values)
        for decoded, original, letter in zip(received, values, arguments):
            assert _same(decoded, original, letter), (name, letter)
        # Only plain data crossed, either way.
        _name, crossed, replied = wire.sent[-1]
        assert all(type(arg) in (int, str, bytes)
                   or hasattr(arg, "resolve") for arg in crossed), name
        assert type(replied) in (tuple, int, type(None)), name
        if reply == "-":
            assert answer is None and replied is None
        else:
            assert _same(answer, sent_back, reply), name


def test_every_codec_is_in_use():
    used = {letter for row in KERNEL_CALLS for letter in row[3] + row[4]}
    assert used == set(CODECS)

"""Wire-format tests: pickling of messages, configs, frames, results."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SimulationConfig
from repro.common.errors import ConfigError
from repro.common.ids import TileId
from repro.distrib.errors import ProgramTransportError, WireFormatError
from repro.distrib.wire import (
    WIRE_VERSION,
    FrameKind,
    PickledProgram,
    ShardCheckpoint,
    WorkloadRef,
    decode_frame,
    encode_frame,
    make_program_ref,
    program_key,
)
from repro.sim.results import SimulationResult
from repro.transport.message import Message, MessageKind
import repro.transport.message as message_module


def _module_level_program(ctx):  # used by pickling tests
    yield from ctx.compute(1)


payloads = st.one_of(
    st.none(),
    st.integers(),
    st.binary(max_size=64),
    st.tuples(st.integers(min_value=0, max_value=63),
              st.binary(max_size=32)),
    st.dictionaries(st.text(max_size=8), st.integers(), max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(
    src=st.integers(min_value=0, max_value=1023),
    dst=st.integers(min_value=0, max_value=1023),
    kind=st.sampled_from(list(MessageKind)),
    payload=payloads,
    size_bytes=st.integers(min_value=0, max_value=1 << 20),
    timestamp=st.integers(min_value=0, max_value=1 << 40),
    arrival=st.integers(min_value=0, max_value=1 << 40),
    tag=st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 16)),
)
def test_message_roundtrip(src, dst, kind, payload, size_bytes,
                           timestamp, arrival, tag):
    """Every field of every message kind survives a pickle round trip."""
    msg = Message(src=TileId(src), dst=TileId(dst), kind=kind,
                  payload=payload, size_bytes=size_bytes,
                  timestamp=timestamp, arrival_time=arrival, tag=tag)
    clone = pickle.loads(pickle.dumps(msg))
    assert clone.src == msg.src and isinstance(clone.src, TileId)
    assert clone.dst == msg.dst and isinstance(clone.dst, TileId)
    assert clone.kind is msg.kind
    assert clone.payload == msg.payload
    assert clone.size_bytes == msg.size_bytes
    assert clone.timestamp == msg.timestamp
    assert clone.arrival_time == msg.arrival_time
    assert clone.seqno == msg.seqno
    assert clone.tag == msg.tag
    assert clone.latency == msg.latency


def test_message_unpickle_preserves_seqno_without_consuming_counter():
    """Unpickling restores seqno and must not bump the global sequence.

    Physical send order is assigned exactly once, by the process that
    created the message — otherwise coordinator and worker counters
    would diverge and delivery order would not be reproducible.
    """
    msg = Message(src=TileId(0), dst=TileId(1), kind=MessageKind.USER)
    blob = pickle.dumps(msg)
    before = next(message_module._sequence)
    clone = pickle.loads(blob)
    after = next(message_module._sequence)
    assert clone.seqno == msg.seqno
    assert after == before + 1  # only our probes consumed the counter


def test_message_version_mismatch_rejected():
    msg = Message(src=TileId(0), dst=TileId(1), kind=MessageKind.MEMORY)
    state = list(msg.__getstate__())
    state[0] = 999
    clone = Message.__new__(Message)
    with pytest.raises(ValueError, match="version"):
        clone.__setstate__(tuple(state))


def test_config_roundtrip_deep():
    cfg = SimulationConfig(num_tiles=16, seed=123)
    cfg.sync.model = "lax_barrier"
    cfg.host.num_machines = 2
    cfg.memory.directory_type = "limited"
    cfg.distrib.backend = "mp"
    clone = pickle.loads(pickle.dumps(cfg))
    assert clone.to_dict() == cfg.to_dict()
    clone.validate()


def test_config_version_mismatch_rejected():
    cfg = SimulationConfig(num_tiles=2)
    state = cfg.__getstate__()
    state["version"] = -1
    clone = SimulationConfig.__new__(SimulationConfig)
    with pytest.raises(ConfigError):
        clone.__setstate__(state)


def test_result_roundtrip():
    result = SimulationResult(
        simulated_cycles=1000, wall_clock_seconds=0.5, native_seconds=0.1,
        thread_cycles={0: 1000, 1: 900},
        thread_instructions={0: 50, 1: 40},
        counters={"sim.transport.messages_sent": 7},
        thread_start_cycles={0: 0, 1: 10},
        main_result=("ok", 42))
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result
    assert clone.parallel_cycles == result.parallel_cycles


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(list(FrameKind)), payload=payloads)
def test_frame_roundtrip(kind, payload):
    decoded_kind, decoded = decode_frame(encode_frame(kind, payload))
    assert decoded_kind is kind
    assert decoded == payload


def test_previous_wire_version_is_refused_at_both_gates():
    """Frames carry no version: a peer one ``WIRE_VERSION`` behind is
    turned away by the handshake, before any pickle is read, and both
    gates — the dialer's and the coordinator listener's — raise a typed
    error naming both versions.  (The serve daemon's two doors:
    ``tests/serve/test_protocol.py``.)"""
    import threading
    from repro.net.handshake import HandshakeError
    from repro.net.listener import NetListener, connect_worker

    listener = NetListener("127.0.0.1:0", role="coordinator",
                           wire_version=WIRE_VERSION)
    refused = []

    def accept():
        try:
            listener.accept(timeout=5.0)
        except HandshakeError as exc:
            refused.append(exc)

    thread = threading.Thread(target=accept)
    thread.start()
    try:
        with pytest.raises(HandshakeError, match="wire mismatch") as dialer:
            connect_worker(listener.address, WIRE_VERSION - 1, timeout=5.0)
    finally:
        thread.join(timeout=10.0)
        listener.close()
    assert not thread.is_alive()
    assert len(refused) == 1
    for exc in (dialer.value, refused[0]):
        assert f"v{WIRE_VERSION - 1}" in str(exc)
        assert f"v{WIRE_VERSION}" in str(exc)


def test_kernel_dispatch_change_without_bump_is_w001(tmp_path):
    """The kernel-call table and the payload shapes of the frames either
    wire builds — the quantum loop's ``FrameKind`` tuples, the fleet's
    and the serve client's ``(verb, payload)`` tuples — are wire
    schema: renaming a row, adding an argument to one or reshaping a
    frame under the committed ``WIRE_VERSION`` is a W001 finding on
    ``distrib/wire.py``."""
    import shutil
    from repro.check.lint import lint_file, package_root

    def w001(case: str, edit_file: str, old: str, new: str) -> list:
        root = tmp_path / case / "repro"
        for package in ("distrib", "serve", "net"):
            shutil.copytree(package_root() / package, root / package)
        edited = root / edit_file
        source = edited.read_text()
        assert source.count(old) == 1
        edited.write_text(source.replace(old, new))
        return [f.rule for f in lint_file(root / "distrib" / "wire.py",
                                          root=root)]

    assert w001("same", "distrib/coordinator.py", "Coordinator: ",
                "Coordinator:  ") == []
    assert w001("renamed", "distrib/wire.py",
                '("memory_read", "rpc"', '("memory_load", "rpc"') \
        == ["W001"]
    assert w001("reshaped_row", "distrib/wire.py",
                '"fabric.transfer", "ttk.."', '"fabric.transfer", "ttk..."') \
        == ["W001"]
    assert w001("reshaped", "distrib/worker.py",
                "(method, args, self._take_casts())",
                "(method, args)") == ["W001"]
    assert w001("job_verb", "serve/fleet.py", '("job", item))',
                '("job", (item, None)))') == ["W001"]
    assert w001("status_verb", "serve/client.py",
                '("status", {"job_id": job_id})',
                '("status", {"id": job_id})') == ["W001"]


def test_frame_garbage_rejected():
    with pytest.raises(WireFormatError):
        decode_frame(b"not a frame")


def test_workload_ref_resolves_and_roundtrips():
    ref = WorkloadRef("matrix_multiply", nthreads=2, scale=0.05)
    clone = pickle.loads(pickle.dumps(ref))
    assert clone == ref
    program = clone.resolve()
    assert callable(program)


def test_make_program_ref_passthrough_and_pickled():
    ref = WorkloadRef("fft", 2)
    assert make_program_ref(ref) is ref
    shipped = make_program_ref(_module_level_program)
    assert isinstance(shipped, PickledProgram)
    assert shipped.resolve() is _module_level_program


def test_make_program_ref_rejects_closures():
    captured = 3

    def closure_program(ctx):
        yield from ctx.compute(captured)

    with pytest.raises(ProgramTransportError, match="module-level"):
        make_program_ref(closure_program)


def test_program_key_stable_across_equal_refs():
    a = WorkloadRef("radix", 4, 1.0)
    b = WorkloadRef("radix", 4, 1.0)
    assert program_key(a) == program_key(b)
    assert program_key(a) != program_key(WorkloadRef("radix", 8, 1.0))


# -- telemetry frames (wire v2) ----------------------------------------------


def test_wire_version_covers_telemetry_frames():
    """v2 added TELEMETRY/COLLECT_TELEMETRY; the version must say so."""
    assert WIRE_VERSION >= 2
    assert FrameKind.TELEMETRY.value == "telemetry"
    assert FrameKind.COLLECT_TELEMETRY.value == "collect_telemetry"


def test_telemetry_event_frame_roundtrip():
    from repro.telemetry.events import Event, EventCategory

    event = Event(EventCategory.NETWORK, "msg", 3, 1234,
                  {"src": 3, "dst": 0, "bytes": 64, "latency": 12},
                  seq=41, origin=0)
    kind, decoded = decode_frame(
        encode_frame(FrameKind.TELEMETRY, [event]))
    assert kind is FrameKind.TELEMETRY
    assert decoded == [event]
    assert decoded[0].args == event.args
    assert decoded[0].content_key() == event.content_key()


def test_telemetry_batch_frame_roundtrip():
    from repro.common.stats import Histogram
    from repro.telemetry.aggregate import TelemetryBatch
    from repro.telemetry.events import Event, EventCategory

    hist = Histogram("sleep")
    for v in (0.25, 0.5, 1.0):
        hist.record(v)
    batch = TelemetryBatch(
        worker=2,
        events=[Event(EventCategory.SYNC, "stall", 5, 900,
                      {"cycles": 44, "kind": "sync"}, seq=7),
                Event(EventCategory.WORKER, "interp_spawn", 5, 0,
                      {"worker": 2}, seq=8)],
        histograms={"sim.thread5.sleep": hist.state()})
    kind, decoded = decode_frame(encode_frame(FrameKind.TELEMETRY, batch))
    assert kind is FrameKind.TELEMETRY
    assert decoded.worker == 2
    assert decoded.events == batch.events
    assert len(decoded) == 2

    merged = Histogram("sleep")
    merged.merge_state(decoded.histograms["sim.thread5.sleep"])
    assert merged.count == 3
    assert merged.mean == hist.mean
    assert merged.min == hist.min and merged.max == hist.max


def test_collect_telemetry_frame_roundtrip():
    kind, payload = decode_frame(
        encode_frame(FrameKind.COLLECT_TELEMETRY, None))
    assert kind is FrameKind.COLLECT_TELEMETRY
    assert payload is None


# -- checkpoint frames (wire v4) ---------------------------------------------


def test_wire_version_covers_checkpoint_frames():
    """v4 added CHECKPOINT/CKPT_ACK/RESTORE; the version must say so."""
    assert WIRE_VERSION >= 4
    assert FrameKind.CHECKPOINT.value == "checkpoint"
    assert FrameKind.CKPT_ACK.value == "ckpt_ack"
    assert FrameKind.RESTORE.value == "restore"


def test_shard_checkpoint_frame_roundtrip():
    shard = ShardCheckpoint(worker=1, blob=b"\x80\x05surgical-pickle")
    kind, decoded = decode_frame(encode_frame(FrameKind.CKPT_ACK, shard))
    assert kind is FrameKind.CKPT_ACK
    assert decoded == shard
    assert decoded.worker == 1
    assert decoded.blob == shard.blob


def test_restore_frame_carries_raw_bytes():
    """RESTORE ships the shard blob verbatim — the coordinator never
    unpickles a worker's state on its own side."""
    blob = bytes(range(256))
    kind, decoded = decode_frame(encode_frame(FrameKind.RESTORE, blob))
    assert kind is FrameKind.RESTORE
    assert decoded == blob

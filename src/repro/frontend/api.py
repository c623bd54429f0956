"""The user-level API target programs are written against.

Mirrors the surface a Graphite application sees: pthreads-style thread
management, mutexes and barriers, the core-to-core messaging API,
malloc/free, and system calls — plus typed load/store helpers, since
our "binaries" are Python generators rather than x86.

Every method is a *sub-generator*: programs call them with
``yield from`` and receive results via ``return``.  The raw ops they
yield are consumed by :class:`repro.frontend.interpreter.ThreadInterpreter`.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Iterable, Optional

from repro.common.ids import ThreadId
from repro.core.isa import InstructionClass
from repro.frontend import ops

_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class ThreadContext:
    """One thread's handle on the simulated machine."""

    __slots__ = ("thread_id", "num_tiles", "_branch_seq")

    def __init__(self, thread_id: ThreadId, num_tiles: int) -> None:
        self.thread_id = thread_id
        self.num_tiles = num_tiles
        self._branch_seq = 0

    # -- computation -----------------------------------------------------------

    #: Largest single Compute batch; bigger requests are chunked so the
    #: scheduler's quantum and the sync models' cycle limits stay
    #: responsive even inside long compute loops.
    COMPUTE_CHUNK = 256

    def compute(self, count: int = 1,
                klass: InstructionClass = InstructionClass.GENERIC):
        """Retire ``count`` instructions of ``klass``."""
        while count > self.COMPUTE_CHUNK:
            yield ops.Compute(self.COMPUTE_CHUNK, klass)
            count -= self.COMPUTE_CHUNK
        if count > 0:
            yield ops.Compute(count, klass)

    def fp_compute(self, count: int = 1):
        """Floating-point work (multiply-class, the common kernel mix)."""
        yield ops.Compute(count, InstructionClass.FPU_MUL)

    def branch(self, taken: bool, pc: Optional[int] = None):
        """A conditional branch; ``pc`` distinguishes static branches."""
        if pc is None:
            self._branch_seq += 1
            pc = (int(self.thread_id) << 20) | (self._branch_seq & 0xFFFFF)
        yield ops.Branch(taken, pc)

    # -- raw memory ---------------------------------------------------------------

    def load(self, address: int, size: int):
        """Read raw bytes from target memory."""
        data = yield ops.Load(address, size)
        return data

    def store(self, address: int, data: bytes):
        """Write raw bytes to target memory."""
        yield ops.Store(address, data)

    # -- typed memory ------------------------------------------------------------------

    def load_u64(self, address: int):
        data = yield ops.Load(address, 8)
        return _U64.unpack(data)[0]

    def store_u64(self, address: int, value: int):
        yield ops.Store(address, _U64.pack(value & 0xFFFFFFFFFFFFFFFF))

    def load_i64(self, address: int):
        data = yield ops.Load(address, 8)
        return _I64.unpack(data)[0]

    def store_i64(self, address: int, value: int):
        yield ops.Store(address, _I64.pack(value))

    def load_f64(self, address: int):
        data = yield ops.Load(address, 8)
        return _F64.unpack(data)[0]

    def store_f64(self, address: int, value: float):
        yield ops.Store(address, _F64.pack(value))

    def load_u32(self, address: int):
        data = yield ops.Load(address, 4)
        return int.from_bytes(data, "little")

    def store_u32(self, address: int, value: int):
        yield ops.Store(address, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    # -- bulk helpers ---------------------------------------------------------------------

    def memset(self, address: int, value: int, size: int,
               chunk: int = 64):
        """Write ``size`` bytes of ``value``, one chunk per store."""
        pattern = bytes([value & 0xFF]) * chunk
        done = 0
        while done < size:
            n = min(chunk, size - done)
            yield ops.Store(address + done, pattern[:n])
            done += n

    def memcpy(self, dst: int, src: int, size: int, chunk: int = 64):
        """Copy target memory, chunk by chunk."""
        done = 0
        while done < size:
            n = min(chunk, size - done)
            data = yield ops.Load(src + done, n)
            yield ops.Store(dst + done, data)
            done += n

    # -- heap ----------------------------------------------------------------------------------

    def malloc(self, size: int, align: int = 8):
        """Allocate target heap memory; returns the address."""
        address = yield ops.Malloc(size, align)
        return address

    def calloc(self, size: int, align: int = 64):
        """Allocate and zero (line-aligned by default)."""
        address = yield ops.Malloc(size, align)
        yield from self.memset(address, 0, size)
        return address

    def free(self, address: int):
        yield ops.Free(address)

    # -- messaging (the user API of paper §3.3) ----------------------------------------------------

    def send(self, dst: ThreadId, payload: bytes,
             tag: Optional[int] = None):
        """Send a core-to-core message."""
        yield ops.Send(dst, payload, tag)

    def send_u64(self, dst: ThreadId, value: int,
                 tag: Optional[int] = None):
        yield ops.Send(dst, _U64.pack(value), tag)

    def recv(self, src: Optional[ThreadId] = None,
             tag: Optional[int] = None):
        """Blocking receive; returns ``(src_thread, payload)``."""
        result = yield ops.Recv(src, tag)
        return result

    def recv_u64(self, src: Optional[ThreadId] = None,
                 tag: Optional[int] = None):
        sender, payload = yield ops.Recv(src, tag)
        return sender, _U64.unpack(payload)[0]

    # -- synchronization -------------------------------------------------------------------------------

    def lock(self, address: int):
        """Acquire the mutex at ``address`` (futex-backed)."""
        yield ops.Lock(address)

    def unlock(self, address: int):
        yield ops.Unlock(address)

    def barrier(self, address: int, participants: int):
        """Wait at the application barrier at ``address``."""
        yield ops.BarrierWait(address, participants)

    # -- threads ------------------------------------------------------------------------------------------

    def spawn(self, program: Callable[..., Any], *args: Any):
        """Create a thread running ``program(ctx, *args)``; returns its id."""
        thread = yield ops.Spawn(program, tuple(args))
        return thread

    def join(self, thread: ThreadId):
        """Wait for ``thread`` to finish."""
        yield ops.Join(thread)

    def spawn_workers(self, program: Callable[..., Any], count: int,
                      *args: Any):
        """Spawn ``count`` workers, passing each its worker index first."""
        threads = []
        for index in range(count):
            thread = yield ops.Spawn(program, (index,) + tuple(args))
            threads.append(thread)
        return threads

    def join_all(self, threads: Iterable[ThreadId]):
        for thread in threads:
            yield ops.Join(thread)

    # -- system calls ----------------------------------------------------------------------------------------

    def syscall(self, name: str, *args: Any):
        result = yield ops.Syscall(name, tuple(args))
        return result

    def open(self, path: str, flags: int = 0):
        fd = yield ops.Syscall("open", (path, flags))
        return fd

    def read(self, fd: int, count: int):
        data = yield ops.Syscall("read", (fd, count))
        return data

    def write(self, fd: int, data: bytes):
        written = yield ops.Syscall("write", (fd, data))
        return written

    def close(self, fd: int):
        yield ops.Syscall("close", (fd,))

    def fstat(self, fd: int):
        result = yield ops.Syscall("fstat", (fd,))
        return result

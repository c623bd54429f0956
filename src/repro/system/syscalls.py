"""System-call interception and forwarding (paper §3.4).

Three classes of system call, as in the paper:

* **memory management** (``brk``, ``mmap``, ``munmap``) — handled by the
  dynamic memory manager;
* **process-state calls** (file I/O: ``open``, ``read``, ``write``,
  ``close``, ``lseek``, ``fstat``, ``unlink``) — forwarded to the MCP
  and executed there against one shared in-memory filesystem, so a file
  descriptor means the same thing in every host process;
* everything else would execute directly on the host — our target
  programs only use the calls above.

Each forwarded call pays a fixed simulated handling cost plus a system
network round trip to the MCP (zero modelled latency on the magic
network, but real host-time transfer cost — which is exactly why
syscall-heavy applications scale poorly across machines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.common.errors import TargetFault
from repro.common.stats import StatGroup
from repro.memory.allocator import DynamicMemoryManager

#: Simulated cycles to execute one intercepted system call at the MCP.
SYSCALL_CYCLES = 200

#: Open-mode flags (subset of O_*).
O_RDONLY = 0
O_WRONLY = 1
O_RDWR = 2
O_CREAT = 64
O_TRUNC = 512
O_APPEND = 1024


@dataclass
class _File:
    """One file in the MCP's in-memory filesystem."""

    data: bytearray = field(default_factory=bytearray)


@dataclass
class _OpenFile:
    """One open descriptor (shared across all target threads)."""

    file: _File
    offset: int = 0
    flags: int = O_RDONLY


class SyscallInterface:
    """Executes intercepted system calls with a consistent process view."""

    def __init__(self, allocator: DynamicMemoryManager,
                 stats: StatGroup) -> None:
        self.allocator = allocator
        self._fs: Dict[str, _File] = {}
        self._fds: Dict[int, _OpenFile] = {}
        self._next_fd = 3  # 0-2 reserved for stdio
        self._calls = stats.counter("syscalls")
        self._by_name: Dict[str, object] = {}
        self._stats = stats

    def _count(self, name: str) -> None:
        self._calls.add()
        counter = self._by_name.get(name)
        if counter is None:
            counter = self._stats.counter(f"sys_{name}")
            self._by_name[name] = counter
        counter.add()  # type: ignore[attr-defined]

    # -- memory management -------------------------------------------------------

    def sys_brk(self, new_break: int) -> int:
        self._count("brk")
        return self.allocator.brk(new_break)

    def sys_mmap(self, length: int) -> int:
        self._count("mmap")
        return self.allocator.mmap(length)

    def sys_munmap(self, base: int, length: int) -> None:
        self._count("munmap")
        self.allocator.munmap(base, length)

    # -- file I/O (executed at the MCP) ----------------------------------------------

    def sys_open(self, path: str, flags: int = O_RDONLY) -> int:
        self._count("open")
        file = self._fs.get(path)
        if file is None:
            if not flags & O_CREAT:
                raise TargetFault(f"open of missing file {path!r}")
            file = _File()
            self._fs[path] = file
        if flags & O_TRUNC:
            file.data.clear()
        handle = _OpenFile(file=file, flags=flags)
        if flags & O_APPEND:
            handle.offset = len(file.data)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = handle
        return fd

    def _handle(self, fd: int) -> _OpenFile:
        handle = self._fds.get(fd)
        if handle is None:
            raise TargetFault(f"bad file descriptor {fd}")
        return handle

    def sys_read(self, fd: int, count: int) -> bytes:
        self._count("read")
        handle = self._handle(fd)
        data = bytes(handle.file.data[handle.offset:handle.offset + count])
        handle.offset += len(data)
        return data

    def sys_write(self, fd: int, data: bytes) -> int:
        self._count("write")
        if fd in (1, 2):  # stdout/stderr: swallow, report success
            return len(data)
        handle = self._handle(fd)
        end = handle.offset + len(data)
        if end > len(handle.file.data):
            handle.file.data.extend(b"\0" * (end - len(handle.file.data)))
        handle.file.data[handle.offset:end] = data
        handle.offset = end
        return len(data)

    def sys_lseek(self, fd: int, offset: int, whence: int = 0) -> int:
        self._count("lseek")
        handle = self._handle(fd)
        if whence == 0:
            new = offset
        elif whence == 1:
            new = handle.offset + offset
        elif whence == 2:
            new = len(handle.file.data) + offset
        else:
            raise TargetFault(f"bad lseek whence {whence}")
        if new < 0:
            raise TargetFault("lseek to negative offset")
        handle.offset = new
        return new

    def sys_fstat(self, fd: int) -> Dict[str, int]:
        self._count("fstat")
        handle = self._handle(fd)
        return {"st_size": len(handle.file.data)}

    def sys_close(self, fd: int) -> None:
        self._count("close")
        if fd not in self._fds:
            raise TargetFault(f"close of bad file descriptor {fd}")
        del self._fds[fd]

    def sys_unlink(self, path: str) -> None:
        self._count("unlink")
        if path not in self._fs:
            raise TargetFault(f"unlink of missing file {path!r}")
        del self._fs[path]

    # -- dispatch -----------------------------------------------------------------------

    def execute(self, name: str, args: Tuple) -> object:
        """Dynamic dispatch used by the ``Syscall`` front-end op."""
        handler = getattr(self, f"sys_{name}", None)
        if handler is None:
            raise TargetFault(f"unsupported system call {name!r}")
        return handler(*args)

"""Target address-space layout and homing (paper §3.2.1, Figure 3).

The application address space is divided into segments — code, static
data, program heap, dynamically allocated (mmap) segments, thread
stacks, and reserved kernel space.  Graphite statically partitions this
space among the participating processes: each region is "homed" on one
machine, and the directory for each cache line is uniformly distributed
across all the tiles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import TargetFault
from repro.common.ids import TileId
from repro.common.units import MB


class Segment(enum.Enum):
    """Regions of the target address space (Figure 3)."""

    CODE = "code"
    STATIC_DATA = "static_data"
    HEAP = "heap"
    DYNAMIC = "dynamic"      # mmap'd segments
    STACK = "stack"
    KERNEL = "kernel_reserved"


@dataclass(frozen=True)
class SegmentRange:
    """Half-open address range [base, limit) of one segment."""

    segment: Segment
    base: int
    limit: int

    def contains(self, address: int) -> bool:
        return self.base <= address < self.limit

    @property
    def size(self) -> int:
        return self.limit - self.base


class AddressSpace:
    """The single shared target address space.

    Layout (constants chosen to keep the space compact while leaving
    every segment room to grow)::

        0x0000_0000  code
        0x0800_0000  static data
        0x1000_0000  program heap (brk)
        0x4000_0000  dynamic (mmap) segments
        0x7000_0000  thread stacks
        0xF000_0000  kernel reserved

    ``stack_bytes_per_thread`` carves one stack per target tile out of
    the stack segment, as Graphite's memory manager does at start-up.
    """

    CODE_BASE = 0x0000_0000
    STATIC_BASE = 0x0800_0000
    HEAP_BASE = 0x1000_0000
    DYNAMIC_BASE = 0x4000_0000
    STACK_BASE = 0x7000_0000
    KERNEL_BASE = 0xF000_0000
    LIMIT = 0x1_0000_0000

    __slots__ = ("num_tiles", "line_bytes", "_line_shift",
                 "stack_bytes_per_thread", "segments")

    def __init__(self, num_tiles: int, line_bytes: int,
                 stack_bytes_per_thread: int = 1 * MB) -> None:
        if num_tiles < 1:
            raise ValueError("address space needs at least one tile")
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError("line size must be a positive power of two")
        self.num_tiles = num_tiles
        self.line_bytes = line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        self.stack_bytes_per_thread = stack_bytes_per_thread
        if num_tiles * stack_bytes_per_thread > self.KERNEL_BASE - self.STACK_BASE:
            raise ValueError("too many tiles for the stack segment")
        self.segments = (
            SegmentRange(Segment.CODE, self.CODE_BASE, self.STATIC_BASE),
            SegmentRange(Segment.STATIC_DATA, self.STATIC_BASE,
                         self.HEAP_BASE),
            SegmentRange(Segment.HEAP, self.HEAP_BASE, self.DYNAMIC_BASE),
            SegmentRange(Segment.DYNAMIC, self.DYNAMIC_BASE,
                         self.STACK_BASE),
            SegmentRange(Segment.STACK, self.STACK_BASE, self.KERNEL_BASE),
            SegmentRange(Segment.KERNEL, self.KERNEL_BASE, self.LIMIT),
        )

    # -- classification --------------------------------------------------------

    def segment_of(self, address: int) -> Segment:
        """Which segment an address falls in; faults outside the space."""
        if not 0 <= address < self.LIMIT:
            raise TargetFault(f"address {address:#x} outside target space")
        for srange in self.segments:
            if srange.contains(address):
                return srange.segment
        raise TargetFault(f"address {address:#x} unmapped")  # pragma: no cover

    def check_access(self, address: int, size: int) -> None:
        """Fault on kernel-space or out-of-range accesses."""
        if size <= 0:
            raise TargetFault("zero- or negative-sized access")
        if not (0 <= address and address + size <= self.LIMIT):
            raise TargetFault(
                f"access {address:#x}+{size} outside target space")
        if address + size > self.KERNEL_BASE:
            raise TargetFault(
                f"access {address:#x} touches kernel-reserved space")

    # -- line arithmetic --------------------------------------------------------

    def line_of(self, address: int) -> int:
        """Line-aligned base address containing ``address``."""
        return (address >> self._line_shift) << self._line_shift

    def line_index(self, address: int) -> int:
        return address >> self._line_shift

    # -- homing -------------------------------------------------------------------

    def home_tile(self, address: int) -> TileId:
        """Directory/memory-controller home of a line.

        The directory is uniformly distributed across all the tiles
        (paper §3.2): lines interleave round-robin at line granularity.
        """
        return TileId(self.line_index(address) % self.num_tiles)

    def stack_range(self, tile: TileId) -> SegmentRange:
        """The stack carved out for the thread on ``tile``."""
        base = self.STACK_BASE + int(tile) * self.stack_bytes_per_thread
        return SegmentRange(Segment.STACK, base,
                            base + self.stack_bytes_per_thread)

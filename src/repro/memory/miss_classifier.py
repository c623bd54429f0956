"""Cache-miss classification: cold / capacity / true / false sharing.

Figure 8 of the paper reproduces the SPLASH-2 characterisation of miss
*types* as the line size varies, so the memory system must attribute
every miss to a cause.  We use the standard at-miss-time taxonomy:

* **cold** — the tile never held the line before;
* **capacity** — the line was last removed by this tile's own
  replacement policy;
* **true sharing** — the line was invalidated by a remote writer, and a
  word written remotely since then is among the words this access
  touches;
* **false sharing** — the line was invalidated by a remote writer, but
  the remotely written words are disjoint from the words touched now;
* **coherence** — the line was invalidated for a non-write reason
  (a Dir_iNB pointer eviction).

Tracking is word-granular (4-byte words, the SPLASH-2 convention) using
a global write-version counter, so classification needs no future
knowledge and costs O(words-per-line) per miss.
"""

from __future__ import annotations

import enum
from typing import Dict, Set, Tuple

from repro.common.ids import TileId
from repro.common.stats import StatGroup

WORD_BYTES = 4


class MissType(enum.Enum):
    COLD = "cold"
    CAPACITY = "capacity"
    TRUE_SHARING = "true_sharing"
    FALSE_SHARING = "false_sharing"
    COHERENCE = "coherence"


#: Why a tile lost a line; kept with the write version of the moment
#: as a ``(reason, version)`` removal record.
_EVICT, _INVAL_WRITE, _INVAL_OTHER = range(3)


class MissClassifier:
    """Attributes every miss of every tile to a :class:`MissType`."""

    def __init__(self, num_tiles: int, line_bytes: int,
                 stats: StatGroup) -> None:
        self.num_tiles = num_tiles
        self.line_bytes = line_bytes
        self.stats = stats
        self._version = 0
        #: line address -> {absolute word index -> last write version}.
        self._line_writes: Dict[int, Dict[int, int]] = {}
        #: per tile: lines ever held.
        self._seen: Tuple[Set[int], ...] = tuple(
            set() for _ in range(num_tiles))
        #: per tile: line -> removal record.
        self._removed: Tuple[Dict[int, Tuple[int, int]], ...] = tuple(
            {} for _ in range(num_tiles))
        self._counts = {t: stats.counter(f"miss_{t.value}")
                        for t in MissType}

    # -- events reported by the memory system ---------------------------------

    def note_store(self, tile: TileId, address: int, size: int) -> None:
        """A store committed: bump write versions of the covered words."""
        del tile  # the writer's identity is implicit in invalidations
        self._version += 1
        line = address - (address % self.line_bytes)
        words = self._line_writes.setdefault(line, {})
        first = address // WORD_BYTES
        last = (address + size - 1) // WORD_BYTES
        for w in range(first, last + 1):
            words[w] = self._version

    def note_fill(self, tile: TileId, line_address: int) -> None:
        """A line became resident at ``tile``."""
        self._seen[int(tile)].add(line_address)
        self._removed[int(tile)].pop(line_address, None)

    def note_eviction(self, tile: TileId, line_address: int) -> None:
        """``tile`` lost the line to its own replacement policy."""
        self._removed[int(tile)][line_address] = (_EVICT, self._version)

    def note_invalidation(self, tile: TileId, line_address: int,
                          due_to_write: bool) -> None:
        """``tile`` lost the line to a coherence invalidation."""
        reason = _INVAL_WRITE if due_to_write else _INVAL_OTHER
        self._removed[int(tile)][line_address] = (reason, self._version)

    # -- classification -----------------------------------------------------------

    def classify(self, tile: TileId, address: int, size: int) -> MissType:
        """Classify a miss by ``tile`` accessing [address, address+size)."""
        line = address - (address % self.line_bytes)
        t = int(tile)
        if line not in self._seen[t]:
            kind = MissType.COLD
        else:
            reason, version = self._removed[t].get(line, (_EVICT, 0))
            if reason == _EVICT:
                kind = MissType.CAPACITY
            elif reason == _INVAL_OTHER:
                kind = MissType.COHERENCE
            else:
                kind = self._sharing_kind(line, address, size, version)
        self._counts[kind].add()
        return kind

    def _sharing_kind(self, line: int, address: int, size: int,
                      since_version: int) -> MissType:
        accessed_first = address // WORD_BYTES
        accessed_last = (address + size - 1) // WORD_BYTES
        words = self._line_writes.get(line, {})
        for w, version in words.items():
            if version > since_version and \
                    accessed_first <= w <= accessed_last:
                return MissType.TRUE_SHARING
        return MissType.FALSE_SHARING

    # -- reporting -------------------------------------------------------------------

    def counts(self) -> Dict[MissType, int]:
        return {t: c.value for t, c in self._counts.items()}

    @property
    def total_misses(self) -> int:
        return sum(c.value for c in self._counts.values())

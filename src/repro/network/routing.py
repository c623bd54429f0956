"""Mesh geometry and dimension-ordered (XY) routing.

Tiles are arranged in a near-square 2D grid; any network topology can be
modelled as long as each tile is an endpoint (paper §2), and the mesh is
the default (Table 1).  Links are directed and identified by small
integers so contention models can index per-link state cheaply.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

from repro.common.ids import TileId


class MeshGeometry:
    """A ``width x height`` mesh holding ``num_tiles`` endpoints.

    The grid is the smallest near-square rectangle with at least
    ``num_tiles`` slots; tiles are numbered row-major.
    """

    __slots__ = ("num_tiles", "width", "height")

    def __init__(self, num_tiles: int) -> None:
        if num_tiles < 1:
            raise ValueError("mesh needs at least one tile")
        self.num_tiles = num_tiles
        self.width = int(math.ceil(math.sqrt(num_tiles)))
        self.height = int(math.ceil(num_tiles / self.width))

    def coordinates(self, tile: TileId) -> Tuple[int, int]:
        """Tile id → (x, y) grid position."""
        t = int(tile)
        if not 0 <= t < self.num_tiles:
            raise ValueError(f"tile {t} out of range")
        return t % self.width, t // self.width

    def distance(self, src: TileId, dst: TileId) -> int:
        """Manhattan hop count between two tiles."""
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        return abs(sx - dx) + abs(sy - dy)

    # -- link identification -------------------------------------------------

    def _link_id(self, x: int, y: int, direction: int) -> int:
        """Directed link leaving node (x, y); direction in {0:E,1:W,2:N,3:S}."""
        return (y * self.width + x) * 4 + direction

    def route(self, src: TileId, dst: TileId) -> List[int]:
        """XY route as a list of directed link ids (X first, then Y)."""
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        links: List[int] = []
        x, y = sx, sy
        while x != dx:
            if dx > x:
                links.append(self._link_id(x, y, 0))
                x += 1
            else:
                links.append(self._link_id(x, y, 1))
                x -= 1
        while y != dy:
            if dy > y:
                links.append(self._link_id(x, y, 3))
                y += 1
            else:
                links.append(self._link_id(x, y, 2))
                y -= 1
        return links

    def neighbors(self, tile: TileId) -> Iterator[TileId]:
        """Adjacent tiles in the mesh (for workloads doing neighbor comms)."""
        x, y = self.coordinates(tile)
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx < self.width and 0 <= ny < self.height:
                t = ny * self.width + nx
                if t < self.num_tiles:
                    yield TileId(t)

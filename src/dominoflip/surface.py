"""Square-tiled regions of the integer grid.

A region is a finite set of unit cells.  A cell is named by its
lower-left corner ``(x, y)`` and occupies ``[x, x+1] x [y, y+1]``, so
its center sits at half-integer coordinates.  Cells are colored like a
chessboard, black when ``x + y`` is even, and two cells are
dual-adjacent when they share a unit edge (the cells are the vertices
of the dual graph).

The corner points of cells are the vertices of the region.  A vertex is
interior when all four cells around it are present, else a boundary one.
A region stores no vertex set: the interior ones, the vertex count and a
vertex's unit edges are rules on coordinates and cells
(``interior_vertices``, ``_vertex_count``, ``vertex_edges``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import compress

Cell = tuple[int, int]
Vertex = tuple[int, int]

# binary digits "0" and "1" as the bytes 0 and 1, for itertools.compress
_BITS = bytes.maketrans(b"01", b"\0\1")


def is_black(cell: Cell) -> bool:
    """Chessboard color of a cell; black cells have even coordinate sum."""
    return (cell[0] + cell[1]) % 2 == 0


def cells_around(vertex: Vertex) -> tuple[Cell, Cell, Cell, Cell]:
    """The four cell slots around a lattice vertex: ll, lr, ul, ur."""
    x, y = vertex
    return ((x - 1, y - 1), (x, y - 1), (x - 1, y), (x, y))


def interior_vertices(cells: frozenset[Cell]) -> list[Vertex]:
    """The vertices with all four cells round them, in sorted order."""
    return [(x + 1, y + 1) for x, y in sorted(cells)
            if (x + 1, y) in cells and (x, y + 1) in cells
            and (x + 1, y + 1) in cells]


def vertex_edges(cells: frozenset[Cell], u: Vertex) -> Iterator[tuple]:
    """(neighbor, sign, crossing domino) per unit edge at u = (x, y) that
    borders a cell.  The sign is +1 when u -> neighbor keeps the black
    cell on the right: horizontally when x + y is odd, vertically when
    even.  The domino is the cells flanking the edge, or None if one is not."""
    x, y = u
    ll, lr, ul, ur = cells_around(u)
    a, b, c, d = ll in cells, lr in cells, ul in cells, ur in cells
    s = 1 if (x + y) % 2 else -1  # of the horizontal edges
    if b or d:
        yield (x + 1, y), s, (lr, ur) if b and d else None
    if a or c:
        yield (x - 1, y), s, (ll, ul) if a and c else None
    if c or d:
        yield (x, y + 1), -s, (ul, ur) if c and d else None
    if a or b:
        yield (x, y - 1), -s, (ll, lr) if a and b else None


class Region:
    """Immutable set of grid cells with cached derived structure."""

    def __init__(self, cells: Iterable[Cell]):
        cellset = frozenset((int(x), int(y)) for x, y in cells)
        if not cellset:
            raise ValueError("a region needs at least one cell")
        self.cells = cellset

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Region) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"Region({len(self.cells)} cells)"

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    @cached_property
    def bases(self) -> tuple[Cell, ...] | None:
        """The smallest cell of each component (cells joined by sides or
        corners), in order, or None when the cells enclose a hole.

        The union's Euler characteristic V - E + F is its components less
        its holes.  With F cells, A edge-adjacent cell pairs and V corner
        points (``_vertex_count``), E = 4F - A, so there is no hole when
        V - 3F + A counts the components.  A flood by sides finds one
        component; only when it misses cells does a king-move flood run.
        """
        cells = self.cells
        adjacent = sum(((x + 1, y) in cells) + ((x, y + 1) in cells)
                       for x, y in cells)
        if len(_flood(cells, [next(iter(cells))], _SIDES)) == len(cells):
            bases = (min(cells),)
        else:
            bases = tuple(piece[0] for piece in _pieces(cells, _KING))
        euler = _vertex_count(cells) - 3 * len(cells) + adjacent
        return bases if euler == len(bases) else None

    @cached_property
    def simply_connected(self) -> bool:
        """True when the cells are edge-connected and enclose no hole."""
        cells = self.cells
        return self.bases is not None and len(
            _flood(cells, [next(iter(cells))], _SIDES)) == len(cells)

    @cached_property
    def dominoes(self) -> dict[tuple[Cell, Cell], int]:
        """The region's dominoes, each to its bit in a tiling's mask, in
        bit order.  Each follows its first cell in ``_pieces``' flood
        order, so the four of a 2x2 block lie a few flood levels apart
        however long the region is."""
        pairs = (((x, y), p) for piece in _pieces(self.cells) for x, y in piece
                 for p in ((x + 1, y), (x, y + 1)) if p in self.cells)
        return {d: i for i, d in enumerate(pairs)}

    def encode(self, tiling: Iterable[tuple[Cell, Cell]]) -> int:
        """The mask of a set of the region's dominoes."""
        digits = bytearray(b"0" * (len(self.dominoes) + 1))  # bit i at [~i]
        for d in tiling:
            digits[~self.dominoes[d]] = 49  # "1"
        return int(digits, 2)

    def decode(self, mask: int) -> frozenset:
        """The set of dominoes whose bits the mask sets."""
        digits = f"{mask:b}"[::-1].encode().translate(_BITS)  # lowest first
        return frozenset(compress(self.dominoes, digits))

    @cached_property
    def flip_blocks(self) -> dict[Vertex, tuple[int, int, int]]:
        """Per interior vertex, in sorted order: (s, h, v), the masks of
        the horizontal and the vertical domino pair of the 2x2 block
        around it shifted down by s, the lowest of their bits, as
        ``tiling._flips`` reads them.  Shifted, an entry takes a few flood
        levels' worth of bits rather than one bit per domino of the
        region."""
        bit = self.dominoes
        blocks = {}
        for v in interior_vertices(self.cells):
            ll, lr, ul, ur = cells_around(v)
            pairs = ((bit[ll, lr], bit[ul, ur]), (bit[ll, ul], bit[lr, ur]))
            s = min(map(min, pairs))
            blocks[v] = (s, *((1 << a - s) | (1 << b - s) for a, b in pairs))
        return blocks

    @cached_property
    def bounds(self) -> tuple[int, int, int, int]:
        """(min_x, min_y, max_x, max_y) over cell coordinates."""
        xs, ys = zip(*self.cells)
        return min(xs), min(ys), max(xs), max(ys)


def make_rectangle(m: int, n: int) -> Region:
    """An m-wide, n-tall rectangle of cells with lower-left corner at the origin."""
    if m < 1 or n < 1:
        raise ValueError(f"rectangle dimensions must be positive, got {m}x{n}")
    return Region((x, y) for x in range(m) for y in range(n))


def make_aztec(n: int) -> Region:
    """Aztec diamond of order n, centered on the origin.

    Rows have 2, 4, ..., 2n, 2n, ..., 4, 2 cells; a cell (x, y) belongs
    to the diamond when |x + 1/2| + |y + 1/2| <= n.
    """
    if n < 1:
        raise ValueError(f"aztec order must be positive, got {n}")
    span = range(-n, n)
    return Region((x, y) for x in span for y in span
                  if abs(2 * x + 1) + abs(2 * y + 1) <= 2 * n)


def make_holed_square(k: int) -> Region:
    """A k-by-k square with the central cell removed (k odd, k >= 3)."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"holed square needs an odd side of at least 3, got {k}")
    mid = k // 2
    return Region((x, y) for x in range(k) for y in range(k) if (x, y) != (mid, mid))


def make_from_cells(cells: Iterable[Cell]) -> Region:
    """Region from an explicit cell list; duplicates collapse."""
    cells = list(cells)
    if not cells:
        raise ValueError("cell list is empty")
    return Region(cells)


# unit steps: the four sides (Region.dominoes' bit order), the king's eight
_SIDES = ((1, 0), (-1, 0), (0, 1), (0, -1))
_KING = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


def _flood(inside, seeds: Iterable[Cell], steps) -> dict[Cell, int]:
    """Each point the seeds reach by the steps through points of inside,
    mapped to its step count from the nearest seed, in the order a
    breadth-first flood reaches them.  Seeds need not be inside."""
    reached = dict.fromkeys(seeds, 0)
    queue = list(reached)
    for x, y in queue:  # the list grows behind the loop, as a FIFO queue
        level = reached[x, y] + 1
        for dx, dy in steps:
            p = (x + dx, y + dy)
            if p not in reached and p in inside:
                reached[p] = level
                queue.append(p)
    return reached


def _pieces(cells: frozenset[Cell], steps=_SIDES) -> Iterator[list[Cell]]:
    """The pieces of the cells joined by the steps, sides by default, in
    the order of their smallest cells, each in flood order from it."""
    left = set(cells)
    for cell in sorted(cells):
        if cell in left:
            piece = list(_flood(left, [cell], steps))
            left.difference_update(piece)
            yield piece


def _vertex_count(cells: frozenset[Cell]) -> int:
    """The number of corner points of the cells, with no set of them.
    Each is counted by the first of its cells present in the order
    upper-right, upper-left, lower-right, lower-left: a cell counts each
    of its corners where the cells before it in that order are absent."""
    count = 0
    for x, y in cells:
        right, up = (x + 1, y) in cells, (x, y + 1) in cells
        count += (1 + (not right) + (not up and (x - 1, y + 1) not in cells)
                  + (not (right or up or (x + 1, y + 1) in cells)))
    return count


def is_simply_connected(region: Region) -> bool:
    """True when the cells are edge-connected and enclose no hole."""
    return region.simply_connected


def region_to_json(region: Region) -> dict:
    """Canonical JSON form: cells sorted lexicographically."""
    return {"cells": [[x, y] for x, y in sorted(region.cells)]}


def region_from_json(data: object) -> Region:
    if not isinstance(data, dict) or "cells" not in data:
        raise ValueError("region JSON must be an object with a 'cells' list")
    raw = data["cells"]
    if not isinstance(raw, list) or not raw:
        raise ValueError("region JSON needs a non-empty 'cells' list")
    cells = []
    for item in raw:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not all(type(c) is int for c in item)):
            raise ValueError(f"bad cell entry {item!r}: expected [x, y] integers")
        cells.append((item[0], item[1]))
    return make_from_cells(cells)

"""Oriented cycles carved out by superimposing two tilings.

Drawing both tilings on the dual graph and erasing perfectly
superimposed dominoes leaves a subgraph where every remaining cell
meets exactly one domino of each tiling, so the leftovers decompose
into disjoint cycles whose edges alternate between the two tilings.

Orientation comes from the first tiling: its dominoes point from their
black cell to their white cell, and around any one cycle those arrows
all agree with a single traversal direction.  A cycle is positive when
that traversal runs counterclockwise (positive signed area of the
polyline through the cell centers).

The value of a lattice vertex is the sum of the winding numbers of the
cycles round it, a counterclockwise cycle counting +1 and a clockwise
one -1.  A winding number is well defined because centers live on the
half-integer grid and the vertex on the integer one.  Summing the
absolute values over all vertices gives the flip distance between the
two tilings.  A value is a quarter of a height difference, which no
flip moves on the boundary, so a nonzero value there (round a hole)
means no flips join the two.
"""

from __future__ import annotations

from functools import cached_property

from .surface import Cell, Region, Vertex, is_black
from .tiling import Tiling, is_valid_tiling, partner_map


class OrientedCycle:
    """Cyclic cell sequence with a fixed traversal direction."""

    def __init__(self, cells: tuple[Cell, ...], orientation: int):
        self.cells = cells
        self.orientation = orientation  # +1 counterclockwise, -1 clockwise

    def steps(self) -> list[tuple[Cell, Cell]]:
        """Consecutive cell pairs, wrapping around."""
        seq = self.cells
        return [(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))]


CycleCollection = tuple  # tuple[OrientedCycle, ...]


class ValueMap:
    """Per-vertex sums of the winding numbers of the surrounding cycles,
    counterclockwise counting +1; only nonzero sums are stored."""

    def __init__(self, values: dict[Vertex, int]):
        self.values = values

    def signed(self, v: Vertex) -> int:
        return self.values.get(v, 0)

    def nu(self, v: Vertex) -> int:
        return abs(self.signed(v))

    @cached_property
    def total(self) -> int:
        return sum(map(abs, self.values.values()))


def _signed_area_doubled(cells: tuple[Cell, ...]) -> int:
    """Twice the shoelace area of the center polyline (integer-exact)."""
    pts = [(2 * x + 1, 2 * y + 1) for x, y in cells]
    total = 0
    for i, (x1, y1) in enumerate(pts):
        x2, y2 = pts[(i + 1) % len(pts)]
        total += x1 * y2 - x2 * y1
    return total


def cycle_collection(region: Region, t1: Tiling, t2: Tiling) -> CycleCollection:
    """Cycles left after erasing shared dominoes, oriented by t1.

    Traversal starts from the lexicographically smallest cell not yet
    visited, walks t1 dominoes black to white, and alternates with t2
    dominoes; each stored cycle is rotated to begin at its smallest
    cell so output is deterministic.
    """
    if not is_valid_tiling(region, t1) or not is_valid_tiling(region, t2):
        raise ValueError("both arguments must be valid tilings of the region")
    p1 = partner_map(t1)
    p2 = partner_map(t2)
    visited = {c for c in p1 if p1[c] == p2[c]}
    cycles: list[OrientedCycle] = []
    for cell in sorted(region.cells):
        if cell in visited:
            continue
        head = cell if is_black(cell) else p1[cell]
        seq: list[Cell] = []
        black = head
        while True:
            white = p1[black]
            seq.append(black)
            seq.append(white)
            black = p2[white]
            if black == head:
                break
        start = seq.index(min(seq))
        seq = seq[start:] + seq[:start]
        orientation = 1 if _signed_area_doubled(tuple(seq)) > 0 else -1
        cycles.append(OrientedCycle(tuple(seq), orientation))
        visited.update(seq)
    return tuple(cycles)


def value_map(region: Region, collection: CycleCollection) -> ValueMap:
    """Sum, per region vertex, the winding numbers of the cycles round it.

    Each vertical unit step of a center polyline crosses exactly one
    integer scanline, and a cycle's winding number round a vertex is
    the sum of its crossings of the rightward ray from it: +1 up, -1
    down.  So the crossings of all cycles, summed from the right along
    each scanline, give each vertex of the row its value.  A closed
    cycle crosses a scanline as often up as down, so the sum is 0 left
    of the leftmost crossing; a vertex outside the region (in a hole)
    has no value.
    """
    crossings: dict[int, list[tuple[int, int]]] = {}
    for cycle in collection:
        for (x1, y1), (x2, y2) in cycle.steps():
            if x1 == x2:  # up across y2, or down across y1
                y, step = (y2, 1) if y2 > y1 else (y1, -1)
                crossings.setdefault(y, []).append((x1, step))
    vertices = region.vertex_set
    values: dict[Vertex, int] = {}
    for y, events in crossings.items():
        events.sort()
        count = 0
        for vx in range(events[-1][0], events[0][0], -1):
            while events[-1][0] >= vx:
                count += events.pop()[1]
            if count and (vx, y) in vertices:
                values[vx, y] = count
    return ValueMap(values)


def distance_cycles(region: Region, t1: Tiling, t2: Tiling) -> int | None:
    """Flip distance as the summed vertex values of the cycle collection,
    or None when a boundary vertex has a nonzero value."""
    vm = value_map(region, cycle_collection(region, t1, t2))
    if any(map(vm.signed, region.boundary_vertices)):
        return None
    return vm.total


def cycles_to_json(collection: CycleCollection) -> dict:
    return {"cycles": [{"cells": [[x, y] for x, y in c.cells],
                        "orientation": c.orientation}
                       for c in collection]}

"""Oriented cycles carved out by superimposing two tilings.

Drawing both tilings on the dual graph and erasing perfectly
superimposed dominoes leaves a subgraph where every remaining cell
meets exactly one domino of each tiling, so the leftovers decompose
into disjoint cycles whose edges alternate between the two tilings.

Orientation comes from the first tiling: its dominoes point from their
black cell to their white cell, and around any one cycle those arrows
all agree with a single traversal direction.  A cycle is positive when
that traversal runs counterclockwise, that is when it leaves its
smallest cell to the right: that cell's two cycle neighbours lie right
of it and above it, so the polyline turns convexly there.

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

from .surface import Cell, Region, Vertex, cells_around, is_black
from .tiling import Tiling, _check_tilings, partner_map


class OrientedCycle:
    """Cyclic cell sequence with a fixed traversal direction."""

    def __init__(self, cells: tuple[Cell, ...], orientation: int):
        self.cells = cells
        self.orientation = orientation  # +1 counterclockwise, -1 clockwise

    def steps(self) -> list[tuple[Cell, Cell]]:
        """Consecutive cell pairs, wrapping around."""
        return list(zip(self.cells, self.cells[1:] + self.cells[:1]))


CycleCollection = tuple  # tuple[OrientedCycle, ...]


class ValueMap:
    """Per-vertex sums of the winding numbers of the surrounding cycles,
    counterclockwise counting +1; only nonzero sums are stored.  It is
    also the pair's filling shape: the signed heights of its cube stacks."""

    def __init__(self, values: dict[Vertex, int]):
        self.values = values

    def signed(self, v: Vertex) -> int:
        return self.values.get(v, 0)

    def nu(self, v: Vertex) -> int:
        return abs(self.signed(v))

    @cached_property
    def total(self) -> int:
        return sum(map(abs, self.values.values()))


def cycle_collection(region: Region, t1: Tiling, t2: Tiling) -> CycleCollection:
    """Cycles left after erasing shared dominoes, oriented by t1.

    Traversal starts from the smallest cell not yet visited, the
    smallest of its cycle, walks t1 dominoes black to white, and
    alternates with t2 dominoes; each cycle is stored from that cell,
    so output is deterministic and the first step gives the orientation.
    """
    _check_tilings(region, t1, t2)
    p1, p2 = partner_map(t1), partner_map(t2)
    visited = {c for c in p1 if p1[c] == p2[c]}
    cycles: list[OrientedCycle] = []
    for cell in sorted(region.cells):
        if cell in visited:
            continue
        seq = [cell]  # t1 black to white, t2 back
        step, back = (p1, p2) if is_black(cell) else (p2, p1)
        while (nxt := step[seq[-1]]) != cell:
            seq.append(nxt)
            step, back = back, step
        orientation = 1 if seq[1][1] == cell[1] else -1  # right, or up
        cycles.append(OrientedCycle(tuple(seq), orientation))
        visited.update(seq)
    return tuple(cycles)


def value_map(region: Region, collection: CycleCollection) -> ValueMap:
    """Sum, per region vertex, the winding numbers of the cycles round it.

    Each vertical unit step of a center polyline crosses exactly one
    integer scanline, and a cycle's winding number round a vertex is
    the sum of its crossings of the rightward ray from it: +1 up, -1
    down.  So the crossings of all cycles, summed from the right along
    each scanline, give each vertex of the row its value.  A scanline
    merges its crossings with its vertices, the corners of the cells
    below and above it, so a hole or a gap between cycles costs nothing.
    """
    crossings: dict[int, list[tuple[int, int]]] = {}
    for cycle in collection:
        for (x1, y1), (x2, y2) in cycle.steps():
            if x1 == x2:  # up across y2, or down across y1
                y, step = (y2, 1) if y2 > y1 else (y1, -1)
                crossings.setdefault(y, []).append((x1, step))
    # the x of each cell in a row next to a scanline with crossings
    rows: dict[int, list[int]] = {r: [] for y in crossings for r in (y - 1, y)}
    for x, y in region.cells:
        if y in rows:
            rows[y].append(x)
    values: dict[Vertex, int] = {}
    for y, events in crossings.items():
        events.sort()  # the rightmost last
        count = 0
        corners = {*rows[y - 1], *rows[y]}  # of the cells below and above
        corners.update([x + 1 for x in corners])
        for vx in sorted(corners, reverse=True):
            while events and events[-1][0] >= vx:  # crossings right of vx
                count += events.pop()[1]
            if count:
                values[vx, y] = count
    return ValueMap(values)


def distance_cycles(region: Region, t1: Tiling, t2: Tiling) -> int | None:
    """Flip distance as the summed vertex values of the cycle collection,
    or None when a boundary vertex, one with a cell missing round it,
    has a nonzero value."""
    vm = value_map(region, cycle_collection(region, t1, t2))
    if not all(map(region.cells.issuperset, map(cells_around, vm.values))):
        return None
    return vm.total


def cycles_to_json(collection: CycleCollection) -> dict:
    return {"cycles": [{"cells": [[x, y] for x, y in c.cells],
                        "orientation": c.orientation}
                       for c in collection]}

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

The value of a lattice vertex counts surrounding cycles by sign;
"surrounding" means the center polyline winds around the vertex, which
is unambiguous because centers live on the half-integer grid and the
vertex on the integer one.  Summing |positive - negative| over all
vertices gives the flip distance between the two tilings.  A value is
a quarter of a height difference, which no flip moves on the boundary,
so a nonzero value there (round a hole) means no flips join the two.
"""

from __future__ import annotations

from bisect import bisect_left
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


class CycleCollection:
    def __init__(self, cycles: tuple[OrientedCycle, ...]):
        self.cycles = cycles

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)


class ValueMap:
    """Per-vertex counts of surrounding positive and negative cycles."""

    def __init__(self, nu_plus: dict[Vertex, int],
                 nu_minus: dict[Vertex, int]):
        self.nu_plus = nu_plus
        self.nu_minus = nu_minus

    def signed(self, v: Vertex) -> int:
        return self.nu_plus.get(v, 0) - self.nu_minus.get(v, 0)

    def nu(self, v: Vertex) -> int:
        return abs(self.signed(v))

    @cached_property
    def total(self) -> int:
        keys = set(self.nu_plus) | set(self.nu_minus)
        return sum(self.nu(v) for v in keys)


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
    return CycleCollection(tuple(cycles))


def _surrounded_vertices(region: Region, cycle: OrientedCycle) -> list[Vertex]:
    """Region vertices with nonzero winding number of the center polyline.

    Each vertical unit step of the polyline crosses exactly one integer
    scanline; a rightward ray from a vertex counts the signed crossings
    at strictly larger x, which is a suffix sum over the sorted
    crossing positions of that scanline.
    """
    crossings: dict[int, list[tuple[int, int]]] = {}
    for (x1, y1), (x2, y2) in cycle.steps():
        if x1 != x2:
            continue
        if y2 == y1 + 1:
            crossings.setdefault(y1 + 1, []).append((x1, 1))
        else:
            crossings.setdefault(y1, []).append((x1, -1))
    out: list[Vertex] = []
    rows = region.vertex_rows
    for y, events in crossings.items():
        events.sort()
        xs = [x for x, _ in events]
        suffix = [0] * (len(events) + 1)
        for i in range(len(events) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + events[i][1]
        for vx in rows.get(y, ()):
            if suffix[bisect_left(xs, vx)] != 0:
                out.append((vx, y))
    return out


def value_map(region: Region, collection: CycleCollection) -> ValueMap:
    """Count, per vertex, the surrounding cycles of each orientation."""
    nu_plus: dict[Vertex, int] = {}
    nu_minus: dict[Vertex, int] = {}
    for cycle in collection:
        counter = nu_plus if cycle.orientation > 0 else nu_minus
        for v in _surrounded_vertices(region, cycle):
            counter[v] = counter.get(v, 0) + 1
    return ValueMap(nu_plus, nu_minus)


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

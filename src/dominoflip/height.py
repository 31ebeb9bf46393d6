"""Integer height labels on region vertices induced by a tiling.

Every unit edge gets a positive traversal direction: the one keeping
the black cell on its right, so edges run clockwise around black cells
and counterclockwise around white ones.  Walking an edge positively
raises the label by 1 when no domino crosses the edge, and lowers it by
3 when the edge lies inside a domino.  Labels are anchored at 0 on the
base of each component (cells joined by sides or corners): the
lower-left corner of its smallest cell.

On a region with no hole this pins a unique labeling per tiling.
Every tiling gives the boundary the labels of a walk round it, as no
domino crosses a boundary edge; every edge at a corner where two pieces
touch is one, so one walk labels both.  A flip moves exactly one label
(its anchor's) by 4, and the pointwise max and min of two labelings are
again labelings of tilings, so the tilings form a distributive lattice
whose extremes realize the flip-graph diameter.  Everything here works
on labels alone: the extremes are the greatest and the least labeling
with the boundary's values, found by shortest paths from the boundary;
the region tiles exactly when the walk closes and neither pass moves a
boundary label (Thurston 1990).  A geodesic flips local minima up to
the pointwise max and local maxima back down.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import (DominoError, InvalidHeightError, UnsupportedRegionError,
                     UntileableError)
from .surface import (Region, Vertex, _vertex_count, cells_around,
                      interior_vertices, vertex_edges)
from .tiling import Tiling, _check_tilings

HeightValues = dict[Vertex, int]


def base_vertex(region: Region) -> Vertex:
    """The smallest vertex, a boundary one: the smallest cell's corner."""
    return min(region.cells)


def height_function(region: Region, tiling: Tiling) -> HeightValues:
    """Height labels of every region vertex under the given tiling.

    One walk is enough (Thurston 1990).  No domino crosses its six
    perimeter edges, nor an edge at a corner where pieces touch, so the
    walk from the components' bases reaches every vertex.  Each cell
    has one crossed edge, so the steps round it sum to 3 - 3 = 0; with
    no hole, every path to a vertex then gives it the same label."""
    if region.bases is None:
        raise UnsupportedRegionError(
            "height labels need a region with no hole")
    _check_tilings(region, tiling)
    return _walk(region, tiling)


def _walk(region: Region, tiling: Tiling | None) -> HeightValues:
    """Labels from 0 at each component's base, breadth first along the
    edges that no domino of the tiling crosses, each step by its edge's
    sign; with no tiling, along the boundary edges alone, refusing a
    region whose boundary walk does not close.  A vertex's edges are
    read off its cells once, when the walk reaches it."""
    cells = region.cells
    values: HeightValues = dict.fromkeys(region.bases, 0)
    queue = list(values)
    for u in queue:  # the list grows behind the loop, as a FIFO queue
        hu = values[u]
        for v, sign, flank in vertex_edges(cells, u):
            if v in values:
                if tiling is None and flank is None and values[v] != hu + sign:
                    raise UntileableError("region has no tiling")
            elif flank is None or tiling is not None and flank not in tiling:
                values[v] = hu + sign
                queue.append(v)
    return values


def label_distance(h1: HeightValues, h2: HeightValues) -> int:
    """Flip distance between the tilings of two labelings of a region."""
    total = sum(abs(h1[v] - h2[v]) for v in h1)
    if total % 4:
        raise DominoError(f"height difference sum {total} is not divisible by 4")
    return total // 4


def distance_height(region: Region, t1: Tiling, t2: Tiling) -> int:
    """Flip distance as a quarter of the summed label differences."""
    return label_distance(height_function(region, t1),
                          height_function(region, t2))


def tiling_from_height(region: Region, values: HeightValues) -> Tiling:
    """The unique tiling whose dominoes cross exactly the -3 edges.

    The edge rules alone make it a tiling: a cell's four edges, walked
    positively, close a loop whose steps of +1 or -3 sum to 0, so
    exactly one of them is a -3 edge, with a domino across it.  Edges
    are checked in the labels' key order, each from its positive end."""
    cells = region.cells
    try:  # every key a point (x, y) with a cell round it
        keyed = all(isinstance(u, tuple) and not cells.isdisjoint(
            cells_around(u)) for u in values)
    except (TypeError, ValueError):  # a key that is not two numbers
        keyed = False
    if not keyed or len(values) != _vertex_count(cells):
        raise InvalidHeightError("labels must cover exactly the region vertices")
    dominoes: set = set()
    for u, hu in values.items():
        for v, sign, flank in vertex_edges(cells, u):
            if sign == 1 and (step := values[v] - hu) != 1:
                if step != -3 or flank is None:
                    raise InvalidHeightError(f"edge {u}->{v} steps by {step}; "
                                             "edge rules allow +1 or -3")
                dominoes.add(flank)
    return frozenset(dominoes)


def join(region: Region, t1: Tiling, t2: Tiling) -> Tiling:
    """Tiling of the pointwise maximum of the two height labelings."""
    h1, h2 = height_function(region, t1), height_function(region, t2)
    return tiling_from_height(region, {v: max(h1[v], h2[v]) for v in h1})


def meet(region: Region, t1: Tiling, t2: Tiling) -> Tiling:
    """Tiling of the pointwise minimum of the two height labelings."""
    h1, h2 = height_function(region, t1), height_function(region, t2)
    return tiling_from_height(region, {v: min(h1[v], h2[v]) for v in h1})


def extremal_heights(region: Region) -> tuple[HeightValues, HeightValues]:
    """The least and the greatest labeling (h_min, h_max) that agree on
    the boundary with the labels of any tiling (Thurston 1990).

    The edge rules bound each step: positively by at most +1, against
    the direction by at most +3.  So the greatest label of a vertex is
    the least, over boundary vertices b, of h(b) plus the cheapest path
    from b, with those bounds as step costs; a Dijkstra pass from the
    labels of the boundary walk, which with no hole passes through every
    boundary vertex, finds it.  The least labeling is the mirror: labels
    negated, the two costs swapped.  The region tiles exactly when the
    boundary walk closes, each edge stepping by its sign, which the walk
    checks as it goes, and neither pass moves a boundary label.  A pass
    reads a vertex's edges once, as it settles the vertex.
    """
    if region.bases is None:
        raise UnsupportedRegionError(
            "extremal tilings need a region with no hole")
    values = _walk(region, None)  # the boundary edges alone
    cells = region.cells
    h_min, h_max = {}, {}
    for sign, best in ((-1, h_min), (1, h_max)):
        heap = [(sign * h, b) for b, h in values.items()]
        heapify(heap)
        while heap:
            d, u = heappop(heap)
            if u in best:
                continue
            best[u] = sign * d
            for v, edge_sign, _ in vertex_edges(cells, u):
                if v not in best:
                    heappush(heap, (d + 2 - sign * edge_sign, v))  # 1 or 3
        if any(best[b] != h for b, h in values.items()):
            raise UntileableError("region has no tiling")
    return h_min, h_max


def extremal_tilings(region: Region) -> tuple[Tiling, Tiling]:
    """The tilings (t_min, t_max) of the labelings extremal_heights gives."""
    return tuple(tiling_from_height(region, h) for h in extremal_heights(region))


def geodesic(region: Region, t1: Tiling, t2: Tiling) -> list[Vertex]:
    """A shortest flip sequence from t1 to t2, routed through the
    pointwise-max tiling with monotone heights on each leg.

    Neighbouring labels differ by 1 or 3, so a flip at an interior
    vertex raises its label by 4 exactly when the label is below its
    four lattice neighbours', and lowers it by 4 exactly when above all
    four; no edge data is read.  Each step flips the lexicographically
    smallest interior vertex whose label that moves toward the leg's
    target, so the path is deterministic.  Only a flipped vertex and its
    four neighbours are checked again after a flip; a heap of the ranks
    that qualify yields the smallest.
    """
    h1, h2 = height_function(region, t1), height_function(region, t2)
    anchors = interior_vertices(region.cells)
    n = len(anchors)
    # interior vertices by rank, then the boundary ones
    rank = {v: i for i, v in enumerate(dict.fromkeys([*anchors, *h1]))}
    around = [(rank[x + 1, y], rank[x - 1, y], rank[x, y + 1], rank[x, y - 1])
              for x, y in anchors]
    near = [[i, *(j for j in around[i] if j < n)] for i in range(n)]
    labels = [h1[v] for v in rank]
    moves: list[Vertex] = []

    def qualifies(i: int) -> bool:
        h, goal = labels[i], target[i]
        a, b, c, d = around[i]
        if h < goal:
            return (h < labels[a] and h < labels[b] and h < labels[c]
                    and h < labels[d])
        return (h > goal and h > labels[a] and h > labels[b]
                and h > labels[c] and h > labels[d])

    for target in ([max(h1[v], h2[v]) for v in rank], [h2[v] for v in rank]):
        ready = list(map(qualifies, range(n)))
        heap = [i for i, ok in enumerate(ready) if ok]  # sorted, so a heap
        while heap:
            i = heappop(heap)
            if ready[i]:  # else it stopped qualifying after it was pushed
                labels[i] += 4 if labels[i] < target[i] else -4
                moves.append(anchors[i])
                ready[i] = False
                for j in near[i]:
                    was, ready[j] = ready[j], qualifies(j)
                    if ready[j] and not was:
                        heappush(heap, j)
        if labels != target:
            raise DominoError("geodesic search stalled; inputs inconsistent")
    return moves


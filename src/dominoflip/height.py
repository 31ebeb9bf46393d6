"""Integer height labels on region vertices induced by a tiling.

Every unit edge gets a positive traversal direction: the one keeping
the black cell on its right, so edges run clockwise around black cells
and counterclockwise around white ones.  Walking an edge positively
raises the label by 1 when no domino crosses the edge, and lowers it by
3 when the edge lies inside a domino.  Labels are anchored at 0 on the
base vertex, the lexicographically smallest boundary vertex.

On a simply connected region this pins a unique labeling per tiling.
Every tiling gives the boundary the labels of a walk round it, as no
domino crosses a boundary edge.  A flip moves exactly one label (its
anchor's) by 4, and the pointwise max and min of two labelings are
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
from .surface import Region, Vertex, is_simply_connected
from .tiling import Tiling, is_valid_tiling

HeightValues = dict[Vertex, int]


def base_vertex(region: Region) -> Vertex:
    """The canonical base: lexicographically smallest boundary vertex."""
    return min(region.boundary_vertices)


def height_function(region: Region, tiling: Tiling) -> HeightValues:
    """Height labels of every region vertex under the given tiling."""
    if not is_simply_connected(region):
        raise UnsupportedRegionError(
            "height labels need a simply connected region")
    if not is_valid_tiling(region, tiling):
        raise ValueError("not a valid tiling of the region")
    values = _walk(region, tiling)
    if len(values) != len(region.vertex_set):
        raise DominoError("height propagation failed to reach every vertex")
    if tiling_from_height(region, values) != tiling:
        raise DominoError("height labels do not reproduce the tiling")
    return values


def _walk(region: Region, blocked) -> HeightValues:
    """Labels from 0 at the base vertex, breadth first along the edges
    that no domino in blocked crosses, each step by its edge's sign."""
    adj = region.vertex_edges
    values: HeightValues = {base_vertex(region): 0}
    queue = list(values)
    for u in queue:  # the list grows behind the loop, as a FIFO queue
        hu = values[u]
        for v, sign, flank in adj[u]:
            if v not in values and (flank is None or flank not in blocked):
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
    """The unique tiling whose dominoes cross exactly the -3 edges."""
    if values.keys() != region.vertex_set:
        raise InvalidHeightError("labels must cover exactly the region vertices")
    dominoes: set = set()
    for u, edges in region.vertex_edges.items():
        for v, sign, flank in edges:
            if sign != 1:
                continue
            step = values[v] - values[u]
            if step == 1:
                continue
            if step == -3 and flank is not None:
                dominoes.add(flank)
            else:
                raise InvalidHeightError(
                    f"edge {u}->{v} steps by {step}; edge rules allow +1 or -3")
    tiling = frozenset(dominoes)
    if not is_valid_tiling(region, tiling):
        raise InvalidHeightError("labels do not describe a perfect matching")
    return tiling


def join(region: Region, t1: Tiling, t2: Tiling) -> Tiling:
    """Tiling of the pointwise maximum of the two height labelings."""
    h1 = height_function(region, t1)
    h2 = height_function(region, t2)
    return tiling_from_height(region, {v: max(h1[v], h2[v]) for v in h1})


def meet(region: Region, t1: Tiling, t2: Tiling) -> Tiling:
    """Tiling of the pointwise minimum of the two height labelings."""
    h1 = height_function(region, t1)
    h2 = height_function(region, t2)
    return tiling_from_height(region, {v: min(h1[v], h2[v]) for v in h1})


def extremal_heights(region: Region) -> tuple[HeightValues, HeightValues]:
    """The least and the greatest labeling (h_min, h_max) that agree on
    the boundary with the labels of any tiling (Thurston 1990).

    The edge rules bound each step: positively by at most +1, against
    the direction by at most +3.  So the greatest label of a vertex is
    the least, over boundary vertices b, of h(b) plus the cheapest path
    from b, with those bounds as step costs; a Dijkstra pass from every
    boundary vertex at once finds it.  The least labeling is the mirror:
    labels negated, the two costs swapped.  The region tiles exactly
    when the boundary walk closes, each edge stepping by its sign, and
    neither pass moves a boundary label.
    """
    if not is_simply_connected(region):
        raise UnsupportedRegionError(
            "extremal tilings need a simply connected region")
    values = _walk(region, region.dominoes)  # the boundary edges alone
    adj = region.vertex_edges
    if any(values[v] - h != sign for u, h in values.items()
           for v, sign, flank in adj[u] if flank is None):
        raise UntileableError("region has no tiling")
    h_min, h_max = {}, {}
    for sign, best in ((-1, h_min), (1, h_max)):
        heap = [(sign * values[b], b) for b in region.boundary_vertices]
        heapify(heap)
        while heap:
            d, u = heappop(heap)
            if u in best:
                continue
            best[u] = sign * d
            for v, edge_sign, _ in adj[u]:
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
    vertex raises its label by 4 exactly when the label is below all
    four neighbours', and lowers it by 4 exactly when above all four.
    Each step flips the lexicographically smallest interior vertex whose
    label that moves toward the leg's target, so the path is
    deterministic.  Only a flipped vertex and its four neighbours are
    checked again after a flip; a heap of the ranks that qualify yields
    the smallest.
    """
    h1 = height_function(region, t1)
    h2 = height_function(region, t2)
    anchors = sorted(region.interior_vertices)
    n = len(anchors)
    # interior vertices by rank, then the boundary ones
    rank = {v: i for i, v in enumerate([*anchors, *region.boundary_vertices])}
    adj = region.vertex_edges
    around = [tuple(rank[v] for v, _, _ in adj[u]) for u in anchors]
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


"""Flip-graph diameters: lattice spreads, search, level sums, closed forms.

On a region with no hole, in pieces too, the exact diameter is the
height gap between the two extreme tilings, as every tiling's heights
lie between theirs (Thurston 1990; Propp 2002).  A region with a hole
is refused.  The search is exact too, and reads nothing but the graph.

The level sum over all region vertices bounds every flip distance from
above (no column of a filling shape can exceed its vertex's level).  It
is attained on rectangles and Aztec diamonds, where the closed forms
specialize it, but not in general, so it is checked as a bound.

A peel removes every cell touching the region's boundary, leaving a
smaller region to peel again.  The level of a vertex counts how many
peels it survives as an interior vertex, so boundary vertices sit at
level 0 and the vertices of level i are exactly those that first stop
being interior after i peels.  A vertex survives a peel exactly when
the 3x3 block of vertices around it is interior, so its level is its
distance in king moves to the nearest boundary vertex, and one
breadth-first search from the boundary finds every level without
peeling.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import sub

from .errors import DEFAULT_NODE_BUDGET, DominoError, UntileableError
from .surface import _KING, Region, Vertex, _flood
from .tiling import Tiling


class DiameterReport:
    def __init__(self, value: int, method: str,
                 realizers: tuple[Tiling, Tiling] | None = None):
        self.value = value
        self.method = method
        self.realizers = realizers


def diameter_lattice(region: Region) -> int:
    """Exact diameter: the height gap between the extreme tilings."""
    from .height import extremal_heights, label_distance  # loaded on use
    return label_distance(*extremal_heights(region))


def diameter_bfs(region: Region,
                 budget: int = DEFAULT_NODE_BUDGET) -> DiameterReport:
    """Exact diameter by eccentricity-bounded breadth-first search."""
    from .flipgraph import build_flip_graph  # only graph searches load it
    return diameter_of_graph(build_flip_graph(region, budget))


def bfs_distances(graph: FlipGraph, source: int) -> list[int | None]:
    """`flipgraph.bfs_distances`, imported when a search first calls it."""
    from .flipgraph import bfs_distances
    return bfs_distances(graph, source)


def diameter_of_graph(graph: FlipGraph) -> DiameterReport:
    """Exact diameter of an already built flip graph.

    Every node keeps a lower and an upper bound on its eccentricity.  A
    search from v with eccentricity e gives each w the bounds
    max(d, e - d) and e + d, d = d(v, w), by the triangle inequality.
    One search from node 0 seeds the bounds; a double sweep saves a
    search or few on some graphs, but costs more on more of them.
    Sources then alternate between the unsettled node with the largest
    upper bound and the one with the smallest lower bound, ties going to
    the higher degree and then the smaller node, until the largest lower
    and upper bounds meet (Takes and Kosters 2011).  The realizers are
    those of an all-pairs scan: the smallest node whose eccentricity is
    the diameter, and the smallest node that far from it.
    """
    n = len(graph)
    if not n:
        raise UntileableError("region has no tiling")
    degree = list(map(sub, graph.offsets[1:], graph.offsets))
    rows: dict[int, array] = {}
    lo, hi = [0] * n, [n] * n  # every eccentricity is below the node count

    def search(source: int) -> array:
        if source in rows:
            return rows[source]
        dist = bfs_distances(graph, source)
        if None in dist:
            raise DominoError("flip graph is disconnected; diameter undefined")
        e = max(dist)
        hi[:] = map(min, hi, map(e.__add__, dist))
        lo[:] = map(max, lo, dist, map(e.__sub__, dist))
        rows[source] = array("i", dist)  # half the bytes of a list
        return rows[source]

    def pick(values: list[int], value: int) -> int:
        return max(compress(range(n), map(value.__eq__, values)),
                   key=degree.__getitem__)  # max keeps the first of equals

    search(0)
    widest = True
    while max(lo) < max(hi):
        if widest:
            # settled bounds meet at most at max(lo), so these are open
            search(pick(hi, max(hi)))
        else:
            # a settled node reads n, above every open lower bound
            low = [a if a < b else n for a, b in zip(lo, hi)]
            search(pick(low, min(low)))
        widest = not widest
    best = max(lo)
    i = next(i for i in range(n) if hi[i] >= best and max(search(i)) == best)
    pair = (graph.region.decode(graph.masks[i]),
            graph.region.decode(graph.masks[rows[i].index(best)]))
    return DiameterReport(best, "bfs", pair)


def _vertex_levels(region: Region) -> dict[Vertex, int]:
    """Every vertex's level, by one king-move search from the boundary."""
    cells = region.cells
    seeds = {}
    for x, y in cells:  # a side with no cell across it ends at the boundary
        if (x, y - 1) not in cells:
            seeds[x, y] = seeds[x + 1, y] = 0
        if (x, y + 1) not in cells:
            seeds[x, y + 1] = seeds[x + 1, y + 1] = 0
        if (x - 1, y) not in cells:
            seeds[x, y] = seeds[x, y + 1] = 0
        if (x + 1, y) not in cells:
            seeds[x + 1, y] = seeds[x + 1, y + 1] = 0
    return _flood(cells, seeds, _KING)  # all it reaches past them is interior


def diameter_levels(region: Region) -> int:
    """Sum of vertex levels: an upper bound for the diameter, attained
    on rectangles and Aztec diamonds."""
    return sum(_vertex_levels(region).values())


def diameter_square_closed(n: int) -> int:
    """Closed form (n^3 - n) / 6 for the n-by-n square, n even."""
    if n < 2 or n % 2:
        raise ValueError(f"square side must be even and at least 2, got {n}")
    return diameter_rectangle_closed(n, n)


def diameter_rectangle_closed(m: int, n: int) -> int:
    """Closed form for the m-by-n rectangle, m >= n, m*n even: the
    README's polynomial for the ring sum
    sum_i (n - (2i-1))(m - (2i-1)) over i = 1..ceil(n/2)."""
    if n < 1 or m < n:
        raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
    if (m * n) % 2:
        raise ValueError(f"{m}x{n} has an odd cell count, no tilings exist")
    if n % 2 == 0:
        return (3 * m * n * n - n ** 3 - 2 * n) // 12
    return (3 * m * n * n - n ** 3 + n - 3 * m) // 12


def diameter_aztec_closed(n: int) -> int:
    """Closed form n^3/3 + n^2/2 + n/6 for the order-n Aztec diamond,
    which is the sum of the first n squares."""
    if n < 1:
        raise ValueError(f"aztec order must be positive, got {n}")
    return n * (n + 1) * (2 * n + 1) // 6

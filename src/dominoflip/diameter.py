"""Flip-graph diameters: graph search, level sums, closed forms.

The search is exact and uses nothing but the graph: breadth-first
searches from a few tilings bound every tiling's eccentricity from both
sides until the bounds pin the diameter, so it needs a handful of
searches rather than one per tiling.

The level sum over all region vertices bounds every flip distance from
above (no column of a filling shape can exceed its vertex's level) and
is attained whenever each ring of the region tours as a dual cycle with
tileable leftovers, which covers rectangles and Aztec diamonds.  The
closed forms specialize that sum.
"""

from __future__ import annotations

from .errors import DominoError, UntileableError
from .flipgraph import (DEFAULT_NODE_BUDGET, FlipGraph, bfs_distances,
                        build_flip_graph)
from .surface import Region, ring_decomposition
from .tiling import Tiling


class DiameterReport:
    def __init__(self, value: int, method: str,
                 realizers: tuple[Tiling, Tiling] | None = None):
        self.value = value
        self.method = method
        self.realizers = realizers


def diameter_bfs(region: Region,
                 budget: int = DEFAULT_NODE_BUDGET) -> DiameterReport:
    """Exact diameter by eccentricity-bounded breadth-first search."""
    graph = build_flip_graph(region, budget)
    return diameter_of_graph(graph)


def diameter_of_graph(graph: FlipGraph) -> DiameterReport:
    """Exact diameter of an already built flip graph.

    Every node keeps a lower and an upper bound on its eccentricity.  A
    search from v with eccentricity e gives each w the bounds
    max(d, e - d) and e + d, d = d(v, w), by the triangle inequality.
    Sources alternate between the unsettled node with the largest upper
    bound and the one with the smallest lower bound, ties going to the
    higher degree, until the largest lower and upper bounds meet (Takes
    and Kosters 2011).  The realizers are those of an all-pairs scan:
    the smallest node whose eccentricity is the diameter, and the
    smallest node that far from it.
    """
    n = len(graph)
    if not n:
        raise UntileableError("region has no tiling")
    rows: dict[int, list[int]] = {}

    def row(source: int) -> list[int]:
        if source not in rows:
            dist = bfs_distances(graph, source)
            if None in dist:
                raise DominoError(
                    "flip graph is disconnected; diameter undefined")
            rows[source] = dist
        return rows[source]

    degree = [len(nbs) for nbs in graph.adjacency]
    lo = [0] * n
    hi = [n] * n  # every eccentricity is below the node count
    widest = True
    while max(lo) < max(hi):
        unsettled = [w for w in range(n) if lo[w] < hi[w]]
        if widest:
            source = min(unsettled, key=lambda w: (-hi[w], -degree[w]))
        else:
            source = min(unsettled, key=lambda w: (lo[w], -degree[w]))
        widest = not widest
        dist = row(source)
        e = max(dist)
        lo = [max(low, d, e - d) for low, d in zip(lo, dist)]
        hi = [min(high, e + d) for high, d in zip(hi, dist)]
    best = max(lo)
    i = next(i for i in range(n) if hi[i] >= best and max(row(i)) == best)
    pair = (graph.region.decode(graph.masks[i]),
            graph.region.decode(graph.masks[rows[i].index(best)]))
    return DiameterReport(best, "bfs", pair)


def diameter_levels(region: Region) -> int:
    """Sum of vertex levels: an upper bound for the diameter in general,
    the exact diameter for ring-cycled (Saturnian) regions."""
    decomposition = ring_decomposition(region)
    return sum(decomposition.levels.values())


def diameter_square_closed(n: int) -> int:
    """Closed form (n^3 - n) / 6 for the n-by-n square, n even."""
    if n < 2 or n % 2:
        raise ValueError(f"square side must be even and at least 2, got {n}")
    return (n ** 3 - n) // 6


def diameter_rectangle_closed(m: int, n: int) -> int:
    """Closed form for the m-by-n rectangle, m >= n, m*n even.

    Evaluates both the polynomial form and its defining sum
    sum_i (n - (2i-1))(m - (2i-1)) over i = 1..ceil(n/2) and insists
    they agree.
    """
    if n < 1 or m < n:
        raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
    if (m * n) % 2:
        raise ValueError(f"{m}x{n} has an odd cell count, no tilings exist")
    if n % 2 == 0:
        numerator = 3 * m * n * n - n ** 3 - 2 * n
    else:
        numerator = 3 * m * n * n - n ** 3 + n - 3 * m
    if numerator % 12:
        raise DominoError(f"closed form for {m}x{n} is not an integer")
    value = numerator // 12
    explicit = sum((n - (2 * i - 1)) * (m - (2 * i - 1))
                   for i in range(1, (n + 1) // 2 + 1))
    if value != explicit:
        raise DominoError(
            f"closed form {value} disagrees with its defining sum {explicit}")
    return value


def diameter_aztec_closed(n: int) -> int:
    """Closed form n^3/3 + n^2/2 + n/6 for the order-n Aztec diamond,
    which is the sum of the first n squares."""
    if n < 1:
        raise ValueError(f"aztec order must be positive, got {n}")
    return n * (n + 1) * (2 * n + 1) // 6

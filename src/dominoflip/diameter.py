"""Flip-graph diameters: graph search, level sums, closed forms.

The search is exact and uses nothing but the graph: breadth-first
searches from a few tilings bound every tiling's eccentricity from both
sides until the bounds pin the diameter, so it needs a handful of
searches rather than one per tiling.

The level sum over all region vertices bounds every flip distance from
above (no column of a filling shape can exceed its vertex's level).  It
is attained on rectangles and Aztec diamonds, where the closed forms
specialize it, but not in general.  On a simply connected region the
exact diameter is the height gap between the two extreme tilings,
``label_distance(*extremal_heights(region))``, because every tiling's
heights lie between theirs; that lattice spread is what the sum is
checked against.

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
from operator import and_, lt, sub
from sys import byteorder

from .errors import DominoError, UntileableError
from .flipgraph import (DEFAULT_NODE_BUDGET, FlipGraph, bfs_distances,
                        build_flip_graph)
from .surface import Region, Vertex
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
    return diameter_of_graph(build_flip_graph(region, budget))


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

    The bounds are packed one field per node into a single int, so
    each update is a few whole-int operations (SIMD within a register)
    rather than a Python step per node.
    """
    n = len(graph)
    if not n:
        raise UntileableError("region has no tiling")
    # every bound is below 2n, and a field keeps its top bit clear;
    # 2^30 nodes would need far more memory than any budget allows
    code = "H" if n < 1 << 14 else "I"
    bits = 8 * array(code).itemsize
    ones = ((1 << bits * n) - 1) // ((1 << bits) - 1)  # 1 in every field
    tops = ones << (bits - 1)
    full = (1 << bits) - 1

    def unpack(packed: int) -> array:
        return array(code, packed.to_bytes(n * bits // 8, byteorder))

    def at_least(a: int, b: int) -> int:
        """All ones in the fields where a's is at least b's: a top bit
        set over each field of a keeps the subtraction inside it."""
        return (((a | tops) - b & tops) >> (bits - 1)) * full

    rows: dict[int, array] = {}

    def row(source: int) -> array:
        if source not in rows:
            dist = bfs_distances(graph, source)
            if None in dist:
                raise DominoError(
                    "flip graph is disconnected; diameter undefined")
            rows[source] = array(code, dist)
        return rows[source]

    offsets = graph.offsets
    degree = array("i", map(sub, offsets[1:], offsets))
    nodes = range(n)
    lo = 0
    hi = n * ones  # every eccentricity is below the node count
    widest = True
    while True:
        lows, highs = unpack(lo), unpack(hi)
        if max(lows) >= max(highs):
            break
        if widest:
            # a settled node's bounds meet at most at max(lo) < max(hi),
            # so every node of the largest upper bound is unsettled
            top = max(highs)
            ties = compress(nodes, map(top.__eq__, highs))
        else:
            unsettled = bytes(map(lt, lows, highs))
            least = min(compress(lows, unsettled))
            ties = compress(nodes,
                            map(and_, map(least.__eq__, lows), unsettled))
        # max keeps the first of equals: the smallest of the top degree
        source = max(ties, key=degree.__getitem__)
        widest = not widest
        dist = row(source)
        e = max(dist)
        d, far = int.from_bytes(dist, byteorder), e * ones
        # hi = min(hi, e + d) and lo = max(lo, d, e - d), field by field
        reach = far + d
        hi ^= (hi ^ reach) & at_least(hi, reach)
        near = far - d  # e - d, which takes no field below 0
        lower = near ^ (d ^ near) & at_least(d, near)
        lo = lower ^ (lo ^ lower) & at_least(lo, lower)
    best = max(lows)
    i = next(i for i in nodes if highs[i] >= best and max(row(i)) == best)
    pair = (graph.region.decode(graph.masks[i]),
            graph.region.decode(graph.masks[rows[i].index(best)]))
    return DiameterReport(best, "bfs", pair)


def _vertex_levels(region: Region) -> dict[Vertex, int]:
    """Every vertex's level, by one king-move search from the boundary."""
    interior = region.interior_vertices
    levels = dict.fromkeys(region.boundary_vertices, 0)
    queue = list(levels)
    for x, y in queue:  # the list grows behind the loop, as a FIFO queue
        level = levels[x, y] + 1
        for v in ((x - 1, y - 1), (x, y - 1), (x + 1, y - 1), (x - 1, y),
                  (x + 1, y), (x - 1, y + 1), (x, y + 1), (x + 1, y + 1)):
            if v in interior and v not in levels:
                levels[v] = level
                queue.append(v)
    return levels


def diameter_levels(region: Region) -> int:
    """Sum of vertex levels: an upper bound for the diameter, attained
    on rectangles and Aztec diamonds."""
    return sum(_vertex_levels(region).values())


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

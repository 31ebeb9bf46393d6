"""Integer height labels on region vertices induced by a tiling.

Every unit edge gets a positive traversal direction: the one keeping
the black cell on its right, so edges run clockwise around black cells
and counterclockwise around white ones.  Walking an edge positively
raises the label by 1 when no domino crosses the edge, and lowers it by
3 when the edge lies inside a domino.  Labels are anchored at 0 on the
base vertex, the lexicographically smallest boundary vertex.

On a simply connected region this pins a unique labeling per tiling.
Two tilings always agree on boundary vertices, a flip moves exactly one
label (its anchor's) by 4, and the pointwise max and min of two
labelings are again labelings of tilings.  That last fact makes the set
of tilings a distributive lattice whose extremes realize the flip-graph
diameter; it also yields geodesics, by flipping monotonically up to the
pointwise max and back down.  Those walks flip tiling masks, and after
each flip they re-check only the blocks that share a domino with it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from .errors import (DominoError, InvalidHeightError, UnsupportedRegionError,
                     UntileableError)
from .surface import Region, Vertex, is_simply_connected
from .tiling import Tiling, _perfect_matching, is_valid_tiling

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
    adj = region.vertex_edges
    base = base_vertex(region)
    values: HeightValues = {base: 0}
    queue = deque([base])
    while queue:
        u = queue.popleft()
        hu = values[u]
        for v, sign, flank in adj[u]:
            if flank is not None and flank in tiling:
                continue
            if v not in values:
                values[v] = hu + sign
                queue.append(v)
    if len(values) != len(region.vertex_set):
        raise DominoError("height propagation failed to reach every vertex")
    if tiling_from_height(region, values) != tiling:
        raise DominoError("height labels do not reproduce the tiling")
    return values


def distance_height(region: Region, t1: Tiling, t2: Tiling) -> int:
    """Flip distance as a quarter of the summed label differences."""
    h1 = height_function(region, t1)
    h2 = height_function(region, t2)
    total = sum(abs(h1[v] - h2[v]) for v in h1)
    if total % 4:
        raise DominoError(f"height difference sum {total} is not divisible by 4")
    return total // 4


def tiling_from_height(region: Region, values: HeightValues) -> Tiling:
    """The unique tiling whose dominoes cross exactly the -3 edges."""
    if set(values) != set(region.vertex_set):
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


def _flip_step(mask: int, block: tuple[int, int, int], anchor: Vertex) -> int:
    """How a flip at the anchor, whose flip block is block, moves its
    label in the tiling of the mask: +4 when the block holds its vertical
    pair and the anchor's sum is even, or its horizontal pair and the
    sum is odd; -4 when it holds a pair otherwise; 0 when it holds none."""
    s, h, v = block
    held = mask >> s
    if held & h != h and held & v != v:
        return 0
    return 4 if (held & v == v) == (sum(anchor) % 2 == 0) else -4


def _walk(region: Region, mask: int, values: HeightValues,
          goal: Callable[[Vertex, int], int], moves: list[Vertex]) -> int:
    """Flip the tiling of the mask at the lexicographically smallest
    anchor whose label a flip moves the way the sign of goal(anchor,
    label) says, until no anchor's does; return the final mask.  Updates
    values in place and appends each flipped anchor to moves.

    Only a flip's own anchor and its four edge neighbours, whose blocks
    share a domino with it, are checked again after it; a heap of the
    ranks that qualify yields the smallest.
    """
    from heapq import heappop, heappush  # only walks pay for loading it

    anchors = list(region.flip_blocks)
    blocks = list(region.flip_blocks.values())
    rank = {anchor: i for i, anchor in enumerate(anchors)}
    near = [[rank[b] for b in ((x, y), (x + 1, y), (x - 1, y), (x, y + 1),
                               (x, y - 1)) if b in rank] for x, y in anchors]

    def qualifies(i: int) -> bool:
        anchor = anchors[i]
        step = _flip_step(mask, blocks[i], anchor)
        return step * goal(anchor, values[anchor]) > 0

    ready = list(map(qualifies, range(len(anchors))))
    heap = [i for i, ok in enumerate(ready) if ok]  # sorted, so a heap
    while heap:
        i = heappop(heap)
        if ready[i]:  # else it stopped qualifying after it was pushed
            anchor, (s, h, v) = anchors[i], blocks[i]
            values[anchor] += _flip_step(mask, blocks[i], anchor)
            mask ^= (h | v) << s
            moves.append(anchor)
            ready[i] = False
            for j in near[i]:
                was, ready[j] = ready[j], qualifies(j)
                if ready[j] and not was:
                    heappush(heap, j)
    return mask


def _monotone_sweep(region: Region, tiling: Tiling, direction: int) -> Tiling:
    """Apply height-raising (direction=+1) or -lowering flips until stuck."""
    return region.decode(_walk(region, region.encode(tiling),
                               height_function(region, tiling),
                               lambda anchor, label: direction, []))


def extremal_tilings(region: Region) -> tuple[Tiling, Tiling]:
    """The lattice-minimal and -maximal tilings (t_min, t_max)."""
    if not is_simply_connected(region):
        raise UnsupportedRegionError(
            "extremal tilings need a simply connected region")
    seed = _perfect_matching(region)
    if seed is None:
        raise UntileableError("region has no tiling")
    return (_monotone_sweep(region, seed, -1), _monotone_sweep(region, seed, +1))


def geodesic(region: Region, t1: Tiling, t2: Tiling) -> list[Vertex]:
    """A shortest flip sequence from t1 to t2, routed through the
    pointwise-max tiling with monotone heights on each leg.

    Each step picks the lexicographically smallest flippable anchor
    whose label moves toward the leg target, so the path is
    deterministic.
    """
    h1 = height_function(region, t1)
    h2 = height_function(region, t2)
    mid = {v: max(h1[v], h2[v]) for v in h1}
    moves: list[Vertex] = []
    mask = region.encode(t1)
    values = dict(h1)
    for target in (mid, h2):
        mask = _walk(region, mask, values,
                     lambda anchor, label: target[anchor] - label, moves)
        if values != target:
            raise DominoError("geodesic search stalled; inputs inconsistent")
    return moves


def height_to_json(region: Region, values: HeightValues) -> dict:
    base = base_vertex(region)
    return {"base": [base[0], base[1]],
            "values": [[x, y, values[(x, y)]] for x, y in sorted(values)]}


def height_from_json(data: object) -> HeightValues:
    if not isinstance(data, dict) or "values" not in data:
        raise ValueError("height JSON must be an object with a 'values' list")
    values: HeightValues = {}
    for item in data["values"]:
        if (not isinstance(item, (list, tuple)) or len(item) != 3
                or not all(type(c) is int for c in item)):
            raise ValueError(f"bad height entry {item!r}")
        values[(item[0], item[1])] = item[2]
    return values

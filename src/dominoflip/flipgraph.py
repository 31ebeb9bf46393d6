"""Explicit flip graphs: one node per tiling, one edge per flip.

Nodes follow the canonical enumeration order, so node ids are stable
across runs.  A node is its tiling's mask, and its neighbours are the
masks one flip away, found by value.  The edges sit in compressed
sparse row form: ``targets`` is one typed array holding every node's
sorted neighbour ids back to back, and node i's run is
``targets[offsets[i]:offsets[i + 1]]``.  The mask-to-id dict lives only
while the build runs.  Searches read these arrays as built and make no
list per node; an export writes its text into one buffer as it goes,
decoding one tiling at a time for JSON.  ``FlipGraph.nodes``,
``adjacency`` and the mask-to-id ``index`` are built on first use.
``distance_bfs`` searches the same graph without building it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterator
from functools import cached_property
from io import StringIO

from .errors import DEFAULT_NODE_BUDGET, ResourceLimitError
from .surface import Region
from .tiling import Tiling, _backtrack_masks, _check_tilings, _flips, _pack


class FlipGraph:
    def __init__(self, region: Region, masks: list[int], offsets: array,
                 targets: array):
        self.region = region
        self.masks = masks
        self.offsets = offsets
        self.targets = targets

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def nodes(self) -> list[Tiling]:
        """The tilings, decoded from the masks on first access."""
        return list(map(self.region.decode, self.masks))

    @cached_property
    def adjacency(self) -> list[list[int]]:
        """Each node's sorted neighbour ids as a list, built on first
        access; no search reads it."""
        targets, offsets = self.targets, self.offsets
        return [targets[a:b].tolist() for a, b in zip(offsets, offsets[1:])]

    @cached_property
    def index(self) -> dict[int, int]:
        """Node id by mask, built on first access."""
        return {m: i for i, m in enumerate(self.masks)}

    def node_index(self, tiling: Tiling) -> int:
        return self.index[self.region.encode(tiling)]


def _check_budget(region: Region, budget: int) -> int:
    """The region's tiling count; refuses when it is above the budget."""
    from .counting import count_tilings  # only graph searches count

    total = count_tilings(region)
    if total > budget:
        raise ResourceLimitError(
            f"flip graph would have {total} nodes, budget is {budget}")
    return total


def build_flip_graph(region: Region,
                     budget: int = DEFAULT_NODE_BUDGET) -> FlipGraph:
    """The complete flip graph of the region; refuses above the budget."""
    total = _check_budget(region, budget)
    # a nonzero count has proved the region tiles
    masks = list(_backtrack_masks(region)) if total else []
    node = {m: i for i, m in enumerate(masks)}.__getitem__
    blocks = region.flip_blocks.values()
    offsets, targets = _pack(sorted(map(node, _flips(blocks, m)))
                             for m in masks)
    return FlipGraph(region, masks, offsets, targets)


def distance_bfs(region: Region, t1: Tiling, t2: Tiling,
                 budget: int = DEFAULT_NODE_BUDGET) -> int | None:
    """Flip distance by breadth-first search from both tilings at once
    (bidirectional search), None when no flips join them.

    Each round expands the smaller frontier by one whole level, so the
    first tiling one side reaches that the other has seen closes a
    shortest path.  Only the tilings within about half the distance of
    either end are visited; a pair in different components visits one
    of the two components whole.  The budget is on the region's tiling
    count, as for ``build_flip_graph``.
    """
    _check_tilings(region, t1, t2)
    _check_budget(region, budget)
    blocks = region.flip_blocks.values()
    near, far = [region.encode(t1)], [region.encode(t2)]
    near_seen, far_seen = set(near), set(far)
    if near_seen == far_seen:
        return 0
    levels = 0
    while near and far:
        if len(near) > len(far):
            near, far, near_seen, far_seen = far, near, far_seen, near_seen
        levels += 1
        frontier, near = near, []
        for m in frontier:
            for n in _flips(blocks, m):
                if n in far_seen:
                    return levels
                if n not in near_seen:
                    near_seen.add(n)
                    near.append(n)
    return None


def _bfs(graph: FlipGraph, source: int, dist: list[int | None]) -> array:
    """Breadth-first search from source through nodes whose dist entry
    is None, filling in their distances; returns the nodes reached, in
    visiting order.  The queue is a C array: a list would keep a
    Python int alive for every node reached."""
    offsets, targets = graph.offsets, graph.targets
    dist[source] = 0
    reached = array("i", [source])
    append = reached.append
    for u in reached:  # the array grows behind the loop, as a FIFO queue
        d = dist[u] + 1
        for v in targets[offsets[u]:offsets[u + 1]]:
            if dist[v] is None:
                dist[v] = d
                append(v)
    return reached


def bfs_distances(graph: FlipGraph, source: int) -> list[int | None]:
    """Unweighted distances from a node; None marks other components."""
    if not 0 <= source < len(graph):
        raise IndexError(f"node index {source} out of range")
    dist: list[int | None] = [None] * len(graph)
    _bfs(graph, source, dist)
    return dist


def bfs_distance(graph: FlipGraph, i: int, j: int) -> int | None:
    """Shortest path length between two nodes, None when unreachable."""
    if not 0 <= j < len(graph):
        raise IndexError(f"node index {j} out of range")
    return bfs_distances(graph, i)[j]


def connected_components(graph: FlipGraph) -> list[list[int]]:
    """Node partition, components ordered by smallest member."""
    seen: list[int | None] = [None] * len(graph)
    return [sorted(_bfs(graph, start, seen))
            for start in range(len(graph)) if seen[start] is None]


def _edges(graph: FlipGraph) -> Iterator[tuple[int, int]]:
    """Each edge (i, j) once, i < j, in increasing order: rows are
    sorted, so node i's later neighbours are the tail of its run."""
    offsets, targets = graph.offsets, graph.targets
    for i in range(len(graph)):
        end = offsets[i + 1]
        for j in targets[bisect_right(targets, i, offsets[i], end):end]:
            yield i, j


def export_graph(graph: FlipGraph, format: str = "dot") -> str:
    """Render the graph as DOT or JSON text (newline-terminated), written
    into one buffer a node and an edge at a time.  The JSON is json.dumps'
    compact text of {"nodes": [each tiling's tiling_to_json dominoes],
    "edges": [[i, j], ...]}."""
    out = StringIO()
    if format == "dot":
        out.write("graph tilings {\n")
        out.writelines(f"  {i};\n" for i in range(len(graph)))
        out.writelines(f"  {i} -- {j};\n" for i, j in _edges(graph))
        out.write("}\n")
    elif format == "json":
        text = {((a, b), (c, d)): f"[[{a},{b}],[{c},{d}]]"
                for (a, b), (c, d) in graph.region.dominoes}.__getitem__
        nodes = ("[" + ",".join(map(text, sorted(graph.region.decode(m))))
                 + "]" for m in graph.masks)
        edges = (f"[{i},{j}]" for i, j in _edges(graph))
        for head, items in (('{"nodes":[', nodes), ('],"edges":[', edges)):
            out.write(head)
            for k, item in enumerate(items):
                out.write("," + item if k else item)
        out.write("]}\n")
    else:
        raise ValueError(f"unknown export format {format!r}")
    return out.getvalue()

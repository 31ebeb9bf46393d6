"""Explicit flip graphs: one node per tiling, one edge per flip.

Nodes follow the canonical enumeration order, so node ids are stable
across runs.  A node is its tiling's mask, and its neighbours are the
masks one flip away, found by value.  Building, searching and DOT
export never decode a tiling; ``FlipGraph.nodes`` does on first use.
"""

from __future__ import annotations

from functools import cached_property

from .errors import DEFAULT_NODE_BUDGET, ResourceLimitError
from .surface import Region
from .tiling import Tiling, count_tilings, iter_tiling_masks, tiling_to_json


class FlipGraph:
    def __init__(self, region: Region, masks: list[int],
                 adjacency: list[list[int]], index: dict[int, int]):
        self.region = region
        self.masks = masks
        self.adjacency = adjacency
        self.index = index

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def nodes(self) -> list[Tiling]:
        """The tilings, decoded from the masks on first access."""
        return list(map(self.region.decode, self.masks))

    def node_index(self, tiling: Tiling) -> int:
        return self.index[self.region.encode(tiling)]


def build_flip_graph(region: Region,
                     budget: int = DEFAULT_NODE_BUDGET) -> FlipGraph:
    """The complete flip graph of the region; refuses above the budget."""
    total = count_tilings(region)
    if total > budget:
        raise ResourceLimitError(
            f"flip graph would have {total} nodes, budget is {budget}")
    masks = list(iter_tiling_masks(region)) if total else []
    index = {m: i for i, m in enumerate(masks)}
    blocks = [(s, h, v, h | v) for s, h, v in region.flip_blocks.values()]
    adjacency = [sorted(index[m ^ hv << s] for s, h, v, hv in blocks
                        if (t := m >> s) & h == h or t & v == v)
                 for m in masks]
    return FlipGraph(region, masks, adjacency, index)


def _bfs(graph: FlipGraph, source: int, dist: list[int | None]) -> list[int]:
    """Breadth-first search from source through nodes whose dist entry
    is None, filling in their distances; returns the nodes reached, in
    visiting order."""
    dist[source] = 0
    reached = [source]
    for u in reached:  # the list grows behind the loop, as a FIFO queue
        for v in graph.adjacency[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                reached.append(v)
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
    # one list for every search keeps the whole partition linear
    seen: list[int | None] = [None] * len(graph)
    return [sorted(_bfs(graph, start, seen))
            for start in range(len(graph)) if seen[start] is None]


def _edge_list(graph: FlipGraph) -> list[tuple[int, int]]:
    return sorted((i, j)
                  for i, nbs in enumerate(graph.adjacency)
                  for j in nbs if i < j)


def export_graph(graph: FlipGraph, format: str = "dot") -> str:
    """Render the graph as DOT or JSON text (newline-terminated)."""
    if format == "dot":
        lines = ["graph tilings {"]
        lines.extend(f"  {i};" for i in range(len(graph)))
        lines.extend(f"  {i} -- {j};" for i, j in _edge_list(graph))
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        import json

        payload = {
            "nodes": [tiling_to_json(t)["dominoes"] for t in graph.nodes],
            "edges": [[i, j] for i, j in _edge_list(graph)],
        }
        return json.dumps(payload, separators=(",", ":")) + "\n"
    raise ValueError(f"unknown export format {format!r}")

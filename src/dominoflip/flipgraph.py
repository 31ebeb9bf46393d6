"""Explicit flip graphs: one node per tiling, one edge per flip.

Nodes follow the canonical enumeration order, so node ids are stable
across runs.  Neighbors are generated by applying each available flip
rather than comparing tilings pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ResourceLimitError
from .surface import Region
from .tiling import (Tiling, apply_flip, available_flips, count_tilings,
                     enumerate_tilings, tiling_to_json)

DEFAULT_NODE_BUDGET = 2_000_000


@dataclass
class FlipGraph:
    region: Region
    nodes: list[Tiling]
    adjacency: list[list[int]]
    index: dict[Tiling, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def node_index(self, tiling: Tiling) -> int:
        return self.index[tiling]


def build_flip_graph(region: Region,
                     budget: int = DEFAULT_NODE_BUDGET) -> FlipGraph:
    """The complete flip graph of the region; refuses above the budget."""
    total = count_tilings(region)
    if total > budget:
        raise ResourceLimitError(
            f"flip graph would have {total} nodes, budget is {budget}")
    nodes = enumerate_tilings(region) if total else []
    index = {t: i for i, t in enumerate(nodes)}
    adjacency = [sorted(index[apply_flip(region, t, anchor)]
                        for anchor in available_flips(region, t))
                 for t in nodes]
    return FlipGraph(region, nodes, adjacency, index)


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
    if not 0 <= source < len(graph.nodes):
        raise IndexError(f"node index {source} out of range")
    dist: list[int | None] = [None] * len(graph.nodes)
    _bfs(graph, source, dist)
    return dist


def bfs_distance(graph: FlipGraph, i: int, j: int) -> int | None:
    """Shortest path length between two nodes, None when unreachable."""
    if not 0 <= j < len(graph.nodes):
        raise IndexError(f"node index {j} out of range")
    return bfs_distances(graph, i)[j]


def connected_components(graph: FlipGraph) -> list[list[int]]:
    """Node partition, components ordered by smallest member."""
    # one list for every search keeps the whole partition linear
    seen: list[int | None] = [None] * len(graph.nodes)
    return [sorted(_bfs(graph, start, seen))
            for start in range(len(graph.nodes)) if seen[start] is None]


def _edge_list(graph: FlipGraph) -> list[tuple[int, int]]:
    return sorted((i, j)
                  for i, nbs in enumerate(graph.adjacency)
                  for j in nbs if i < j)


def export_graph(graph: FlipGraph, format: str = "dot") -> str:
    """Render the graph as DOT or JSON text (newline-terminated)."""
    if format == "dot":
        lines = ["graph tilings {"]
        lines.extend(f"  {i};" for i in range(len(graph.nodes)))
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

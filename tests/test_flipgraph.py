import json
import tracemalloc

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import dominoflip.tiling
from dominoflip import (Region, ResourceLimitError, available_flips,
                        bfs_distance, bfs_distances, build_flip_graph,
                        connected_components, count_tilings,
                        diameter_of_graph, distance_bfs, enumerate_tilings,
                        export_graph, is_simply_connected, make_aztec,
                        make_holed_square, make_rectangle)

from conftest import punched_boxes


def differ_by_one_block(t1, t2):
    """True when the tilings differ in exactly the four dominoes of one
    2x2 block, found without any flip machinery."""
    diff = t1 ^ t2
    if len(diff) != 4:
        return False
    cells = {c for d in diff for c in d}
    x, y = min(cells)
    return cells == {(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)}


class TestBuild:
    def test_2x2(self):
        g = build_flip_graph(make_rectangle(2, 2))
        assert len(g) == 2
        assert g.adjacency == [[1], [0]]

    def test_4x3_connected(self):
        g = build_flip_graph(make_rectangle(4, 3))
        assert len(g) == 11
        assert len(connected_components(g)) == 1

    def test_aztec_2_connected(self):
        from dominoflip import make_aztec
        g = build_flip_graph(make_aztec(2))
        assert len(g) == 8
        assert len(connected_components(g)) == 1

    def test_adjacency_symmetric_no_loops(self):
        g = build_flip_graph(make_rectangle(4, 3))
        for i, nbs in enumerate(g.adjacency):
            assert i not in nbs
            assert nbs == sorted(nbs)
            for j in nbs:
                assert i in g.adjacency[j]

    def test_degree_equals_flip_count(self):
        r = make_rectangle(4, 4)
        g = build_flip_graph(r)
        for i, t in enumerate(g.nodes):
            assert len(g.adjacency[i]) == len(available_flips(r, t))

    @pytest.mark.parametrize("region", [
        make_rectangle(4, 4), make_aztec(3), make_holed_square(5),
    ])
    def test_adjacency_matches_pairwise_oracle(self, region):
        g = build_flip_graph(region)
        expected = [[j for j, other in enumerate(g.nodes)
                     if differ_by_one_block(t, other)] for t in g.nodes]
        assert g.adjacency == expected

    def test_budget_enforced(self):
        with pytest.raises(ResourceLimitError):
            build_flip_graph(make_rectangle(4, 4), budget=10)

    def test_tileability_proved_once(self, monkeypatch):
        # the budget's count has proved it, so the build backtracks at
        # once, while enumeration on its own still asks
        asked = []

        def spy(region):
            asked.append(region)
            return True

        monkeypatch.setattr(dominoflip.tiling, "is_tileable", spy)
        region = make_rectangle(4, 3)
        g = build_flip_graph(region)
        assert asked == []
        assert g.nodes == enumerate_tilings(region)
        assert asked == [region]


class TestBfs:
    def test_self_distance(self):
        g = build_flip_graph(make_rectangle(4, 3))
        assert bfs_distance(g, 4, 4) == 0

    def test_2x2_pair(self):
        g = build_flip_graph(make_rectangle(2, 2))
        assert bfs_distance(g, 0, 1) == 1

    def test_holed_square_unreachable(self):
        g = build_flip_graph(make_holed_square(3))
        assert bfs_distance(g, 0, 1) is None

    def test_bad_index(self):
        g = build_flip_graph(make_rectangle(2, 2))
        with pytest.raises(IndexError):
            bfs_distance(g, 0, 5)
        with pytest.raises(IndexError):
            bfs_distance(g, -3, 0)

    def test_one_flip_from_upright_4x2(self):
        from dominoflip import apply_flip, domino
        r = make_rectangle(4, 2)
        upright = frozenset(domino((x, 0), (x, 1)) for x in range(4))
        flipped = apply_flip(r, upright, (1, 1))
        g = build_flip_graph(r)
        assert bfs_distance(g, g.node_index(upright), g.node_index(flipped)) == 1

    def test_metric_axioms_on_4x3(self):
        g = build_flip_graph(make_rectangle(4, 3))
        n = len(g)
        dist = [bfs_distances(g, i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert dist[i][j] == dist[j][i]
                assert (dist[i][j] == 0) == (i == j)
                for k in range(n):
                    assert dist[i][j] <= dist[i][k] + dist[k][j]


class TestDistanceBfs:
    """The two-ended search against one-source BFS over the built graph."""

    @given(punched_boxes(6), st.data())
    def test_matches_the_built_graph(self, cells, data):
        region = Region(cells)
        assume(0 < count_tilings(region) <= 2000)
        g = build_flip_graph(region)
        # each end from a component drawn on its own, so that the pairs
        # of a disconnected graph (holed regions) often lie apart
        components = connected_components(g)
        i, j = (data.draw(st.sampled_from(data.draw(
            st.sampled_from(components)))) for _ in range(2))
        assert distance_bfs(region, g.nodes[i], g.nodes[j]) == \
            bfs_distances(g, i)[j]

    @pytest.mark.parametrize("region", [
        make_holed_square(5),
        # components of 142, 93, 4 and 1 tilings
        Region([(x, y) for x in range(6) for y in range(5)
                if (x, y) not in ((2, 2), (4, 3))]),
    ], ids=["holed-square:5", "6x5-two-holes"])
    def test_disconnected_graphs(self, region):
        g = build_flip_graph(region)
        components = connected_components(g)
        assert len(components) > 1
        for i in {c[k] for c in components for k in (0, -1)}:
            dist = bfs_distances(g, i)
            assert [distance_bfs(region, g.nodes[i], t)
                    for t in g.nodes] == dist
            assert None in dist

    def test_foreign_tiling_raises_value_error(self):
        r = make_rectangle(4, 2)
        inside = enumerate_tilings(r)[0]
        for other in (frozenset(), enumerate_tilings(make_rectangle(2, 4))[0]):
            with pytest.raises(ValueError):
                distance_bfs(r, inside, other)
            with pytest.raises(ValueError):
                distance_bfs(r, other, inside)

    def test_budget_on_the_tiling_count(self):
        r = make_rectangle(4, 4)
        t = enumerate_tilings(r)[0]
        with pytest.raises(ResourceLimitError,
                           match="flip graph would have 36 nodes, budget is 35"):
            distance_bfs(r, t, t, budget=35)
        assert distance_bfs(r, t, t, budget=36) == 0


class TestComponents:
    def test_holed_square_3(self):
        g = build_flip_graph(make_holed_square(3))
        assert connected_components(g) == [[0], [1]]

    def test_holed_square_5(self):
        g = build_flip_graph(make_holed_square(5))
        assert len(connected_components(g)) == 3

    def test_partition(self):
        g = build_flip_graph(make_holed_square(5))
        comps = connected_components(g)
        nodes = [i for comp in comps for i in comp]
        assert sorted(nodes) == list(range(len(g)))

    @given(punched_boxes(5))
    def test_simply_connected_regions_are_one_component(self, cells):
        # the theorem `components` answers by without building a graph
        region = Region(cells)
        assume(is_simply_connected(region) and count_tilings(region))
        g = build_flip_graph(region)
        assert connected_components(g) == [list(range(len(g)))]


class TestMasks:
    def test_queries_decode_no_node(self):
        r = make_rectangle(4, 4)
        g = build_flip_graph(r)
        assert g.node_index(enumerate_tilings(r)[7]) == 7
        bfs_distance(g, 0, 5)
        bfs_distances(g, 3)
        connected_components(g)
        diameter_of_graph(g)
        export_graph(g, "dot")
        assert "nodes" not in vars(g)
        assert g.nodes == enumerate_tilings(r)
        assert "nodes" in vars(g)

    def test_queries_build_no_per_node_view(self):
        holed = build_flip_graph(make_holed_square(5))
        square = build_flip_graph(make_rectangle(4, 4))
        bfs_distances(holed, 3)
        connected_components(holed)
        diameter_of_graph(square)  # holed-square:5's graph is disconnected
        export_graph(holed, "dot")
        export_graph(holed, "json")
        for g in (holed, square):
            assert not {"nodes", "adjacency", "index"} & vars(g).keys()

    @pytest.mark.parametrize("region", [make_rectangle(6, 6),
                                        make_rectangle(8, 4)],
                             ids=["6x6", "8x4"])
    def test_bytes_held_per_node(self, region):
        build_flip_graph(region)  # fills the region's own caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = build_flip_graph(region)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / len(g) <= 120


class TestExport:
    def test_dot_two_nodes(self):
        g = build_flip_graph(make_rectangle(2, 2))
        assert export_graph(g, "dot") == (
            "graph tilings {\n  0;\n  1;\n  0 -- 1;\n}\n")

    def test_dot_header_only_when_untileable(self):
        g = build_flip_graph(make_rectangle(3, 1))
        assert export_graph(g, "dot") == "graph tilings {\n}\n"

    def test_3x2_path_graph(self):
        g = build_flip_graph(make_rectangle(3, 2))
        data = json.loads(export_graph(g, "json"))
        assert len(data["nodes"]) == 3
        assert len(data["edges"]) == 2

    def test_json_round_trips_nodes(self):
        from dominoflip import tiling_from_json
        g = build_flip_graph(make_rectangle(3, 2))
        data = json.loads(export_graph(g, "json"))
        rebuilt = [tiling_from_json({"dominoes": n}) for n in data["nodes"]]
        assert rebuilt == g.nodes

    def test_unknown_format(self):
        g = build_flip_graph(make_rectangle(2, 2))
        with pytest.raises(ValueError):
            export_graph(g, "gml")

    def test_ends_with_newline(self):
        g = build_flip_graph(make_rectangle(2, 2))
        assert export_graph(g, "dot").endswith("\n")
        assert export_graph(g, "json").endswith("\n")

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import dominoflip.diameter
from dominoflip import (DominoError, FlipGraph, Region, UntileableError,
                        UnsupportedRegionError, bfs_distances,
                        build_flip_graph, diameter_aztec_closed,
                        diameter_bfs, diameter_lattice, diameter_levels,
                        diameter_of_graph, diameter_rectangle_closed,
                        diameter_square_closed, distance_height,
                        enumerate_tilings, extremal_tilings,
                        is_simply_connected, make_aztec, make_from_cells,
                        make_holed_square, make_rectangle)
from dominoflip.flipgraph import _pack

from conftest import tileable_discs, two_discs

# one tiling, so diameter 0, around an interior vertex of level 1
ONE_TILING_SIX = make_from_cells([(-1, 0), (0, 0), (1, 0), (2, 0),
                                  (0, 1), (1, 1)])


def all_pairs_diameter(graph):
    """Oracle: one search from every node, keeping the first pair (in
    index order) that attains each new maximum."""
    if not graph.nodes:
        raise UntileableError("region has no tiling")
    best = 0
    pair = (0, 0)
    for i in range(len(graph.nodes)):
        for j, d in enumerate(bfs_distances(graph, i)):
            if d is None:
                raise DominoError(
                    "flip graph is disconnected; diameter undefined")
            if d > best:
                best = d
                pair = (i, j)
    return best, (graph.nodes[pair[0]], graph.nodes[pair[1]])


def searched_sources(graph, monkeypatch):
    """The sources of the breadth-first searches diameter_of_graph runs."""
    sources = []

    def counting(g, source):
        sources.append(source)
        return bfs_distances(g, source)

    monkeypatch.setattr(dominoflip.diameter, "bfs_distances", counting)
    diameter_of_graph(graph)
    return sources


def bounded_diameter(graph):
    report = diameter_of_graph(graph)
    return report.value, report.realizers


def outcome(search, graph):
    """The search's (value, realizers), or the type and message it raised."""
    try:
        return search(graph)
    except DominoError as exc:
        return type(exc), str(exc)


@st.composite
def small_graphs(draw):
    """A random tree on up to 40 nodes plus random extra edges, minus at
    most one tree edge: mostly connected, sometimes not, with many ties
    in eccentricity and distance."""
    n = draw(st.integers(1, 40))
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    if n > 1 and draw(st.booleans()):
        edges.discard(sorted(edges)[draw(st.integers(0, n - 2))])
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    adjacency = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return FlipGraph(PlainMasks, list(range(n)),
                     *_pack(sorted(nbs) for nbs in adjacency))


class PlainMasks:
    """Stands in for the region of a graph whose node masks are the
    nodes themselves."""

    @staticmethod
    def decode(mask):
        return mask


# deleting dominoes from a tiling of the 6x4 box leaves a tileable region
# whose flip graph (at most 281 nodes) may or may not be connected
BOX_TILINGS = [sorted(t) for t in enumerate_tilings(make_rectangle(6, 4))]


class TestClosedForms:
    @pytest.mark.parametrize("n,value", [(2, 1), (4, 10), (6, 35)])
    def test_square(self, n, value):
        assert diameter_square_closed(n) == value

    def test_square_rejects_odd(self):
        with pytest.raises(ValueError):
            diameter_square_closed(5)

    @pytest.mark.parametrize("m,n,value", [
        (6, 2, 5), (4, 3, 6), (4, 4, 10),
    ])
    def test_rectangle(self, m, n, value):
        assert diameter_rectangle_closed(m, n) == value

    def test_rectangle_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            diameter_rectangle_closed(3, 4)  # m < n
        with pytest.raises(ValueError):
            diameter_rectangle_closed(5, 3)  # odd cell count

    def test_rectangle_polynomial_is_its_ring_sum(self):
        for m in range(1, 81):
            for n in range(1, m + 1):
                if m * n % 2 == 0:
                    ring_sum = sum((n - (2 * i - 1)) * (m - (2 * i - 1))
                                   for i in range(1, (n + 1) // 2 + 1))
                    assert diameter_rectangle_closed(m, n) == ring_sum, (m, n)

    @pytest.mark.parametrize("n,value", [(1, 1), (2, 5), (4, 30)])
    def test_aztec(self, n, value):
        assert diameter_aztec_closed(n) == value

    def test_aztec_is_square_pyramidal(self):
        for n in range(1, 10):
            assert diameter_aztec_closed(n) == sum(i * i for i in range(1, n + 1))


class TestLevels:
    @pytest.mark.parametrize("region,value", [
        (make_rectangle(2, 2), 1),
        (make_rectangle(6, 6), 35),
        (make_aztec(4), 30),
    ])
    def test_examples(self, region, value):
        assert diameter_levels(region) == value

    def test_matches_rectangle_closed_forms(self):
        for n in range(2, 9):
            for m in range(n, 9):
                if (m * n) % 2 == 0:
                    assert (diameter_levels(make_rectangle(m, n))
                            == diameter_rectangle_closed(m, n)), (m, n)
        # the exact route holds the closed form past the search's reach
        for n in range(1, 41):
            for m in range(n, 41):
                if (m * n) % 2 == 0:
                    assert (diameter_lattice(make_rectangle(m, n))
                            == diameter_rectangle_closed(m, n)), (m, n)

    def test_matches_aztec_closed_forms(self):
        for n in range(1, 7):
            assert diameter_levels(make_aztec(n)) == diameter_aztec_closed(n)
        for n in range(1, 41):
            assert diameter_lattice(make_aztec(n)) == diameter_aztec_closed(n)

    def test_exact_on_rectangles_and_aztec_diamonds(self):
        # the lattice spread is the exact diameter of a simply connected
        # region, and the search checks it from the graph alone
        for region in (make_rectangle(4, 4), make_rectangle(6, 2),
                       make_rectangle(7, 4), make_aztec(1), make_aztec(2),
                       make_aztec(3)):
            assert (diameter_levels(region) == diameter_lattice(region)
                    == diameter_bfs(region).value)

    @given(tileable_discs(7))
    def test_bounds_the_lattice_spread(self, cells):
        region = Region(cells)
        assert diameter_levels(region) >= diameter_lattice(region)

    def test_exceeds_the_diameter_on_a_one_tiling_region(self):
        assert diameter_levels(ONE_TILING_SIX) == 1
        assert diameter_lattice(ONE_TILING_SIX) == 0
        assert diameter_bfs(ONE_TILING_SIX).value == 0


class TestLattice:
    @given(two_discs(4))
    def test_pieces_add(self, discs):
        # the flip graph of two pieces is the product of theirs
        first, second, union = map(Region, discs)
        assert (diameter_lattice(union)
                == diameter_lattice(first) + diameter_lattice(second)
                == diameter_of_graph(build_flip_graph(union)).value)

    def test_refuses_a_hole(self):
        with pytest.raises(UnsupportedRegionError, match="with no hole"):
            diameter_lattice(make_holed_square(5))


class TestBfs:
    @pytest.mark.parametrize("region,value", [
        (make_rectangle(2, 2), 1),
        (make_rectangle(6, 2), 5),
        (make_aztec(2), 5),
        (make_rectangle(6, 6), 35),
    ])
    def test_examples(self, region, value):
        report = diameter_bfs(region)
        assert report.value == value
        assert report.method == "bfs"

    def test_realizers_attain_value(self):
        from dominoflip import distance_height
        region = make_rectangle(4, 3)
        report = diameter_bfs(region)
        a, b = report.realizers
        assert distance_height(region, a, b) == report.value

    def test_disconnected_graph_rejected(self):
        with pytest.raises(DominoError):
            diameter_bfs(make_holed_square(3))

    @pytest.mark.parametrize("region", [
        make_rectangle(4, 4), make_rectangle(7, 4), make_rectangle(2, 14),
        make_aztec(3), make_rectangle(1, 1), make_holed_square(3),
    ], ids=["4x4", "7x4", "2x14", "aztec3", "untileable", "disconnected"])
    def test_matches_all_pairs_oracle(self, region):
        graph = build_flip_graph(region)
        assert (outcome(bounded_diameter, graph)
                == outcome(all_pairs_diameter, graph))

    @given(st.sampled_from(BOX_TILINGS),
           st.sets(st.integers(0, 11), max_size=4))
    def test_random_regions_match_all_pairs_oracle(self, tiling, removed):
        cells = {c for k, d in enumerate(tiling) if k not in removed
                 for c in d}
        graph = build_flip_graph(Region(cells))
        assert (outcome(bounded_diameter, graph)
                == outcome(all_pairs_diameter, graph))

    @given(st.sampled_from(BOX_TILINGS),
           st.sets(st.integers(0, 11), max_size=5))
    def test_simply_connected_regions_match_the_height_oracle(self, tiling,
                                                              removed):
        # the tilings of a simply connected region form a distributive
        # lattice under flips (Propp 2002), whose diameter is the height
        # distance from its bottom to its top
        region = Region({c for k, d in enumerate(tiling) if k not in removed
                         for c in d})
        assume(is_simply_connected(region))
        assert (diameter_of_graph(build_flip_graph(region)).value
                == distance_height(region, *extremal_tilings(region)))

    @given(small_graphs())
    def test_random_graphs_match_all_pairs_oracle(self, graph):
        assert (outcome(bounded_diameter, graph)
                == outcome(all_pairs_diameter, graph))

    @pytest.mark.parametrize("width,height", [
        (16383, 1), (40000, 1), (130, 130),
    ], ids=["path-16383", "path-40000", "grid-130"])
    def test_grids_at_the_field_widths(self, width, height):
        # bounds past 2^15: a search from one end of a path bounds the
        # other end's eccentricity by twice the path's length
        n = width * height
        # node x * height + y; neighbours listed in increasing order
        rows = ([a * height + b
                 for a, b in ((x - 1, y), (x, y - 1), (x, y + 1), (x + 1, y))
                 if 0 <= a < width and 0 <= b < height]
                for x, y in map(divmod, range(n), [height] * n))
        graph = FlipGraph(PlainMasks, list(range(n)), *_pack(rows))
        assert bounded_diameter(graph) == (width + height - 2, (0, n - 1))

    @pytest.mark.parametrize("region", [make_rectangle(8, 4), make_aztec(4)],
                             ids=["8x4", "aztec4"])
    def test_few_searches(self, region, monkeypatch):
        graph = build_flip_graph(region)
        sources = searched_sources(graph, monkeypatch)
        assert len(sources) == len(set(sources))
        assert 100 * len(sources) <= len(graph.nodes)

    def test_searches_on_the_bench_shapes(self, monkeypatch):
        # the search workload's shapes in perfbench/jobs.py: one seed
        # from node 0 leaves 55 searches in all, where a double sweep
        # before the alternation left 58 and the alternation alone 66
        regions = [make_rectangle(w, h) for w, h in (
            (4, 4), (5, 4), (6, 4), (9, 2), (10, 3), (3, 10), (14, 2),
            (2, 14), (7, 4), (4, 7), (6, 5), (5, 6), (8, 4))]
        total = 0
        for region in regions + [make_aztec(3), make_aztec(4)]:
            sources = searched_sources(build_flip_graph(region), monkeypatch)
            assert len(sources) == len(set(sources))
            total += len(sources)
        assert total <= 55

    def test_levels_upper_bound_simply_connected(self):
        for region in (make_rectangle(4, 3), make_rectangle(5, 2),
                       make_rectangle(3, 2)):
            assert diameter_bfs(region).value <= diameter_levels(region)

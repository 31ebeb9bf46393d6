import json
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dominoflip import (DominoError, InvalidHeightError, Region,
                        UnsupportedRegionError, UntileableError,
                        apply_flip, available_flips, base_vertex,
                        build_flip_graph, bfs_distances, diameter_lattice,
                        diameter_of_graph, distance_cycles, distance_height,
                        enumerate_tilings, extremal_tilings, first_tiling,
                        geodesic, height_function, is_simply_connected,
                        is_valid_tiling, join, make_aztec, make_from_cells,
                        make_holed_square, make_rectangle, meet,
                        region_from_json, tiling_from_height,
                        tiling_from_json)
from dominoflip.height import extremal_heights, label_distance
from dominoflip.tiling import is_tileable

from conftest import (FIXTURES, boundary_set, cell_corners, interior_set,
                      load_tiling, punched_boxes, tileable_discs,
                      touching_discs, two_discs, vertex_set)

# an L-shaped 16-cell region with a reference tiling and the height
# labels it must produce (base vertex (0, 0))
LSHAPE = make_from_cells([
    (0, 0), (1, 0), (2, 0), (3, 0),
    (0, 1), (1, 1), (2, 1), (3, 1), (4, 1),
    (1, 2), (2, 2), (3, 2), (4, 2),
    (1, 3), (2, 3), (3, 3),
])
LSHAPE_TILING = tiling_from_json({"dominoes": [
    [[0, 0], [1, 0]], [[2, 0], [3, 0]], [[0, 1], [1, 1]], [[2, 1], [3, 1]],
    [[4, 1], [4, 2]], [[1, 2], [2, 2]], [[3, 2], [3, 3]], [[1, 3], [2, 3]],
]})
LSHAPE_HEIGHTS = {
    (0, 0): 0, (1, 0): -1, (2, 0): 0, (3, 0): -1, (4, 0): 0,
    (0, 1): 1, (1, 1): 2, (2, 1): 1, (3, 1): 2, (4, 1): 1, (5, 1): 2,
    (0, 2): 0, (1, 2): -1, (2, 2): 0, (3, 2): -1, (4, 2): 0, (5, 2): 3,
    (1, 3): -2, (2, 3): -3, (3, 3): -2, (4, 3): 1, (5, 3): 2,
    (1, 4): -1, (2, 4): 0, (3, 4): -1, (4, 4): 0,
}


class TestHeightFunction:
    def test_2x2_centers_differ_by_four(self):
        r = make_rectangle(2, 2)
        horizontal, vertical = enumerate_tilings(r)
        hh = height_function(r, horizontal)
        hv = height_function(r, vertical)
        assert abs(hh[(1, 1)] - hv[(1, 1)]) == 4
        assert hh[base_vertex(r)] == 0

    def test_lshape_reference_values(self):
        assert height_function(LSHAPE, LSHAPE_TILING) == LSHAPE_HEIGHTS

    def test_boundary_values_tiling_independent(self):
        r = make_rectangle(4, 2)
        tilings = enumerate_tilings(r)
        reference = height_function(r, tilings[0])
        for t in tilings[1:]:
            h = height_function(r, t)
            for v in boundary_set(r.cells):
                assert h[v] == reference[v]

    def test_rejects_holed_region(self):
        r = make_holed_square(3)
        t = enumerate_tilings(r)[0]
        with pytest.raises(UnsupportedRegionError):
            height_function(r, t)

    def test_rejects_invalid_tiling(self):
        r = make_rectangle(2, 2)
        with pytest.raises(ValueError):
            height_function(r, frozenset())

    def test_height_parity_fixed_per_vertex(self):
        r = make_rectangle(4, 3)
        tilings = enumerate_tilings(r)
        reference = height_function(r, tilings[0])
        for t in tilings[1:]:
            h = height_function(r, t)
            for v, value in h.items():
                assert value % 4 == reference[v] % 4

    def test_region_caches_die_with_region(self):
        import gc
        import weakref
        # cells no other test uses, so no equal region is cached already
        r = make_from_cells((x + 1000, y) for x in range(4) for y in range(3))
        height_function(r, enumerate_tilings(r)[0])
        # the heights cache the components' bases, and no vertex,
        # boundary or edge table; the dominoes are the enumeration's
        assert vars(r).keys() == {"cells", "dominoes", "bases"}
        ref = weakref.ref(r)
        del r
        gc.collect()
        assert ref() is None


class TestDistance:
    def test_zero_on_equal(self):
        r = make_rectangle(4, 3)
        t = enumerate_tilings(r)[5]
        assert distance_height(r, t, t) == 0

    def test_2x2_pair(self):
        r = make_rectangle(2, 2)
        a, b = enumerate_tilings(r)
        assert distance_height(r, a, b) == 1

    def test_6x2_reference_pair(self):
        r = make_rectangle(6, 2)
        a = load_tiling("brick_6x2.json")
        b = load_tiling("staggered_6x2.json")
        assert distance_height(r, a, b) == 5

    def test_matches_bfs_on_4x3(self):
        r = make_rectangle(4, 3)
        g = build_flip_graph(r)
        for i, t1 in enumerate(g.nodes):
            dist = bfs_distances(g, i)
            for j, t2 in enumerate(g.nodes):
                assert distance_height(r, t1, t2) == dist[j]


class TestBijection:
    def test_round_trip_over_4x3(self):
        r = make_rectangle(4, 3)
        for t in enumerate_tilings(r):
            assert tiling_from_height(r, height_function(r, t)) == t

    def test_corrupted_value_rejected(self):
        r = make_rectangle(4, 3)
        h = height_function(r, enumerate_tilings(r)[0])
        v = min(interior_set(r.cells))
        h[v] += 1
        with pytest.raises(InvalidHeightError):
            tiling_from_height(r, h)

    @given(tileable_discs(6), st.data())
    def test_perturbed_labels_refused_or_a_tiling(self, cells, data):
        # the edge rules alone force one domino per cell, so labels that
        # pass them always describe a tiling of the region; on a part of
        # the disc, a domino leaving it steps by -3 along its boundary
        removed = data.draw(st.sets(st.sampled_from(cells),
                                    max_size=len(cells) - 1))
        region = Region(set(cells) - removed)
        disc = Region(cells)
        labels = height_function(disc, first_tiling(disc))
        values = {v: labels[v] for v in vertex_set(region.cells)}
        vertices = sorted(values)
        for v in data.draw(st.lists(st.sampled_from(vertices), max_size=8)):
            values[v] += data.draw(st.sampled_from((-4, 4)))
        for v in data.draw(st.lists(st.sampled_from(vertices), max_size=3)):
            values[v] += data.draw(st.integers(-9, 9))
        try:
            tiling = tiling_from_height(region, values)
        except InvalidHeightError:
            return
        assert is_valid_tiling(region, tiling)

    @given(tileable_discs(6), st.data())
    def test_labels_round_trip_on_discs(self, cells, data):
        # the round trip holds every edge to its step, so it checks that
        # the one walk labels every vertex as the tiling demands
        region = Region(cells)
        tiling = first_tiling(region)
        tilings = [tiling]
        for _ in range(data.draw(st.integers(1, 6))):
            anchors = available_flips(region, tiling)
            if not anchors:
                break
            tiling = apply_flip(region, tiling,
                                data.draw(st.sampled_from(anchors)))
            tilings.append(tiling)
        for t in tilings:
            assert tiling_from_height(region, height_function(region, t)) == t

    def test_missing_vertex_rejected(self):
        r = make_rectangle(2, 2)
        h = height_function(r, enumerate_tilings(r)[0])
        h.pop((1, 1))
        with pytest.raises(InvalidHeightError):
            tiling_from_height(r, h)

    @pytest.mark.parametrize("swap,extra", [
        ((3, 3), None), ((100, -100), None), ("a", None), (("a", 1), None),
        ((0, 0, 0), None), (frozenset({0, 1}), None), (None, (3, 3)),
        (None, (100, 100)),
    ], ids=["in-hole", "far-off", "not-a-tuple", "not-numbers", "3-tuple",
            "a-set", "extra-in-hole", "extra-far-off"])
    def test_wrong_key_rejected(self, swap, extra):
        # a 6x6 brick tiling's labels, on the board less the bricks of
        # its middle 2x2 block, whose centre (3, 3) has no cell round it
        board = make_rectangle(6, 6)
        bricks = {((x, y), (x + 1, y)) for x in (0, 2, 4) for y in range(6)}
        h = height_function(board, frozenset(bricks))
        block = {((2, 2), (3, 2)), ((2, 3), (3, 3))}
        r = make_from_cells(c for d in bricks - block for c in d)
        del h[3, 3]
        assert tiling_from_height(r, dict(h)) == bricks - block
        if swap is not None:
            del h[0, 0]
            h[swap] = 0
        if extra is not None:
            h[extra] = 0
        with pytest.raises(InvalidHeightError):
            tiling_from_height(r, h)


class TestLattice:
    def test_join_idempotent(self):
        r = make_rectangle(4, 3)
        t = enumerate_tilings(r)[3]
        assert join(r, t, t) == t
        assert meet(r, t, t) == t

    def test_join_is_pointwise_max(self):
        r = make_rectangle(4, 4)
        tilings = enumerate_tilings(r)
        a, b = tilings[7], tilings[20]
        hj = height_function(r, join(r, a, b))
        ha, hb = height_function(r, a), height_function(r, b)
        assert hj == {v: max(ha[v], hb[v]) for v in ha}

    def test_geodesic_splits_through_join_and_meet(self):
        r = make_rectangle(4, 3)
        g = build_flip_graph(r)
        for i, a in enumerate(g.nodes):
            dist = bfs_distances(g, i)
            for b in g.nodes:
                up = join(r, a, b)
                down = meet(r, a, b)
                d = dist[g.node_index(b)]
                assert (distance_height(r, a, up)
                        + distance_height(r, up, b)) == d
                assert (distance_height(r, a, down)
                        + distance_height(r, down, b)) == d

    def test_meet_of_extremes(self):
        r = make_rectangle(4, 4)
        tmin, tmax = extremal_tilings(r)
        assert meet(r, tmin, tmax) == tmin
        assert join(r, tmin, tmax) == tmax


class TestExtremal:
    def test_2x2(self):
        r = make_rectangle(2, 2)
        tmin, tmax = extremal_tilings(r)
        assert {tmin, tmax} == set(enumerate_tilings(r))
        assert distance_height(r, tmin, tmax) == 1

    @pytest.mark.parametrize("region,spread", [
        (make_rectangle(4, 4), 10), (make_aztec(2), 5),
    ])
    def test_extreme_distance(self, region, spread):
        tmin, tmax = extremal_tilings(region)
        assert distance_height(region, tmin, tmax) == spread

    def test_independent_of_start(self):
        # monotone walks down and up from every tiling end at the
        # shortest-path extremes
        for r in (make_rectangle(4, 3), make_aztec(2)):
            extremes = extremal_tilings(r)
            for t in enumerate_tilings(r):
                assert extremes == tuple(
                    rescanning_walk(r, t, height_function(r, t),
                                    lambda anchor, label, d=d: d, [])
                    for d in (-1, 1))

    def test_no_tiling_masks(self):
        # heights work on labels alone: neither the extremes nor a
        # geodesic builds the region's flip blocks
        r = make_from_cells((x + 2000, y) for x in range(6) for y in range(5))
        tmin, tmax = extremal_tilings(r)
        assert len(geodesic(r, tmin, tmax)) == distance_height(r, tmin, tmax)
        assert "flip_blocks" not in r.__dict__

    @pytest.mark.parametrize("region", [
        make_rectangle(2, 2), make_rectangle(4, 3), make_rectangle(7, 4),
        make_aztec(1), make_aztec(3), LSHAPE,
    ], ids=["2x2", "4x3", "7x4", "aztec1", "aztec3", "lshape"])
    def test_heights_are_the_extreme_tilings_labels(self, region):
        assert_extremes_are_labelled(region)

    @given(tileable_discs(7))
    def test_heights_on_tileable_discs(self, cells):
        region = Region(cells)
        assume(is_simply_connected(region) and is_tileable(region))
        assert_extremes_are_labelled(region)

    def test_heights_raise_as_the_tilings_do(self):
        # the mutilated board and a single cell are caught by the boundary
        # walk, which does not close round them; the spur region is
        # colour-balanced, so its walk closes, and only a shortest-path
        # pass moving a boundary label tells that it has no tiling
        board = {(x, y) for x in range(8) for y in range(8)}
        spur = region_from_json(json.loads(
            (FIXTURES / "spur_12x6.json").read_text()))
        for region, error in (
                (make_holed_square(3), UnsupportedRegionError),
                (make_rectangle(3, 3), UntileableError),
                (make_from_cells(board - {(0, 0), (7, 7)}), UntileableError),
                (make_rectangle(1, 1), UntileableError),
                (spur, UntileableError)):
            for extremes in (extremal_heights, extremal_tilings):
                with pytest.raises(error):
                    extremes(region)

    @given(punched_boxes(6))
    def test_heights_raise_exactly_when_untileable(self, cells):
        region = Region(cells)
        assume(is_simply_connected(region))
        try:
            extremal_heights(region)
        except UntileableError:
            assert not is_tileable(region)
        else:
            assert is_tileable(region)

    def test_label_distance_needs_a_multiple_of_four(self):
        with pytest.raises(DominoError, match="not divisible by 4"):
            label_distance({(0, 0): 0, (1, 0): 1}, {(0, 0): 0, (1, 0): 3})

    def test_all_tilings_between_extremes(self):
        r = make_aztec(2)
        tmin, tmax = extremal_tilings(r)
        hmin = height_function(r, tmin)
        hmax = height_function(r, tmax)
        for t in enumerate_tilings(r):
            h = height_function(r, t)
            for v in h:
                assert hmin[v] <= h[v] <= hmax[v]


def assert_extremes_are_labelled(region):
    """extremal_heights gives the labels of extremal_tilings' tilings, and
    their quarter-sum is the spread distance_height measures."""
    h_min, h_max = extremal_heights(region)
    tilings = extremal_tilings(region)
    assert [h_min, h_max] == [height_function(region, t) for t in tilings]
    assert label_distance(h_min, h_max) == distance_height(region, *tilings)


class TestGeodesic:
    def test_empty_on_equal(self):
        r = make_rectangle(4, 3)
        t = enumerate_tilings(r)[0]
        assert geodesic(r, t, t) == []

    def test_single_flip(self):
        r = make_rectangle(2, 2)
        a, b = enumerate_tilings(r)
        assert geodesic(r, a, b) == [(1, 1)]

    def test_6x2_reference_pair(self):
        r = make_rectangle(6, 2)
        a = load_tiling("brick_6x2.json")
        b = load_tiling("staggered_6x2.json")
        path = geodesic(r, a, b)
        assert len(path) == 5
        current = a
        for anchor in path:
            current = apply_flip(r, current, anchor)
        assert current == b


class TestFlipLocality:
    @given(st.data())
    def test_flip_moves_one_label_by_four(self, data):
        regions = [make_rectangle(4, 3), make_rectangle(4, 4), make_aztec(2)]
        r = regions[data.draw(st.integers(0, len(regions) - 1))]
        tilings = enumerate_tilings(r)
        t = tilings[data.draw(st.integers(0, len(tilings) - 1))]
        flips = available_flips(r, t)
        if not flips:
            return
        anchor = flips[data.draw(st.integers(0, len(flips) - 1))]
        before = height_function(r, t)
        after = height_function(r, apply_flip(r, t, anchor))
        assert abs(after[anchor] - before[anchor]) == 4
        for v in before:
            if v != anchor:
                assert after[v] == before[v]

    @pytest.mark.parametrize("region", [
        make_rectangle(4, 4), make_aztec(3), make_rectangle(5, 4),
    ], ids=["4x4", "aztec3", "5x4"])
    def test_flips_at_strict_local_extrema(self, region):
        # an interior vertex is flippable exactly when its label is below
        # all four neighbours', and then the flip raises it by 4, or above
        # all four, and then the flip lowers it by 4
        for t in enumerate_tilings(region):
            before = height_function(region, t)
            flips = available_flips(region, t)
            for x, y in interior_set(region.cells):
                h = before[x, y]
                around = [before[v] for v in ((x + 1, y), (x - 1, y),
                                              (x, y + 1), (x, y - 1))]
                low, high = h < min(around), h > max(around)
                assert ((x, y) in flips) == (low or high)
                if low or high:
                    after = height_function(region,
                                            apply_flip(region, t, (x, y)))
                    assert after[x, y] - h == (4 if low else -4)


def rescanning_walk(region, tiling, values, goal, moves):
    """Oracle for the walk in ``height.geodesic``, on sets of dominoes,
    reading each flip's direction off its block: flip at the smallest
    available anchor whose label moves the way the sign of goal(anchor,
    label) says, rescanning every anchor after each flip."""
    while True:
        for anchor in available_flips(region, tiling):
            x, y = anchor
            vertical = ((x - 1, y - 1), (x - 1, y)) in tiling
            step = 4 if vertical == ((x + y) % 2 == 0) else -4
            if step * goal(anchor, values[anchor]) > 0:
                tiling = apply_flip(region, tiling, anchor)
                values[anchor] += step
                moves.append(anchor)
                break
        else:
            return tiling


def rescanning_extremes(region):
    seed = first_tiling(region)
    return tuple(rescanning_walk(region, seed, height_function(region, seed),
                                 lambda anchor, label, d=d: d, [])
                 for d in (-1, 1))


def rescanning_geodesic(region, t1, t2):
    h1, h2 = height_function(region, t1), height_function(region, t2)
    mid = {v: max(h1[v], h2[v]) for v in h1}
    values, moves, current = dict(h1), [], t1
    for target in (mid, h2):
        current = rescanning_walk(region, current, values,
                                  lambda anchor, label: target[anchor] - label,
                                  moves)
    assert current == t2 and values == h2
    return moves


def assert_walks_match_the_oracle(region):
    extremes = extremal_tilings(region)
    assert extremes == rescanning_extremes(region)
    tmin, tmax = extremes
    seed = first_tiling(region)
    for a, b in ((tmin, tmax), (tmax, tmin), (seed, tmin), (tmax, seed)):
        assert geodesic(region, a, b) == rescanning_geodesic(region, a, b)


class TestLocalWalk:
    """The walk that re-checks only a flip's block and its neighbours
    against the full rescan it replaced: same tilings, same flip lists."""

    @given(tileable_discs(7))
    def test_simply_connected_regions(self, cells):
        region = Region(cells)
        assume(is_simply_connected(region) and is_tileable(region))
        assert_walks_match_the_oracle(region)

    @pytest.mark.parametrize("region", [
        make_rectangle(7, 4), make_rectangle(16, 16), make_aztec(8),
    ], ids=["7x4", "16x16", "aztec8"])
    def test_long_walks(self, region):
        assert_walks_match_the_oracle(region)


def table_edges(region):
    """Oracle: the per-vertex edge table the regions once cached, built
    by linking each unit edge at both ends from the cell that owns it."""
    cells = region.cells
    adj = {v: [] for c in cells for v in cell_corners(c)}

    def link(u, v, sign, flank):
        adj[u].append((v, sign, flank))
        adj[v].append((u, -sign, flank))

    for cell in cells:
        x, y = cell
        sign = 1 if (x + y) % 2 else -1  # of the lower edge
        below, left = (x, y - 1), (x - 1, y)
        link(cell, (x + 1, y), sign, (below, cell) if below in cells else None)
        link(cell, (x, y + 1), -sign, (left, cell) if left in cells else None)
        if (x, y + 1) not in cells:
            link((x, y + 1), (x + 1, y + 1), -sign, None)
        if (x + 1, y) not in cells:
            link((x + 1, y), (x + 1, y + 1), sign, None)
    return adj


def table_walk(adj, base, tiling):
    """Oracle: labels breadth first over the table's edges that no domino
    crosses, or over its boundary edges alone when tiling is None."""
    values = {base: 0}
    queue = [base]
    for u in queue:
        for v, sign, flank in adj[u]:
            if v not in values and (flank is None or tiling is not None
                                    and flank not in tiling):
                values[v] = values[u] + sign
                queue.append(v)
    return values


def table_extremal_heights(region):
    """Oracle: the two shortest-path passes from the boundary labels,
    read off the table."""
    adj = table_edges(region)
    values = table_walk(adj, min(region.cells), None)
    if any(values[v] - h != sign for u, h in values.items()
           for v, sign, flank in adj[u] if flank is None):
        raise UntileableError("region has no tiling")
    passes = []
    for sign in (-1, 1):
        best = {}
        heap = [(sign * h, b) for b, h in values.items()]
        heapify(heap)
        while heap:
            d, u = heappop(heap)
            if u not in best:
                best[u] = sign * d
                for v, edge_sign, _ in adj[u]:
                    if v not in best:
                        heappush(heap, (d + 2 - sign * edge_sign, v))
        if any(best[b] != h for b, h in values.items()):
            raise UntileableError("region has no tiling")
        passes.append(best)
    return tuple(passes)


class TestEdgeRuleAgainstTheTable:
    """Labels read through the coordinate edge rule against the same
    walks over a stored per-vertex edge table."""

    @given(tileable_discs(7))
    def test_extremes_and_labels_match_the_table(self, cells):
        region = Region(cells)
        h_min, h_max = extremal_heights(region)
        t_min, t_max = table_extremal_heights(region)
        # the passes settle vertices in (distance, vertex) order either way
        assert list(h_min.items()) == list(t_min.items())
        assert list(h_max.items()) == list(t_max.items())
        tiling = first_tiling(region)
        adj = table_edges(region)
        assert height_function(region, tiling) == table_walk(
            adj, min(region.cells), tiling)


def in_pieces(discs):
    """The union of two discs, or None after checking that the height
    routes refuse it when the places where they touch enclose a hole."""
    region = Region(discs[2])
    if region.bases is not None:
        return region
    with pytest.raises(UnsupportedRegionError, match="with no hole"):
        height_function(region, first_tiling(region))
    with pytest.raises(UnsupportedRegionError, match="with no hole"):
        extremal_heights(region)
    return None


class TestRegionsInPieces:
    """One walk labels a region in pieces: a vertex where two pieces
    touch at a corner borders no domino, so its label is the same in
    every tiling, and the label routes answer as on one piece."""

    @given(st.one_of(touching_discs(4), two_discs(4)))
    def test_distances_agree_on_every_pair(self, discs):
        region = in_pieces(discs)
        if region is None:
            return
        graph = build_flip_graph(region)
        assume(len(graph) <= 40)  # at most 1,600 pairs
        for i, t1 in enumerate(graph.nodes):
            dist = bfs_distances(graph, i)
            for j, t2 in enumerate(graph.nodes):
                assert (distance_height(region, t1, t2)
                        == distance_cycles(region, t1, t2) == dist[j])

    @given(st.one_of(touching_discs(4), two_discs(4)), st.data())
    def test_lattice_extremes_and_geodesics(self, discs, data):
        region = in_pieces(discs)
        if region is None:
            return
        graph = build_flip_graph(region)
        diameter = diameter_of_graph(graph).value
        assert diameter_lattice(region) == diameter
        tmin, tmax = extremal_tilings(region)
        assert is_valid_tiling(region, tmin) and is_valid_tiling(region, tmax)
        ends = graph.node_index(tmin), graph.node_index(tmax)
        assert bfs_distances(graph, ends[0])[ends[1]] == diameter
        i, j = (data.draw(st.integers(0, len(graph) - 1)) for _ in "ij")
        path = geodesic(region, graph.nodes[i], graph.nodes[j])
        assert len(path) == bfs_distances(graph, i)[j]
        current = graph.nodes[i]
        for anchor in path:
            current = apply_flip(region, current, anchor)
        assert current == graph.nodes[j]

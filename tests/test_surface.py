from collections import Counter
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dominoflip.surface
from dominoflip import (Region, apply_flip, available_flips, base_vertex,
                        bfs_distances, build_flip_graph, connected_components,
                        cycle_collection, diameter_lattice, diameter_levels,
                        distance_cycles, distance_height, enumerate_tilings,
                        export_voxels, extremal_tilings, filling_shape,
                        geodesic, height_function, is_black,
                        is_simply_connected, join, make_aztec,
                        make_from_cells, make_holed_square, make_rectangle,
                        meet, region_from_json, region_to_json,
                        tiling_from_height)
from dominoflip.diameter import _vertex_levels
from dominoflip.height import extremal_heights
from dominoflip.render import render
from dominoflip.surface import (_KING, _SIDES, _flood, _pieces,
                                _vertex_count, interior_vertices,
                                vertex_edges)
from dominoflip.tiling import is_tileable

from conftest import (CORNER_PINCHES, boundary_set, cell_corners,
                      interior_set, punched_boxes, region_grid, run_capped,
                      tileable_discs, vertex_set)

cells_strategy = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12)


def flood_is_simply_connected(region):
    """Oracle: edge-connected, and every cell of the bounding box padded
    by one that is not in the region is reachable from outside."""
    cells = region.cells
    if len(_flood(cells, [min(cells)], _SIDES)) != len(cells):
        return False
    x0, y0, x1, y1 = region.bounds
    box = {(x, y) for x in range(x0 - 1, x1 + 2) for y in range(y0 - 1, y1 + 2)}
    complement = box - cells
    return (len(_flood(complement, [(x0 - 1, y0 - 1)], _SIDES))
            == len(complement))


def membership_edge_sign(cells, u, v):
    """Oracle: +1 when the cell on the right of u -> v is black, reading
    the colour off whichever flanking cell is in the region."""
    dx, dy = v[0] - u[0], v[1] - u[1]
    if dx == 1:
        right, left = (u[0], u[1] - 1), (u[0], u[1])
    elif dx == -1:
        right, left = (v[0], v[1]), (v[0], v[1] - 1)
    elif dy == 1:
        right, left = (u[0], u[1]), (u[0] - 1, u[1])
    else:
        right, left = (v[0] - 1, v[1]), (v[0], v[1])
    if right in cells:
        return 1 if is_black(right) else -1
    return -1 if is_black(left) else 1


class TestConstructors:
    def test_rectangle_2x2(self):
        r = make_rectangle(2, 2)
        assert len(r.cells) == 4
        assert len(vertex_set(r.cells)) == 9
        assert len(interior_set(r.cells)) == 1

    def test_rectangle_4x3(self):
        r = make_rectangle(4, 3)
        assert len(r.cells) == 12
        assert len(vertex_set(r.cells)) == 20
        assert len(interior_set(r.cells)) == 6

    def test_rectangle_1x1(self):
        r = make_rectangle(1, 1)
        assert len(r.cells) == 1
        assert len(interior_set(r.cells)) == 0

    @pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (-1, 2)])
    def test_rectangle_rejects_bad_dims(self, m, n):
        with pytest.raises(ValueError):
            make_rectangle(m, n)

    @pytest.mark.parametrize("n,cells,interior", [
        (1, 4, 1), (2, 12, 5), (4, 40, 25),
    ])
    def test_aztec_examples(self, n, cells, interior):
        r = make_aztec(n)
        assert len(r.cells) == cells
        assert len(interior_set(r.cells)) == interior

    def test_aztec_formulas_up_to_six(self):
        for n in range(1, 7):
            r = make_aztec(n)
            assert len(r.cells) == 2 * n * (n + 1)
            assert len(interior_set(r.cells)) == 2 * n * n - 2 * n + 1

    def test_aztec_rejects_zero(self):
        with pytest.raises(ValueError):
            make_aztec(0)

    @pytest.mark.parametrize("k,cells", [(3, 8), (5, 24), (7, 48)])
    def test_holed_square_sizes(self, k, cells):
        assert len(make_holed_square(k).cells) == cells

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_holed_square_rejects(self, k):
        with pytest.raises(ValueError):
            make_holed_square(k)

    def test_from_cells_single(self):
        assert len(make_from_cells([(0, 0)]).cells) == 1

    def test_from_cells_empty_rejected(self):
        with pytest.raises(ValueError):
            make_from_cells([])

    def test_from_cells_matches_rectangle(self):
        r = make_rectangle(3, 2)
        assert make_from_cells(sorted(r.cells)) == r

    def test_mutilated_chessboard(self):
        cells = [(x, y) for x in range(8) for y in range(8)
                 if (x, y) not in ((0, 0), (7, 7))]
        assert len(make_from_cells(cells).cells) == 62

    @given(cells_strategy)
    def test_from_cells_deduplicates(self, cells):
        r = make_from_cells(list(cells) + list(cells))
        assert r.cells == frozenset(cells)


class TestVertexCounts:
    @given(st.integers(1, 6), st.integers(1, 6))
    def test_rectangle_vertex_formulas(self, m, n):
        r = make_rectangle(m, n)
        assert len(vertex_set(r.cells)) == (m + 1) * (n + 1)
        assert len(interior_set(r.cells)) == (m - 1) * (n - 1)

    @given(cells_strategy)
    def test_coloring_is_proper(self, cells):
        r = make_from_cells(cells)
        for x, y in r.cells:
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nb in r.cells:
                    assert is_black((x, y)) != is_black(nb)

    @given(st.one_of(cells_strategy, punched_boxes(6)))
    def test_base_vertex_is_the_smallest_boundary_vertex(self, cells):
        # holed and disconnected regions too
        r = make_from_cells(cells)
        assert base_vertex(r) == min(boundary_set(r.cells)) == min(
            vertex_set(r.cells))

    # holes, corner pinches and several components included
    @given(st.one_of(cells_strategy, punched_boxes(7)))
    def test_interior_rule_matches_the_corner_count(self, cells):
        cells = frozenset(cells)
        assert interior_vertices(cells) == sorted(interior_set(cells))

    @pytest.mark.parametrize("rows", CORNER_PINCHES)
    def test_interior_rule_at_corner_pinches(self, rows):
        r = region_grid(len(rows[0]), len(rows), " ".join(rows))
        assert interior_vertices(r.cells) == sorted(interior_set(r.cells))


class TestSimplyConnected:
    def test_rectangle(self):
        assert is_simply_connected(make_rectangle(4, 3))

    def test_holed_square(self):
        assert not is_simply_connected(make_holed_square(3))

    def test_disconnected(self):
        assert not is_simply_connected(make_from_cells([(0, 0), (2, 2)]))

    def test_mutilated_chessboard_has_no_hole(self):
        cells = [(x, y) for x in range(8) for y in range(8)
                 if (x, y) not in ((0, 0), (7, 7))]
        assert is_simply_connected(make_from_cells(cells))

    @pytest.mark.parametrize("rows", CORNER_PINCHES)
    def test_corner_pinch_encloses_a_hole(self, rows):
        r = region_grid(len(rows[0]), len(rows), " ".join(rows))
        assert len(_flood(r.cells, [min(r.cells)], _SIDES)) == len(r.cells)
        assert not is_simply_connected(r)
        assert not flood_is_simply_connected(r)

    def test_all_subsets_of_3x3_match_flood_oracle(self):
        box = [(x, y) for x in range(3) for y in range(3)]
        for bits in product((False, True), repeat=9):
            cells = [c for c, keep in zip(box, bits) if keep]
            if cells:
                r = Region(cells)
                assert is_simply_connected(r) == flood_is_simply_connected(r)

    @given(punched_boxes(7))
    def test_matches_flood_oracle(self, cells):
        r = Region(cells)
        assert is_simply_connected(r) == flood_is_simply_connected(r)

    @given(tileable_discs(7))
    def test_tileable_discs_are_hole_free_and_tileable(self, cells):
        # the test strategy's claim, against the oracle
        r = Region(cells)
        assert flood_is_simply_connected(r) and is_tileable(r)

    @pytest.mark.parametrize("cells", [
        [(x + 3000, y) for x in range(5) for y in range(4)],
        [(x + 3000, y) for x in range(3) for y in range(3)
         if (x, y) != (1, 1)],
    ], ids=["rect", "holed"])
    def test_second_call_floods_nothing(self, cells, monkeypatch):
        floods = []

        def counted(*args):
            floods.append(args)
            return _flood(*args)

        monkeypatch.setattr(dominoflip.surface, "_flood", counted)
        r = Region(cells)
        answer = is_simply_connected(r)
        assert [is_simply_connected(r) for _ in range(3)] == [answer] * 3
        assert r.simply_connected is answer and len(floods) == 1

    # holes, corner pinches and several components included
    @given(st.one_of(cells_strategy, punched_boxes(7)))
    def test_vertex_count_matches_the_vertex_set(self, cells):
        r = make_from_cells(cells)
        assert _vertex_count(r.cells) == len(vertex_set(r.cells))

    @pytest.mark.parametrize("rows", CORNER_PINCHES)
    def test_vertex_count_at_corner_pinches(self, rows):
        r = region_grid(len(rows[0]), len(rows), " ".join(rows))
        assert _vertex_count(r.cells) == len(vertex_set(r.cells))

    def test_long_thin_l_in_bounded_memory(self):
        code = ("from dominoflip import Region, is_simply_connected\n"
                "n = 5000\n"
                "cells = [(x, y) for x in range(n) for y in range(2)]\n"
                "cells += [(x, y) for x in range(2) for y in range(2, n)]\n"
                "print(is_simply_connected(Region(cells)))\n")
        done = run_capped("-c", code)
        assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


def brute_force_edge_table(cells):
    """Oracle: every unit edge of every cell, once at each endpoint, with
    the membership sign and, when both cells flanking it are present,
    their domino."""
    flanks = {}
    for x, y in cells:
        for u, v, across in (((x, y), (x + 1, y), (x, y - 1)),
                             ((x, y), (x, y + 1), (x - 1, y)),
                             ((x, y + 1), (x + 1, y + 1), (x, y + 1)),
                             ((x + 1, y), (x + 1, y + 1), (x + 1, y))):
            pair = tuple(sorted(((x, y), across)))
            flanks[u, v] = pair if across in cells else None
    table = {}
    for (u, v), flank in flanks.items():
        table.setdefault(u, Counter())[
            v, membership_edge_sign(cells, u, v), flank] += 1
        table.setdefault(v, Counter())[
            u, membership_edge_sign(cells, v, u), flank] += 1
    return table


def rule_table(r):
    """The edge rule read at every vertex, as brute_force_edge_table has it."""
    return {u: Counter(vertex_edges(r.cells, u)) for u in vertex_set(r.cells)}


class TestEdgeSigns:
    # holes and several components, then corner pinches
    @given(st.one_of(cells_strategy, punched_boxes(6)))
    def test_coordinate_rule_matches_membership_rule(self, cells):
        r = make_from_cells(cells)
        assert rule_table(r) == brute_force_edge_table(r.cells)

    @pytest.mark.parametrize("rows", CORNER_PINCHES)
    def test_edge_table_at_corner_pinches(self, rows):
        r = region_grid(len(rows[0]), len(rows), " ".join(rows))
        assert rule_table(r) == brute_force_edge_table(r.cells)

    def test_reads_no_domino_table(self):
        r = make_aztec(4)
        rule_table(r)
        assert "dominoes" not in r.__dict__

    def test_no_edges_at_a_vertex_off_the_region(self):
        # the oracle reads only the region's vertices
        assert list(vertex_edges(frozenset({(0, 0)}), (5, 5))) == []


class TestFlood:
    @given(punched_boxes(8), st.sampled_from([_SIDES, _KING]))
    def test_step_counts_from_the_nearest_seed(self, cells, steps):
        # oracle: grow the reached set one whole level at a time; one
        # seed lies outside the cells, which the flood keeps at 0 and
        # steps out of
        outside = (min(x for x, _ in cells) - 2, 0)
        seeds = [max(cells), outside, min(cells)]
        expected, front, level = {}, set(seeds), 0
        while front:
            expected.update(dict.fromkeys(front, level))
            level += 1
            front = {(x + dx, y + dy) for x, y in front for dx, dy in steps
                     if (x + dx, y + dy) in cells} - expected.keys()
        reached = _flood(frozenset(cells), seeds, steps)
        assert reached == expected
        starts = list(dict.fromkeys(seeds))
        assert list(reached)[:len(starts)] == starts
        assert list(reached.values()) == sorted(reached.values())


class TestRings:
    def test_square_2_levels(self):
        assert _vertex_levels(make_rectangle(2, 2)) == {
            (x, y): int((x, y) == (1, 1)) for x in range(3) for y in range(3)}

    def test_aztec_2_levels(self):
        r = make_aztec(2)
        levels = _vertex_levels(r)
        assert {v for v, lev in levels.items() if lev == 1} == (
            interior_set(r.cells))
        assert sum(levels.values()) == 5

    def test_boundary_vertices_are_level_zero(self):
        for r in (make_rectangle(5, 4), make_aztec(3)):
            levels = _vertex_levels(r)
            assert {v for v, lev in levels.items() if lev == 0} == (
                boundary_set(r.cells))

    @given(punched_boxes(9))
    def test_levels_drop_by_one_after_peeling(self, cells):
        # the definition, one peel at a time: with holes, pinches and
        # several components
        r = Region(cells)
        levels = _vertex_levels(r)
        boundary = boundary_set(r.cells)
        assert set(levels) == vertex_set(r.cells)
        assert {v for v, lev in levels.items() if lev == 0} == boundary
        ring = {c for c in r.cells if set(cell_corners(c)) & boundary}
        left = r.cells - ring
        deeper = _vertex_levels(Region(left)) if left else {}
        for v in interior_set(r.cells):
            # one peel down, or 1 when its cells all leave with the ring
            assert levels[v] == deeper.get(v, 0) + 1

    @given(st.one_of(tileable_discs(8), punched_boxes(9)))
    def test_levels_are_king_distances_to_the_boundary(self, cells):
        # oracle: the fewest king moves from each vertex to one with a
        # cell missing round it, by brute force over those vertices;
        # punched boxes bring holes, pinches and several components
        boundary = boundary_set(cells)
        expected = {v: min(max(abs(v[0] - b[0]), abs(v[1] - b[1]))
                           for b in boundary)
                    for v in vertex_set(cells)}
        assert _vertex_levels(Region(cells)) == expected


def cross(arm):
    """Two 2-cell-wide bars, 2 * arm cells long, crossing at the origin."""
    bar = [(x, y) for x in range(-arm, arm) for y in (0, 1)]
    return Region(bar + [(y, x) for x, y in bar])


def blocks(*corners):
    """The 2x2 blocks of cells with these lower-left corners."""
    return [(x + dx, y + dy) for x, y in corners for dx in (0, 1)
            for dy in (0, 1)]


TWO_APART = blocks((0, 0), (4, 0))
TWO_AT_A_CORNER = blocks((0, 0), (2, 2))
# a 2x2 island inside a 6x6 ring, one cell of water between them
ISLAND = blocks((2, 2)) + [(x, y) for x in range(6) for y in range(6)
                           if not (0 < x < 5 and 0 < y < 5)]
RING_FLOOD = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3),
              (4, 0), (0, 4), (5, 0), (0, 5), (5, 1), (1, 5), (5, 2), (2, 5),
              (5, 3), (3, 5), (5, 4), (4, 5), (5, 5)]


def block_dominoes(x, y):
    """A 2x2 block's dominoes in flood order from its corner (x, y)."""
    return [((x, y), (x + 1, y)), ((x, y), (x, y + 1)),
            ((x + 1, y), (x + 1, y + 1)), ((x, y + 1), (x + 1, y + 1))]


class TestPieces:
    @pytest.mark.parametrize("cells,pieces", [
        (TWO_APART, [[(0, 0), (1, 0), (0, 1), (1, 1)],
                     [(4, 0), (5, 0), (4, 1), (5, 1)]]),
        (TWO_AT_A_CORNER, [[(0, 0), (1, 0), (0, 1), (1, 1)],
                           [(2, 2), (3, 2), (2, 3), (3, 3)]]),
        (ISLAND, [RING_FLOOD, [(2, 2), (3, 2), (2, 3), (3, 3)]]),
    ], ids=["apart", "corner", "island"])
    def test_pieces_in_order_of_their_smallest_cells(self, cells, pieces):
        assert list(_pieces(frozenset(cells))) == pieces

    @pytest.mark.parametrize("cells,dominoes", [
        (TWO_APART, block_dominoes(0, 0) + block_dominoes(4, 0)),
        (TWO_AT_A_CORNER, block_dominoes(0, 0) + block_dominoes(2, 2)),
        # each ring cell's right, then upper partner, in the ring's flood
        # order, then the island's
        (ISLAND, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (2, 0)),
                  ((0, 1), (0, 2)), ((2, 0), (3, 0)), ((0, 2), (0, 3)),
                  ((3, 0), (4, 0)), ((0, 3), (0, 4)), ((4, 0), (5, 0)),
                  ((0, 4), (0, 5)), ((5, 0), (5, 1)), ((0, 5), (1, 5)),
                  ((5, 1), (5, 2)), ((1, 5), (2, 5)), ((5, 2), (5, 3)),
                  ((2, 5), (3, 5)), ((5, 3), (5, 4)), ((3, 5), (4, 5)),
                  ((5, 4), (5, 5)), ((4, 5), (5, 5))] + block_dominoes(2, 2)),
    ], ids=["apart", "corner", "island"])
    def test_domino_bits_follow_the_pieces(self, cells, dominoes):
        assert list(make_from_cells(cells).dominoes) == dominoes

    @given(punched_boxes(8))
    def test_pieces_partition_the_cells(self, cells):
        pieces = list(_pieces(frozenset(cells)))
        assert sorted(c for piece in pieces for c in piece) == sorted(cells)
        assert [min(piece) for piece in pieces] == sorted(
            min(piece) for piece in pieces)
        for piece in pieces:
            assert list(_flood(frozenset(cells), [piece[0]], _SIDES)) == piece


class TestDominoMasks:
    @given(cells_strategy)
    def test_dominoes_are_the_dual_edges(self, cells):
        r = make_from_cells(cells)
        edges = {(c, nb) for c in r.cells
                 for nb in ((c[0] + 1, c[1]), (c[0] - 1, c[1]),
                            (c[0], c[1] + 1), (c[0], c[1] - 1))
                 if nb in r.cells and c < nb}
        assert len(r.dominoes) == len(edges) and set(r.dominoes) == edges
        assert list(r.dominoes.values()) == list(range(len(edges)))

    @pytest.mark.parametrize("region", [
        make_rectangle(4, 4), make_aztec(3), make_holed_square(5),
    ], ids=["4x4", "aztec3", "holed5"])
    def test_round_trip(self, region):
        for t in enumerate_tilings(region):
            mask = region.encode(t)
            assert bin(mask).count("1") == len(t)
            assert region.decode(mask) == t

    @pytest.mark.parametrize("region", [
        make_rectangle(2, 3000), make_rectangle(3000, 2), cross(1500),
    ], ids=["tall", "wide", "cross"])
    def test_blocks_span_few_bits_on_long_regions(self, region):
        # a block's masks are shifted down to its lowest bit, and the
        # flood order keeps its four dominoes close, so the table does
        # not grow with the square of the region's length
        assert max((h | v).bit_length()
                   for _, h, v in region.flip_blocks.values()) <= 16


class TestTablesBuilt:
    # each route builds only the region tables it reads, and a region
    # caches no vertex table; the tilings come from another instance of
    # the region, so no cache leaks in
    CACHES = {"cells", "simply_connected", "dominoes", "flip_blocks",
              "bounds"}

    def test_lattice_spread_builds_no_domino_table(self):
        r = make_rectangle(6, 6)
        assert diameter_lattice(r) == 35
        assert "dominoes" not in r.__dict__

    def test_cycle_routes_build_no_vertex_sets(self):
        tmin, tmax = extremal_tilings(make_rectangle(6, 6))
        g = build_flip_graph(make_holed_square(5))
        big, lone = sorted(connected_components(g), key=len, reverse=True)[:2]
        dist = bfs_distances(g, big[0])
        cases = [(make_rectangle(6, 6), tmin, tmax, 35)]
        for j in (big[-1], lone[0]):  # within, then across components
            cases.append((make_holed_square(5), g.nodes[big[0]], g.nodes[j],
                          dist[j]))
        assert cases[-1][-1] is None
        for r, t1, t2, distance in cases:
            assert distance_cycles(r, t1, t2) == distance
            assert export_voxels(filling_shape(r, t1, t2))
            assert r.__dict__.keys() <= self.CACHES - {"dominoes"}

    @pytest.mark.parametrize("shape", [make_rectangle(6, 6), make_aztec(3)],
                             ids=["6x6", "aztec3"])
    def test_label_routes_build_no_boundary_or_interior_set(self, shape):
        # labels start at the smallest cell's corner, the extremes'
        # passes start from the boundary walk's labels, the Euler check
        # counts the vertices and the geodesic reads the interior ones by
        # rule, so no route caches a vertex table, nor the domino one
        tmin, tmax = extremal_tilings(shape)
        routes = {
            "height_function": lambda r: height_function(r, tmin),
            "distance_height": lambda r: distance_height(r, tmin, tmax),
            "join": lambda r: join(r, tmin, tmax),
            "meet": lambda r: meet(r, tmin, tmax),
            "extremal_heights": extremal_heights,
            "extremal_tilings": extremal_tilings,
            "diameter_lattice": diameter_lattice,
            "geodesic": lambda r: geodesic(r, tmin, tmax),
        }
        for name, route in routes.items():
            r = Region(shape.cells)
            assert route(r), name
            assert r.__dict__.keys() <= self.CACHES - {"dominoes"}, name

    def test_mask_and_level_routes_build_no_vertex_sets(self):
        tmin, tmax = extremal_tilings(make_rectangle(4, 4))
        anchor = available_flips(make_rectangle(4, 4), tmin)[0]
        routes = {
            "flip graph": build_flip_graph,
            "available_flips": lambda r: available_flips(r, tmin),
            "apply_flip": lambda r: apply_flip(r, tmin, anchor),
            "diameter_levels": diameter_levels,
            "tiling_from_height": lambda r: tiling_from_height(
                r, height_function(make_rectangle(4, 4), tmax)),
        }
        for name, route in routes.items():
            r = make_from_cells(make_rectangle(4, 4).cells)
            assert route(r), name
            assert r.__dict__.keys() <= self.CACHES, name

    def test_labels_and_pictures_build_no_domino_table(self):
        # only the mask code (enumeration, flip graphs, the two-ended
        # search, flips and realizers) builds Region.dominoes
        tmin, tmax = extremal_tilings(make_rectangle(6, 6))
        r = make_rectangle(6, 6)
        assert [tiling_from_height(r, h) for h in extremal_heights(r)] == [
            tmin, tmax]
        assert extremal_tilings(r) == (tmin, tmax)
        assert distance_height(r, tmin, tmax) == 35
        assert len(geodesic(r, tmin, tmax)) == 35
        assert (meet(r, tmin, tmax), join(r, tmin, tmax)) == (tmin, tmax)
        assert len(height_function(r, tmin)) == 49
        assert len(cycle_collection(r, tmin, tmax)) == 3
        for mode in ("tiling", "cycles", "filling"):
            assert render(r, mode, tmin, tmax)
        assert "dominoes" not in r.__dict__


class TestJson:
    def test_round_trip(self):
        r = make_aztec(2)
        assert region_from_json(region_to_json(r)) == r

    def test_cells_sorted(self):
        data = region_to_json(make_rectangle(2, 3))
        assert data["cells"] == sorted(data["cells"])

    @pytest.mark.parametrize("data", [
        {}, {"cells": []}, {"cells": [[0]]}, {"cells": [[0, "a"]]}, [1, 2],
        {"cells": [[True, False], [False, False]]},
    ])
    def test_rejects_malformed(self, data):
        with pytest.raises(ValueError):
            region_from_json(data)

import re
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dominoflip.diameter
from dominoflip import (Region, ResourceLimitError, enumerate_tilings,
                        is_black, is_saturnian, is_simply_connected,
                        make_aztec, make_from_cells, make_holed_square,
                        make_rectangle, region_from_json, region_to_json,
                        ring_decomposition)
from dominoflip.surface import _connected, cell_corners

from conftest import (CORNER_PINCHES, punched_boxes, region_grid,
                      run_capped)

cells_strategy = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12)


def flood_is_simply_connected(region):
    """Oracle: edge-connected, and every cell of the bounding box padded
    by one that is not in the region is reachable from outside."""
    cells = region.cells
    if len(_connected(cells, [min(cells)])) != len(cells):
        return False
    x0, y0, x1, y1 = region.bounds
    box = {(x, y) for x in range(x0 - 1, x1 + 2) for y in range(y0 - 1, y1 + 2)}
    complement = box - cells
    return len(_connected(complement, [(x0 - 1, y0 - 1)])) == len(complement)


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
        assert len(r.vertex_set) == 9
        assert len(r.interior_vertices) == 1

    def test_rectangle_4x3(self):
        r = make_rectangle(4, 3)
        assert len(r.cells) == 12
        assert len(r.vertex_set) == 20
        assert len(r.interior_vertices) == 6

    def test_rectangle_1x1(self):
        r = make_rectangle(1, 1)
        assert len(r.cells) == 1
        assert len(r.interior_vertices) == 0

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
        assert len(r.interior_vertices) == interior

    def test_aztec_formulas_up_to_six(self):
        for n in range(1, 7):
            r = make_aztec(n)
            assert len(r.cells) == 2 * n * (n + 1)
            assert len(r.interior_vertices) == 2 * n * n - 2 * n + 1

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
        assert len(r.vertex_set) == (m + 1) * (n + 1)
        assert len(r.interior_vertices) == (m - 1) * (n - 1)

    @given(cells_strategy)
    def test_coloring_is_proper(self, cells):
        r = make_from_cells(cells)
        for c in r.cells:
            for nb in r.neighbors(c):
                assert is_black(c) != is_black(nb)


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
        assert len(_connected(r.cells, [min(r.cells)])) == len(r.cells)
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

    def test_long_thin_l_in_bounded_memory(self):
        code = ("from dominoflip import Region, is_simply_connected\n"
                "n = 5000\n"
                "cells = [(x, y) for x in range(n) for y in range(2)]\n"
                "cells += [(x, y) for x in range(2) for y in range(2, n)]\n"
                "print(is_simply_connected(Region(cells)))\n")
        done = run_capped("-c", code)
        assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


class TestEdgeSigns:
    @given(cells_strategy)
    def test_coordinate_rule_matches_membership_rule(self, cells):
        r = make_from_cells(cells)
        for u, edges in r.vertex_edges.items():
            for v, sign, _ in edges:
                assert sign == membership_edge_sign(r.cells, u, v), (u, v)


class TestRings:
    def test_square_6_rings(self):
        rd = ring_decomposition(make_rectangle(6, 6))
        assert [len(ring) for ring in rd.rings] == [20, 12, 4]

    def test_rings_partition_cells(self):
        for r in (make_rectangle(6, 6), make_aztec(3), make_holed_square(5)):
            rd = ring_decomposition(r)
            assert sum(len(ring) for ring in rd.rings) == len(r.cells)
            seen = set()
            for ring in rd.rings:
                assert not (ring & seen)
                seen |= ring

    def test_square_2_levels(self):
        rd = ring_decomposition(make_rectangle(2, 2))
        assert [len(ring) for ring in rd.rings] == [4]
        assert rd.level_classes[1] == frozenset({(1, 1)})

    def test_aztec_2_levels(self):
        r = make_aztec(2)
        rd = ring_decomposition(r)
        assert rd.rings[0] == r.cells
        assert rd.level_classes[1] == r.interior_vertices
        assert sum(i * len(vs) for i, vs in rd.level_classes.items()) == 5

    def test_boundary_vertices_are_level_zero(self):
        for r in (make_rectangle(5, 4), make_aztec(3)):
            rd = ring_decomposition(r)
            assert rd.level_classes[0] == r.boundary_vertices

    @given(punched_boxes(9))
    def test_levels_drop_by_one_after_peeling(self, cells):
        # the definition, one peel at a time: with holes, pinches and
        # several components
        r = Region(cells)
        rd = ring_decomposition(r)
        assert set(rd.levels) == r.vertex_set
        assert {v for v, lev in rd.levels.items() if lev == 0} == (
            r.boundary_vertices)
        assert rd.rings[0] == {c for c in r.cells
                               if set(cell_corners(c)) & r.boundary_vertices}
        left = r.cells - rd.rings[0]
        inner = ring_decomposition(Region(left)) if left else None
        assert rd.rings[1:] == (inner.rings if inner else ())
        deeper = inner.levels if inner else {}
        for v in r.interior_vertices:
            # one peel down, or 1 when its cells all leave with the ring
            assert rd.levels[v] == deeper.get(v, 0) + 1


class TestSaturnian:
    @pytest.mark.parametrize("region,expected", [
        (make_rectangle(4, 4), True),
        (make_rectangle(6, 2), True),
        (make_aztec(3), True),
        (make_rectangle(3, 1), False),
        (make_rectangle(4, 3), False),
    ])
    def test_cases(self, region, expected):
        assert is_saturnian(region) is expected

    def test_cycle_search_budget(self, monkeypatch):
        # touring the 28-cell outer ring of 8x8 takes more than 10 steps
        monkeypatch.setattr(dominoflip.diameter, "MAX_CYCLE_STEPS", 10)
        with pytest.raises(ResourceLimitError,
                           match="covering-cycle search") as info:
            is_saturnian(make_rectangle(8, 8))
        assert list(map(int, re.findall(r"\d+", str(info.value)))) == [10, 10]
        monkeypatch.undo()
        assert is_saturnian(make_rectangle(8, 8))


def cross(arm):
    """Two 2-cell-wide bars, 2 * arm cells long, crossing at the origin."""
    bar = [(x, y) for x in range(-arm, arm) for y in (0, 1)]
    return Region(bar + [(y, x) for x, y in bar])


class TestDominoMasks:
    @given(cells_strategy)
    def test_dominoes_are_the_dual_edges(self, cells):
        r = make_from_cells(cells)
        edges = {(c, nb) for c in r.cells for nb in r.neighbors(c) if c < nb}
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

import json
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominoflip import (apply_flip, available_flips, bfs_distances,
                        build_flip_graph, cycle_collection,
                        connected_components, distance_cycles,
                        enumerate_tilings, first_tiling, height_function,
                        is_black, make_aztec, make_from_cells,
                        make_holed_square, make_rectangle, value_map)
from dominoflip.cycles import cycles_to_json
from dominoflip.tiling import partner_map

from conftest import (TILEABLE_CORNER_PINCHES, load_tiling, region_grid,
                      run_capped, tileable_discs, vertex_set)

# the 6x6 board minus its central 2x2 block: a cycle round the hole
# winds round (3, 3), which is not a vertex of the region
HOLED_BOARD = make_from_cells(
    (x, y) for x in range(6) for y in range(6)
    if (x, y) not in {(2, 2), (3, 2), (2, 3), (3, 3)})


def alternation_ok(cycle, t1, t2):
    p1, p2 = partner_map(t1), partner_map(t2)
    edges = cycle.steps()
    from_t1 = [p1.get(a) == b for a, b in edges]
    from_t2 = [p2.get(a) == b for a, b in edges]
    for i, (e1, e2) in enumerate(zip(from_t1, from_t2)):
        if not (e1 ^ e2):
            return False
        if not (from_t1[i] ^ from_t1[(i + 1) % len(edges)]):
            return False
    return True


def ray_winding(cycle, vertex):
    """The cycle's winding number round the vertex: its crossings of the
    rightward ray from it, +1 up and -1 down, in doubled coordinates
    (cell centres odd, vertices even)."""
    x, y = vertex
    winding = 0
    for (x1, y1), (x2, y2) in cycle.steps():
        lo, hi = sorted((2 * y1 + 1, 2 * y2 + 1))
        if x1 == x2 and 2 * x1 + 1 > 2 * x and lo < 2 * y < hi:
            winding += 1 if y2 > y1 else -1
    return winding


def shoelace_sign(cells):
    """Oracle: the sign of the signed area of the polyline through the
    cell centres, in doubled coordinates so the sum is exact."""
    pts = [(2 * x + 1, 2 * y + 1) for x, y in cells]
    area = sum(x1 * y2 - x2 * y1
               for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))
    assert area  # a cycle of distinct cells bounds a polygon
    return 1 if area > 0 else -1


@cache
def holed_regions():
    """Small regions with holes, each with all of its tilings, so pairs
    from different flip components, with cycles round a hole, occur."""
    regions = [make_holed_square(3), make_holed_square(5), HOLED_BOARD,
               *(region_grid(6, 6, " ".join(rows))
                 for rows in TILEABLE_CORNER_PINCHES)]
    return [(r, enumerate_tilings(r)) for r in regions]


@st.composite
def tiling_pairs(draw):
    """A region and two of its tilings: any two tilings of a small holed
    region, or two random flip walks from the first tiling of the 7x7
    holed square or of a simply connected region."""
    if draw(st.booleans()):
        region, tilings = draw(st.sampled_from(holed_regions()))
        return (region, draw(st.sampled_from(tilings)),
                draw(st.sampled_from(tilings)))
    region = draw(st.one_of(st.just(make_holed_square(7)),
                            tileable_discs(7).map(make_from_cells)))
    pair = []
    for _ in range(2):
        t = first_tiling(region)
        for _ in range(draw(st.integers(0, 40))):
            flips = available_flips(region, t)
            if not flips:
                break
            t = apply_flip(region, t, draw(st.sampled_from(flips)))
        pair.append(t)
    return (region, *pair)


class TestOrientation:
    @settings(max_examples=150)
    @given(tiling_pairs())
    def test_first_step_gives_the_shoelace_sign(self, pair):
        region, t1, t2 = pair
        for cycle in cycle_collection(region, t1, t2):
            assert cycle.cells[0] == min(cycle.cells)
            assert cycle.orientation == shoelace_sign(cycle.cells)

    def test_cycles_round_a_hole_take_both_signs(self):
        # pairs across the flip components of the holed 5x5 square
        r = make_holed_square(5)
        g = build_flip_graph(r)
        small = [c[0] for c in connected_components(g) if len(c) == 1]
        signs = set()
        for i in small:
            for j in (0, *small):
                for cycle in cycle_collection(r, g.nodes[i], g.nodes[j]):
                    assert cycle.orientation == shoelace_sign(cycle.cells)
                    signs.add(cycle.orientation)
        assert signs == {-1, 1}


class TestCollection:
    def test_equal_tilings_empty(self):
        r = make_rectangle(4, 3)
        t = enumerate_tilings(r)[2]
        assert len(cycle_collection(r, t, t)) == 0

    def test_2x2_single_positive_cycle(self):
        r = make_rectangle(2, 2)
        horizontal, vertical = enumerate_tilings(r)
        cc = cycle_collection(r, horizontal, vertical)
        assert len(cc) == 1
        cycle = cc[0]
        assert len(cycle.cells) == 4
        assert cycle.orientation == 1

    def test_7x4_reference_pair(self):
        r = make_rectangle(7, 4)
        a = load_tiling("pair_7x4_a.json")
        b = load_tiling("pair_7x4_b.json")
        cc = cycle_collection(r, a, b)
        assert sorted(len(c.cells) for c in cc) == [4, 4, 18]
        assert sorted(c.orientation for c in cc) == [-1, 1, 1]

    def test_swapping_arguments_reverses_orientations(self):
        r = make_rectangle(7, 4)
        a = load_tiling("pair_7x4_a.json")
        b = load_tiling("pair_7x4_b.json")
        forward = cycle_collection(r, a, b)
        backward = cycle_collection(r, b, a)
        by_cells = {frozenset(c.cells): c.orientation for c in backward}
        for cycle in forward:
            assert by_cells[frozenset(cycle.cells)] == -cycle.orientation

    def test_structural_invariants(self):
        r = make_aztec(2)
        tilings = enumerate_tilings(r)
        for t1 in tilings:
            for t2 in tilings:
                cc = cycle_collection(r, t1, t2)
                used = set()
                for cycle in cc:
                    assert len(cycle.cells) >= 4
                    assert len(cycle.cells) % 2 == 0
                    assert len(set(cycle.cells)) == len(cycle.cells)
                    assert not (set(cycle.cells) & used)
                    used |= set(cycle.cells)
                    assert alternation_ok(cycle, t1, t2)

    def test_t1_edges_run_black_to_white(self):
        r = make_rectangle(4, 4)
        tilings = enumerate_tilings(r)
        p = partner_map(tilings[0])
        cc = cycle_collection(r, tilings[0], tilings[25])
        assert len(cc) > 0
        for cycle in cc:
            for a, b in cycle.steps():
                if p.get(a) == b:  # an edge of the first tiling
                    assert is_black(a) and not is_black(b)


class TestValueMap:
    def test_empty_collection_all_zero(self):
        r = make_rectangle(4, 3)
        t = enumerate_tilings(r)[0]
        vm = value_map(r, cycle_collection(r, t, t))
        assert vm.total == 0

    def test_2x2_center(self):
        r = make_rectangle(2, 2)
        a, b = enumerate_tilings(r)
        vm = value_map(r, cycle_collection(r, a, b))
        assert vm.signed((1, 1)) == 1
        assert all(vm.nu(v) == 0 for v in vertex_set(r.cells) if v != (1, 1))

    def test_7x4_total_sixteen(self):
        r = make_rectangle(7, 4)
        a = load_tiling("pair_7x4_a.json")
        b = load_tiling("pair_7x4_b.json")
        vm = value_map(r, cycle_collection(r, a, b))
        assert vm.total == 16

    def test_bridge_identity_on_4x3(self):
        r = make_rectangle(4, 3)
        tilings = enumerate_tilings(r)
        heights = [height_function(r, t) for t in tilings]
        for i, t1 in enumerate(tilings):
            for j, t2 in enumerate(tilings):
                vm = value_map(r, cycle_collection(r, t1, t2))
                for v in vertex_set(r.cells):
                    assert heights[i][v] - heights[j][v] == 4 * vm.signed(v)

    def test_matches_a_ray_count_on_holed_square_5(self):
        # heights cannot check a region with a hole, so sum the cycles'
        # ray windings instead.  On the holed board, tilings 647 and 1326
        # are alone in their flip components, so their pairs leave a
        # cycle round the hole
        for r, step1, step2 in ((make_holed_square(5), 13, 5),
                                (HOLED_BOARD, 647, 13)):
            tilings = enumerate_tilings(r)
            for t1 in tilings[::step1]:
                for t2 in tilings[::step2]:
                    cc = cycle_collection(r, t1, t2)
                    expected = {}
                    for v in vertex_set(r.cells):
                        windings = [ray_winding(c, v) for c in cc]
                        for winding, cycle in zip(windings, cc):
                            assert winding in (0, cycle.orientation)
                        if sum(windings):
                            expected[v] = sum(windings)
                    assert value_map(r, cc).values == expected

    def test_lone_tilings_of_the_holed_board(self):
        # a vertex in the hole has no value: counting (3, 3) would make
        # the totals 13 and 21
        g = build_flip_graph(HOLED_BOARD)
        components = connected_components(g)
        assert sorted(map(len, components)) == [1, 1, 1442]
        assert [647] in components and [1326] in components
        first = g.nodes[0]
        for lone, total in ((647, 12), (1326, 20)):
            for t1, t2 in ((first, g.nodes[lone]), (g.nodes[lone], first)):
                cc = cycle_collection(HOLED_BOARD, t1, t2)
                vm = value_map(HOLED_BOARD, cc)
                assert distance_cycles(HOLED_BOARD, t1, t2) is None
                assert vm.total == total
                assert (3, 3) not in vm.values

    @pytest.mark.parametrize("command,expected", [
        (["distance", "--method", "cycles"], "2\n"),
        (["export", "--what", "voxels"],
         '{"voxels": [[1, 1, 0], [1000000001, 1, 0]]}\n'),
    ], ids=["distance", "voxels"])
    def test_scanlines_skip_the_gap_between_cycles(self, tmp_path, command,
                                                   expected):
        # two 2x2 blocks 10^9 columns apart, each turned by one flip: a
        # scanline that stepped through every column would not finish
        files = {"region": {"cells": [[x + gap, y] for gap in (0, 10 ** 9)
                                      for x in (0, 1) for y in (0, 1)]},
                 "flat": {"dominoes": [[[gap, y], [gap + 1, y]]
                                       for gap in (0, 10 ** 9)
                                       for y in (0, 1)]},
                 "tall": {"dominoes": [[[gap + x, 0], [gap + x, 1]]
                                       for gap in (0, 10 ** 9)
                                       for x in (0, 1)]}}
        for name, data in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        done = run_capped("-m", "dominoflip.cli", *command, "--shape",
                          f"file:{tmp_path / 'region.json'}",
                          "--t1", str(tmp_path / "flat.json"),
                          "--t2", str(tmp_path / "tall.json"), timeout=20)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")

    @pytest.mark.parametrize("command,code", [
        (["distance", "--method", "cycles"], 1),
        (["export", "--what", "voxels"], 0)], ids=["distance", "voxels"])
    def test_scanlines_skip_a_hole(self, tmp_path, command, code):
        # a ring of cells one wide round a 20,000 x 20,000 hole, and its
        # two tilings: their one cycle winds round the hole, so a scanline
        # that stepped through every column of a nonzero span would pay
        # for the hole's 4 * 10^8 vertices
        k = 20_000
        ring = ([(x, 0) for x in range(k + 1)]
                + [(k + 1, y) for y in range(k + 1)]
                + [(x, k + 1) for x in range(k + 1, 0, -1)]
                + [(0, y) for y in range(k + 1, 0, -1)])
        assert len(ring) == 80_004
        files = {"region": {"cells": ring}}
        for name, start in (("t1", 0), ("t2", 1)):
            pairs = zip(ring[start::2], (ring[1:] + ring[:1])[start::2])
            files[name] = {"dominoes": [sorted(p) for p in pairs]}
        for name, data in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        done = run_capped("-m", "dominoflip.cli", *command, "--shape",
                          f"file:{tmp_path / 'region.json'}",
                          "--t1", str(tmp_path / "t1.json"),
                          "--t2", str(tmp_path / "t2.json"), timeout=20)
        assert done.returncode == code, done.stderr
        if code:
            assert done.stdout == "unreachable\n"
        else:  # value 1 on each of the hole's 4k corner vertices
            voxels = json.loads(done.stdout)["voxels"]
            assert len(voxels) == 4 * k and voxels[-1] == [k + 1, k + 1, 0]


class TestDistance:
    def test_matches_bfs_on_4x3(self):
        r = make_rectangle(4, 3)
        g = build_flip_graph(r)
        for i, t1 in enumerate(g.nodes):
            dist = bfs_distances(g, i)
            for j, t2 in enumerate(g.nodes):
                assert distance_cycles(r, t1, t2) == dist[j]

    def test_matches_bfs_on_holed_square_5(self):
        # flip components of 194, 1 and 1 tilings: pairs across them are
        # None, pairs within the large one their flip distance
        r = make_holed_square(5)
        g = build_flip_graph(r)
        sizes = sorted(map(len, connected_components(g)))
        assert sizes == [1, 1, 194]
        for i in range(0, len(g), 13):
            dist = bfs_distances(g, i)
            for j in range(len(g)):
                assert distance_cycles(r, g.nodes[i], g.nodes[j]) == dist[j]

    @given(st.data())
    def test_symmetric(self, data):
        r = make_aztec(2)
        tilings = enumerate_tilings(r)
        a = tilings[data.draw(st.integers(0, len(tilings) - 1))]
        b = tilings[data.draw(st.integers(0, len(tilings) - 1))]
        assert distance_cycles(r, a, b) == distance_cycles(r, b, a)


class TestJson:
    def test_shape(self):
        r = make_rectangle(2, 2)
        a, b = enumerate_tilings(r)
        data = cycles_to_json(cycle_collection(r, a, b))
        assert data == {"cycles": [{"cells": [[0, 0], [1, 0], [1, 1], [0, 1]],
                                    "orientation": 1}]}

from hypothesis import given
from hypothesis import strategies as st

from dominoflip import (bfs_distances, build_flip_graph, cycle_collection,
                        connected_components, distance_cycles,
                        enumerate_tilings, height_function, is_black,
                        make_aztec, make_holed_square, make_rectangle,
                        value_map)
from dominoflip.cycles import cycles_to_json
from dominoflip.tiling import partner_map

from conftest import load_tiling


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
        cycle = cc.cycles[0]
        assert len(cycle.cells) == 4
        assert cycle.orientation == 1

    def test_7x4_reference_pair(self):
        r = make_rectangle(7, 4)
        a = load_tiling("pair_7x4_a.json")
        b = load_tiling("pair_7x4_b.json")
        cc = cycle_collection(r, a, b)
        assert sorted(len(c.cells) for c in cc.cycles) == [4, 4, 18]
        assert sorted(c.orientation for c in cc.cycles) == [-1, 1, 1]

    def test_swapping_arguments_reverses_orientations(self):
        r = make_rectangle(7, 4)
        a = load_tiling("pair_7x4_a.json")
        b = load_tiling("pair_7x4_b.json")
        forward = cycle_collection(r, a, b)
        backward = cycle_collection(r, b, a)
        by_cells = {frozenset(c.cells): c.orientation for c in backward.cycles}
        for cycle in forward.cycles:
            assert by_cells[frozenset(cycle.cells)] == -cycle.orientation

    def test_structural_invariants(self):
        r = make_aztec(2)
        tilings = enumerate_tilings(r)
        for t1 in tilings:
            for t2 in tilings:
                cc = cycle_collection(r, t1, t2)
                used = set()
                for cycle in cc.cycles:
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
        for cycle in cc.cycles:
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
        assert all(vm.nu(v) == 0 for v in r.vertex_set if v != (1, 1))

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
                for v in r.vertex_set:
                    assert heights[i][v] - heights[j][v] == 4 * vm.signed(v)

    def test_matches_a_ray_count_on_holed_square_5(self):
        # heights cannot check a region with a hole, so count each cycle's
        # crossings of a rightward ray from every vertex, in doubled
        # coordinates: cell centres odd, vertices even
        r = make_holed_square(5)
        tilings = enumerate_tilings(r)
        for t1 in tilings[::13]:
            for t2 in tilings[::5]:
                cc = cycle_collection(r, t1, t2)
                expected = {1: {}, -1: {}}
                for x, y in r.vertex_set:
                    for cycle in cc:
                        winding = 0
                        for (x1, y1), (x2, y2) in cycle.steps():
                            lo, hi = sorted((2 * y1 + 1, 2 * y2 + 1))
                            if x1 == x2 and 2 * x1 + 1 > 2 * x and lo < 2 * y < hi:
                                winding += 1 if y2 > y1 else -1
                        if winding:
                            assert winding == cycle.orientation
                            counts = expected[cycle.orientation]
                            counts[x, y] = counts.get((x, y), 0) + 1
                vm = value_map(r, cc)
                assert (vm.nu_plus, vm.nu_minus) == (expected[1], expected[-1])


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

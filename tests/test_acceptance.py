"""End-to-end checks of the package's headline guarantees.

Each test prints one PASS/FAIL line; run `pytest -s tests/test_acceptance.py`
to see them.  Everything asserted here is exact integer equality.
"""

import random
from contextlib import contextmanager

import pytest

from dominoflip import (apply_flip, available_flips, bfs_distances,
                        build_flip_graph, connected_components,
                        count_aztec_closed_form, count_rectangle_closed_form,
                        count_tilings, cycle_collection, diameter_aztec_closed,
                        diameter_bfs, diameter_levels,
                        diameter_rectangle_closed, diameter_square_closed,
                        distance_cycles, distance_height, enumerate_tilings,
                        extremal_tilings, filling_shape, geodesic,
                        height_function, join, make_aztec, make_holed_square,
                        make_rectangle, value_map, volumes)

from conftest import load_tiling, vertex_set

PAIR_REGIONS = {
    "rect4x3": make_rectangle(4, 3),
    "rect4x4": make_rectangle(4, 4),
    "aztec2": make_aztec(2),
    "aztec3": make_aztec(3),
}


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


@pytest.fixture(scope="module")
def graphs():
    return {name: build_flip_graph(r) for name, r in PAIR_REGIONS.items()}


@pytest.fixture(scope="module")
def distances(graphs):
    return {name: [bfs_distances(g, i) for i in range(len(g))]
            for name, g in graphs.items()}


@pytest.fixture(scope="module")
def heights(graphs):
    return {name: [height_function(PAIR_REGIONS[name], t) for t in g.nodes]
            for name, g in graphs.items()}


def test_criterion_1_cross_method_distances(graphs, distances):
    expected_counts = {"rect4x3": 11, "rect4x4": 36, "aztec2": 8, "aztec3": 64}
    with criterion(1, "BFS, height, cycle, and volume distances agree on "
                      "every ordered pair of rect 4x3, rect 4x4, aztec 2, aztec 3"):
        for name, region in PAIR_REGIONS.items():
            nodes = graphs[name].nodes
            assert len(nodes) == expected_counts[name], name
            dist = distances[name]
            for i, t1 in enumerate(nodes):
                for j, t2 in enumerate(nodes):
                    d = dist[i][j]
                    assert distance_height(region, t1, t2) == d, (name, i, j)
                    assert distance_cycles(region, t1, t2) == d, (name, i, j)
                    above, below = volumes(filling_shape(region, t1, t2))
                    assert above - below == d, (name, i, j)


def test_criterion_2_per_vertex_bridge(graphs, heights):
    with criterion(2, "label difference equals 4 times the signed cycle "
                      "count at every vertex of every pair"):
        for name, region in PAIR_REGIONS.items():
            nodes = graphs[name].nodes
            hs = heights[name]
            for i, t1 in enumerate(nodes):
                for j, t2 in enumerate(nodes):
                    vm = value_map(region, cycle_collection(region, t1, t2))
                    for v in vertex_set(region.cells):
                        assert hs[i][v] - hs[j][v] == 4 * vm.signed(v), (name, i, j, v)


def test_criterion_3_diameter_closed_forms_vs_bfs():
    with criterion(3, "BFS diameter = level sum = closed form on small "
                      "rectangles and aztec diamonds"):
        rect_cases = [(2, 2, 1), (3, 2, 2), (4, 2, 3), (5, 2, 4), (6, 2, 5),
                      (4, 3, 6), (4, 4, 10)]
        for m, n, expected in rect_cases:
            region = make_rectangle(m, n)
            assert diameter_bfs(region).value == expected, (m, n)
            assert diameter_levels(region) == expected, (m, n)
            assert diameter_rectangle_closed(m, n) == expected, (m, n)
        for n, expected in [(1, 1), (2, 5), (3, 14)]:
            region = make_aztec(n)
            assert diameter_bfs(region).value == expected, n
            assert diameter_levels(region) == expected, n
            assert diameter_aztec_closed(n) == expected, n
        assert diameter_square_closed(4) == 10


def test_criterion_4_level_sum_anchors():
    with criterion(4, "level sums: square 6 -> 35 and aztec 4 -> 30, with "
                      "the square-6 value certified by search"):
        assert diameter_levels(make_rectangle(6, 6)) == 35
        assert diameter_levels(make_aztec(4)) == 30
        assert diameter_square_closed(6) == 35
        assert diameter_aztec_closed(4) == 30
        # certify 35 exactly: the level sum bounds every distance from
        # above, and the eccentricity of the minimal tiling reaches it
        region = make_rectangle(6, 6)
        graph = build_flip_graph(region)
        assert len(graph) == 6728
        tmin, _ = extremal_tilings(region)
        ecc = max(bfs_distances(graph, graph.node_index(tmin)))
        assert ecc == 35


def test_criterion_5_counting():
    with criterion(5, "n x 2 counts follow the Fibonacci recurrence, the "
                      "trigonometric product matches exact counts up to 8x8, "
                      "and aztec counts are 2^(n(n+1)/2) by enumeration"):
        fib = {1: 1, 2: 2}
        for n in range(3, 13):
            fib[n] = fib[n - 1] + fib[n - 2]
        for n in range(1, 13):
            assert count_tilings(make_rectangle(n, 2)) == fib[n], n
        for n in range(1, 9):
            for m in range(n, 9):
                exact = count_tilings(make_rectangle(m, n))
                assert count_rectangle_closed_form(m, n) == exact, (m, n)
        for n in range(1, 5):
            expected = count_aztec_closed_form(n)
            assert expected == 2 ** (n * (n + 1) // 2)
            assert len(enumerate_tilings(make_aztec(n))) == expected, n


def test_criterion_6_connectivity_and_components(graphs):
    with criterion(6, "simply connected regions give connected flip graphs; "
                      "holed squares split into n+1 components"):
        for name, g in graphs.items():
            assert len(connected_components(g)) == 1, name
        for extra in (make_rectangle(6, 2), make_rectangle(7, 4), make_aztec(1)):
            assert len(connected_components(build_flip_graph(extra))) == 1
        holed3 = connected_components(build_flip_graph(make_holed_square(3)))
        assert len(holed3) == 2
        assert [len(c) for c in holed3] == [1, 1]
        holed5 = connected_components(build_flip_graph(make_holed_square(5)))
        assert len(holed5) == 3


def test_criterion_7_unique_extremal_realizers(graphs, distances):
    with criterion(7, "exactly one unordered pair attains the diameter and "
                      "it is the pair of lattice extremes"):
        for name in ("rect4x3", "rect4x4", "aztec2"):
            region = PAIR_REGIONS[name]
            nodes = graphs[name].nodes
            dist = distances[name]
            diameter = max(max(row) for row in dist)
            attaining = {frozenset((i, j))
                         for i in range(len(nodes))
                         for j in range(len(nodes))
                         if i != j and dist[i][j] == diameter}
            assert len(attaining) == 1, name
            i, j = sorted(next(iter(attaining)))
            tmin, tmax = extremal_tilings(region)
            assert {nodes[i], nodes[j]} == {tmin, tmax}, name


def test_criterion_8_flip_locality(graphs):
    with criterion(8, "1000 random flips each move exactly the anchor label, "
                      "by exactly 4"):
        rng = random.Random(20240809)
        names = list(PAIR_REGIONS)
        checked = 0
        while checked < 1000:
            name = rng.choice(names)
            region = PAIR_REGIONS[name]
            tiling = rng.choice(graphs[name].nodes)
            flips = available_flips(region, tiling)
            if not flips:
                continue
            anchor = rng.choice(flips)
            before = height_function(region, tiling)
            after = height_function(region, apply_flip(region, tiling, anchor))
            assert abs(after[anchor] - before[anchor]) == 4
            assert all(after[v] == before[v] for v in before if v != anchor)
            checked += 1


def test_criterion_9_geodesic_replay(graphs, distances, heights):
    with criterion(9, "every emitted flip sequence has geodesic length, "
                      "replays one tiling into the other, and passes through "
                      "the pointwise-max tiling monotonically"):
        for name, region in PAIR_REGIONS.items():
            nodes = graphs[name].nodes
            dist = distances[name]
            hs = heights[name]
            for i, t1 in enumerate(nodes):
                for j, t2 in enumerate(nodes):
                    path = geodesic(region, t1, t2)
                    assert len(path) == dist[i][j], (name, i, j)
                    mid = {v: max(hs[i][v], hs[j][v]) for v in hs[i]}
                    up_leg = sum(mid[v] - hs[i][v] for v in mid) // 4
                    current = t1
                    values = dict(hs[i])
                    seen_mid = up_leg == 0
                    for step, anchor in enumerate(path):
                        current = apply_flip(region, current, anchor)
                        delta = 4 if step < up_leg else -4
                        moved = height_function(region, current)[anchor]
                        assert moved == values[anchor] + delta, (name, i, j, step)
                        values[anchor] = moved
                        if step + 1 == up_leg:
                            assert current == join(region, t1, t2), (name, i, j)
                            assert values == mid, (name, i, j)
                            seen_mid = True
                    assert current == t2, (name, i, j)
                    assert seen_mid and values == hs[j], (name, i, j)


def test_criterion_10_reference_pair_distance_16():
    with criterion(10, "the stored 7x4 pair is at distance 16 by every method"):
        region = make_rectangle(7, 4)
        a = load_tiling("pair_7x4_a.json")
        b = load_tiling("pair_7x4_b.json")
        assert distance_height(region, a, b) == 16
        assert distance_cycles(region, a, b) == 16
        above, below = volumes(filling_shape(region, a, b))
        assert above - below == 16
        graph = build_flip_graph(region)
        d = bfs_distances(graph, graph.node_index(a))[graph.node_index(b)]
        assert d == 16
        assert len(geodesic(region, a, b)) == 16

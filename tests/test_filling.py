from dominoflip import (bfs_distances, build_flip_graph, enumerate_tilings,
                        export_voxels, filling_shape, make_aztec,
                        make_rectangle, volumes)
from dominoflip.diameter import _vertex_levels
from dominoflip.filling import voxels_to_json

from conftest import load_tiling


class TestColumns:
    def test_equal_tilings_flat(self):
        r = make_rectangle(4, 3)
        t = enumerate_tilings(r)[0]
        shape = filling_shape(r, t, t)
        assert shape.values == {}  # columns of height 0 are not stored
        assert volumes(shape) == (0, 0)

    def test_2x2_single_block(self):
        r = make_rectangle(2, 2)
        a, b = enumerate_tilings(r)
        assert volumes(filling_shape(r, a, b)) == (1, 0)
        assert volumes(filling_shape(r, b, a)) == (0, -1)

    def test_reflection_on_swap(self):
        r = make_aztec(2)
        tilings = enumerate_tilings(r)
        a, b = tilings[1], tilings[6]
        forward = filling_shape(r, a, b)
        backward = filling_shape(r, b, a)
        assert backward.values == {v: -c for v, c in forward.values.items()}

    def test_7x4_reference_pair(self):
        r = make_rectangle(7, 4)
        a = load_tiling("pair_7x4_a.json")
        b = load_tiling("pair_7x4_b.json")
        shape = filling_shape(r, a, b)
        assert volumes(shape) == (16, 0)
        assert len(export_voxels(shape)) == 16

    def test_columns_bounded_by_level(self):
        for r in (make_rectangle(4, 4), make_aztec(2)):
            levels = _vertex_levels(r)
            tilings = enumerate_tilings(r)
            for a in tilings[::5]:
                for b in tilings[::3]:
                    shape = filling_shape(r, a, b)
                    for v, c in shape.values.items():
                        assert abs(c) <= levels[v]


class TestVolumeDistance:
    def test_matches_bfs_on_4x4(self):
        r = make_rectangle(4, 4)
        g = build_flip_graph(r)
        for i, a in enumerate(g.nodes):
            dist = bfs_distances(g, i)
            for j, b in enumerate(g.nodes):
                above, below = volumes(filling_shape(r, a, b))
                assert above - below == dist[j]


class TestVoxels:
    def test_empty_for_flat_shape(self):
        r = make_rectangle(2, 2)
        t = enumerate_tilings(r)[0]
        assert export_voxels(filling_shape(r, t, t)) == []

    def test_stacked_column(self):
        from dominoflip.filling import FillingShape
        shape = FillingShape({(0, 0): 2, (1, 0): -1})
        assert export_voxels(shape) == [(0, 0, 0), (0, 0, 1), (1, 0, -1)]

    def test_count_matches_volumes(self):
        r = make_aztec(2)
        tilings = enumerate_tilings(r)
        for a in tilings:
            for b in tilings:
                shape = filling_shape(r, a, b)
                above, below = volumes(shape)
                assert len(export_voxels(shape)) == above - below

    def test_json_shape(self):
        from dominoflip.filling import FillingShape
        shape = FillingShape({(0, 0): 1})
        assert voxels_to_json(export_voxels(shape)) == {"voxels": [[0, 0, 0]]}

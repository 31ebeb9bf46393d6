"""Filling shapes: signed unit-cube columns over region vertices.

Stacking a 1-thick slab over each positive cycle of a tiling pair and
digging a 1-deep hole under each negative one leaves, over every
vertex, a column whose signed height is the number of positive minus
negative cycles surrounding it.  The order of stacking never matters,
so the shape is stored directly as that column map.  Total volume
(building volume minus hole volume) equals the flip distance.
"""

from __future__ import annotations

from .cycles import cycle_collection, value_map
from .surface import Region, Vertex
from .tiling import Tiling


class FillingShape:
    def __init__(self, columns: dict[Vertex, int]):
        self.columns = columns


def filling_shape(region: Region, t1: Tiling, t2: Tiling) -> FillingShape:
    """Column heights for the ordered pair (t1, t2); swapping the pair
    negates every column."""
    vm = value_map(region, cycle_collection(region, t1, t2))
    return FillingShape({v: vm.signed(v) for v in region.vertex_set})


def volumes(shape: FillingShape) -> tuple[int, int]:
    """(volume above, volume below); the below part is non-positive."""
    above = sum(c for c in shape.columns.values() if c > 0)
    below = sum(c for c in shape.columns.values() if c < 0)
    return above, below


def export_voxels(shape: FillingShape) -> list[tuple[int, int, int]]:
    """Unit cube positions: z = 0..k-1 over a +k column, z = k..-1 under
    a -|k| one.  Sorted by vertex, then by z."""
    cubes: list[tuple[int, int, int]] = []
    for (x, y) in sorted(shape.columns):
        k = shape.columns[(x, y)]
        zs = range(0, k) if k > 0 else range(k, 0)
        cubes.extend((x, y, z) for z in zs)
    return cubes


def voxels_to_json(voxels: list[tuple[int, int, int]]) -> dict:
    return {"voxels": [[x, y, z] for x, y, z in voxels]}

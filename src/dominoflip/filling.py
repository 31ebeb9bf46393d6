"""Filling shapes: signed unit-cube stacks over region vertices.

Stacking a 1-thick slab over each positive cycle of a tiling pair and
digging a 1-deep hole under each negative one leaves, over every
vertex, a stack whose signed height is the number of positive minus
negative cycles surrounding it.  The order of stacking never matters,
so the shape is the pair's value map itself: its values are the stack
heights, and a stack of height 0 is not stored.  Total volume
(building volume minus hole volume) equals the flip distance.
"""

from __future__ import annotations

from .cycles import ValueMap, cycle_collection, value_map
from .surface import Region
from .tiling import Tiling

FillingShape = ValueMap  # its values are the nonzero stack heights


def filling_shape(region: Region, t1: Tiling, t2: Tiling) -> FillingShape:
    """Stack heights for the ordered pair (t1, t2); swapping the pair
    negates every stack."""
    return value_map(region, cycle_collection(region, t1, t2))


def volumes(shape: FillingShape) -> tuple[int, int]:
    """(volume above, volume below); the below part is non-positive."""
    stacks = shape.values.values()
    return sum(c for c in stacks if c > 0), sum(c for c in stacks if c < 0)


def export_voxels(shape: FillingShape) -> list[tuple[int, int, int]]:
    """Unit cube positions: z = 0..k-1 over a +k stack, z = k..-1 under
    a -|k| one.  Sorted by vertex, then by z."""
    cubes: list[tuple[int, int, int]] = []
    for (x, y), k in sorted(shape.values.items()):
        zs = range(0, k) if k > 0 else range(k, 0)
        cubes.extend((x, y, z) for z in zs)
    return cubes


def voxels_to_json(voxels: list[tuple[int, int, int]]) -> dict:
    return {"voxels": [[x, y, z] for x, y, z in voxels]}

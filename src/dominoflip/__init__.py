"""Flip distances and flip-graph diameters for domino tilings of grid regions.

Importing the package loads none of its modules: each public name below
is imported from the module that owns it on first use (PEP 562), so a
caller pays only for the modules it touches.
"""

_PUBLIC = {
    "counting": ("count_aztec_closed_form", "count_rectangle_closed_form",
                 "count_tilings"),
    "cycles": ("CycleCollection", "OrientedCycle", "ValueMap",
               "cycle_collection", "distance_cycles", "value_map"),
    "diameter": ("DiameterReport", "diameter_aztec_closed", "diameter_bfs",
                 "diameter_lattice", "diameter_levels", "diameter_of_graph",
                 "diameter_rectangle_closed", "diameter_square_closed"),
    "errors": ("DEFAULT_NODE_BUDGET", "DominoError", "InvalidHeightError",
               "InvalidMoveError", "ResourceLimitError",
               "UnsupportedRegionError", "UntileableError"),
    "filling": ("FillingShape", "export_voxels", "filling_shape", "volumes"),
    "flipgraph": ("FlipGraph", "bfs_distance", "bfs_distances",
                  "build_flip_graph", "connected_components", "distance_bfs",
                  "export_graph"),
    "height": ("base_vertex", "distance_height", "extremal_tilings",
               "geodesic", "height_function", "join", "meet",
               "tiling_from_height"),
    "surface": ("Cell", "Region", "Vertex", "is_black", "is_simply_connected",
                "make_aztec", "make_from_cells", "make_holed_square",
                "make_rectangle", "region_from_json", "region_to_json"),
    "tiling": ("Domino", "Tiling", "apply_flip", "available_flips", "domino",
               "enumerate_tilings", "first_tiling", "is_valid_tiling",
               "iter_tilings", "tiling_from_json", "tiling_to_json"),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

# the module names are public too: `dominoflip.tiling` is the module
__all__ = sorted([*_PUBLIC, *_OWNER])


def __getattr__(name: str):
    owner = name if name in _PUBLIC else _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from .owner import name` spelled out, so -X importtime lists it
    module = __import__(owner, globals(), None, (name,), 1)
    if name == owner:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Deterministic SVG pictures of tilings, cycle collections, and
filling shapes (the latter as isometric cube stacks)."""

from __future__ import annotations

from math import isfinite

from .surface import Region, is_black
from .tiling import Tiling

GRID = "#bbbbbb"
SHADE = "#d8d8d8"
INK = "#222222"
POSITIVE = "#1f6feb"
NEGATIVE = "#d73a49"


def _scale(cell_size: int) -> float:
    """The cell size as a float, refused unless it is positive."""
    if not cell_size > 0:
        raise ValueError("cell size must be positive")
    try:
        return float(cell_size)
    except OverflowError:
        raise ValueError("cell size too large to draw") from None


def _fmt(value: float) -> str:
    if not isfinite(value):  # every coordinate passes here
        raise ValueError("cell size too large to draw")
    return f"{value:.1f}"


def _document(width: float, height: float, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


class _Board:
    """Shared planar mapping: lattice (x, y) to screen, y axis flipped."""

    def __init__(self, region: Region, cell_size: int):
        self.s = _scale(cell_size)
        x0, y0, x1, y1 = region.bounds
        self.x0 = x0
        self.y1 = y1
        self.margin = self.s
        try:  # points take the corner off first, so none exceeds the span
            self.width = (x1 - x0 + 1) * self.s + 2 * self.margin
            self.height = (y1 - y0 + 1) * self.s + 2 * self.margin
        except OverflowError:
            raise ValueError("region too wide to draw") from None

    def point(self, x: int, y: int, shift: float = 0.0) -> tuple[float, float]:
        return (self.margin + (x - self.x0 + shift) * self.s,
                self.margin + (self.y1 + 1 - y - shift) * self.s)

    def rect(self, x: int, y: int, w: int, h: int, fill: str, stroke: str,
             width: str) -> str:
        """The w-by-h block of cells whose lower-left cell is (x, y)."""
        px, py = self.point(x, y + h)
        return (f'<rect x="{_fmt(px)}" y="{_fmt(py)}" '
                f'width="{_fmt(w * self.s)}" height="{_fmt(h * self.s)}" '
                f'fill="{fill}" stroke="{stroke}" stroke-width="{width}"/>')


def _pair(px: float, py: float) -> str:
    return f"{_fmt(px)},{_fmt(py)}"


def _polygon(points: list[str], fill: str, stroke: str | None = None,
             width: str = "") -> str:
    """A polygon through points written "x,y"; outlined if stroked."""
    edge = f' stroke="{stroke}" stroke-width="{width}"' if stroke else ""
    return f'<polygon points="{" ".join(points)}" fill="{fill}"{edge}/>'


def _grid_body(board: _Board, region: Region) -> list[str]:
    return [board.rect(x, y, 1, 1, SHADE if is_black((x, y)) else "#ffffff",
                       GRID, "1.0") for x, y in sorted(region.cells)]


def render_tiling(region: Region, tiling: Tiling, cell_size: int = 24) -> str:
    """Shaded chessboard cells with one outlined rectangle per domino."""
    board = _Board(region, cell_size)
    body = _grid_body(board, region) + [
        board.rect(min(a[0], b[0]), min(a[1], b[1]), 1 + (a[1] == b[1]),
                   1 + (a[0] == b[0]), "none", INK, "2.5")
        for a, b in sorted(tiling)]
    return _document(board.width, board.height, body)


def _arrowhead(board: _Board, a, b, color: str) -> str:
    """Small triangle at the midpoint of the step a -> b."""
    ax, ay = board.point(*a, 0.5)
    bx, by = board.point(*b, 0.5)
    mx, my = (ax + bx) / 2, (ay + by) / 2
    ux, uy = b[0] - a[0], a[1] - b[1]  # a unit step, y flipped on screen
    size = board.s * 0.22
    tip = (mx + ux * size, my + uy * size)
    left = (mx - ux * size - uy * size * 0.7, my - uy * size + ux * size * 0.7)
    right = (mx - ux * size + uy * size * 0.7, my - uy * size - ux * size * 0.7)
    return _polygon([_pair(*p) for p in (tip, left, right)], color)


def render_cycles(region: Region, t1: Tiling, t2: Tiling,
                  cell_size: int = 24) -> str:
    """Closed polylines through cell centers, one per cycle, with an
    arrowhead showing the traversal direction."""
    from .cycles import cycle_collection  # only this mode loads cycles

    board = _Board(region, cell_size)
    body = _grid_body(board, region)
    for cycle in cycle_collection(region, t1, t2):
        color = POSITIVE if cycle.orientation > 0 else NEGATIVE
        pts = [_pair(*board.point(*cell, 0.5)) for cell in cycle.cells]
        body.append(_polygon(pts, "none", color, "2.5"))
        body.append(_arrowhead(board, cycle.cells[0], cycle.cells[1], color))
    return _document(board.width, board.height, body)


# isometric projection: +x runs right-down, +y left-down, +z straight up
def _iso(u: float, x: int, y: int, z: int) -> tuple[float, float]:
    try:
        return ((x - y) * u, (x + y) * u * 0.5 - z * u * 0.9)
    except OverflowError:  # coordinates past the float range
        raise ValueError("region too far out to draw") from None


# the faces drawn, as corner offsets from a cube's lower corner and a
# fill; a plate cell is the top face of a cube whose top lies at zero
_TOP = ((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))
_LEFT = ((0, 1, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1))
_RIGHT = ((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1))
_PLATE = ((_TOP, "#eeeeee"),)
_ABOVE = ((_TOP, "#f5f5f5"), (_LEFT, "#c8c8c8"), (_RIGHT, "#9a9a9a"))
_BELOW = ((_TOP, "#dbe9f7"), (_LEFT, "#b3cde8"), (_RIGHT, "#8aa8c8"))


def render_filling(region: Region, t1: Tiling, t2: Tiling,
                   cell_size: int = 24) -> str:
    """Cube stacks of the filling shape over a flat plate of the region."""
    from .filling import export_voxels, filling_shape  # only this mode

    u = _scale(cell_size) * 0.5
    voxels = export_voxels(filling_shape(region, t1, t2))
    x0, y0, x1, y1 = region.bounds
    zs = [v[2] for v in voxels] or [0]
    xs, ys = zip(*(_iso(u, x, y, z)
                   for x in (x0 - 1, x1 + 2) for y in (y0 - 1, y1 + 2)
                   for z in (min(zs), max(zs) + 2)))
    min_px, min_py = min(xs), min(ys)
    width, height = max(xs) - min_px, max(ys) - min_py

    class Screen(dict):  # each lattice point projected and written once
        def __missing__(self, p: tuple[int, int, int]) -> str:
            px, py = _iso(u, *p)
            text = self[p] = _pair(px - min_px, py - min_py)
            return text

    cubes = [(x, y, -1, _PLATE)
             for x, y in sorted(region.cells, key=lambda c: (c[0] + c[1], c))]
    cubes += [(x, y, z, _BELOW if z < 0 else _ABOVE) for x, y, z in
              sorted(voxels, key=lambda v: (v[0] + v[1], v[2], v))]
    at = Screen()
    body = [_polygon([at[x + dx, y + dy, z + dz] for dx, dy, dz in corners],
                     fill, "#555555", "0.8")
            for x, y, z, faces in cubes for corners, fill in faces]
    return _document(width, height, body)


def render(region: Region, mode: str, t1: Tiling, t2: Tiling | None = None,
           cell_size: int = 24) -> str:
    """Dispatch on the render mode; cycles and filling need both tilings."""
    if mode == "tiling":
        return render_tiling(region, t1, cell_size)
    if mode not in ("cycles", "filling"):
        raise ValueError(f"unknown render mode {mode!r}")
    if t2 is None:
        raise ValueError(f"mode {mode!r} needs two tilings")
    draw = render_cycles if mode == "cycles" else render_filling
    return draw(region, t1, t2, cell_size)

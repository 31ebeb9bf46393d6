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

    def cell_rect(self, cell, fill: str, stroke: str, width: float) -> str:
        px, py = self.point(cell[0], cell[1] + 1)
        return (f'<rect x="{_fmt(px)}" y="{_fmt(py)}" '
                f'width="{_fmt(self.s)}" height="{_fmt(self.s)}" '
                f'fill="{fill}" stroke="{stroke}" stroke-width="{_fmt(width)}"/>')


def _grid_body(board: _Board, region: Region) -> list[str]:
    body = []
    for cell in sorted(region.cells):
        fill = SHADE if is_black(cell) else "#ffffff"
        body.append(board.cell_rect(cell, fill, GRID, 1.0))
    return body


def render_tiling(region: Region, tiling: Tiling, cell_size: int = 24) -> str:
    """Shaded chessboard cells with one outlined rectangle per domino."""
    board = _Board(region, cell_size)
    body = _grid_body(board, region)
    for a, b in sorted(tiling):
        px, py = board.point(min(a[0], b[0]), max(a[1], b[1]) + 1)
        w = board.s * (2 if a[1] == b[1] else 1)
        h = board.s * (2 if a[0] == b[0] else 1)
        body.append(f'<rect x="{_fmt(px)}" y="{_fmt(py)}" '
                    f'width="{_fmt(w)}" height="{_fmt(h)}" '
                    f'fill="none" stroke="{INK}" stroke-width="2.5"/>')
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
    pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (tip, left, right))
    return f'<polygon points="{pts}" fill="{color}"/>'


def render_cycles(region: Region, t1: Tiling, t2: Tiling,
                  cell_size: int = 24) -> str:
    """Closed polylines through cell centers, one per cycle, with an
    arrowhead showing the traversal direction."""
    from .cycles import cycle_collection  # only this mode loads cycles

    board = _Board(region, cell_size)
    body = _grid_body(board, region)
    for cycle in cycle_collection(region, t1, t2):
        color = POSITIVE if cycle.orientation > 0 else NEGATIVE
        pts = " ".join(
            "{},{}".format(*map(_fmt, board.point(*cell, 0.5)))
            for cell in cycle.cells)
        body.append(f'<polygon points="{pts}" fill="none" '
                    f'stroke="{color}" stroke-width="2.5"/>')
        body.append(_arrowhead(board, cycle.cells[0], cycle.cells[1], color))
    return _document(board.width, board.height, body)


# isometric projection: +x runs right-down, +y left-down, +z straight up
def _iso(u: float, x: int, y: int, z: int) -> tuple[float, float]:
    try:
        return ((x - y) * u, (x + y) * u * 0.5 - z * u * 0.9)
    except OverflowError:  # coordinates past the float range
        raise ValueError("region too far out to draw") from None


_TOP_ABOVE, _LEFT_ABOVE, _RIGHT_ABOVE = "#f5f5f5", "#c8c8c8", "#9a9a9a"
_TOP_BELOW, _LEFT_BELOW, _RIGHT_BELOW = "#dbe9f7", "#b3cde8", "#8aa8c8"


def render_filling(region: Region, t1: Tiling, t2: Tiling,
                   cell_size: int = 24) -> str:
    """Cube stacks of the filling shape over a flat plate of the region."""
    from .filling import export_voxels, filling_shape  # only this mode

    u = _scale(cell_size) * 0.5
    voxels = export_voxels(filling_shape(region, t1, t2))
    x0, y0, x1, y1 = region.bounds
    zs = [v[2] for v in voxels] or [0]
    corners = [_iso(u, x, y, z)
               for x in (x0 - 1, x1 + 2) for y in (y0 - 1, y1 + 2)
               for z in (min(zs), max(zs) + 2)]
    min_px = min(p[0] for p in corners)
    min_py = min(p[1] for p in corners)
    width = max(p[0] for p in corners) - min_px
    height = max(p[1] for p in corners) - min_py

    def poly(points, fill):
        pts = " ".join(
            f"{_fmt(px - min_px)},{_fmt(py - min_py)}" for px, py in points)
        return (f'<polygon points="{pts}" fill="{fill}" '
                f'stroke="#555555" stroke-width="0.8"/>')

    body = []
    for cx, cy in sorted(region.cells, key=lambda c: (c[0] + c[1], c)):
        quad = [_iso(u, cx, cy, 0), _iso(u, cx + 1, cy, 0),
                _iso(u, cx + 1, cy + 1, 0), _iso(u, cx, cy + 1, 0)]
        body.append(poly(quad, "#eeeeee"))
    for x, y, z in sorted(voxels, key=lambda v: (v[0] + v[1], v[2], v)):
        below = z < 0
        top = [_iso(u, x, y, z + 1), _iso(u, x + 1, y, z + 1),
               _iso(u, x + 1, y + 1, z + 1), _iso(u, x, y + 1, z + 1)]
        left = [_iso(u, x, y + 1, z), _iso(u, x + 1, y + 1, z),
                _iso(u, x + 1, y + 1, z + 1), _iso(u, x, y + 1, z + 1)]
        right = [_iso(u, x + 1, y, z), _iso(u, x + 1, y + 1, z),
                 _iso(u, x + 1, y + 1, z + 1), _iso(u, x + 1, y, z + 1)]
        body.append(poly(top, _TOP_BELOW if below else _TOP_ABOVE))
        body.append(poly(left, _LEFT_BELOW if below else _LEFT_ABOVE))
        body.append(poly(right, _RIGHT_BELOW if below else _RIGHT_ABOVE))
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

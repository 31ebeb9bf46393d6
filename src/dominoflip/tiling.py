"""Domino tilings as perfect matchings of a region's dual graph.

A domino is a dual edge, stored as its two cells in lexicographic
order, and a tiling is a frozenset of dominoes covering every cell of
the region exactly once.  A flip is then a set operation: when a 2x2
block holds one of its two parallel domino pairs, the flipped tiling is
the symmetric difference with all four of the block's dominoes
(``Region.flip_blocks`` lists those pairs per anchor).

Enumeration backtracks on the lexicographically smallest uncovered
cell, trying its right partner before its upper partner.  That fixes a
canonical order of tilings which everything downstream reuses (flip
graph node ids, serialized output), so runs are reproducible.

Counting never enumerates: it steps through the region's own cells in
sweep order with a broken-profile bitmask recording which of the next
cells are already covered, so boards far beyond enumeration range stay
exact (Python integers keep the counts arbitrary precision) and the
cost follows the cells, not the bounding box.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterator

from .errors import (InvalidMoveError, NumericInstabilityError,
                     ResourceLimitError)
from .surface import Cell, Region, Vertex, is_black

Domino = tuple[Cell, Cell]
Tiling = frozenset  # frozenset[Domino]

# live profiles count_tilings may hold; refusing square:40 at this cap
# peaks near 200 MB
MAX_PROFILE_STATES = 1 << 20


def domino(a: Cell, b: Cell) -> Domino:
    """Canonical form of a domino: lexicographically smaller cell first."""
    return (a, b) if a <= b else (b, a)


def partner_map(tiling: Tiling) -> dict[Cell, Cell]:
    """Map each covered cell to the other cell of its domino."""
    partner: dict[Cell, Cell] = {}
    for a, b in tiling:
        partner[a] = b
        partner[b] = a
    return partner


def is_valid_tiling(region: Region, tiling: Tiling) -> bool:
    """True when the dominoes form a perfect matching of the region."""
    covered: set[Cell] = set()
    for d in tiling:
        if not (isinstance(d, tuple) and len(d) == 2):
            return False
        a, b = d
        if a not in region.cells or b not in region.cells:
            return False
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            return False
        if a in covered or b in covered:
            return False
        covered.add(a)
        covered.add(b)
    return covered == set(region.cells)


def iter_tilings(region: Region) -> Iterator[Tiling]:
    """Yield every tiling once, in canonical backtracking order."""
    order = sorted(region.cells)
    if 2 * sum(map(is_black, order)) != len(order):
        return  # every domino covers one black and one white cell
    index = {cell: i for i, cell in enumerate(order)}
    # per cell: (partner index, domino), right partner before upper
    partners = [[(index[p], (cell, p))
                 for p in ((cell[0] + 1, cell[1]), (cell[0], cell[1] + 1))
                 if p in index] for cell in order]
    n = len(order)
    covered = [False] * n
    chosen: list[Domino] = []
    # one frame per chosen domino: [cell index, untried partners, partner]
    stack = [[0, iter(partners[0]), 0]]
    while stack:
        frame = stack[-1]
        i = frame[0]
        if len(chosen) == len(stack):  # undo this level's last choice
            chosen.pop()
            covered[i] = covered[frame[2]] = False
        for j, dom in frame[1]:
            if not covered[j]:
                break
        else:
            stack.pop()
            continue
        covered[i] = covered[j] = True
        chosen.append(dom)
        frame[2] = j
        k = i + 1
        while k < n and covered[k]:
            k += 1
        if k == n:
            yield frozenset(chosen)
        else:
            stack.append([k, iter(partners[k]), 0])


def enumerate_tilings(region: Region) -> list[Tiling]:
    """All tilings of the region in canonical order (empty if untileable)."""
    return list(iter_tilings(region))


def first_tiling(region: Region) -> Tiling | None:
    """The canonically first tiling, or None when the region is untileable."""
    return next(iter_tilings(region), None)


def count_tilings(region: Region) -> int:
    """Exact number of tilings via a broken-profile bitmask sweep.

    The sweep runs along the region's narrow axis and visits only its
    cells.  Bit k of a profile says that the k-th region cell after the
    current one in sweep order is already covered, so a profile spans
    at most one row's width of cells however sparse the region is.
    More than ``MAX_PROFILE_STATES`` live profiles raise
    ``ResourceLimitError``.
    """
    cells = region.cells
    if len(cells) % 2:
        return 0
    x0, y0, x1, y1 = region.bounds
    w, h = x1 - x0 + 1, y1 - y0 + 1
    if w <= h:
        order = sorted((y - y0) * w + x - x0 for x, y in cells)
    else:
        # sweep along the narrow axis so the profile stays small
        order = sorted((x - x0) * h + y - y0 for x, y in cells)
        w = h
    rank = {p: i for i, p in enumerate(order)}
    dp: dict[int, int] = {0: 1}
    for i, p in enumerate(order):
        right = (p + 1) % w != 0 and p + 1 in rank
        up = rank.get(p + w)
        up_bit = 0 if up is None else 1 << (up - i)
        ndp: dict[int, int] = defaultdict(int)
        for mask, ways in dp.items():
            if mask & 1:
                ndp[mask >> 1] += ways
            else:
                if right and not mask & 2:
                    ndp[(mask | 2) >> 1] += ways
                if up_bit:
                    ndp[(mask | up_bit) >> 1] += ways
        dp = ndp
        if len(dp) > MAX_PROFILE_STATES:
            raise ResourceLimitError(
                f"counting needs more than {MAX_PROFILE_STATES} profile states: "
                f"{len(dp)} after {i + 1} of {len(order)} cells")
    return dp.get(0, 0)


def count_rectangle_closed_form(m: int, n: int) -> int:
    """Tiling count of an m-by-n rectangle by the classic trigonometric
    product, rounded to the nearest integer.

    The product runs over j = 1..ceil(m/2) and k = 1..ceil(n/2) of
    4 (cos^2(pi j / (m+1)) + cos^2(pi k / (n+1))).
    """
    if m < 1 or n < 1:
        raise ValueError(f"rectangle dimensions must be positive, got {m}x{n}")
    product = 1.0
    for j in range(1, (m + 1) // 2 + 1):
        cj = math.cos(math.pi * j / (m + 1)) ** 2
        for k in range(1, (n + 1) // 2 + 1):
            ck = math.cos(math.pi * k / (n + 1)) ** 2
            product *= 4.0 * (cj + ck)
    # past 2**53 the float grid is coarser than 1, so a clean rounding
    # residue certifies nothing
    if not math.isfinite(product) or abs(product) >= 2.0 ** 53:
        raise NumericInstabilityError(
            f"product for {m}x{n} exceeds float integer precision")
    nearest = round(product)
    if abs(product - nearest) > 1e-6 * max(1.0, abs(product)):
        raise NumericInstabilityError(
            f"product {product!r} for {m}x{n} does not round cleanly")
    return int(nearest)


def count_aztec_closed_form(n: int) -> int:
    """Tiling count of the order-n Aztec diamond: 2^(n(n+1)/2)."""
    if n < 1:
        raise ValueError(f"aztec order must be positive, got {n}")
    return 2 ** (n * (n + 1) // 2)


def available_flips(region: Region, tiling: Tiling) -> list[Vertex]:
    """Anchors of all 2x2 blocks covered by two parallel dominoes, in
    lexicographic order."""
    return [anchor for anchor, (h, v) in region.flip_blocks.items()
            if h <= tiling or v <= tiling]


def apply_flip(region: Region, tiling: Tiling, anchor: Vertex) -> Tiling:
    """Rotate the 2x2 block at the anchor a quarter turn."""
    block = region.flip_blocks.get(anchor)
    if block is None or not (block[0] <= tiling or block[1] <= tiling):
        raise InvalidMoveError(f"vertex {anchor} is not a flippable anchor")
    return tiling ^ block[0] ^ block[1]


def tiling_to_json(tiling: Tiling) -> dict:
    """Canonical JSON form: dominoes sorted lexicographically."""
    return {"dominoes": [[[a[0], a[1]], [b[0], b[1]]] for a, b in sorted(tiling)]}


def tiling_from_json(data: object) -> Tiling:
    if not isinstance(data, dict) or "dominoes" not in data:
        raise ValueError("tiling JSON must be an object with a 'dominoes' list")
    raw = data["dominoes"]
    if not isinstance(raw, list):
        raise ValueError("'dominoes' must be a list")
    dominoes = []
    for item in raw:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not all(isinstance(cell, (list, tuple)) and len(cell) == 2
                           and all(type(c) is int for c in cell)
                           for cell in item)):
            raise ValueError(f"bad domino entry {item!r}")
        a, b = (tuple(item[0]), tuple(item[1]))
        dominoes.append(domino(a, b))
    return frozenset(dominoes)

"""Domino tilings as perfect matchings of a region's dual graph.

A domino is a dual edge, stored as its two cells in lexicographic
order, and a tiling is a frozenset of dominoes covering every cell of
the region exactly once.  Inside the flip graph and the height walk a
tiling is an int instead, its mask, with bit i set when it holds the
i-th of ``Region.dominoes``.  A flip is then one xor: when a 2x2 block
holds one of its two parallel domino pairs, the flipped tiling toggles
all four of the block's dominoes (``Region.flip_blocks``).

Enumeration backtracks on the lexicographically smallest uncovered
cell, trying its right partner before its upper partner, and yields
masks (``iter_tiling_masks``).  That fixes a canonical order of tilings
which everything downstream reuses (flip graph node ids, serialized
output), so runs are reproducible.  Counting lives in ``counting``.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import InvalidMoveError
from .surface import Cell, Region, Vertex

Domino = tuple[Cell, Cell]
Tiling = frozenset  # frozenset[Domino]


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
    """True when the dominoes, each one of the region's, cover every
    cell of the region once."""
    covered = {c for d in tiling if d in region.dominoes for c in d}
    return len(covered) == 2 * len(tiling) == len(region.cells)


def iter_tilings(region: Region) -> Iterator[Tiling]:
    """Yield every tiling once, in canonical backtracking order."""
    return map(region.decode, iter_tiling_masks(region))


def iter_tiling_masks(region: Region) -> Iterator[int]:
    """The masks of ``iter_tilings``'s tilings, in the same order."""
    from .counting import is_tileable  # only enumeration pays for counting

    if is_tileable(region):
        yield from _backtrack_masks(region)


def _backtrack_masks(region: Region) -> Iterator[int]:
    """The backtracking behind ``iter_tiling_masks``, for a region known
    to tile: on one that does not, it yields nothing, but only after
    trying every partial tiling."""
    order = sorted(region.cells)
    index = {cell: i for i, cell in enumerate(order)}
    bit = region.dominoes
    # per cell: (partner index, digit of their domino), right partner
    # before upper
    partners = [[(index[p], ~bit[cell, p])
                 for p in ((cell[0] + 1, cell[1]), (cell[0], cell[1] + 1))
                 if p in index] for cell in order]
    n = len(order)
    covered = [False] * n
    digits = bytearray(b"0" * (len(region.dominoes) + 1))  # as in encode
    # one frame per chosen domino: [cell index, untried partners,
    # partner, digit]
    stack = [[0, iter(partners[0]), 0, 0]]
    chosen = 0
    while stack:
        frame = stack[-1]
        i = frame[0]
        if chosen == len(stack):  # undo this level's last choice
            chosen -= 1
            covered[i] = covered[frame[2]] = False
            digits[frame[3]] = 48  # "0"
        for j, digit in frame[1]:
            if not covered[j]:
                break
        else:
            stack.pop()
            continue
        covered[i] = covered[j] = True
        digits[digit] = 49  # "1"
        chosen += 1
        frame[2], frame[3] = j, digit
        k = i + 1
        while k < n and covered[k]:
            k += 1
        if k == n:
            yield int(digits, 2)
        else:
            stack.append([k, iter(partners[k]), 0, 0])


def enumerate_tilings(region: Region) -> list[Tiling]:
    """All tilings of the region in canonical order (empty if untileable)."""
    return list(iter_tilings(region))


def first_tiling(region: Region) -> Tiling | None:
    """The canonically first tiling, or None when the region is untileable."""
    return next(iter_tilings(region), None)



def available_flips(region: Region, tiling: Tiling) -> list[Vertex]:
    """Anchors of all 2x2 blocks covered by two parallel dominoes, in
    lexicographic order."""
    m = region.encode(tiling)
    return [anchor for anchor, (s, h, v) in region.flip_blocks.items()
            if (m >> s) & h == h or (m >> s) & v == v]


def apply_flip(region: Region, tiling: Tiling, anchor: Vertex) -> Tiling:
    """Rotate the 2x2 block at the anchor a quarter turn."""
    block = region.flip_blocks.get(anchor)
    if block is not None:
        s, h, v = block
        m = region.encode(tiling)
        if (m >> s) & h == h or (m >> s) & v == v:
            return region.decode(m ^ (h | v) << s)
    raise InvalidMoveError(f"vertex {anchor} is not a flippable anchor")


def tiling_to_json(tiling: Tiling) -> dict:
    """Canonical JSON form: dominoes sorted lexicographically."""
    return {"dominoes": [[[a[0], a[1]], [b[0], b[1]]] for a, b in sorted(tiling)]}


def tiling_from_json(data: object) -> Tiling:
    if not isinstance(data, dict) or "dominoes" not in data:
        raise ValueError("tiling JSON must be an object with a 'dominoes' list")
    raw = data["dominoes"]
    if not isinstance(raw, list):
        raise ValueError("'dominoes' must be a list")
    dominoes = set()
    for item in raw:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not all(isinstance(cell, (list, tuple)) and len(cell) == 2
                           and all(type(c) is int for c in cell)
                           for cell in item)):
            raise ValueError(f"bad domino entry {item!r}")
        d = domino(tuple(item[0]), tuple(item[1]))
        if d in dominoes:
            raise ValueError(f"domino entry {item!r} is listed twice")
        dominoes.add(d)
    return frozenset(dominoes)

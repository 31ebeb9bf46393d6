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
output), so runs are reproducible.  Whether a region tiles is one
maximum matching (``is_tileable``); counting lives in ``counting``.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator

from .errors import InvalidMoveError
from .surface import Cell, Region, Vertex, is_black

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
    if is_tileable(region):
        yield from _backtrack_masks(region)


def is_tileable(region: Region) -> bool:
    """True when the region has a tiling."""
    return _perfect_matching(region) is not None


def _perfect_matching(region: Region) -> Tiling | None:
    """A tiling of the region, as a maximum matching of its dual graph
    (Hopcroft and Karp 1973), or None when the region has none.

    A greedy pass, each cell in sorted order taking its first free later
    neighbour as the backtracker would, tiles a rectangle outright.  Each
    phase then layers the black cells breadth-first from the free ones,
    up to the first layer next to a free white cell, and a depth-first
    search along the layers flips vertex-disjoint shortest augmenting
    paths: O(sqrt V) phases of O(E).  Cells are their sorted indices.
    """
    cells = sorted(region.cells)
    blacks = [i for i, cell in enumerate(cells) if is_black(cell)]
    if 2 * len(blacks) != len(cells):
        return None  # every domino covers one black and one white cell
    index = {cell: i for i, cell in enumerate(cells)}.__getitem__
    # cell i's neighbours, right before up: targets[offsets[i]:offsets[i + 1]]
    offsets, targets = _pack(list(map(index, region.neighbors(cell)))
                             for cell in cells)
    del index
    n = len(cells)
    mate = array("i", [-1]) * n  # each cell's partner, -1 while free
    for i in range(n):
        if mate[i] < 0:
            for j in targets[offsets[i]:offsets[i + 1]]:
                if j > i and mate[j] < 0:
                    mate[i], mate[j] = j, i
                    break
    while free := [u for u in blacks if mate[u] < 0]:
        layer = array("i", [-1]) * n  # -1 off the layers, or dead
        for u in free:
            layer[u] = 0
        last, queue = n, array("i", free)  # last: the layer that ends paths
        for u in queue:  # the array grows behind the loop, as a FIFO queue
            if layer[u] > last:
                break
            for w in targets[offsets[u]:offsets[u + 1]]:
                v = mate[w]
                if v < 0:
                    last = layer[u]
                elif layer[v] < 0:
                    layer[v] = layer[u] + 1
                    queue.append(v)
        if last == n:
            return None  # no augmenting path: the matching is maximum
        ahead = offsets[:]  # per cell, the next edge to try
        for root in free:
            path = [root]
            while path:
                u = path[-1]
                if ahead[u] == offsets[u + 1]:  # a dead end in this phase
                    layer[u] = -1
                    path.pop()
                elif (v := mate[targets[ahead[u]]]) < 0:  # flip the path
                    for b in path:
                        w = targets[ahead[b]]
                        mate[b], mate[w], layer[b] = w, b, -1
                    break
                elif layer[v] == layer[u] + 1 <= last:
                    path.append(v)
                else:
                    ahead[u] += 1
    # the smaller index is the smaller cell, as in domino()
    return frozenset((cells[i], cells[j]) for i, j in enumerate(mate) if i < j)


def _pack(rows: Iterable[list[int]]) -> tuple[array, array]:
    """Rows of ids as (offsets, targets) in compressed sparse row form.
    Ids are C ints: 2^31 flip-graph nodes would need over 60 GB of masks."""
    offsets = array("q", [0])
    targets = array("i")
    add, end = targets.fromlist, offsets.append
    for row in rows:
        add(row)
        end(len(targets))
    return offsets, targets


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

"""Exact tiling counts.

Counting never enumerates, and Python integers keep counts exact at
any size.  Each edge-connected component is counted on its own by the
cheaper of two exact paths (``count_tilings``), and the counts
multiply: a Kasteleyn determinant, whose signs read off the cells'
coordinates alone, holes or not, or on thin strips a broken-profile DP.

The closed forms for rectangles and Aztec diamonds live here too, as
the cross-checks of the exact count.
"""

from __future__ import annotations

import math

from .errors import NumericInstabilityError, ResourceLimitError
from .surface import Region, _pieces, is_black

# live profiles the DP may hold; refusing 40x40 with a hole at this
# cap peaks near 200 MB
MAX_PROFILE_STATES = 1 << 20
# estimated work the determinant may take (_determinant_work): square:40
# is estimated at 1.8e7 and answers in about 1.5 s, square:200 at 2.7e11
MAX_DETERMINANT_WORK = 1 << 25
# time of one unit of the DP's estimate in units of the determinant's:
# timed on rectangles from 9x40 to 24x12, both paths take as long where
# the determinant's estimate is about three times the DP's
PROFILE_UNIT_COST = 3
# the determinant's prime moduli, ascending: the Mersenne primes 2^e - 1
# up to one that no count within MAX_DETERMINANT_WORK can outgrow, and
# the largest prime 2^k - c below each 2^k, k = 128, 160, ..., 1280, so
# that from 128 to 1280 bits no count takes a modulus more than 32 bits
# longer than it needs (found by Miller-Rabin; 2^256 - 189, 2^512 - 569
# and 2^1024 - 105 are the published values)
_MODULI = tuple(sorted(
    [(1 << e) - 1 for e in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
                            3217, 4253, 4423, 9689, 9941, 11213, 19937,
                            21701, 23209, 44497, 86243)]
    + [(1 << k) - c for k, c in zip(range(128, 1281, 32), (
        159, 47, 237, 63, 189, 167, 197, 657, 317, 435, 203, 47, 569, 759,
        789, 527, 305, 399, 245, 509, 825, 105, 143, 243, 213, 645, 167,
        1779, 105, 725, 89, 2555, 927, 107, 563, 635, 1175))]))


def count_tilings(region: Region) -> int:
    """Exact number of tilings: the product of the counts of the
    region's edge-connected components.

    Each component is swept along its own narrow side, and its band b
    is the largest gap in sweep order between a cell and its upper
    neighbour: that bounds both the DP's profiles and the determinant's
    fill.  With N black cells and e the bit length of the determinant's
    prime modulus, a component takes the cheaper of two exact paths by
    an up-front work estimate, a unit of the DP's weighing
    ``PROFILE_UNIT_COST`` of the determinant's:

    - the broken-profile DP (``_count_by_profile``), estimated at
      ``cells * C(b, b // 2)``, its worst count of live profiles times
      the cells it steps through;
    - the Kasteleyn determinant (``_count_by_determinant``), estimated
      at ``N * b**2 * (e // 64 + 1)``: N pivots, each updating about b
      rows of b entries of e bits.

    So thin strips stay on the DP, and wide boards, holes or not, take
    the determinant.  A determinant estimated above
    ``MAX_DETERMINANT_WORK`` raises ``ResourceLimitError`` before it
    starts, unless the DP's ``C(b, b // 2)`` fits ``MAX_PROFILE_STATES``:
    then the DP counts instead, and raises once it holds more than
    ``MAX_PROFILE_STATES`` live profiles.  A piece with no tiling
    answers 0 wherever it lies, so a refusal is raised only once every
    other piece has counted.
    """
    parts = list(_pieces(region.cells))
    if any(2 * sum(map(is_black, part)) != len(part) for part in parts):
        return 0  # every domino covers one black and one white cell
    total, refusal = 1, None
    for part in parts:
        try:
            total *= _count_piece(part)
        except ResourceLimitError as error:
            refusal = refusal or error
        if not total:
            return 0
    if refusal:
        raise refusal
    return total


def _count_piece(part: list) -> int:
    """One edge-connected piece's count, by the cheaper path."""
    w, order = _sweep(part)
    band = _band(w, order)
    n = len(order) // 2
    work = _determinant_work(n, band, _modulus(n).bit_length())
    profiles = math.comb(band, band // 2)
    if (work < PROFILE_UNIT_COST * len(order) * profiles
            and (work <= MAX_DETERMINANT_WORK
                 or profiles > MAX_PROFILE_STATES)):
        if work > MAX_DETERMINANT_WORK:
            raise ResourceLimitError(
                f"determinant elimination needs an estimated {work} "
                f"work units, cap is {MAX_DETERMINANT_WORK}")
        return _count_by_determinant(w, order)
    return _count_by_profile(w, order)


def _sweep(cells) -> tuple[int, list[int]]:
    """The narrow side w of the cells' bounding box, and the cells'
    positions ``row * w + col``, sorted, in rows running across it."""
    xs, ys = zip(*cells)
    x0, y0 = min(xs), min(ys)
    w, h = max(xs) - x0 + 1, max(ys) - y0 + 1
    if w <= h:
        return w, sorted((y - y0) * w + x - x0 for x, y in cells)
    return h, sorted((x - x0) * h + y - y0 for x, y in cells)


def _band(w: int, order: list[int]) -> int:
    """The largest gap in sweep order between a cell and its upper
    neighbour: at most w, and 1 on a staircase however wide its box."""
    rank = {p: i for i, p in enumerate(order)}
    return max((rank.get(p + w, i) - i for i, p in enumerate(order)),
               default=0)


def _count_by_profile(w: int, order: list[int]) -> int:
    """Tilings by a broken-profile bitmask sweep over a ``_sweep``.

    Bit k of a profile says that the k-th cell after the current one
    in sweep order is already covered, so a profile spans at most the
    ``_band``, which is at most one row's width however sparse the
    cells are.
    """
    n = len(order)
    rank = {p: i for i, p in enumerate(order)}
    dp = {0: 1}
    for i, p in enumerate(order):
        right = (p + 1) % w and i + 1 < n and order[i + 1] == p + 1
        up = rank.get(p + w)
        up_bit = 0 if up is None else 1 << (up - i)
        ndp: dict[int, int] = {}
        get = ndp.get
        for mask, ways in dp.items():
            if mask & 1:
                key = mask >> 1
                ndp[key] = get(key, 0) + ways
            else:
                if right and not mask & 2:
                    key = (mask >> 1) | 1
                    ndp[key] = get(key, 0) + ways
                if up_bit:
                    key = (mask | up_bit) >> 1
                    ndp[key] = get(key, 0) + ways
        dp = ndp
        if len(dp) > MAX_PROFILE_STATES:
            raise ResourceLimitError(
                f"counting needs more than {MAX_PROFILE_STATES} profile states: "
                f"{len(dp)} after {i + 1} of {n} cells")
    return dp.get(0, 0)


def _count_by_determinant(w: int, order: list[int]) -> int:
    """Tilings of a balanced ``_sweep`` as |det K| of its Kasteleyn
    matrix (Kasteleyn 1961, Temperley and Fisher 1961).

    A row of K has at most four unit entries, so |det K| <= 2^N by
    Hadamard's bound, N being the rows.  One residue r modulo a prime p
    above 2^(N+1) therefore fixes it: the count is r or p - r, whichever
    is smaller.
    """
    p = _modulus(len(order) // 2)
    r = _kasteleyn_residue(w, order, p)
    return min(r, p - r)


def _modulus(n: int) -> int:
    """The smallest listed prime of at least n + 2 bits, so more than
    twice any count of n black cells; the last one when none is, whose
    work estimate is over the cap for any n that needs it."""
    return next((p for p in _MODULI if p.bit_length() >= n + 2),
                _MODULI[-1])


def _determinant_work(n: int, band: int, bits: int) -> int:
    """Estimated work of eliminating n rows in a band that wide: n
    pivots, each updating about band rows of band entries of
    (bits // 64 + 1) words."""
    return n * band * band * (bits // 64 + 1)


def _kasteleyn_residue(w: int, order: list[int], p: int) -> int:
    """det K modulo p, up to sign, for a ``_sweep`` of a component with
    as many black cells as white ones.

    In the sweep frame, K has a row per cell of even ``row + col`` and a
    column per odd cell, both in sweep order, and one entry per dual
    edge: +1 on a horizontal edge, (-1)^r on a vertical edge whose upper
    cell is the r-th (from 0) of the component's cells in its row.  That
    is (-1)^x in column x times, per cell missing from the row, a seam
    running right along its lower edge, which crosses the face holding
    that cell an odd number of times and any other face an even number.
    So a 2x2 face carries -1 and a hole face holding m missing cells
    (-1)^m more, as Kasteleyn's theorem asks of a face that long.  Each
    column pivots, in sweep order, on the first row in sweep order that
    holds it, so fill stays within the ``_band``.
    """
    first: dict[int, int] = {}  # row -> index in order of its first cell
    sign = {q: p - 1 if (i - first.setdefault(q // w, i)) % 2 else 1
            for i, q in enumerate(order)}
    black = [q for q in order if (q // w + q % w) % 2 == 0]
    white = [q for q in order if (q // w + q % w) % 2]
    column = {q: j for j, q in enumerate(white)}
    rows: list[dict[int, int]] = []
    holders: list[set[int]] = [set() for _ in white]  # rows per column
    for i, q in enumerate(black):
        x = q % w
        edges = [(q - w, sign[q]), (q + w, sign.get(q + w))]
        if x:
            edges.append((q - 1, 1))
        if x + 1 < w:
            edges.append((q + 1, 1))
        row = {}
        for neighbour, entry in edges:
            j = column.get(neighbour)
            if j is not None:
                row[j] = entry
                holders[j].add(i)
        rows.append(row)
    det = 1
    for j in range(len(white)):
        if not holders[j]:
            return 0
        i = min(holders[j])
        pivot = rows[i]
        for k in pivot:
            holders[k].discard(i)
        lead = pivot.pop(j)
        det = det * lead % p
        inverse = pow(lead, -1, p)
        for r in holders[j]:
            row = rows[r]
            factor = row.pop(j) * inverse % p
            for k, entry in pivot.items():
                value = (row.get(k, 0) - factor * entry) % p
                if value:
                    row[k] = value
                    holders[k].add(r)
                elif k in row:
                    del row[k]
                    holders[k].discard(r)
    return det


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
        size = (f"about {product:.3g}" if math.isfinite(product)
                else "past the float range")
        raise NumericInstabilityError(
            f"closed-form product for {m}x{n} is {size}, cap is 2^53")
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

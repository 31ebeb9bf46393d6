import re
import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dominoflip.counting
from dominoflip import (InvalidMoveError, NumericInstabilityError, Region,
                        ResourceLimitError, apply_flip, available_flips,
                        count_aztec_closed_form, count_rectangle_closed_form,
                        count_tilings, domino, enumerate_tilings, first_tiling,
                        is_black, is_valid_tiling, iter_tilings, make_aztec,
                        make_from_cells, make_holed_square, make_rectangle,
                        tiling_from_json, tiling_to_json)
from dominoflip.counting import (MAX_DETERMINANT_WORK, _band,
                                 _count_by_determinant, _count_by_profile,
                                 _determinant_work, _modulus, _sweep)
from dominoflip.surface import _pieces
from dominoflip.tiling import _backtrack_masks, _perfect_matching, is_tileable

from conftest import (TILEABLE_CORNER_PINCHES, load_tiling, punched_boxes,
                      region_grid, tileable_discs, two_discs)

cells_strategy = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12)


def miller_rabin(n):
    """Whether n > 37 passes Miller-Rabin to the twelve prime bases up
    to 37, which no composite below 3.3e24 passes."""
    d, s = n - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def lucas_lehmer(e):
    """Whether the Mersenne number 2^e - 1, e an odd prime, is prime."""
    m, s = (1 << e) - 1, 4
    for _ in range(e - 2):
        s = s * s - 2
        s = (s & m) + (s >> e)  # below 2m, as 2^e = 1 mod m
        if s >= m:
            s -= m
    return s == 0


def box_count_tilings(region):
    """Oracle: the profile DP over the whole bounding box, absent cells
    pre-marked as covered."""
    cells = region.cells
    if len(cells) % 2:
        return 0
    x0, y0, x1, y1 = region.bounds
    w, h = x1 - x0 + 1, y1 - y0 + 1
    if w <= h:
        points = [(x - x0, y - y0) for x, y in cells]
    else:
        points = [(y - y0, x - x0) for x, y in cells]
        w, h = h, w
    n = w * h
    present = bytearray(n)
    for x, y in points:
        present[y * w + x] = 1
    top = 1 << (w - 1)
    full = (1 << w) - 1
    start = 0
    for j in range(w):
        if not present[j]:
            start |= 1 << j
    dp = {start: 1}
    for p in range(n):
        q = p + w
        enter = 0 if q < n and present[q] else top
        vertical_ok = q < n and present[q]
        last_in_row = (p + 1) % w == 0
        ndp = defaultdict(int)
        for mask, ways in dp.items():
            if mask & 1:
                ndp[(mask >> 1) | enter] += ways
            else:
                if not last_in_row and not (mask & 2):
                    ndp[((mask | 2) >> 1) | enter] += ways
                if vertical_ok:
                    ndp[(mask >> 1) | top] += ways
        dp = ndp
    return dp.get(full, 0)


def recursive_tilings(region):
    """Oracle for the canonical order: backtrack recursively on the
    smallest uncovered cell, right partner before upper partner."""
    order = sorted(region.cells)
    if 2 * sum(map(is_black, order)) != len(order):
        return
    covered = set()
    chosen = []

    def extend(start):
        idx = start
        while idx < len(order) and order[idx] in covered:
            idx += 1
        if idx == len(order):
            yield frozenset(chosen)
            return
        cell = order[idx]
        x, y = cell
        for partner in ((x + 1, y), (x, y + 1)):
            if partner in region.cells and partner not in covered:
                covered.update((cell, partner))
                chosen.append((cell, partner))
                yield from extend(idx + 1)
                chosen.pop()
                covered.difference_update((cell, partner))

    yield from extend(0)


def brick(n):
    """All-horizontal tiling of an n-by-2 board (n even)."""
    return frozenset(domino((x, y), (x + 1, y))
                     for x in range(0, n, 2) for y in range(2))


def upright(n):
    """All-vertical tiling of an n-by-2 board."""
    return frozenset(domino((x, 0), (x, 1)) for x in range(n))


def table_rule(region, tiling):
    """The validity rule the direct check replaced: every element one of
    the region's dominoes (keys of its mask table), covering every cell
    once."""
    covered = {c for d in tiling if d in region.dominoes for c in d}
    return len(covered) == 2 * len(tiling) == len(region.cells)


@st.composite
def domino_lists(draw):
    """A region and a list of elements: one of its tilings, maybe with
    one domino reversed, dropped, repeated or overlapped by another of
    the region's, and maybe more of its own dominoes, reversed,
    diagonal, out-of-region, repeated and non-pair elements."""
    region = make_from_cells(draw(st.one_of(cells_strategy,
                                            tileable_discs(4))))
    tilings = enumerate_tilings(region)
    own = sorted(region.dominoes)
    base = list(draw(st.sampled_from(tilings))) if tilings else []
    if base and draw(st.booleans()):
        i = draw(st.integers(0, len(base) - 1))
        d = base[i]
        base[i:i + 1] = draw(st.sampled_from(
            [[d[::-1]], [], [d, d], [d, draw(st.sampled_from(own))]]))
    cell = st.sampled_from(sorted(region.cells))
    x0, y0, x1, y1 = region.bounds
    anywhere = st.tuples(st.integers(x0 - 1, x1 + 1),
                         st.integers(y0 - 1, y1 + 1))
    junk = [
        cell.map(lambda c: (c, (c[0] + 1, c[1] + 1))),  # diagonal
        cell.map(lambda c: (c, c)),
        anywhere.map(lambda c: (c, (c[0] + 1, c[1]))),
        anywhere.map(lambda c: (c, (c[0], c[1] + 1))),
        cell, cell.map(lambda c: (c,)), st.tuples(cell, cell, cell),
        st.frozensets(cell, min_size=1, max_size=2), st.none(),
        st.integers(), st.text(max_size=2),
    ]
    if own:
        junk += [st.sampled_from(own), st.sampled_from(own).map(
            lambda d: d[::-1])]  # reversed
    if base:
        junk.append(st.sampled_from(base))  # repeated
    extra = draw(st.lists(st.one_of(junk), max_size=3)) if draw(
        st.booleans()) else []
    return region, draw(st.permutations(base + extra))


class TestValidity:
    @settings(max_examples=300)
    @given(domino_lists())
    def test_direct_check_is_the_table_rule(self, case):
        region, elements = case
        for tiling in (elements, frozenset(elements)):
            fresh = Region(region.cells)
            assert is_valid_tiling(fresh, tiling) == table_rule(region, tiling)
            assert "dominoes" not in fresh.__dict__

    def test_two_vertical_dominoes(self):
        r = make_rectangle(2, 2)
        t = frozenset({((0, 0), (0, 1)), ((1, 0), (1, 1))})
        assert is_valid_tiling(r, t)

    def test_uncovered_cells(self):
        r = make_rectangle(2, 2)
        assert not is_valid_tiling(r, frozenset({((0, 0), (0, 1))}))

    def test_overlap(self):
        r = make_rectangle(2, 2)
        t = frozenset({((0, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 0), (1, 1))})
        assert not is_valid_tiling(r, t)

    def test_non_adjacent_pair(self):
        r = make_rectangle(2, 2)
        t = frozenset({((0, 0), (1, 1)), ((0, 1), (1, 0))})
        assert not is_valid_tiling(r, t)


class TestEnumeration:
    @pytest.mark.parametrize("m,n,count", [
        (2, 2, 2), (3, 2, 3), (10, 2, 89), (4, 3, 11), (4, 4, 36),
    ])
    def test_rectangle_counts(self, m, n, count):
        assert len(enumerate_tilings(make_rectangle(m, n))) == count

    def test_fibonacci_recurrence(self):
        counts = [len(enumerate_tilings(make_rectangle(n, 2)))
                  for n in range(1, 13)]
        assert counts[0] == 1 and counts[1] == 2
        for i in range(2, len(counts)):
            assert counts[i] == counts[i - 1] + counts[i - 2]

    def test_mutilated_chessboard_untileable(self):
        cells = [(x, y) for x in range(8) for y in range(8)
                 if (x, y) not in ((0, 0), (7, 7))]
        assert enumerate_tilings(make_from_cells(cells)) == []

    def test_odd_cell_count_empty(self):
        assert enumerate_tilings(make_rectangle(3, 1)) == []

    def test_canonical_order_starts_horizontal(self):
        first, second = enumerate_tilings(make_rectangle(2, 2))
        assert ((0, 0), (1, 0)) in first
        assert ((0, 0), (0, 1)) in second

    @given(cells_strategy)
    def test_matches_count_and_all_valid(self, cells):
        r = make_from_cells(cells)
        tilings = enumerate_tilings(r)
        assert len(tilings) == count_tilings(r)
        assert len(set(tilings)) == len(tilings)
        for t in tilings:
            assert is_valid_tiling(r, t)

    @given(cells_strategy)
    def test_order_matches_recursive_oracle(self, cells):
        r = make_from_cells(cells)
        assert list(iter_tilings(r)) == list(recursive_tilings(r))

    @pytest.mark.parametrize("region", [
        make_rectangle(6, 6), make_aztec(4), make_holed_square(5),
    ], ids=["6x6", "aztec4", "holed5"])
    def test_order_matches_recursive_oracle_on_boards(self, region):
        assert list(iter_tilings(region)) == list(recursive_tilings(region))

    def test_deeper_than_the_recursion_limit(self):
        first = first_tiling(make_rectangle(2, 1100))
        assert len(first) == 1100
        assert ((0, 0), (1, 0)) in first

    def test_memory_linear_in_depth(self):
        # a mask kept per frame, or a 1 << bit kept per domino, would
        # take memory quadratic in the number of nested choices
        peaks = []
        for length in (2000, 20000):
            region = make_rectangle(length, 1)
            region.dominoes
            tracemalloc.start()
            try:
                assert next(_backtrack_masks(region)).bit_count() == length // 2
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 16 * peaks[0]


class TestCounting:
    @pytest.mark.parametrize("region,count", [
        (make_aztec(3), 64),
        (make_rectangle(8, 8), 12988816),
        (make_holed_square(3), 2),
    ])
    def test_examples(self, region, count):
        assert count_tilings(region) == count

    @given(punched_boxes(10))
    def test_matches_box_oracle(self, cells):
        r = make_from_cells(cells)
        assert count_tilings(r) == box_count_tilings(r)

    def test_state_cap(self, monkeypatch):
        # a strip 14 cells across: too thin for the determinant to pay
        monkeypatch.setattr(dominoflip.counting, "MAX_PROFILE_STATES", 1000)
        with pytest.raises(ResourceLimitError) as info:
            count_tilings(make_rectangle(14, 2000))
        cap, reached = map(int, re.findall(r"\d+", str(info.value))[:2])
        assert cap == 1000 and reached > 1000
        assert count_tilings(make_rectangle(8, 8)) == 12988816

    def test_closed_form_rectangles(self):
        for n in range(1, 9):
            for m in range(n, 9):
                exact = count_tilings(make_rectangle(m, n))
                assert count_rectangle_closed_form(m, n) == exact, (m, n)

    def test_closed_form_orientation_symmetric(self):
        assert count_rectangle_closed_form(5, 4) == count_rectangle_closed_form(4, 5)

    @pytest.mark.parametrize("n,count", [(1, 2), (2, 8), (4, 1024)])
    def test_aztec_closed_form(self, n, count):
        assert count_aztec_closed_form(n) == count
        assert count_tilings(make_aztec(n)) == count

    def test_aztec_closed_form_matches_enumeration(self):
        for n in range(1, 5):
            assert len(enumerate_tilings(make_aztec(n))) == 2 ** (n * (n + 1) // 2)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            count_rectangle_closed_form(0, 2)
        with pytest.raises(ValueError):
            count_aztec_closed_form(0)

    def test_closed_form_refuses_past_float_precision(self):
        # 12x12 already has ~5.3e16 tilings, beyond exact float integers
        with pytest.raises(NumericInstabilityError):
            count_rectangle_closed_form(12, 12)
        with pytest.raises(NumericInstabilityError):
            count_rectangle_closed_form(64, 64)  # product overflows


# a one-cell-wide staircase of 300 steps: a single tiling in a 301x300 box
STAIRCASE = make_from_cells([c for i in range(300) for c in ((i, i), (i + 1, i))])


def record_paths(monkeypatch, region):
    """The counting paths count_tilings runs on the region, in order."""
    ran = []
    for name in ("profile", "determinant"):
        def record(w, order, name=name):
            ran.append(name)
            return 1
        monkeypatch.setattr(dominoflip.counting, f"_count_by_{name}", record)
    count_tilings(region)
    return ran


class TestTwoCountingPaths:
    """The Kasteleyn determinant and the profile DP, called directly."""

    @pytest.mark.parametrize("m", range(1, 11))
    def test_agree_on_rectangles(self, m):
        # the paths take balanced cells; count_tilings answers 0 for
        # the odd areas before either runs
        for n in range(1 + m % 2, 11, 1 + m % 2):
            sweep = _sweep(make_rectangle(m, n).cells)
            assert _count_by_determinant(*sweep) == _count_by_profile(*sweep)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_agree_on_aztec_diamonds(self, n):
        sweep = _sweep(make_aztec(n).cells)
        assert _count_by_determinant(*sweep) == _count_by_profile(*sweep)
        assert _count_by_profile(*sweep) == 2 ** (n * (n + 1) // 2)

    @given(punched_boxes(10))
    def test_agree_on_every_component(self, cells):
        for part in _pieces(frozenset(cells)):
            if 2 * sum(map(is_black, part)) == len(part):
                sweep = _sweep(part)
                assert (_count_by_determinant(*sweep)
                        == _count_by_profile(*sweep))

    @pytest.mark.parametrize("k", range(3, 16, 2))
    def test_agree_on_holed_squares(self, k):
        sweep = _sweep(make_holed_square(k).cells)
        assert _count_by_determinant(*sweep) == _count_by_profile(*sweep)

    @pytest.mark.parametrize("rows", TILEABLE_CORNER_PINCHES)
    def test_agree_on_corner_pinches(self, rows):
        cells = region_grid(len(rows[0]), len(rows), " ".join(rows)).cells
        sweep = _sweep(cells)
        assert _count_by_determinant(*sweep) == _count_by_profile(*sweep) > 0

    @pytest.mark.parametrize("region,path", [
        (make_rectangle(2, 8000), "profile"),
        (make_rectangle(8, 1000), "profile"),
        (make_holed_square(9), "determinant"),
        (make_from_cells([(x, y) for x in range(8) for y in range(8)
                          if (x, y) not in ((0, 0), (7, 7))]), None),
        (STAIRCASE, "profile"),
        # the determinant's estimate is 1.8x the DP's, under the 3x a unit
        # of the DP weighs, and it runs in about 0.9x the DP's time
        (make_rectangle(8, 50), "determinant"),
        # its estimate is 3.6x the DP's, and it takes twice the DP's time
        (make_rectangle(6, 60), "profile"),
        # its estimate is 0.8x the DP's, and it runs in half the DP's time
        (make_rectangle(10, 40), "determinant"),
        (make_rectangle(16, 16), "determinant"),
        (make_aztec(10), "determinant"),
    ], ids=["2x8000", "8x1000", "holed9", "mutilated8x8", "staircase",
            "8x50", "6x60", "10x40", "16x16", "aztec10"])
    def test_dispatch(self, monkeypatch, region, path):
        assert record_paths(monkeypatch, region) == (
            [] if path is None else [path])

    def test_staircase_counted_by_its_band(self):
        # its box is 301 wide, but no cell is more than one step in sweep
        # order below its upper neighbour
        assert _band(*_sweep(STAIRCASE.cells)) == 1
        assert count_tilings(STAIRCASE) == 1
        assert is_tileable(STAIRCASE)

    def test_over_the_cap_falls_back_to_a_dp_that_fits(self, monkeypatch):
        # 16x16's C(16, 8) profiles fit the DP's cap, 200x200's do not
        monkeypatch.setattr(dominoflip.counting, "MAX_DETERMINANT_WORK", 1000)
        assert record_paths(monkeypatch, make_rectangle(16, 16)) == ["profile"]
        with pytest.raises(ResourceLimitError, match="determinant"):
            record_paths(monkeypatch, make_rectangle(200, 200))

    def test_unbalanced_pieces_count_nothing(self, monkeypatch):
        # a 3-cell bar, two black cells and a white one, and one far
        # white cell: balanced as a whole, but no piece is counted, not
        # even a rectangle before them whose determinant is over the cap
        bar = [(0, 0), (1, 0), (2, 0), (5, 6)]
        assert count_tilings(make_from_cells(bar)) == 0
        board = [(x, y) for x in range(-500, -300) for y in range(200)]
        assert record_paths(monkeypatch, make_from_cells(board + bar)) == []

    @given(two_discs(8))
    def test_pieces_apart_multiply(self, discs):
        first, second, union = discs
        assert count_tilings(make_from_cells(union)) == (
            count_tilings(make_from_cells(first))
            * count_tilings(make_from_cells(second)))

    def test_components_counted_on_their_own_axes(self):
        # swept together along one axis, the block's rows run across its
        # 40-cell side and need more than 2^20 live profiles
        cells = [(x, y) for x in range(40) for y in range(2)]
        cells += [(100000, 100000), (100000, 100001)]
        assert count_tilings(make_from_cells(cells)) == 165580141

    def test_determinant_cap(self):
        with pytest.raises(ResourceLimitError) as info:
            count_tilings(make_rectangle(200, 200))
        estimate, cap = map(int, re.findall(r"\d+", str(info.value)))
        # 20000 black cells need the prime 2^21701 - 1
        assert estimate == 20000 * 200 ** 2 * (21701 // 64 + 1)
        assert cap == MAX_DETERMINANT_WORK < estimate

    def test_every_count_within_the_cap_has_its_prime(self):
        # n black cells need a modulus of at least n + 2 bits, the
        # shortest listed one; from the n that no listed modulus serves,
        # even a band of 1 is over the cap
        bits = 0
        for p in dominoflip.counting._MODULI:
            # the first n the one before leaves, and the last n it serves
            assert _modulus(bits - 1) == _modulus(p.bit_length() - 2) == p
            bits = p.bit_length()
        assert _modulus(bits - 1) == _modulus(10 ** 9) == p
        assert _determinant_work(bits - 1, 1, bits) > MAX_DETERMINANT_WORK

    def test_moduli_are_ascending_primes(self):
        # Miller-Rabin with fixed bases up to 2^1280, where all but the
        # Mersenne primes lie, then Lucas-Lehmer on the Mersenne primes
        # up to 2^4423 - 1; each larger one would take seconds
        moduli = dominoflip.counting._MODULI
        assert list(moduli) == sorted(set(moduli))
        for p in moduli:
            bits = p.bit_length()
            if bits <= 1280:
                assert miller_rabin(p), p
            elif bits <= 4423:
                assert p == (1 << bits) - 1 and lucas_lehmer(bits), bits


class TestTileability:
    @given(punched_boxes(8))
    def test_matches_count(self, cells):
        # holes, corner pinches and several components included; every
        # matching found is a tiling
        region = make_from_cells(cells)
        matching = _perfect_matching(region)
        assert is_tileable(region) == (count_tilings(region) > 0)
        assert (matching is not None) == is_tileable(region)
        if matching is not None:
            assert is_valid_tiling(region, matching)

    @pytest.mark.parametrize("k", range(3, 24, 2))
    def test_holed_squares_need_no_count(self, monkeypatch, k):
        def refuse(region):
            raise AssertionError("the tileability check counted")

        monkeypatch.setattr(dominoflip.counting, "count_tilings", refuse)
        region = make_holed_square(k)
        assert is_tileable(region)
        assert is_valid_tiling(region, _perfect_matching(region))

    def test_components(self):
        pair = make_from_cells([(0, 0), (1, 0), (5, 5), (6, 5)])
        assert is_tileable(pair)
        # two black and two white cells, but a component of three
        apart = make_from_cells([(0, 0), (1, 0), (2, 0), (5, 6)])
        assert count_tilings(apart) == 0
        assert not is_tileable(apart)

    def test_untileable(self):
        mutilated = make_from_cells([(x, y) for x in range(8) for y in range(8)
                                     if (x, y) not in ((0, 0), (7, 7))])
        assert not is_tileable(mutilated)
        assert not is_tileable(make_from_cells([(0, 0), (2, 0)]))

    def test_beyond_the_count_cap(self):
        assert is_tileable(make_rectangle(40, 40))


class TestFlips:
    def test_single_flip_on_2x2(self):
        r = make_rectangle(2, 2)
        t = upright(2)
        assert available_flips(r, t) == [(1, 1)]

    def test_upright_6x2_has_five(self):
        r = make_rectangle(6, 2)
        assert available_flips(r, upright(6)) == [(x, 1) for x in range(1, 6)]

    def test_brick_6x2_has_three(self):
        r = make_rectangle(6, 2)
        assert available_flips(r, brick(6)) == [(1, 1), (3, 1), (5, 1)]

    def test_apply_flip_swaps_orientation(self):
        r = make_rectangle(2, 2)
        flipped = apply_flip(r, upright(2), (1, 1))
        assert flipped == brick(2)

    def test_flip_is_involution(self):
        r = make_rectangle(4, 3)
        for t in enumerate_tilings(r):
            for anchor in available_flips(r, t):
                other = apply_flip(r, t, anchor)
                assert other != t
                assert is_valid_tiling(r, other)
                assert apply_flip(r, other, anchor) == t

    def test_flip_changes_exactly_two_dominoes(self):
        r = make_aztec(2)
        for t in enumerate_tilings(r):
            for anchor in available_flips(r, t):
                other = apply_flip(r, t, anchor)
                assert len(t - other) == 2 and len(other - t) == 2

    def test_invalid_anchor_rejected(self):
        r = make_rectangle(2, 2)
        with pytest.raises(InvalidMoveError):
            apply_flip(r, upright(2), (0, 0))
        with pytest.raises(InvalidMoveError):
            apply_flip(r, upright(2), (5, 5))  # outside the region
        # interior, but the block holds no parallel pair
        with pytest.raises(InvalidMoveError):
            apply_flip(make_rectangle(4, 2), brick(4), (2, 1))

    @pytest.mark.parametrize("flips", [
        available_flips, lambda r, t: apply_flip(r, t, (1, 1))],
        ids=["available_flips", "apply_flip"])
    @pytest.mark.parametrize("tiling", [
        upright(2) | {((2, 0), (2, 1))},  # a domino of another region
        {((0, 1), (0, 0)), ((1, 0), (1, 1))},  # one reversed
        {((0, 0), (0, 1))},  # half a tiling
    ], ids=["foreign", "reversed", "partial"])
    def test_refuse_what_is_no_tiling(self, flips, tiling):
        with pytest.raises(ValueError, match="not a valid tiling"):
            flips(make_rectangle(2, 2), frozenset(tiling))

    @given(cells_strategy, st.data())
    def test_flips_preserve_validity(self, cells, data):
        r = make_from_cells(cells)
        tilings = enumerate_tilings(r)
        if not tilings:
            return
        t = tilings[data.draw(st.integers(0, len(tilings) - 1))]
        for anchor in available_flips(r, t):
            assert is_valid_tiling(r, apply_flip(r, t, anchor))


class TestJson:
    def test_round_trip(self):
        t = load_tiling("pair_7x4_a.json")
        assert tiling_from_json(tiling_to_json(t)) == t

    def test_dominoes_sorted(self):
        data = tiling_to_json(upright(4))
        assert data["dominoes"] == sorted(data["dominoes"])

    @pytest.mark.parametrize("data", [
        {}, {"dominoes": [[0, 1]]}, {"dominoes": [[[0, 0], [0]]]}, 7,
        {"dominoes": [[[0, 0], [True, 0]]]},
    ])
    def test_rejects_malformed(self, data):
        with pytest.raises(ValueError):
            tiling_from_json(data)

    @pytest.mark.parametrize("second", [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                             ids=["same", "reversed"])
    def test_rejects_a_domino_listed_twice(self, second):
        # as a set the two entries would collapse into one domino
        with pytest.raises(ValueError, match=re.escape(
                f"domino entry {second!r} is listed twice")):
            tiling_from_json({"dominoes": [[[0, 0], [1, 0]], second]})

import json
import os
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import dominoflip
from dominoflip import Region, tiling_from_json

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE_ROOT = str(Path(dominoflip.__file__).resolve().parent.parent)
CHILD_ADDRESS_SPACE = 1 << 30


def load_tiling(name):
    with open(FIXTURES / name, "r", encoding="utf-8") as fh:
        return tiling_from_json(json.load(fh))


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def region_grid(w, h, mask):
    """Small helper for literal regions in tests: '#' marks a cell,
    rows listed top to bottom."""
    rows = mask.split()
    assert len(rows) == h and all(len(r) == w for r in rows)
    cells = [(x, h - 1 - y) for y, row in enumerate(rows)
             for x, ch in enumerate(row) if ch == "#"]
    return Region(cells)


def cell_corners(cell):
    """The four corner points of a cell."""
    x, y = cell
    return ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1))


def vertex_set(cells):
    """Oracle: the corner points of the cells."""
    return {v for c in cells for v in cell_corners(c)}


def interior_set(cells):
    """Oracle: the vertices that are a corner of four cells."""
    counts = Counter(v for c in cells for v in cell_corners(c))
    return {v for v, n in counts.items() if n == 4}


def boundary_set(cells):
    """Oracle: the vertices that are a corner of fewer than four cells."""
    return vertex_set(cells) - interior_set(cells)


# connected regions whose holes meet the outside or each other only at
# a corner, rows listed top to bottom as for region_grid; the tileable
# ones hold three holes in one corner-joined chain, and in a V
TILEABLE_CORNER_PINCHES = [
    (".#####", "######", "###.##", "##.##.", "#.####", "###.##"),
    (".#####", "##.##.", "###.##", "##.###", "######", "###.##"),
]
CORNER_PINCHES = [
    # rings closed only through the corner their two ends share
    ("###", "#.#", ".##"),
    ("####", "#..#", "#..#", ".###"),
    # two holes meeting at a corner
    ("####", "##.#", "#.##", "####"),
    *TILEABLE_CORNER_PINCHES,
]


@st.composite
def punched_boxes(draw, max_side):
    """A box of up to max_side x max_side cells anywhere on the grid
    (negative coordinates included) with any proper subset of its cells
    punched out, so connected regions with and without holes both occur
    often."""
    w, h = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    ox, oy = draw(st.integers(-60, 60)), draw(st.integers(-60, 60))
    removed = draw(st.sets(st.tuples(st.integers(0, w - 1),
                                     st.integers(0, h - 1)),
                           max_size=w * h - 1))
    return [(x + ox, y + oy) for x in range(w) for y in range(h)
            if (x, y) not in removed]


@st.composite
def tileable_discs(draw, max_side):
    """A simply connected region with a tiling, by construction, in a box
    of up to max_side x max_side cells anywhere on the grid.

    A brick tiling of the box is shuffled by random flips and loses the
    dominoes whose draw from 0-3 gives 0.  The region is the
    edge-connected component of one domino left, plus every cell that
    unit steps around that component cannot reach from outside the box.
    Both steps keep a union of whole dominoes, so the region is
    tileable; and every cell not in it is reached from outside the box
    by unit steps, so it encloses no hole, not even at a corner pinch."""
    w, h = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    if w % 2 and h % 2:
        h += 1 if h < max_side else -1
    ox, oy = draw(st.integers(-60, 60)), draw(st.integers(-60, 60))
    step = (1, 0) if w % 2 == 0 else (0, 1)  # along the even side
    partner = {}
    for x in range(0, w, 1 + step[0]):
        for y in range(0, h, 1 + step[1]):
            a, b = (x, y), (x + step[0], y + step[1])
            partner[a], partner[b] = b, a
    for _ in range(draw(st.integers(0, w * h))):
        x = draw(st.integers(0, w - 1))
        y = draw(st.integers(0, h - 1))
        ll, lr, ul, ur = (x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)
        if partner.get(ll) == lr and partner.get(ul) == ur:
            partner.update({ll: ul, ul: ll, lr: ur, ur: lr})
        elif partner.get(ll) == ul and partner.get(lr) == ur:
            partner.update({ll: lr, lr: ll, ul: ur, ur: ul})
    dominoes = sorted(a for a, b in partner.items() if a < b)
    kept = [a for a in dominoes if draw(st.integers(0, 3))] or dominoes[:1]
    component = _flood(draw(st.sampled_from(kept)),
                       {c for a in kept for c in (a, partner[a])})
    frame = {(x, y) for x in range(-1, w + 1) for y in range(-1, h + 1)}
    outside = _flood((-1, -1), frame - component)
    return [(x + ox, y + oy) for x, y in sorted(frame - outside)]


@st.composite
def two_discs(draw, max_side):
    """Two ``tileable_discs``, the second moved 200 cells right, so they
    are two pieces too far apart to touch: (first, second, union)."""
    first = draw(tileable_discs(max_side))
    second = [(x + 200, y) for x, y in draw(tileable_discs(max_side))]
    return first, second, first + second


@st.composite
def touching_discs(draw, max_side):
    """Two ``tileable_discs``, the second moved so that its smallest cell
    sits diagonally against a cell of the first and no cell of either
    shares a side with the other's: (first, second, union).  Placed past
    the first's largest cell up and right, they touch at that corner
    alone; other places may touch at more corners, and enclose a hole."""
    first = draw(tileable_discs(max_side))
    second = draw(tileable_discs(max_side))
    taken = {(x + dx, y + dy) for x, y in first
             for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))}
    low = min(second)
    places = []
    for x, y in sorted(first):
        for dx, dy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            sx, sy = x + dx - low[0], y + dy - low[1]
            moved = [(a + sx, b + sy) for a, b in second]
            if taken.isdisjoint(moved):
                places.append(moved)
    second = draw(st.sampled_from(places))  # never empty: see above
    return first, second, first + second


def _flood(seed, cells):
    """The cells reachable from seed by unit steps inside cells."""
    seen, queue = {seed}, [seed]
    for x, y in queue:  # the list grows behind the loop
        for c in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if c in cells and c not in seen:
                seen.add(c)
                queue.append(c)
    return seen


def run_capped(*args, timeout=120):
    """Run ``python *args`` in a child whose address space is capped at
    1 GiB, so that an allocation sized by a region's bounding box fails
    in the child instead of exhausting the machine running the tests."""
    def cap():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = CHILD_ADDRESS_SPACE
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=PACKAGE_ROOT + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=timeout, preexec_fn=cap, env=env)

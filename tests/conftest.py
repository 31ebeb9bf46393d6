import json
import os
import resource
import subprocess
import sys
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

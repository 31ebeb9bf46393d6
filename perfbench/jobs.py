"""Seeded job lists for the three workloads, and the input files they read.

A job is one `dominoflip` command line plus what the oracle needs to
check its answer.  Everything here is derived from the workload seed
alone, with the benchmark's own tiling code, so that the program under
test never shapes its own inputs and the same seed always writes the
same bytes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from oracle import (aztec_cells, aztec_count, block, diameter_aztec,
                    diameter_rect, flip, rect_cells, rect_count)

# Per-job caps, set with setrlimit on the child only.  Oversize jobs get
# the tight pair: a budgeted program refuses them well inside a second.
# The benchmark runs them once after its timed passes, as an untimed probe.
CAP_CPU_S = 60
CAP_AS_BYTES = 2 << 30
OVERSIZE_CPU_S = 1
OVERSIZE_AS_BYTES = 1 << 30

# The float product form is only certified below 2**53.
FLOAT_EXACT = 2 ** 53


@dataclass
class Job:
    name: str
    argv: list[str]
    check: dict
    outputs: list[str] = field(default_factory=list)
    oversize: bool = False

    @property
    def cpu_cap(self) -> int:
        return OVERSIZE_CPU_S if self.oversize else CAP_CPU_S

    @property
    def as_cap(self) -> int:
        return OVERSIZE_AS_BYTES if self.oversize else CAP_AS_BYTES


class _Builder:
    """Collects jobs and input files for one workload."""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.jobs: list[Job] = []
        self.files: dict[str, bytes] = {}

    def add(self, argv, check, outputs=(), oversize=False) -> None:
        name = f"j{len(self.jobs):02d}"
        self.jobs.append(Job(name, list(argv), check, list(outputs), oversize))

    def write_json(self, name: str, data) -> str:
        path = f"inputs/{name}.json"
        self.files[path] = (json.dumps(data, sort_keys=True) + "\n").encode()
        return path

    def region_file(self, name: str, cells) -> str:
        return "file:" + self.write_json(
            name, {"cells": [list(c) for c in sorted(cells)]})

    def pair(self, name: str, cells, steps1: int, steps2: int) -> dict:
        """Two tilings: t1 after steps1 random flips from a brick tiling,
        t2 after up to steps2 monotone flips from t1, so that the flip
        distance between them is known exactly."""
        walk = FlipWalk(cells, self.rng)
        walk.run(steps1)
        t1 = walk.dominoes()
        distance = walk.run(steps2, monotone=True)
        t2 = walk.dominoes()
        return {"t1": self.write_json(f"{name}.t1", _tiling_json(t1)),
                "t2": self.write_json(f"{name}.t2", _tiling_json(t2)),
                "pair": name, "distance": distance}

    def materialize(self) -> list[Job]:
        for path, data in self.files.items():
            full = os.path.join(self.workdir, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "wb") as handle:
                handle.write(data)
        self.rng.shuffle(self.jobs)
        return self.jobs


def _tiling_json(dominoes) -> dict:
    return {"dominoes": [[list(a), list(b)] for a, b in sorted(dominoes)]}


class FlipWalk:
    """Random flip walk on a tiling, starting from horizontal bricks.

    Every row of the region must split into horizontal dominoes, which
    holds for even-width rectangles and Aztec diamonds.  The set of
    flippable 2x2 blocks is kept up to date around each flip, in a list
    whose order depends only on the walk, so the walk is reproducible.
    """

    def __init__(self, cells, rng: random.Random):
        self.cells = frozenset(cells)
        self.rng = rng
        self.partner: dict = {}
        for x, y in sorted(self.cells):
            if (x, y) in self.partner:
                continue
            if (x + 1, y) not in self.cells or (x + 1, y) in self.partner:
                raise ValueError("rows do not split into horizontal dominoes")
            self.partner[(x, y)] = (x + 1, y)
            self.partner[(x + 1, y)] = (x, y)
        self.flippable: list = []
        self.slot: dict = {}
        for x, y in sorted(self.cells):
            self._update((x + 1, y + 1))

    def _can_flip(self, anchor) -> bool:
        ll, lr, ul, ur = block(anchor)
        if not all(c in self.cells for c in (ll, lr, ul, ur)):
            return False
        p = self.partner
        return ((p[ll] == lr and p[ul] == ur) or (p[ll] == ul and p[lr] == ur))

    def _update(self, anchor) -> None:
        want = self._can_flip(anchor)
        if want and anchor not in self.slot:
            self.slot[anchor] = len(self.flippable)
            self.flippable.append(anchor)
        elif not want and anchor in self.slot:
            i = self.slot.pop(anchor)
            last = self.flippable.pop()
            if last != anchor:
                self.flippable[i] = last
                self.slot[last] = i

    def run(self, steps: int, monotone: bool = False) -> int:
        """Make up to `steps` random flips and return how many were made.

        A monotone walk only turns horizontal pairs vertical where the
        block's lower-left cell is black, and vertical pairs horizontal
        where it is white.  Each such flip moves the height label at the
        block's centre the same way, so the walk's length is exactly the
        flip distance it covers.
        """
        for made in range(steps):
            choices = self.flippable
            if monotone:
                choices = [a for a in choices if self._rising(a)]
                if not choices:
                    return made
            anchor = self.rng.choice(choices)
            flip(self.partner, anchor)
            x, y = anchor
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    self._update((x + dx, y + dy))
        return steps

    def _rising(self, anchor) -> bool:
        ll, lr, _, _ = block(anchor)
        return (self.partner[ll] == lr) == (sum(ll) % 2 == 0)

    def dominoes(self) -> set:
        return {(a, b) for a, b in self.partner.items() if a < b}


def random_region(rng: random.Random, width: int, height: int) -> set:
    """A simply connected region of `height` rows, each an even-length run
    inside `width` columns that overlaps the row below it."""
    cells = set()
    lo, hi = 0, width
    for y in range(height):
        while True:
            length = 2 * rng.randint(2, width // 2)
            start = rng.randint(0, width - length)
            if start < hi and start + length > lo:
                break
        lo, hi = start, start + length
        cells.update((x, y) for x in range(lo, hi))
    return cells


def rotate(cells) -> set:
    return {(-x, -y) for x, y in cells}


def _count_jobs(b: _Builder) -> None:
    for w, h in ((8, 8), (10, 10), (12, 12), (14, 14), (15, 14), (16, 16),
                 (16, 4), (24, 12), (20, 10), (12, 7)):
        expect = rect_count(w, h)
        argv = ["count", "--shape", f"rect:{w}x{h}"]
        if expect < FLOAT_EXACT:
            argv.append("--closed-form")
        b.add(argv, {"kind": "count", "expect": expect})
    for n in (3, 6, 8, 9, 10):
        b.add(["count", "--shape", f"aztec:{n}", "--closed-form"],
              {"kind": "count", "expect": aztec_count(n)})
    for spec, expect in (("rect:12x12", diameter_rect(12, 12)),
                         ("rect:14x14", diameter_rect(14, 14)),
                         ("rect:16x8", diameter_rect(16, 8)),
                         ("aztec:8", diameter_aztec(8))):
        for method in ("levels", "closed"):
            b.add(["diameter", "--method", method, "--shape", spec],
                  {"kind": "diameter", "expect": expect})
    for i in range(5):
        cells = random_region(b.rng, 12, 16)
        for tag, shape in (("a", cells), ("b", rotate(cells))):
            b.add(["count", "--shape", b.region_file(f"r{i}{tag}", shape)],
                  {"kind": "count_pair", "pair": f"r{i}"})
    mutilated = rect_cells(8, 8) - {(0, 0), (7, 7)}
    b.add(["count", "--shape", b.region_file("mutilated", mutilated)],
          {"kind": "untileable"})
    cells = sorted(random_region(b.rng, 12, 12))
    first = b.rng.choice(cells)
    second = b.rng.choice([c for c in cells
                           if c != first and (sum(c) - sum(first)) % 2 == 0])
    b.add(["count", "--shape",
           b.region_file("unbalanced", set(cells) - {first, second})],
          {"kind": "untileable"})
    b.add(["diameter", "--method", "levels", "--shape", "rect:40x40"],
          {"kind": "diameter", "expect": diameter_rect(40, 40)}, oversize=True)


def _search_jobs(b: _Builder) -> None:
    """All-pairs diameter search: one graph read once per node."""
    shapes = [f"rect:{w}x{h}" for w, h in ((4, 4), (5, 4), (6, 4), (9, 2),
                                           (10, 3), (3, 10), (14, 2), (2, 14),
                                           (7, 4), (4, 7), (6, 5), (5, 6),
                                           (8, 4))]
    shapes += ["aztec:3", "aztec:4"]
    for spec in shapes:
        b.add(["diameter", "--method", "all", "--shape", spec],
              {"kind": "diameter", "expect": _closed_diameter(spec)})
    b.add(["diameter", "--method", "all", "--shape", "rect:8x7"],
          {"kind": "diameter", "expect": diameter_rect(8, 7)}, oversize=True)


def _closed_diameter(spec: str) -> int:
    kind, _, rest = spec.partition(":")
    if kind == "aztec":
        return diameter_aztec(int(rest))
    w, h = map(int, rest.split("x"))
    return diameter_rect(w, h)


def _distance_jobs(b: _Builder) -> None:
    """Graphs built and read once, and monotone height walks."""
    s16, s24, s6 = rect_cells(16, 16), rect_cells(24, 24), rect_cells(6, 6)

    def distance(spec, pair, method, path=None, oversize=False):
        argv = ["distance", "--shape", spec, "--t1", pair["t1"],
                "--t2", pair["t2"], "--method", method]
        outputs = []
        if path:
            argv += ["--emit-path", path]
            outputs.append(path)
        b.add(argv, {"kind": "distance", **pair, "path": path}, outputs,
              oversize)

    # graph jobs: build a flip graph, read it once
    p6 = b.pair("s6", s6, 200, 5)
    distance("rect:6x6", p6, "all", "out/s6.path.json")
    distance("aztec:4", b.pair("a4", aztec_cells(4), 200, 8), "all")
    distance("rect:4x7", b.pair("r47", rect_cells(4, 7), 200, 4), "all")
    b.add(["components", "--shape", "holed-square:5"], {"kind": "components"})
    holed = rect_cells(6, 5) - {(2, 2), (3, 2)}
    b.add(["components", "--shape", b.region_file("holed", holed)],
          {"kind": "components"})
    b.add(["export", "--shape", "rect:6x4", "--what", "graph",
           "--out", "out/g64.dot"], {"kind": "graph"}, ["out/g64.dot"])
    b.add(["export", "--shape", "aztec:3", "--what", "graph", "--format",
           "json", "--out", "out/a3.json"], {"kind": "graph"},
          ["out/a3.json"])
    # lattice jobs: monotone height walks, cycles, pictures
    for spec, expect in (("square:16", diameter_rect(16, 16)),
                         ("rect:18x16", diameter_rect(18, 16)),
                         ("rect:22x14", diameter_rect(22, 14)),
                         ("aztec:12", diameter_aztec(12))):
        out = f"out/x{spec.replace(':', '')}"
        b.add(["extremes", "--shape", spec, "--out", out],
              {"kind": "extremes", "expect": expect},
              [f"{out}.tmin.json", f"{out}.tmax.json"])
    pa = b.pair("s16", s16, 3000, 250)
    distance("square:16", pa, "height", "out/s16.path.json")
    distance("square:16", pa, "cycles")
    pb = b.pair("a12", aztec_cells(12), 3000, 120)
    distance("aztec:12", pb, "cycles", "out/a12.path.json")
    distance("aztec:12", pb, "height")
    pc = b.pair("s24", s24, 6000, 300)
    distance("square:24", pc, "cycles", "out/s24.path.json")
    distance("square:24", pc, "height")
    for mode, spec, pair in (("tiling", "square:24", pc),
                             ("cycles", "square:16", pa),
                             ("filling", "square:16", pa),
                             ("tiling", "aztec:12", pb),
                             ("filling", "aztec:12", pb)):
        out = f"out/{mode}{spec.replace(':', '')}.svg"
        argv = ["render", "--shape", spec, "--mode", mode, "--t1", pair["t1"],
                "--out", out]
        if mode != "tiling":
            argv += ["--t2", pair["t2"]]
        b.add(argv, {"kind": "render"}, [out])
    for what, spec, pair in (("cycles", "square:24", pc),
                             ("cycles", "square:16", pa),
                             ("voxels", "square:16", pa),
                             ("voxels", "aztec:12", pb)):
        out = f"out/{what}{spec.replace(':', '')}.json"
        b.add(["export", "--shape", spec, "--what", what, "--t1", pair["t1"],
               "--t2", pair["t2"], "--out", out],
              {"kind": what, **pair}, [out])
    distance("square:24", pc, "all", oversize=True)


WORKLOADS = {"count": _count_jobs, "search": _search_jobs,
             "distance": _distance_jobs}

SETUP_JOB = Job("setup", ["count", "--shape", "rect:2x1"],
                {"kind": "count", "expect": 1})


def build_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's input files under workdir and return its jobs
    in their seeded order."""
    builder = _Builder(workdir, seed)
    WORKLOADS[workload](builder)
    return builder.materialize()

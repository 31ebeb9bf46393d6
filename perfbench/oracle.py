"""Answers the benchmark knows without asking the program under test.

Closed forms for counts and diameters, a small backtracking counter for
little regions, and the checks that compare a job's output with them.
None of this imports `dominoflip`.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from decimal import Decimal, localcontext

EXIT_OK = 0
EXIT_UNTILEABLE = 2
EXIT_BUDGET = 4


def rect_cells(w: int, h: int) -> set:
    return {(x, y) for x in range(w) for y in range(h)}


def aztec_cells(n: int) -> set:
    """The program's convention: |2x+1| + |2y+1| <= 2n."""
    return {(x, y) for x in range(-n, n) for y in range(-n, n)
            if abs(2 * x + 1) + abs(2 * y + 1) <= 2 * n}


def shape_cells(spec: str, workdir: str) -> set:
    kind, _, rest = spec.partition(":")
    if kind == "rect":
        return rect_cells(*map(int, rest.split("x")))
    if kind == "square":
        return rect_cells(int(rest), int(rest))
    if kind == "aztec":
        return aztec_cells(int(rest))
    if kind == "holed-square":
        k = int(rest)
        return rect_cells(k, k) - {(k // 2, k // 2)}
    if kind == "file":
        with open(f"{workdir}/{rest}", encoding="utf-8") as handle:
            return {tuple(c) for c in json.load(handle)["cells"]}
    raise ValueError(f"unknown shape {spec!r}")


def aztec_count(n: int) -> int:
    return 2 ** (n * (n + 1) // 2)


def _pi() -> Decimal:
    """Pi to the current precision (the recipe from the decimal docs)."""
    with localcontext() as ctx:
        ctx.prec += 2
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _cos(x: Decimal) -> Decimal:
    with localcontext() as ctx:
        ctx.prec += 2
        i, lasts, s, fact, num, sign = 0, 0, 1, 1, 1, 1
        while s != lasts:
            lasts = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign *= -1
            s += num / fact * sign
    return +s


def rect_count(m: int, n: int) -> int:
    """Tilings of an m-by-n rectangle: the Kasteleyn / Temperley-Fisher
    product, evaluated in decimal arithmetic with enough digits that
    rounding is certain at any size."""
    if (m * n) % 2:
        return 0
    digits = (m * n) // 2 + 30  # the count is below 2**(mn/2) < 10**(mn/2)
    with localcontext() as ctx:
        ctx.prec = digits
        pi = _pi()
        product = Decimal(1)
        for j in range(1, (m + 1) // 2 + 1):
            cj = _cos(pi * j / (m + 1)) ** 2
            for k in range(1, (n + 1) // 2 + 1):
                ck = _cos(pi * k / (n + 1)) ** 2
                product *= 4 * (cj + ck)
        nearest = product.to_integral_value()
        if abs(product - nearest) > Decimal("1e-9"):
            raise ArithmeticError(f"product for {m}x{n} did not round cleanly")
    return int(nearest)


def diameter_rect(m: int, n: int) -> int:
    """Flip-graph diameter of an m-by-n rectangle: the sum over rings of
    (n - (2i-1))(m - (2i-1)), with n the shorter side."""
    m, n = max(m, n), min(m, n)
    return sum((n - (2 * i - 1)) * (m - (2 * i - 1))
               for i in range(1, (n + 1) // 2 + 1))


def diameter_aztec(n: int) -> int:
    return sum(k * k for k in range(1, n + 1))


def count_small(cells) -> int:
    """Tilings by backtracking on the smallest uncovered cell.  Only for
    regions with a few thousand tilings."""
    order = sorted(cells)
    free = set(cells)

    def extend(i: int) -> int:
        while i < len(order) and order[i] not in free:
            i += 1
        if i == len(order):
            return 1
        x, y = order[i]
        total = 0
        free.discard((x, y))
        for nb in ((x + 1, y), (x, y + 1)):
            if nb in free:
                free.discard(nb)
                total += extend(i + 1)
                free.add(nb)
        free.add((x, y))
        return total

    return extend(0) if len(order) % 2 == 0 else 0


def read_tiling(data: bytes) -> dict:
    """Partner map of a tiling JSON file."""
    partner = {}
    for a, b in json.loads(data)["dominoes"]:
        a, b = tuple(a), tuple(b)
        partner[a] = b
        partner[b] = a
    return partner


def is_tiling(partner: dict, cells) -> bool:
    return (set(partner) == set(cells)
            and all(partner[partner[c]] == c
                    and abs(c[0] - partner[c][0]) + abs(c[1] - partner[c][1]) == 1
                    for c in partner))


@dataclass
class Outcome:
    """What one job run left behind."""
    code: int
    stdout: bytes
    stderr: bytes
    files: dict
    capped: bool


@dataclass
class Verdict:
    """ok, or the reason a job failed; `wrong` marks a wrong answer as
    opposed to a job stopped by its caps.  `value` feeds cross-job checks."""
    ok: bool
    reason: str = ""
    wrong: bool = False
    value: object = None


def _ints(stdout: bytes) -> list[int]:
    return [int(tok) for tok in stdout.split()]


def check(job, out: Outcome, workdir: str) -> Verdict:
    """Judge one job's outcome against the oracle."""
    if out.capped:
        return Verdict(False, "cap")
    if b"Traceback" in out.stderr:
        if b"MemoryError" in out.stderr:
            return Verdict(False, "cap")
        return Verdict(False, "traceback", wrong=True)
    if job.oversize and out.code == EXIT_BUDGET:
        return Verdict(True, "refused")
    kind = job.check["kind"]
    expected_code = EXIT_UNTILEABLE if kind == "untileable" else EXIT_OK
    if out.code != expected_code:
        return Verdict(False, f"exit {out.code}", wrong=True)
    try:
        return _CHECKS[kind](job, out, workdir)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError,
            ElementTree.ParseError) as exc:
        return Verdict(False, f"unreadable output: {exc}", wrong=True)


def _expect(ok: bool, reason: str, value=None) -> Verdict:
    return Verdict(True, value=value) if ok else Verdict(False, reason, True)


def _check_count(job, out, workdir):
    values = _ints(out.stdout)
    return _expect(values and all(v == job.check["expect"] for v in values),
                   f"count {values} != {job.check['expect']}")


def _check_count_pair(job, out, workdir):
    (value,) = _ints(out.stdout)
    return _expect(value > 0, "tileable region counted 0", value)


def _check_untileable(job, out, workdir):
    return _expect(_ints(out.stdout) == [0], "untileable region not counted 0")


def _check_diameter(job, out, workdir):
    values = _ints(out.stdout)
    return _expect(values and all(v == job.check["expect"] for v in values),
                   f"diameter {values} != {job.check['expect']}")


def _shape(job) -> str:
    return job.argv[job.argv.index("--shape") + 1]


def _check_extremes(job, out, workdir):
    cells = shape_cells(_shape(job), workdir)
    tilings = [read_tiling(out.files[p]) for p in job.outputs]
    if not all(is_tiling(t, cells) for t in tilings):
        return Verdict(False, "extreme tiling is not a tiling", True)
    return _check_diameter(job, out, workdir)


def _check_distance(job, out, workdir):
    values = set(_ints(out.stdout))
    if len(values) != 1:
        return Verdict(False, f"methods disagree: {values}", True)
    (value,) = values
    if value != job.check["distance"]:
        return Verdict(False, f"distance {value} != {job.check['distance']}",
                       True)
    path = job.check["path"]
    if path:
        partner = read_tiling(_read(workdir, job.check["t1"]))
        flips = json.loads(out.files[path])["flips"]
        try:
            for x, y in flips:
                flip(partner, (x, y))
        except ValueError as exc:
            return Verdict(False, f"emitted path: {exc}", True)
        if len(flips) != value or partner != read_tiling(
                _read(workdir, job.check["t2"])):
            return Verdict(False, "emitted path does not reach t2", True)
    return Verdict(True, value=value)


def block(anchor):
    """Cells ll, lr, ul, ur of the 2x2 block centred on lattice vertex
    `anchor`; the CLI names a flip by that vertex."""
    x, y = anchor
    return (x - 1, y - 1), (x, y - 1), (x - 1, y), (x, y)


def flip(partner: dict, anchor) -> None:
    """Rotate the 2x2 block at anchor in place."""
    ll, lr, ul, ur = block(anchor)
    if partner.get(ll) == lr and partner.get(ul) == ur:
        pairs = ((ll, ul), (lr, ur))
    elif partner.get(ll) == ul and partner.get(lr) == ur:
        pairs = ((ll, lr), (ul, ur))
    else:
        raise ValueError(f"no flip at {anchor}")
    for a, b in pairs:
        partner[a] = b
        partner[b] = a


def _read(workdir: str, path: str) -> bytes:
    with open(f"{workdir}/{path}", "rb") as handle:
        return handle.read()


def _check_components(job, out, workdir):
    first, *rest = out.stdout.decode().splitlines()
    sizes = [int(s) for s in rest[0].split()]
    total = count_small(shape_cells(_shape(job), workdir))
    return _expect(int(first) == len(sizes) and sum(sizes) == total,
                   f"components {sizes} do not partition {total} tilings")


def _check_graph(job, out, workdir):
    (path,) = job.outputs
    text = out.files[path].decode()
    if path.endswith(".json"):
        nodes = len(json.loads(text)["nodes"])
    else:
        nodes = sum(1 for line in text.splitlines()
                    if line.strip().endswith(";") and "--" not in line)
    total = count_small(shape_cells(_shape(job), workdir))
    return _expect(nodes == total, f"graph has {nodes} nodes, not {total}")


def _check_render(job, out, workdir):
    (path,) = job.outputs
    root = ElementTree.fromstring(out.files[path])
    return _expect(root.tag.endswith("svg") and len(root) > 0,
                   "render did not write an SVG picture")


def _check_cycles(job, out, workdir):
    (path,) = job.outputs
    cycles = json.loads(out.files[path])["cycles"]
    ok = all(len(c["cells"]) >= 4 and len(c["cells"]) % 2 == 0
             and c["orientation"] in (1, -1) for c in cycles)
    return _expect(ok, "malformed cycle collection")


def _check_voxels(job, out, workdir):
    (path,) = job.outputs
    value = len(json.loads(out.files[path])["voxels"])
    return _expect(value == job.check["distance"],
                   f"filling volume {value} != {job.check['distance']}")


_CHECKS = {"count": _check_count, "count_pair": _check_count_pair,
           "untileable": _check_untileable, "diameter": _check_diameter,
           "extremes": _check_extremes, "distance": _check_distance,
           "components": _check_components, "graph": _check_graph,
           "render": _check_render, "cycles": _check_cycles,
           "voxels": _check_voxels}


def check_groups(jobs, verdicts: dict) -> dict:
    """Cross-job checks within one pass: a random region and its 180-degree
    rotation count alike, and every route to one pair's distance (height,
    cycles, BFS, filling volume) agrees.  Returns failing job names with
    reasons."""
    groups: dict = {}
    for job in jobs:
        key = job.check.get("pair")
        verdict = verdicts[job.name]
        if key is not None and verdict.ok and verdict.value is not None:
            groups.setdefault(key, []).append((job.name, verdict.value))
    bad = {}
    for key, members in groups.items():
        if len({v for _, v in members}) > 1:
            for name, _ in members:
                bad[name] = f"{key}: routes disagree {sorted(members)}"
    return bad

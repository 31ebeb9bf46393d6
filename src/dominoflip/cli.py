"""Command-line front end.

Shapes are given as compact specs (rect:MxN, square:N, aztec:N,
holed-square:K, file:PATH), tilings as JSON files.  Plain output puts
only the answer on stdout; --json wraps it in an envelope
{"command": ..., "result": ...}.  Diagnostics go to stderr.

Exit codes: 0 ok, 1 cross-method disagreement or unreachable pair,
2 untileable or unsupported region, 3 bad arguments or input files,
4 resource budget exceeded, 5 output I/O failure.
"""

from __future__ import annotations

import sys
from functools import partial
from types import SimpleNamespace

from .errors import (DEFAULT_NODE_BUDGET, DominoError, ResourceLimitError,
                     UnsupportedRegionError, UntileableError)
from .surface import (Region, is_simply_connected, make_aztec,
                      make_holed_square, make_rectangle, region_from_json)

# Library names that only some commands call.  Each is imported from its
# module on first use through __getattr__ below, so a job loads only the
# modules its command needs.  Commands read them as ``_lib.render``,
# which finds a name replaced on the module too.
_LAZY = {
    "counting": ("count_aztec_closed_form", "count_rectangle_closed_form",
                 "count_tilings"),
    "cycles": ("cycle_collection", "cycles_to_json", "distance_cycles"),
    "diameter": ("diameter_aztec_closed", "diameter_levels",
                 "diameter_of_graph", "diameter_rectangle_closed"),
    "filling": ("export_voxels", "filling_shape", "voxels_to_json"),
    "flipgraph": ("FlipGraph", "bfs_distance", "build_flip_graph",
                  "connected_components", "distance_bfs", "export_graph"),
    "height": ("distance_height", "extremal_tilings", "geodesic"),
    "render": ("RenderOptions", "render"),
    "tiling": ("is_tileable", "is_valid_tiling", "tiling_from_json",
               "tiling_to_json"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from .module import name` spelled out, so -X importtime lists it
    module = __import__(_OWNER[name], globals(), None, (name,), 1)
    value = globals()[name] = getattr(module, name)
    return value


class _Names:
    """This module's names as attributes, lazy ones bound on first use.
    It reads the namespace the code runs in, which is not always a
    registered module: runpy without alter_sys runs it in a bare dict."""

    def __getattr__(self, name: str):
        scope = globals()
        return scope[name] if name in scope else scope["__getattr__"](name)


_lib = _Names()

EXIT_DISAGREE = 1
EXIT_UNTILEABLE = 2
EXIT_BAD_INPUT = 3
EXIT_BUDGET = 4
EXIT_IO = 5


# cells a --shape may hold; a spec's count is read off it before any
# cell is built
MAX_SHAPE_CELLS = 1 << 20


class ShapeSpec:
    """Parsed --shape argument; remembers the kind for closed forms."""

    def __init__(self, text: str):
        self.text = text
        kind, sep, rest = text.partition(":")
        if not sep:
            raise ValueError(f"bad shape spec {text!r}; expected kind:params")
        self.kind = kind
        # count the cells first, clamping what a builder would reject
        if kind in ("rect", "square"):
            w, sep, h = (rest.partition("x") if kind == "rect"
                         else (rest, "x", rest))
            if not sep:
                raise ValueError(f"bad rectangle spec {text!r}; expected rect:MxN")
            self.dims = (int(w), int(h))
            cells = max(self.dims[0], 0) * max(self.dims[1], 0)
            build = partial(make_rectangle, *self.dims)
        elif kind == "aztec":
            self.order = int(rest)
            cells = 2 * max(self.order, 0) * (self.order + 1)
            build = partial(make_aztec, self.order)
        elif kind == "holed-square":
            side = int(rest)
            cells = max(side, 0) ** 2 - 1
            build = partial(make_holed_square, side)
        elif kind == "file":
            data = _read_json(rest)
            raw = data.get("cells") if isinstance(data, dict) else None
            cells = len(raw) if isinstance(raw, list) else 0
            build = partial(region_from_json, data)
        else:
            raise ValueError(f"unknown shape kind {kind!r}")
        if cells > MAX_SHAPE_CELLS:
            raise ResourceLimitError(
                f"shape {text!r} has {cells} cells, cap is {MAX_SHAPE_CELLS}")
        self.region = build()

    def closed_form_count(self) -> int:
        if self.kind in ("rect", "square"):
            return _lib.count_rectangle_closed_form(*self.dims)
        if self.kind == "aztec":
            return _lib.count_aztec_closed_form(self.order)
        raise ValueError(f"no closed-form count for shape {self.text!r}")

    def closed_form_diameter(self) -> int:
        if self.kind in ("rect", "square"):
            m, n = sorted(self.dims, reverse=True)
            return _lib.diameter_rectangle_closed(m, n)
        if self.kind == "aztec":
            return _lib.diameter_aztec_closed(self.order)
        raise ValueError(f"no closed-form diameter for shape {self.text!r}")


def _read_json(path: str):
    """An input file's JSON.  A file that cannot be read or decoded is
    bad input (exit 3), where a file that cannot be written is an I/O
    failure (exit 5), so read errors leave here as ValueError."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(str(exc)) from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc


def _json_line(data) -> str:
    """The data as one line of JSON text, newline included."""
    import json

    return json.dumps(data) + "\n"


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_json_line(data))


def _load_tiling(path: str, region: Region):
    tiling = _lib.tiling_from_json(_read_json(path))
    if not _lib.is_valid_tiling(region, tiling):
        raise ValueError(f"{path} is not a valid tiling of the region")
    return tiling


def _emit(args, command: str, result, plain_lines: list[str]) -> None:
    if args.json:
        sys.stdout.write(_json_line({"command": command, "result": result}))
    else:
        for line in plain_lines:
            print(line)


def cmd_count(args) -> int:
    shape = ShapeSpec(args.shape)
    exact = _lib.count_tilings(shape.region)
    result = {"count": exact}
    lines = [str(exact)]
    if args.closed_form:
        closed = shape.closed_form_count()
        result["closed_form"] = closed
        lines.append(str(closed))
    _emit(args, "count", result, lines)
    if exact == 0:
        print("warning: region is untileable", file=sys.stderr)
        return EXIT_UNTILEABLE
    return 0


def cmd_distance(args) -> int:
    shape = ShapeSpec(args.shape)
    region = shape.region
    t1 = _load_tiling(args.t1, region)
    t2 = _load_tiling(args.t2, region)
    values: dict[str, int | None] = {}
    if args.method in ("height", "all"):
        values["height"] = _lib.distance_height(region, t1, t2)
    if args.method in ("cycles", "all"):
        values["cycles"] = _lib.distance_cycles(region, t1, t2)
    if args.method in ("bfs", "all"):
        values["bfs"] = _lib.distance_bfs(region, t1, t2, args.budget)
    if args.emit_path is not None:
        path = _lib.geodesic(region, t1, t2)
        _write_json(args.emit_path, {"flips": [[x, y] for x, y in path]})
    _emit(args, "distance", values,
          [" ".join("unreachable" if values[k] is None else str(values[k])
                    for k in sorted(values))])
    if any(v is None for v in values.values()):
        print("error: tilings are not flip-connected", file=sys.stderr)
        return EXIT_DISAGREE
    if len(set(values.values())) > 1:
        print(f"error: methods disagree: {values}", file=sys.stderr)
        return EXIT_DISAGREE
    return 0


def cmd_diameter(args) -> int:
    shape = ShapeSpec(args.shape)
    region = shape.region
    if not _lib.is_tileable(region):
        raise UntileableError("region is untileable")
    values: dict[str, int] = {}
    realizers = None
    if args.method in ("levels", "all"):
        values["levels"] = _lib.diameter_levels(region)
    if args.method in ("closed", "all"):
        try:
            values["closed"] = shape.closed_form_diameter()
        except ValueError:
            # shapes without a closed form only fail hard when asked for it
            if args.method == "closed":
                raise
    if args.method in ("bfs", "all"):
        report = _lib.diameter_of_graph(
            _lib.build_flip_graph(region, args.budget))
        values["bfs"] = report.value
        realizers = [_lib.tiling_to_json(t) for t in report.realizers]
    result = {"diameter": next(iter(values.values())), "method": args.method}
    if len(values) > 1:
        result["methods"] = values
    if realizers is not None:
        result["realizers"] = realizers
    _emit(args, "diameter", result,
          [" ".join(str(values[k]) for k in sorted(values))])
    if len(set(values.values())) > 1:
        print(f"error: methods disagree: {values}", file=sys.stderr)
        return EXIT_DISAGREE
    return 0


def _tileable_graph(region: Region, budget: int) -> FlipGraph:
    graph = _lib.build_flip_graph(region, budget)
    if not len(graph):
        raise UntileableError("region is untileable")
    return graph


def cmd_components(args) -> int:
    region = ShapeSpec(args.shape).region
    if is_simply_connected(region):
        # flips join every two tilings of a simply connected region
        # (Thurston 1990), so its one component holds them all
        total = _lib.count_tilings(region)
        if not total:
            raise UntileableError("region is untileable")
        sizes = [total]
    else:
        graph = _tileable_graph(region, args.budget)
        sizes = [len(c) for c in _lib.connected_components(graph)]
    _emit(args, "components", {"components": len(sizes), "sizes": sizes},
          [str(len(sizes)), " ".join(str(s) for s in sizes)])
    return 0


def cmd_render(args) -> int:
    shape = ShapeSpec(args.shape)
    region = shape.region
    options = _lib.RenderOptions(mode=args.mode, cell_size=args.cell_size)
    t1 = _load_tiling(args.t1, region)
    t2 = _load_tiling(args.t2, region) if args.t2 else None
    svg = _lib.render(region, options, t1, t2)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(svg)
    _emit(args, "render", {"written": args.out}, [])
    return 0


def cmd_extremes(args) -> int:
    shape = ShapeSpec(args.shape)
    region = shape.region
    tmin, tmax = _lib.extremal_tilings(region)
    paths = (f"{args.out}.tmin.json", f"{args.out}.tmax.json")
    for path, tiling in zip(paths, (tmin, tmax)):
        _write_json(path, _lib.tiling_to_json(tiling))
    spread = _lib.distance_height(region, tmin, tmax)
    _emit(args, "extremes",
          {"tmin": paths[0], "tmax": paths[1], "distance": spread},
          [str(spread)])
    return 0


def cmd_export(args) -> int:
    shape = ShapeSpec(args.shape)
    region = shape.region
    if args.what == "graph":
        payload = _lib.export_graph(_tileable_graph(region, args.budget),
                                    args.format)
    else:
        for flag in ("t1", "t2"):
            if getattr(args, flag) is None:
                raise ValueError(f"export --what {args.what} needs --{flag}")
        t1 = _load_tiling(args.t1, region)
        t2 = _load_tiling(args.t2, region)
        if args.what == "cycles":
            data = _lib.cycles_to_json(_lib.cycle_collection(region, t1, t2))
        else:
            data = _lib.voxels_to_json(
                _lib.export_voxels(_lib.filling_shape(region, t1, t2)))
        payload = _json_line(data)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


# The command line, declared once.  Per command: the function that runs
# it, its help and its own options, after the options every command
# takes.  An option is its flag and the keywords argparse's
# `add_argument` takes for it; its dest is the flag's name, as argparse
# derives it (`--emit-path` sets `emit_path`).
_COMMON = (
    ("--shape", {"required": True, "help": "rect:MxN | square:N | aztec:N "
                                           "| holed-square:K | file:PATH"}),
    ("--json", {"action": "store_true",
                "help": "wrap the answer in a JSON envelope"}),
    ("--budget", {"type": int, "default": DEFAULT_NODE_BUDGET,
                  "help": "max flip-graph nodes for graph-based methods"}),
)
_COMMANDS = {
    "count": (cmd_count, "number of tilings", (
        ("--closed-form", {"action": "store_true", "help": "also evaluate "
                           "the rectangle/aztec closed form"}),
    )),
    "distance": (cmd_distance, "flip distance between two tilings", (
        ("--t1", {"required": True, "help": "first tiling JSON file"}),
        ("--t2", {"required": True, "help": "second tiling JSON file"}),
        ("--method", {"choices": ["bfs", "height", "cycles", "all"],
                      "default": "height"}),
        ("--emit-path", {"metavar": "FILE",
                         "help": "write the geodesic flip list as JSON"}),
    )),
    "diameter": (cmd_diameter, "diameter of the flip graph", (
        ("--method", {"choices": ["bfs", "levels", "closed", "all"],
                      "default": "levels"}),
    )),
    "components": (cmd_components,
                   "connected components of the flip graph", ()),
    "render": (cmd_render,
               "draw a tiling, cycle collection, or filling shape", (
        ("--mode", {"choices": ["tiling", "cycles", "filling"],
                    "default": "tiling"}),
        ("--t1", {"required": True}),
        ("--t2", {}),
        ("--out", {"required": True, "help": "output SVG path"}),
        ("--cell-size", {"type": int, "default": 24}),
    )),
    "extremes": (cmd_extremes, "write the two lattice-extreme tilings", (
        ("--out", {"required": True, "help": "output path prefix"}),
    )),
    "export": (cmd_export, "emit flip graph, cycles, or voxels", (
        ("--what", {"choices": ["graph", "cycles", "voxels"],
                    "default": "graph"}),
        ("--format", {"choices": ["dot", "json"], "default": "dot",
                      "help": "graph export format"}),
        ("--t1", {}),
        ("--t2", {}),
        ("--out", {}),
    )),
}


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of argv, read off the table when argv
    is plain: a command, then its flags each spelled in full, with a value
    after each flag that takes one.  Anything else gives None, for
    argparse to read: help, usage errors, abbreviations, `--flag=value`
    and values that start with `-`."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, own = _COMMANDS[argv[0]]
    options = dict(_COMMON + own)
    given = {}
    words = iter(argv[1:])
    for flag in words:
        if flag not in options:
            return None
        spec = options[flag]
        if "action" in spec:  # store_true
            given[flag] = True
            continue
        value = next(words, "-")  # a flag last in argv has no value
        if value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, spec in options.items():
        if flag not in given and spec.get("required"):
            return None
        default = spec.get("default", False if "action" in spec else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _build_parser():
    """argparse's parser for the table.  Only argv that `_parse` leaves
    to it pays for importing and building it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # argparse exits with 2 on usage errors; this CLI reserves 2 for
        # untileable regions, so remap
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")

    parser = Parser(prog="dominoflip",
                    description="Domino tilings: counts, flip distances, "
                                "diameters, and SVG pictures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, own) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in _COMMON + own:
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_BAD_INPUT
    try:
        return args.func(args)
    except (UntileableError, UnsupportedRegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNTILEABLE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DominoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREE


if __name__ == "__main__":
    sys.exit(main())

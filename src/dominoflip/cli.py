"""Command-line front end.

Shapes are given as compact specs (rect:MxN, square:N, aztec:N,
holed-square:K, file:PATH), tilings as JSON files.  Plain output puts
only the answer on stdout; --json wraps it in an envelope
{"command": ..., "result": ...}.  Diagnostics go to stderr.
--method all runs every route that answers the region, in order.

Exit codes: 0 ok, 1 cross-method disagreement (a level sum below the
diameter too) or unreachable pair, 2 untileable or unsupported region,
3 bad arguments or input files, 4 resource budget or cap exceeded,
5 output I/O failure.
"""

from __future__ import annotations

import os
import sys
from functools import cache, partial
from types import SimpleNamespace

from . import _OWNER
from .errors import (DEFAULT_NODE_BUDGET, DominoError, ResourceLimitError,
                     UnsupportedRegionError, UntileableError)
from .surface import (Region, make_aztec, make_holed_square,
                      make_rectangle, region_from_json)

# Library names by owning module: the package's table plus the names it
# does not export.  ``_lib.render`` finds one replaced on the module too.
_OWNER = {**_OWNER, "render": "render", "cycles_to_json": "cycles",
          "voxels_to_json": "filling", "is_tileable": "tiling",
          "extremal_heights": "height", "label_distance": "height"}


class _Names:
    """This module's names as attributes, and its __getattr__: a library
    name is imported on first use, so a job loads only the modules its
    command needs.  It reads the namespace the code runs in, which is a
    bare dict when runpy runs it without alter_sys."""

    def __getattr__(self, name: str):
        scope = globals()
        if name not in scope:
            if name not in _OWNER:
                raise AttributeError(f"module {__name__!r} has no "
                                     f"attribute {name!r}")
            # `from .module import name`, so -X importtime lists it
            module = __import__(_OWNER[name], scope, None, (name,), 1)
            scope[name] = getattr(module, name)
        return scope[name]


_lib = _Names()
__getattr__ = _lib.__getattr__

EXIT_DISAGREE = 1
EXIT_UNTILEABLE = 2
EXIT_BAD_INPUT = 3
EXIT_BUDGET = 4
EXIT_IO = 5

# the exit code of an error a command raises: the first row that
# matches it, so subclasses come before DominoError
_EXIT_CODES = (
    ((UntileableError, UnsupportedRegionError), EXIT_UNTILEABLE),
    ((ResourceLimitError, MemoryError), EXIT_BUDGET),
    (ValueError, EXIT_BAD_INPUT),
    (OSError, EXIT_IO),
    (DominoError, EXIT_DISAGREE),
)


# cells a --shape may hold; a spec's count is read off it before any
# cell is built
MAX_SHAPE_CELLS = 1 << 20


def _int(text: str, what: str) -> int | None:
    """int(text), or None when text is no integer.  An integer past int()'s
    limit on digits raises ValueError naming only its digit count."""
    try:
        return int(text)
    except ValueError:
        import re

        if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", text):  # int()'s grammar
            raise ValueError(f"{what} has {sum(map(str.isdecimal, text))} "
                             "digits, too many to read") from None
        return None


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
            w, _, h = (rest.partition("x") if kind == "rect"
                       else (rest, "x", rest))
            self.dims = (self._size(w), self._size(h))
            cells = max(self.dims[0], 0) * max(self.dims[1], 0)
            build = partial(make_rectangle, *self.dims)
        elif kind == "aztec":
            self.order = self._size(rest)
            cells = 2 * max(self.order, 0) * (self.order + 1)
            build = partial(make_aztec, self.order)
        elif kind == "holed-square":
            side = self._size(rest)
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
            # a count this long comes from a spec as long: print neither
            raise ResourceLimitError(
                f"shape {text!r} has {cells} cells, cap is {MAX_SHAPE_CELLS}"
                if cells < 10 ** 40 else
                f"{kind} shape has more cells than the cap of "
                f"{MAX_SHAPE_CELLS}")
        self.region = build()

    def _size(self, field: str) -> int:
        size = _int(field, f"bad {self.kind} shape spec; a size")
        if size is None:
            raise ValueError(f"bad shape spec {self.text!r}; its sizes "
                             "must be integers")
        return size

    def closed_form_count(self) -> int:
        if self.kind in ("rect", "square"):
            return _lib.count_rectangle_closed_form(*self.dims)
        if self.kind == "aztec":
            return _lib.count_aztec_closed_form(self.order)
        raise ValueError(f"no closed-form count for shape {self.text!r}")

    def closed_form_diameter(self) -> int:
        if self.kind in ("rect", "square"):
            return _lib.diameter_rectangle_closed(*sorted(self.dims)[::-1])
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
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _json_line(data) -> str:
    """The data as one line of JSON text, newline included."""
    import json

    return json.dumps(data) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_tiling(path: str, region: Region):
    tiling = _lib.tiling_from_json(_read_json(path))
    if not _lib.is_valid_tiling(region, tiling):
        raise ValueError(f"{path} is not a valid tiling of the region")
    return tiling


def _emit(args, result, rows: list[list]) -> None:
    # every input is read by now: lift the limit on an int's digits as
    # text, which bounds their parsing, so counts print at any length
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.json:
            sys.stdout.write(_json_line({"command": args.command,
                                         "result": result}))
        else:
            for row in rows:
                print(" ".join(map(str, row)))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _agree(values: dict) -> int:
    """0 when the methods gave one value, else 1, printing the values."""
    if len(set(values.values())) > 1:
        print(f"error: methods disagree: {values}", file=sys.stderr)
        return EXIT_DISAGREE
    return 0


def cmd_count(args, shape: ShapeSpec) -> int:
    exact = _lib.count_tilings(shape.region)
    result = {"count": exact}
    if args.closed_form:
        result["closed_form"] = shape.closed_form_count()
    _emit(args, result, [[value] for value in result.values()])
    code = _agree(result)
    if not code and exact == 0:
        print("warning: region is untileable", file=sys.stderr)
        return EXIT_UNTILEABLE
    return code


def _values(method: str, routes) -> dict:
    """The value of each route run, by name.  A route is (name, thunk,
    refusal): named alone it raises its refusal; `all` runs every route
    in order and skips one that raises its own refusal."""
    values = {}
    for name, route, refusal in routes:
        if method in (name, "all"):
            try:
                values[name] = route()
            except refusal:
                if method == name:
                    raise
    return values


def cmd_distance(args, shape: ShapeSpec) -> int:
    region = shape.region
    t1 = _load_tiling(args.t1, region)
    t2 = _load_tiling(args.t2, region)
    path = cache(lambda: _lib.geodesic(region, t1, t2))
    emit = args.emit_path is not None
    values = _values(args.method, (
        ("height", (lambda: len(path())) if emit  # the height distance
         else lambda: _lib.distance_height(region, t1, t2),
         () if emit else UnsupportedRegionError),  # a path needs heights
        ("cycles", lambda: _lib.distance_cycles(region, t1, t2), ()),
        ("bfs", lambda: _lib.distance_bfs(region, t1, t2, args.budget), ())))
    if emit:
        _write(args.emit_path, _json_line({"flips": path()}))  # [x, y] each
    _emit(args, values, [["unreachable" if values[k] is None else values[k]
                          for k in sorted(values)]])
    if None in values.values():
        print("error: tilings are not flip-connected", file=sys.stderr)
        return EXIT_DISAGREE
    return _agree(values)


def cmd_diameter(args, shape: ShapeSpec) -> int:
    region = shape.region
    if not _lib.is_tileable(region):
        raise UntileableError("region is untileable")
    values = _values(args.method, (
        ("lattice", lambda: _lib.diameter_lattice(region),
         UnsupportedRegionError),  # on a hole
        ("closed", shape.closed_form_diameter, ValueError),  # none known
        ("bfs", lambda: _lib.diameter_of_graph(
            _lib.build_flip_graph(region, args.budget)), ()),
        ("levels", lambda: _lib.diameter_levels(region), ())))
    report = values.get("bfs")
    if report is not None:  # its value, in its place among the methods
        values["bfs"] = report.value
    diameter = next(iter(values.values()))  # exact unless levels alone
    result = {"diameter": diameter, "method": args.method}
    if len(values) > 1:
        result["methods"] = values
    if report is not None:
        result["realizers"] = list(map(_lib.tiling_to_json, report.realizers))
    _emit(args, result, [[values[k] for k in sorted(values)]])
    code = _agree({k: v for k, v in values.items() if k != "levels"})
    if not code and values.get("levels", diameter) < diameter:
        print(f"error: level sum {values['levels']} is below the diameter "
              f"{diameter}", file=sys.stderr)
        return EXIT_DISAGREE
    return code


def _tileable_graph(region: Region, budget: int):
    graph = _lib.build_flip_graph(region, budget)
    if not len(graph):
        raise UntileableError("region is untileable")
    return graph


def cmd_components(args, shape: ShapeSpec) -> int:
    region = shape.region
    if region.bases is not None:
        # a region with no hole has one flip component (Thurston 1990),
        # in pieces a product of such ones: it holds every tiling
        total = _lib.count_tilings(region)
        if not total:
            raise UntileableError("region is untileable")
        sizes = [total]
    else:
        graph = _tileable_graph(region, args.budget)
        sizes = [len(c) for c in _lib.connected_components(graph)]
    _emit(args, {"components": len(sizes), "sizes": sizes},
          [[len(sizes)], sizes])
    return 0


def cmd_render(args, shape: ShapeSpec) -> int:
    region = shape.region
    t1 = _load_tiling(args.t1, region)
    t2 = _load_tiling(args.t2, region) if args.t2 else None
    _write(args.out, _lib.render(region, args.mode, t1, t2, args.cell_size))
    _emit(args, {"written": args.out}, [])
    return 0


def cmd_extremes(args, shape: ShapeSpec) -> int:
    region = shape.region
    labels = _lib.extremal_heights(region)
    paths = (f"{args.out}.tmin.json", f"{args.out}.tmax.json")
    for path, h in zip(paths, labels):  # one tiling held at a time
        tiling = _lib.tiling_from_height(region, h)
        _write(path, _json_line(_lib.tiling_to_json(tiling)))
    spread = _lib.label_distance(*labels)
    _emit(args, {"tmin": paths[0], "tmax": paths[1], "distance": spread},
          [[spread]])
    return 0


def cmd_export(args, shape: ShapeSpec) -> int:
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
        _write(args.out, payload)
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
        ("--method", {"choices": ["lattice", "bfs", "levels", "closed",
                                  "all"], "default": "lattice"}),
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
        def print_help(self, file=None):  # argparse's own swallows OSError
            (file or sys.stdout).write(self.format_help())

        def _get_value(self, action, arg_string):
            if action.type is int:  # argparse's message echoes the value
                _int(arg_string, f"argument {action.option_strings[0]}")
            return super()._get_value(action, arg_string)

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
    try:
        try:
            args = _parse(argv)
            if args is None:
                try:
                    args = _build_parser().parse_args(argv)
                except SystemExit as exc:
                    # 0 after help; 2 on a usage error, which exits 3
                    # here, as this CLI keeps 2 for untileable regions
                    return EXIT_BAD_INPUT if exc.code else 0
            return args.func(args, ShapeSpec(args.shape))
        finally:
            # buffered output, help text included, is written here, where
            # a failure maps to exit 5 like any other write
            sys.stdout.flush()
    except (DominoError, MemoryError, ValueError, OSError) as exc:
        print("error: out of memory" if isinstance(exc, MemoryError)
              else f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # what stdout holds cannot be written: the interpreter's
            # exit-time flush would fail again and exit 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return next(code for types, code in _EXIT_CODES
                    if isinstance(exc, types))


if __name__ == "__main__":
    import gc

    code = main()
    # the run is over: the collections at interpreter shutdown skip
    # frozen objects, so they no longer walk the whole start-up heap
    # (about 6 ms a run)
    gc.freeze()
    sys.exit(code)

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

import argparse
import json
import sys
from functools import partial

from .cycles import cycle_collection, cycles_to_json, distance_cycles
from .diameter import (diameter_aztec_closed, diameter_levels,
                       diameter_of_graph, diameter_rectangle_closed)
from .errors import (DominoError, ResourceLimitError, UnsupportedRegionError,
                     UntileableError)
from .filling import export_voxels, filling_shape, voxels_to_json
from .flipgraph import (DEFAULT_NODE_BUDGET, FlipGraph, bfs_distance,
                        build_flip_graph, connected_components, export_graph)
from .height import distance_height, extremal_tilings, geodesic
from .render import RenderOptions, render
from .surface import (Region, make_aztec, make_holed_square, make_rectangle,
                      region_from_json)
from .tiling import (count_aztec_closed_form, count_rectangle_closed_form,
                     count_tilings, is_tileable, is_valid_tiling,
                     tiling_from_json, tiling_to_json)

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
            with open(rest, "r", encoding="utf-8") as handle:
                data = json.load(handle)
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
            return count_rectangle_closed_form(*self.dims)
        if self.kind == "aztec":
            return count_aztec_closed_form(self.order)
        raise ValueError(f"no closed-form count for shape {self.text!r}")

    def closed_form_diameter(self) -> int:
        if self.kind in ("rect", "square"):
            m, n = sorted(self.dims, reverse=True)
            return diameter_rectangle_closed(m, n)
        if self.kind == "aztec":
            return diameter_aztec_closed(self.order)
        raise ValueError(f"no closed-form diameter for shape {self.text!r}")


def _load_tiling(path: str, region: Region):
    with open(path, "r", encoding="utf-8") as handle:
        tiling = tiling_from_json(json.load(handle))
    if not is_valid_tiling(region, tiling):
        raise ValueError(f"{path} is not a valid tiling of the region")
    return tiling


def _emit(args, command: str, result, plain_lines: list[str]) -> None:
    if args.json:
        print(json.dumps({"command": command, "result": result}))
    else:
        for line in plain_lines:
            print(line)


def cmd_count(args) -> int:
    shape = ShapeSpec(args.shape)
    exact = count_tilings(shape.region)
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
        values["height"] = distance_height(region, t1, t2)
    if args.method in ("cycles", "all"):
        values["cycles"] = distance_cycles(region, t1, t2)
    if args.method in ("bfs", "all"):
        graph = build_flip_graph(region, args.budget)
        values["bfs"] = bfs_distance(graph, graph.node_index(t1),
                                     graph.node_index(t2))
    if args.emit_path is not None:
        path = geodesic(region, t1, t2)
        with open(args.emit_path, "w", encoding="utf-8") as handle:
            json.dump({"flips": [[x, y] for x, y in path]}, handle)
            handle.write("\n")
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
    if not is_tileable(region):
        print("error: region is untileable", file=sys.stderr)
        return EXIT_UNTILEABLE
    values: dict[str, int] = {}
    realizers = None
    if args.method in ("levels", "all"):
        values["levels"] = diameter_levels(region)
    if args.method in ("closed", "all"):
        try:
            values["closed"] = shape.closed_form_diameter()
        except ValueError:
            # shapes without a closed form only fail hard when asked for it
            if args.method == "closed":
                raise
    if args.method in ("bfs", "all"):
        report = diameter_of_graph(build_flip_graph(region, args.budget))
        values["bfs"] = report.value
        realizers = [tiling_to_json(t) for t in report.realizers]
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
    graph = build_flip_graph(region, budget)
    if not len(graph):
        raise UntileableError("region is untileable")
    return graph


def cmd_components(args) -> int:
    shape = ShapeSpec(args.shape)
    graph = _tileable_graph(shape.region, args.budget)
    components = connected_components(graph)
    sizes = [len(c) for c in components]
    _emit(args, "components", {"components": len(components), "sizes": sizes},
          [str(len(components)), " ".join(str(s) for s in sizes)])
    return 0


def cmd_render(args) -> int:
    shape = ShapeSpec(args.shape)
    region = shape.region
    options = RenderOptions(mode=args.mode, cell_size=args.cell_size)
    t1 = _load_tiling(args.t1, region)
    t2 = _load_tiling(args.t2, region) if args.t2 else None
    svg = render(region, options, t1, t2)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(svg)
    _emit(args, "render", {"written": args.out}, [])
    return 0


def cmd_extremes(args) -> int:
    shape = ShapeSpec(args.shape)
    region = shape.region
    tmin, tmax = extremal_tilings(region)
    paths = (f"{args.out}.tmin.json", f"{args.out}.tmax.json")
    for path, tiling in zip(paths, (tmin, tmax)):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tiling_to_json(tiling), handle)
            handle.write("\n")
    spread = distance_height(region, tmin, tmax)
    _emit(args, "extremes",
          {"tmin": paths[0], "tmax": paths[1], "distance": spread},
          [str(spread)])
    return 0


def cmd_export(args) -> int:
    shape = ShapeSpec(args.shape)
    region = shape.region
    if args.what == "graph":
        text = export_graph(_tileable_graph(region, args.budget), args.format)
        payload = text
    else:
        t1 = _load_tiling(args.t1, region)
        t2 = _load_tiling(args.t2, region)
        if args.what == "cycles":
            data = cycles_to_json(cycle_collection(region, t1, t2))
        else:
            data = voxels_to_json(export_voxels(filling_shape(region, t1, t2)))
        payload = json.dumps(data) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this CLI reserves 2 for
    # untileable regions, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dominoflip",
                     description="Domino tilings: counts, flip distances, "
                                 "diameters, and SVG pictures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--shape", required=True,
                       help="rect:MxN | square:N | aztec:N | holed-square:K | file:PATH")
        p.add_argument("--json", action="store_true",
                       help="wrap the answer in a JSON envelope")
        p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                       help="max flip-graph nodes for graph-based methods")

    p = sub.add_parser("count", help="number of tilings")
    common(p)
    p.add_argument("--closed-form", action="store_true",
                   help="also evaluate the rectangle/aztec closed form")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("distance", help="flip distance between two tilings")
    common(p)
    p.add_argument("--t1", required=True, help="first tiling JSON file")
    p.add_argument("--t2", required=True, help="second tiling JSON file")
    p.add_argument("--method", choices=["bfs", "height", "cycles", "all"],
                   default="height")
    p.add_argument("--emit-path", metavar="FILE",
                   help="write the geodesic flip list as JSON")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("diameter", help="diameter of the flip graph")
    common(p)
    p.add_argument("--method", choices=["bfs", "levels", "closed", "all"],
                   default="levels")
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("components", help="connected components of the flip graph")
    common(p)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("render", help="draw a tiling, cycle collection, or filling shape")
    common(p)
    p.add_argument("--mode", choices=["tiling", "cycles", "filling"],
                   default="tiling")
    p.add_argument("--t1", required=True)
    p.add_argument("--t2")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--cell-size", type=int, default=24)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("extremes", help="write the two lattice-extreme tilings")
    common(p)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_extremes)

    p = sub.add_parser("export", help="emit flip graph, cycles, or voxels")
    common(p)
    p.add_argument("--what", choices=["graph", "cycles", "voxels"],
                   default="graph")
    p.add_argument("--format", choices=["dot", "json"], default="dot",
                   help="graph export format")
    p.add_argument("--t1")
    p.add_argument("--t2")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
    except (ValueError, json.JSONDecodeError, FileNotFoundError) as exc:
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

"""Traced replay of one CLI job, and the per-layer metrics built from it.

Run as a script, this is the traced child:

    python3 perfbench/tracer.py SPANS.json <dominoflip arguments>

It imports `dominoflip.cli`, wraps in spans the library names the CLI
imports, counts calls to the flip and BFS primitives that the library
modules import from each other, calls `dominoflip.cli.main(argv)` and,
when it returns, writes the spans to SPANS.json.  The job's stdout,
files and exit code are the CLI's own.

Imported, it gives `layer_metrics`, which the benchmark applies to the
span files of one traced pass.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

# Names `dominoflip.cli` imports, by the layer that owns them.
SPANNED = {
    "surface": ("ShapeSpec",),
    "tiling": ("count_tilings", "tiling_from_json", "is_valid_tiling",
               "tiling_to_json"),
    "flipgraph": ("build_flip_graph", "bfs_distance", "connected_components",
                  "export_graph"),
    "diameter": ("diameter_of_graph", "diameter_levels"),
    "height": ("distance_height", "geodesic", "extremal_tilings"),
    "cycles": ("distance_cycles", "cycle_collection"),
    "filling": ("filling_shape", "export_voxels"),
    "render": ("render",),
}
LAYER_OF = {name: layer for layer, names in SPANNED.items() for name in names}
LAYERS = ("cli",) + tuple(SPANNED)

# (module, name) pairs counted, not timed: the primitives library modules
# call thousands of times per job.  `available_flips` in height is one
# scan of a tiling for flippable blocks.
COUNTED = (("diameter", "bfs_distances"), ("flipgraph", "apply_flip"),
           ("height", "apply_flip"), ("height", "available_flips"))

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss() -> int:
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE


def _info(name: str, result) -> dict:
    """Work counts read off a spanned call's result."""
    if name == "ShapeSpec":
        return {"cells": len(result.region.cells)}
    if name == "build_flip_graph":
        return {"nodes": len(result.nodes),
                "edges": sum(map(len, result.adjacency)) // 2}
    if name in ("cycle_collection", "export_voxels", "geodesic", "render"):
        return {"size": len(result)}
    return {}


class CpuCapExceeded(BaseException):
    """Raised on SIGXCPU so the spans of a capped job still get written."""


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"name": name, "parent": parent,
                           "start": time.perf_counter(), "end": None,
                           "error": None, "info": {}})
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int, error: BaseException | None = None) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        if error is not None:
            span["error"] = type(error).__name__
        self.stack.pop()

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            info = self.spans[index]["info"]
            if name == "count_tilings":
                # cells attempted, so a count stopped at its cap still shows
                info["cells"] = len(args[0].cells)
            before = _rss() if name == "build_flip_graph" else 0
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(index, exc)
                raise
            self.close(index)
            if before:
                info["rss_growth"] = _rss() - before
            info.update(_info(name, result))
            return result
        return wrapper

    def counter(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, cli) -> None:
        modules = sys.modules
        for name in LAYER_OF:
            if hasattr(cli, name):
                setattr(cli, name, self.span(name, getattr(cli, name)))
        for module, name in COUNTED:
            mod = modules.get(f"dominoflip.{module}")
            if mod is not None and hasattr(mod, name):
                setattr(mod, name,
                        self.counter(f"{module}.{name}", getattr(mod, name)))


def _raise_cap(signum, frame):
    raise CpuCapExceeded()


def main(argv: list[str]) -> int:
    spans_path, job_argv = argv[0], argv[1:]
    tracer = Tracer()
    signal.signal(signal.SIGXCPU, _raise_cap)
    root = tracer.open("cli")
    capped = False
    try:
        # the import is part of the job, as it is for an untraced child
        from dominoflip import cli
        tracer.install(cli)
        code = cli.main(job_argv)
        tracer.close(root)
    except CpuCapExceeded as exc:
        tracer.close(root, exc)
        capped = True
    except BaseException as exc:
        tracer.close(root, exc)
        raise
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)
    if capped:
        # die the way an untraced child does at its CPU cap
        signal.signal(signal.SIGXCPU, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGXCPU)
        time.sleep(60)
    return code


def _self_times(spans: list[dict]) -> list[float]:
    """Duration minus the time child spans cover.  Spans in one process
    nest and never overlap, so children's durations simply add up."""
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Each record holds a job's `spans` file content (or None when the
    child left none), its wall time `wall_s`, and `useful_flips`: the
    height-raising or -lowering flips its answer implies.
    """
    busy = dict.fromkeys(LAYERS, 0.0)
    total = dict.fromkeys(LAYER_OF, 0.0)
    calls = dict.fromkeys(total, 0)
    info: dict[str, int] = {}
    counts: dict[str, int] = {}
    errors = {"tiling": 0, "flipgraph": 0, "refusals": 0}
    useful = 0
    for record in records:
        useful += record["useful_flips"]
        trace = record["spans"]
        if not trace:
            continue
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        spans = trace["spans"]
        if any(s["end"] is None for s in spans):
            continue
        for span, own in zip(spans, _self_times(spans)):
            name = span["name"]
            layer = LAYER_OF.get(name, "cli")
            busy[layer] += own
            if name == "cli":
                continue
            total[name] += span["end"] - span["start"]
            calls[name] += 1
            for key, value in span["info"].items():
                info[f"{name}.{key}"] = info.get(f"{name}.{key}", 0) + value
            if span["error"]:
                if layer in ("tiling", "flipgraph"):
                    errors[layer] += 1
                if span["error"] == "ResourceLimitError":
                    errors["refusals"] += 1
    traced = sum(r["wall_s"] for r in records)
    build_s = total["build_flip_graph"]
    nodes = info.get("build_flip_graph.nodes", 0)
    walk_s = total["extremal_tilings"] + total["geodesic"]
    height_flips = counts.get("height.apply_flip", 0)
    metrics = {
        "cli.self_s": busy["cli"],
        "cli.jobs": len(records),
        "surface.shape_s": total["ShapeSpec"],
        "surface.cells": info.get("ShapeSpec.cells", 0),
        "tiling.count_s": total["count_tilings"],
        "tiling.count_calls": calls["count_tilings"],
        "tiling.count_cells": info.get("count_tilings.cells", 0),
        "tiling.io_s": (total["tiling_from_json"] + total["is_valid_tiling"]
                        + total["tiling_to_json"]),
        "tiling.errors": errors["tiling"],
        "flipgraph.build_s": build_s,
        "flipgraph.nodes": nodes,
        "flipgraph.edges": info.get("build_flip_graph.edges", 0),
        "flipgraph.nodes_per_s": nodes / build_s if build_s else 0.0,
        "flipgraph.bytes_per_node": (info.get("build_flip_graph.rss_growth", 0)
                                     / nodes if nodes else 0.0),
        "flipgraph.flip_calls": counts.get("flipgraph.apply_flip", 0),
        "flipgraph.query_s": (total["bfs_distance"]
                              + total["connected_components"]
                              + total["export_graph"]),
        "flipgraph.refusals": errors["refusals"],
        "flipgraph.errors": errors["flipgraph"],
        "diameter.search_s": total["diameter_of_graph"],
        "diameter.bfs_runs": counts.get("diameter.bfs_distances", 0),
        "diameter.levels_s": total["diameter_levels"],
        "height.extremes_s": total["extremal_tilings"],
        "height.geodesic_s": total["geodesic"],
        "height.distance_s": total["distance_height"],
        "height.flip_calls": height_flips,
        "height.scans": counts.get("height.available_flips", 0),
        "height.flip_yield": useful / height_flips if height_flips else 0.0,
        "height.flips_per_s": useful / walk_s if walk_s else 0.0,
        "cycles.distance_s": total["distance_cycles"],
        "cycles.collection_s": total["cycle_collection"],
        "cycles.cycles": info.get("cycle_collection.size", 0),
        "filling.shape_s": total["filling_shape"],
        "filling.voxels": info.get("export_voxels.size", 0),
        "render.svg_s": total["render"],
        "render.svg_bytes": info.get("render.size", 0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = busy[layer]
        metrics[f"{layer}.share"] = busy[layer] / traced if traced else 0.0
    metrics["trace.total_s"] = traced
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Start-up: the package namespace and the CLI load modules on first use.

A command-line job imports only the modules its command calls, yet every
public name of the package, and every library name the commands call on
`dominoflip.cli`, stays where it was.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dominoflip
import dominoflip.cli
from dominoflip.cli import main

from conftest import FIXTURES, PACKAGE_ROOT

# `dominoflip.__all__` when the package imported every module up front,
# plus `diameter_lattice`, `distance_bfs` and the `counting` module,
# added since, less `RingDecomposition`, `is_saturnian` and
# `ring_decomposition`, removed with the ring-cycle certificate, and
# `NumericInstabilityError`, removed with the float closed form
PUBLIC_NAMES = [
    "Cell", "CycleCollection", "DEFAULT_NODE_BUDGET", "DiameterReport",
    "Domino", "DominoError", "FillingShape", "FlipGraph",
    "InvalidHeightError", "InvalidMoveError",
    "OrientedCycle", "Region", "ResourceLimitError", "Tiling",
    "UnsupportedRegionError", "UntileableError", "ValueMap",
    "Vertex", "apply_flip", "available_flips", "base_vertex", "bfs_distance",
    "bfs_distances", "build_flip_graph", "connected_components",
    "count_aztec_closed_form", "count_rectangle_closed_form",
    "count_tilings", "counting", "cycle_collection", "cycles", "diameter",
    "diameter_aztec_closed", "diameter_bfs", "diameter_lattice",
    "diameter_levels", "diameter_of_graph", "diameter_rectangle_closed",
    "diameter_square_closed", "distance_bfs", "distance_cycles",
    "distance_height", "domino",
    "enumerate_tilings", "errors", "export_graph", "export_voxels",
    "extremal_tilings", "filling", "filling_shape", "first_tiling",
    "flipgraph", "geodesic", "height", "height_function", "is_black",
    "is_simply_connected", "is_valid_tiling", "iter_tilings",
    "join", "make_aztec", "make_from_cells", "make_holed_square",
    "make_rectangle", "meet", "region_from_json", "region_to_json",
    "surface", "tiling", "tiling_from_height",
    "tiling_from_json", "tiling_to_json", "value_map", "volumes",
]

# the names the benchmark's tracer wraps on `dominoflip.cli`
TRACED_NAMES = [
    "ShapeSpec", "count_tilings", "tiling_from_json", "is_valid_tiling",
    "tiling_to_json", "build_flip_graph", "bfs_distance",
    "connected_components", "export_graph", "diameter_of_graph",
    "diameter_levels", "distance_height", "geodesic", "extremal_tilings",
    "distance_cycles", "cycle_collection", "filling_shape", "export_voxels",
    "render",
]

BRICK = str(FIXTURES / "brick_6x2.json")
STAGGERED = str(FIXTURES / "staggered_6x2.json")

GRAPH_AND_PAIR_MODULES = {f"dominoflip.{name}" for name in (
    "flipgraph", "diameter", "height", "cycles", "filling", "render")}

# runs the CLI as `python -m dominoflip.cli` does, then lists sys.modules
MAIN_PROBE = """
import runpy, sys
try:
    runpy.run_module("dominoflip.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(" ".join(sorted(sys.modules)))
"""

# runs the CLI as MAIN_PROBE does, then prints how many objects the
# garbage collector holds frozen
FREEZE_PROBE = """
import gc, runpy
try:
    runpy.run_module("dominoflip.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(gc.get_freeze_count())
"""

# runs the CLI in a bare namespace: without alter_sys, runpy registers
# no module for the code it runs
BARE_PROBE = """
import runpy
try:
    runpy.run_module("dominoflip.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def python(*args, cwd=None):
    """`python *args` with the package on the path and, as in the
    benchmark, no bytecode written."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=PACKAGE_ROOT + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          timeout=60, cwd=cwd, env=env)


def run_probe(*argv):
    """A CLI run's stdout, and the modules loaded by its end."""
    done = python("-c", MAIN_PROBE, *argv)
    assert done.returncode == 0, done.stderr.decode()
    *out, loaded = done.stdout.decode().splitlines()
    return out, set(loaded.split())


def modules_loaded_by(*argv):
    return run_probe(*argv)[1]


class TestImportSet:
    def test_count_loads_no_graph_or_pair_module(self):
        loaded = modules_loaded_by("count", "--shape", "rect:2x1")
        assert "dataclasses" not in loaded
        assert not loaded & {"json", "dominoflip.tiling"}
        assert not loaded & GRAPH_AND_PAIR_MODULES

    def test_count_loads_no_argparse(self):
        # argparse reads only help, usage errors and argv the option
        # table's own reader leaves to it
        loaded = modules_loaded_by("count", "--shape", "rect:2x1")
        assert not loaded & {"argparse", "gettext", "locale"}

    @pytest.mark.parametrize("argv", [
        ["distance", "--method", "height"],
        ["distance", "--method", "cycles"],
        ["render", "--mode", "tiling", "--out", "tiling.svg"],
        ["export", "--what", "voxels"],
    ], ids=lambda argv: "-".join(argv[:3:2]))
    def test_pair_commands_load_no_counting(self, argv, tmp_path):
        done = python("-c", MAIN_PROBE, *argv, "--shape", "rect:6x2",
                      "--t1", BRICK, "--t2", STAGGERED, cwd=tmp_path)
        assert done.returncode == 0, done.stderr.decode()
        loaded = set(done.stdout.decode().splitlines()[-1].split())
        assert "dominoflip.tiling" in loaded
        assert "dominoflip.counting" not in loaded
        if argv[0] == "render":
            assert not loaded & {"dominoflip.cycles", "dominoflip.filling"}
        if "cycles" in argv or "voxels" in argv:
            # the cycles route needs neither heights nor a flip graph
            assert not loaded & {"dominoflip.height", "dominoflip.flipgraph",
                                 "dominoflip.diameter"}

    @pytest.mark.parametrize("argv,expected", [
        (["--shape", f"file:{FIXTURES / 'region_4x3.json'}"], ["11"]),
        (["--shape", "aztec:2", "--json"],
         ['{"command": "count", "result": {"count": 8}}']),
    ], ids=["file", "json"])
    def test_count_loads_json_when_it_reads_or_writes_it(self, argv,
                                                          expected):
        out, loaded = run_probe("count", *argv)
        assert out == expected
        assert "json" in loaded
        assert "dominoflip.tiling" not in loaded

    def test_levels_diameter_loads_only_its_own_modules(self):
        loaded = modules_loaded_by("diameter", "--method", "levels",
                                   "--shape", "rect:4x4")
        assert "dominoflip.diameter" in loaded
        assert not loaded & {"json", "dominoflip.height", "dominoflip.cycles",
                             "dominoflip.filling", "dominoflip.render",
                             "dominoflip.flipgraph"}

    @pytest.mark.parametrize("method", ["levels", "closed"])
    def test_levels_and_closed_load_no_flip_graph(self, method):
        # `diameter` imports the graph code on its first search
        loaded = modules_loaded_by("diameter", "--method", method,
                                   "--shape", "rect:12x12")
        assert "dominoflip.diameter" in loaded
        assert "dominoflip.flipgraph" not in loaded

    def test_default_diameter_loads_no_counting_or_flip_graph(self):
        # the lattice spread reads heights, neither a count nor a graph
        loaded = modules_loaded_by("diameter", "--shape", "rect:12x12")
        assert "dominoflip.height" in loaded
        assert not loaded & {"dominoflip.counting", "dominoflip.flipgraph"}

    @pytest.mark.parametrize("argv", [
        ["diameter", "--method", "levels", "--shape", "rect:12x12"],
        ["extremes", "--shape", "square:16", "--out", "x"],
    ], ids=["levels", "extremes"])
    def test_tileability_loads_no_counting(self, argv, tmp_path):
        # levels checks by a matching in `tiling`, extremes by its walk
        # round the boundary; only graph searches and counts load
        # `counting`
        done = python("-c", MAIN_PROBE, *argv, cwd=tmp_path)
        assert done.returncode == 0, done.stderr.decode()
        loaded = set(done.stdout.decode().splitlines()[-1].split())
        assert "dominoflip.tiling" in loaded
        assert "dominoflip.counting" not in loaded

    def test_package_import_loads_no_module(self):
        done = python("-c", "import sys, dominoflip\n"
                            "print(*sorted(sys.modules))\n"
                            "print(*[n for n in dir(dominoflip)"
                            " if not n.startswith('_')])")
        assert done.returncode == 0, done.stderr.decode()
        loaded, listed = done.stdout.decode().splitlines()
        assert "dominoflip" in loaded.split()
        assert not [m for m in loaded.split() if m.startswith("dominoflip.")]
        assert listed.split() == PUBLIC_NAMES


class TestNamespace:
    def test_all_keeps_every_public_name(self):
        assert dominoflip.__all__ == PUBLIC_NAMES

    def test_star_import(self):
        names = {}
        exec("from dominoflip import *", names)
        del names["__builtins__"]
        assert sorted(names) == PUBLIC_NAMES

    def test_names_are_their_modules_objects(self):
        assert dominoflip.build_flip_graph is \
            dominoflip.flipgraph.build_flip_graph
        assert dominoflip.DEFAULT_NODE_BUDGET == 2_000_000
        assert dominoflip.flipgraph.DEFAULT_NODE_BUDGET == 2_000_000
        assert dominoflip.surface is sys.modules["dominoflip.surface"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            dominoflip.no_such_name
        assert not hasattr(dominoflip.cli, "no_such_name")


class TestCliNames:
    @pytest.mark.parametrize("name", TRACED_NAMES)
    def test_traced_name_is_an_attribute(self, name):
        assert hasattr(dominoflip.cli, name)

    def test_every_name_the_commands_look_up_resolves(self):
        source = Path(dominoflip.cli.__file__).read_text(encoding="utf-8")
        looked_up = set(re.findall(r"\b_lib\.(\w+)", source))
        assert looked_up >= {"build_flip_graph", "render", "geodesic"}
        for name in looked_up:
            assert hasattr(dominoflip.cli, name), name

    def test_patched_name_is_the_one_called(self, capsys, monkeypatch):
        real = dominoflip.cli.build_flip_graph
        built = []

        def spy(region, budget):
            built.append(len(region.cells))
            return real(region, budget)

        monkeypatch.setattr(dominoflip.cli, "build_flip_graph", spy)
        # a region with a hole: `components` answers a simply connected
        # one without building its graph
        assert main(["components", "--shape", "holed-square:3"]) == 0
        assert capsys.readouterr().out == "2\n1 1\n"
        assert built == [8]

    def test_wrapping_in_a_fresh_process(self):
        # wraps names the way the benchmark's tracer does: `hasattr` and
        # `setattr` on the CLI module, then a counter on a primitive that
        # a library module calls, found through sys.modules
        code = """
import sys
from dominoflip import cli
calls = []
def wrap(name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper
for name in ("build_flip_graph", "diameter_of_graph", "geodesic"):
    if hasattr(cli, name):
        setattr(cli, name, wrap(name, getattr(cli, name)))
diameter = sys.modules["dominoflip.diameter"]
diameter.bfs_distances = wrap("bfs_distances", diameter.bfs_distances)
assert cli.main(["diameter", "--method", "bfs", "--shape", "rect:4x4"]) == 0
print(*calls)
"""
        done = python("-c", code)
        assert done.returncode == 0, done.stderr.decode()
        answer, calls = done.stdout.decode().splitlines()
        assert answer == "10"
        assert calls.split()[:2] == ["build_flip_graph", "diameter_of_graph"]
        assert set(calls.split()[2:]) == {"bfs_distances"}


@pytest.mark.parametrize("argv", [
    ["diameter", "--method", "levels", "--shape", "rect:4x4"],
    ["distance", "--shape", "rect:6x2", "--t1", BRICK, "--t2", STAGGERED,
     "--method", "all"],
], ids=lambda argv: argv[0])
def test_run_in_a_bare_namespace_matches_main(argv, capsys):
    """Lazily bound names resolve when runpy runs the CLI's code in a
    namespace that is not a registered module."""
    done = python("-c", BARE_PROBE, *argv)
    assert done.returncode == 0, done.stderr.decode()
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("argv", [
    ["count", "--shape", "rect:4x4", "--closed-form"],
    ["distance", "--shape", "rect:6x2", "--t1", BRICK, "--t2", STAGGERED,
     "--method", "all", "--emit-path", "path.json"],
    ["diameter", "--shape", "rect:4x3", "--method", "all", "--json"],
    ["components", "--shape", "holed-square:3"],
    ["render", "--shape", "rect:6x2", "--mode", "cycles", "--t1", BRICK,
     "--t2", STAGGERED, "--out", "pair.svg", "--json"],
    ["extremes", "--shape", "aztec:2", "--out", "az2"],
    ["export", "--shape", "rect:6x2", "--what", "voxels", "--t1", BRICK,
     "--t2", STAGGERED],
], ids=lambda argv: argv[0])
def test_module_run_matches_main(argv, capsys, monkeypatch, tmp_path):
    """`python -m dominoflip.cli` gives the exit code, stdout bytes and
    files of an in-process `main` call."""
    (tmp_path / "module").mkdir()
    (tmp_path / "main").mkdir()
    done = python("-m", "dominoflip.cli", *argv, cwd=tmp_path / "module")
    monkeypatch.chdir(tmp_path / "main")
    code = main(argv)
    out = capsys.readouterr().out.encode("utf-8")
    assert (done.returncode, done.stdout) == (code, out)
    assert code == 0 and out
    written = {p.name: p.read_bytes() for p in (tmp_path / "main").iterdir()}
    assert written == {p.name: p.read_bytes()
                       for p in (tmp_path / "module").iterdir()}


class TestExit:
    """A module run freezes the heap after `main` returns, so the
    collections at interpreter shutdown skip it; nothing else changes."""

    def test_module_run_freezes_the_heap(self):
        done = python("-c", FREEZE_PROBE, "count", "--shape", "rect:2x1")
        assert done.returncode == 0, done.stderr.decode()
        answer, frozen = done.stdout.decode().splitlines()
        assert answer == "1"
        assert int(frozen) > 0

    def test_profiler_still_reports(self):
        done = python("-m", "cProfile", "-m", "dominoflip.cli", "count",
                      "--shape", "rect:2x1")
        assert done.returncode == 0, done.stderr.decode()
        answer, *report = done.stdout.decode().splitlines()
        assert answer == "1"
        assert any("function calls" in line for line in report)

"""Fuzzing the command line in process.

Hypothesis draws argv from the CLI's grammar: every command with any
subset of its options, small, malformed and oversized shape specs,
out-of-range integers, and region and tiling files holding malformed
JSON.  Whatever it draws ends in one of the documented exit codes 0-5,
no exception leaves `main`, and each run ends promptly.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominoflip.cli import main

from conftest import FIXTURES

# wall time one drawn run may take; the slowest of them, a JSON export
# of square:6's 6,728-node flip graph, takes about half a second
EXAMPLE_SECONDS = 5

# files the runs read, written once into a shared directory
WRITTEN = {
    "mutilated_4x4.json": json.dumps({"cells": [
        [x, y] for x in range(4) for y in range(4)
        if (x, y) not in ((0, 0), (3, 3))]}),
    "rows_4x3.json": json.dumps({"dominoes": [
        [[x, y], [x + 1, y]] for x in (0, 2) for y in range(3)]}),
    "twice.json": '{"dominoes": [[[0,0],[1,0]],[[0,0],[1,0]]]}',
    "off_grid.json": '{"dominoes": [[[0,0],[5,5]]]}',
    "bool_cell.json": '{"cells": [[true, 0], [1, 0]]}',
    "no_cells.json": '{"cells": []}',
    "cells_not_a_list.json": '{"cells": 5, "dominoes": 5}',
    "empty.json": "",
    "truncated.json": '{"cells": [[0, 0], [1, ',
    "list.json": "[]",
    "null.json": "null",
    "number.json": "7",
    "nested.json": "[" * 100000 + "]" * 100000,
}
# a shape and two of its tilings, so that runs get past the input checks
SCENES = (("rect:6x2", "brick_6x2.json", "staggered_6x2.json"),
          ("rect:7x4", "pair_7x4_a.json", "pair_7x4_b.json"),
          ("file:region_4x3.json", "rows_4x3.json", "rows_4x3.json"))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Scenes with full paths; input paths, from good files to unreadable
    ones; and output paths, one writable and two not."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in WRITTEN.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "latin1.json").write_bytes(b'{"cells": [[0, 0]]} \xff')

    def path(name):
        return str((FIXTURES if (FIXTURES / name).exists() else root) / name)

    scenes = [(f"file:{path(shape[5:])}" if shape.startswith("file:")
               else shape, path(t1), path(t2)) for shape, t1, t2 in SCENES]
    inputs = [path(name) for scene in SCENES for name in scene[1:]]
    inputs += [path(name) for name in (*WRITTEN, "latin1.json",
                                       "region_4x3.json", "missing.json")]
    inputs.append(str(root))
    outputs = [str(root / "out"), str(root), str(root / "missing" / "out")]
    return scenes, inputs, outputs


OUT_OF_RANGE = st.sampled_from(
    ["-1", "0", "99999999999", "99999999999999999999", str(10 ** 400), "x",
     "", "1.5", "0x10", " 3"])
INTEGERS = st.one_of(st.integers(1, 40).map(str), OUT_OF_RANGE)
METHODS = {"distance": ["bfs", "height", "cycles", "all"],
           "diameter": ["bfs", "levels", "closed", "all"]}


def shapes(inputs):
    return st.one_of(
        st.builds("rect:{}x{}".format, st.integers(-1, 6), st.integers(-1, 6)),
        st.builds("square:{}".format, st.integers(-1, 6)),
        st.builds("aztec:{}".format, st.integers(-1, 4)),
        st.builds("holed-square:{}".format, st.integers(-1, 5)),
        st.builds("{}:{}".format,
                  st.sampled_from(["rect", "square", "aztec",
                                   "holed-square"]), OUT_OF_RANGE),
        # the shapes the fixture tilings cover, and specs the cell cap
        # refuses before building anything
        st.sampled_from(["rect:6x2", "rect:2x6", "rect:7x4", "rect:4x3",
                         "square:6000", "aztec:100000", "rect:1048577x1",
                         "rect:", "rect:3x", "rectangle:2x2", "square", ":",
                         "", "file:"]),
        st.sampled_from(inputs).map("file:{}".format),
    )


def choice(*values):
    return st.sampled_from([*values, "bogus"])


def prefer(value, others):
    """The value half the time, else a draw from the others."""
    return st.booleans().flatmap(
        lambda keep: st.just(value) if keep else others)


def options(command, scene, inputs, outputs):
    """Per option, its value strategy (None for a flag) and whether the
    command requires it.  The shape and the tilings are the scene's half
    the time."""
    shape, t1, t2 = scene
    path_out = prefer(outputs[0], st.sampled_from(outputs[1:]))
    found = {"--shape": (prefer(shape, shapes(inputs)), True),
             "--json": (None, False), "--budget": (INTEGERS, False)}
    if command == "count":
        found["--closed-form"] = (None, False)
    elif command in METHODS:
        found["--method"] = (choice(*METHODS[command]), False)
    if command in ("distance", "render", "export"):
        required = command != "export"
        found["--t1"] = (prefer(t1, st.sampled_from(inputs)), required)
        found["--t2"] = (prefer(t2, st.sampled_from(inputs)),
                         command == "distance")
    if command == "distance":
        found["--emit-path"] = (path_out, False)
    elif command == "render":
        found["--mode"] = (choice("tiling", "cycles", "filling"), False)
        found["--cell-size"] = (INTEGERS, False)
    elif command == "export":
        found["--what"] = (choice("graph", "cycles", "voxels"), False)
        found["--format"] = (choice("dot", "json"), False)
    if command in ("render", "extremes", "export"):
        found["--out"] = (path_out, command != "export")
    return found


@st.composite
def argvs(draw, scenes, inputs, outputs):
    command = draw(st.sampled_from(
        ["count", "distance", "diameter", "components", "render",
         "extremes", "export"]))
    scene = draw(st.sampled_from(scenes))
    words = []
    for flag, (values, required) in options(command, scene, inputs,
                                            outputs).items():
        # a required option is left out now and then, an optional one
        # half the time
        if draw(st.integers(0, 19)) < (19 if required else 10):
            words.append([flag] if values is None
                         else [flag, draw(values)])
    words = draw(st.permutations(words))
    argv = [command, *(word for pair in words for word in pair)]
    # now and then a stray word at the end, or no command at all
    stray = draw(st.sampled_from(
        [None] * 16 + ["--bogus", "--shape", "-h", "extra"]))
    if stray is not None:
        argv.append(stray)
    return draw(st.sampled_from([argv] * 9 + [argv[1:]]))


@settings(max_examples=300)
@given(data=st.data())
def test_every_argv_ends_in_a_documented_exit_code(files, data):
    argv = data.draw(argvs(*files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in range(6), (code, err.getvalue())
    assert elapsed < EXAMPLE_SECONDS

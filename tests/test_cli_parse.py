"""Reading argv: the option table's own reader and argparse.

`main` reads plain argv straight off the option table and hands every
other argv to argparse, which is built from the same table.  Both
readers give the same namespace wherever the table's reader answers, and
help and usage errors keep argparse's bytes and exit codes.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dominoflip.cli
from dominoflip.cli import _build_parser, _parse, main

from conftest import FIXTURES
from test_cli_fuzz import argvs, files  # noqa: F401 (a fixture)

BRICK = str(FIXTURES / "brick_6x2.json")
STAGGERED = str(FIXTURES / "staggered_6x2.json")

# Per file under fixtures/usage: the argv, the stream its text went to
# and the exit code.  Recorded from `python -m dominoflip.cli` with
# COLUMNS=80 on CPython 3.11, while argparse still read every argv.
USAGE = {
    "help": (["--help"], "out", 0),
    **{f"{command}-help": ([command, "--help"], "out", 0)
       for command in ("count", "distance", "diameter", "components",
                       "render", "extremes", "export")},
    "no-command": ([], "err", 3),
    "unknown-command": (["bogus"], "err", 3),
    "unknown-option": (["count", "--shape", "rect:2x1", "--bogus"], "err", 3),
    "invalid-choice": (["diameter", "--shape", "rect:2x2", "--method",
                        "bogus"], "err", 3),
    "missing-required": (["distance", "--shape", "rect:6x2", "--t1",
                          "a.json"], "err", 3),
    "bad-int": (["count", "--shape", "rect:2x1", "--budget", "x"], "err", 3),
}
# Releases whose argparse prints some of these differently, newest first,
# each with a folder of its own copies.  3.13 wraps usage lines between
# options, never between a flag and its value, and keeps `{...} ...`
# on one line (recorded on CPython 3.13.0).  Later 3.13 releases also
# list choices with str() rather than repr() (recorded on 3.13.13; the
# releases between were not checked).
USAGE_SINCE = (((3, 13, 1), "3.13.1"), ((3, 13), "3.13"))


def usage_fixture(name):
    """The fixture this Python's argparse should print for name."""
    for since, folder in USAGE_SINCE:
        path = FIXTURES / "usage" / folder / f"{name}.txt"
        if sys.version_info >= since and path.exists():
            return path
    return FIXTURES / "usage" / f"{name}.txt"


def argparse_reading(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


def table_reading(argv):
    """vars() of `_parse`'s namespace for argv, or None where it passes,
    after checking that it agrees with argparse whenever it answers."""
    args = _parse(argv)
    if args is None:
        return None
    assert vars(args) == argparse_reading(argv)
    return vars(args)


@pytest.mark.parametrize("name", USAGE)
def test_help_and_usage_bytes(name, capsys, monkeypatch):
    argv, stream, code = USAGE[name]
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    captured = capsys.readouterr()
    written = {"out": captured.out, "err": captured.err}
    expected = usage_fixture(name).read_bytes()
    assert written.pop(stream).encode("utf-8") == expected
    assert written.popitem()[1] == ""


class TestTableReading:
    @pytest.mark.parametrize("argv", [
        ["count", "--shape", "rect:2x1"],
        ["count", "--closed-form", "--json", "--budget", "7", "--shape", ""],
        ["distance", "--shape", "rect:6x2", "--t1", BRICK, "--t2", STAGGERED,
         "--method", "all", "--emit-path", "path.json"],
        ["diameter", "--method", "bfs", "--shape", "rect:4x4"],
        ["components", "--shape", "holed-square:3"],
        ["render", "--shape", "rect:6x2", "--t1", BRICK, "--out", "a.svg",
         "--cell-size", " 12"],
        ["extremes", "--shape", "aztec:2", "--out", "az2"],
        ["export", "--shape", "rect:6x2", "--what", "voxels", "--format",
         "json"],
        # a repeated flag: the last value wins in both readers
        ["diameter", "--shape", "rect:2x2", "--method", "bfs", "--method",
         "closed", "--json", "--json"],
    ], ids=lambda argv: argv[0])
    def test_plain_argv_is_read_off_the_table(self, argv):
        assert table_reading(argv) is not None

    def test_every_default_is_set(self):
        args = table_reading(["export", "--shape", "rect:2x2"])
        assert args == {
            "command": "export", "func": dominoflip.cli.cmd_export,
            "shape": "rect:2x2", "json": False, "budget": 2_000_000,
            "what": "graph", "format": "dot", "t1": None, "t2": None,
            "out": None}

    @pytest.mark.parametrize("argv", [
        [],
        ["-h"],
        ["count", "-h"],
        ["count", "--shape", "rect:2x1", "--help"],
        ["bogus", "--shape", "rect:2x1"],
        ["--json", "count", "--shape", "rect:2x1"],
        ["count"],
        ["count", "--shape"],
        ["count", "--shape", "rect:2x1", "extra"],
        ["count", "--shape=rect:2x1"],
        ["count", "--sha", "rect:2x1"],
        ["diameter", "--shape", "rect:2x2", "--meth", "bfs"],
        ["diameter", "--shape", "rect:2x2", "--method", "bogus"],
        ["count", "--shape", "rect:2x1", "--budget", "-1"],
        ["count", "--shape", "rect:2x1", "--budget", "1.5"],
        ["count", "--shape", "-"],
        ["count", "--", "--shape", "rect:2x1"],
        ["count", "--shape", "rect:2x1", "--method", "bfs"],
        ["distance", "--shape", "rect:6x2", "--t1", BRICK],
    ])
    def test_other_argv_is_left_to_argparse(self, argv):
        assert _parse(argv) is None

    @pytest.mark.parametrize("argv,expected", [
        (["count", "--shape=rect:2x1"], "1\n"),
        (["count", "--sha", "rect:2x1"], "1\n"),
        (["count", "--shape", "rect:2x1", "--budget", "-1"], "1\n"),
        (["diameter", "--shape", "rect:4x4", "--meth", "closed"], "10\n"),
    ])
    def test_argparse_still_answers_what_it_reads(self, argv, expected,
                                                  capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_plain_argv_never_builds_the_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("argparse was built for a plain argv")

        monkeypatch.setattr(dominoflip.cli, "_build_parser", refuse)
        assert main(["count", "--shape", "rect:4x4", "--closed-form"]) == 0
        assert capsys.readouterr().out == "36\n36\n"


@settings(max_examples=300)
@given(data=st.data())
def test_the_readers_agree_on_the_fuzzed_grammar(files, data):  # noqa: F811
    table_reading(data.draw(argvs(*files), label="argv"))

import json
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager

import pytest

import dominoflip.cli
import dominoflip.counting
import dominoflip.height
import dominoflip.tiling
from dominoflip import (DominoError, apply_flip, build_flip_graph,
                        connected_components, first_tiling, make_from_cells,
                        make_holed_square, region_from_json, region_to_json,
                        tiling_from_json, tiling_to_json)
from dominoflip.cli import main

from conftest import PACKAGE_ROOT, bench_oracle, run_capped


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def int_digit_limit() -> int:
    """Python's limit on an int's digits as text; 0 when it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@contextmanager
def ints_of_any_length():
    limit = int_digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def mutilated_board(tmp_path):
    """The 8x8 board without two opposite corners, as a file: shape."""
    board = make_from_cells([(x, y) for x in range(8) for y in range(8)
                             if (x, y) not in ((0, 0), (7, 7))])
    path = tmp_path / "mutilated.json"
    path.write_text(json.dumps(region_to_json(board)))
    return f"file:{path}"


def blocks_at_a_corner(tmp_path, side=2):
    """Two side x side blocks touching at a corner, as a file: shape."""
    path = tmp_path / f"corner{side}.json"
    path.write_text(json.dumps({"cells": [
        [x + d, y + d] for d in (0, side)
        for x in range(side) for y in range(side)]}))
    return f"file:{path}"


class TestCount:
    @pytest.mark.parametrize("shape,expected", [
        ("aztec:3", "64"), ("rect:10x2", "89"), ("holed-square:3", "2"),
    ])
    def test_examples(self, capsys, shape, expected):
        code, out, err = run(capsys, "count", "--shape", shape)
        assert code == 0
        assert out.strip() == expected

    def test_closed_form_reports_both(self, capsys):
        code, out, _ = run(capsys, "count", "--shape", "rect:8x8",
                           "--closed-form")
        assert code == 0
        assert out.split() == ["12988816", "12988816"]

    def test_closed_form_disagreement_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(dominoflip.cli, "count_rectangle_closed_form",
                            lambda m, n: 1)
        assert run(capsys, "count", "--shape", "rect:8x8",
                   "--closed-form") == (
            1, "12988816\n1\n",
            "error: methods disagree: {'count': 12988816, 'closed_form': 1}\n")
        # a disagreement comes before the untileable warning
        assert run(capsys, "count", "--shape", "rect:3x3",
                   "--closed-form") == (
            1, "0\n1\n", "error: methods disagree: {'count': 0, "
            "'closed_form': 1}\n")

    @pytest.mark.parametrize("shape,count,code", [
        ("rect:12x11", 1666961188795475, 0),
        ("rect:12x12", 53060477521960000, 0),
        ("rect:19x17", 0, 2),
    ], ids=["12x11", "12x12", "19x17"])
    def test_closed_form_exact_past_float_precision(self, capsys, shape,
                                                    count, code):
        # a float product disagrees on 12x11, is past 2^53 on 12x12, and
        # gives the untileable 19x17 a count
        warning = "warning: region is untileable\n" if code else ""
        assert run(capsys, "count", "--shape", shape, "--closed-form") == (
            code, f"{count}\n{count}\n", warning)

    @pytest.mark.parametrize("shape,work", [
        ("rect:2x3000", 172469479551),
        ("rect:2x30000", 2349469831320696),
    ], ids=["2x3000", "2x30000"])
    def test_closed_form_over_its_estimate_exits_4(self, capsys, shape, work):
        assert run(capsys, "count", "--shape", shape, "--closed-form") == (
            4, "", f"error: closed form for {shape[5:]} needs an estimated "
            f"{work} work units, cap is 33554432\n")

    @pytest.mark.parametrize("shape", [
        "rect:8x8", "rect:10x10", "rect:16x4", "rect:12x7", "aztec:3",
        "aztec:6", "aztec:8", "aztec:9", "aztec:10"])
    def test_bench_closed_forms_print_both(self, capsys, shape):
        # the benchmark's closed-form count jobs, against its own oracle
        oracle = bench_oracle()
        kind, size = shape.split(":")
        count = (oracle.rect_count(*map(int, size.split("x")))
                 if kind == "rect" else oracle.aztec_count(int(size)))
        assert run(capsys, "count", "--shape", shape, "--closed-form") == (
            0, f"{count}\n{count}\n", "")

    def test_untileable_prints_zero_and_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "count", "--shape",
                             mutilated_board(tmp_path))
        assert code == 2
        assert out.strip() == "0"
        assert "untileable" in err

    def test_state_cap_exits_4(self, capsys, monkeypatch):
        # a strip 14 cells across: too thin for the determinant to pay
        monkeypatch.setattr(dominoflip.counting, "MAX_PROFILE_STATES", 1000)
        code, out, err = run(capsys, "count", "--shape", "rect:14x2000")
        assert code == 4
        assert out == ""
        cap, reached = map(int, re.findall(r"\d+", err)[:2])
        assert cap == 1000 and reached > 1000

    def test_determinant_cap_exits_4(self):
        done = run_capped("-m", "dominoflip.cli", "count",
                          "--shape", "square:200", timeout=60)
        assert (done.returncode, done.stdout) == (4, "")
        estimate, cap = map(int, re.findall(r"\d+", done.stderr))
        assert cap == dominoflip.counting.MAX_DETERMINANT_WORK < estimate

    @pytest.mark.parametrize("shift", [-1000, 1000], ids=["left", "right"])
    def test_untileable_piece_answers_0_beside_one_over_the_cap(
            self, capsys, tmp_path, fixtures_dir, shift):
        # the board's determinant is over the cap and the spur has no
        # tiling, so the answer is 0 whichever piece comes first
        spur = json.loads((fixtures_dir / "spur_12x6.json").read_text())
        path = tmp_path / "board_and_spur.json"
        path.write_text(json.dumps({"cells": [
            *([x, y] for x in range(200) for y in range(200)),
            *([x + shift, y] for x, y in spur["cells"])]}))
        code, out, err = run(capsys, "count", "--shape", f"file:{path}")
        assert (code, out, err) == (2, "0\n",
                                    "warning: region is untileable\n")

    def test_components_counted_on_their_own_axes(self, tmp_path):
        # a 2x40 block and a domino far away: swept together along one
        # axis the block's profiles pass the state cap
        path = tmp_path / "apart.json"
        path.write_text(json.dumps({"cells": [
            *([x, y] for x in range(2) for y in range(40)),
            [100000, 100000], [100001, 100000]]}))
        done = run_capped("-m", "dominoflip.cli", "count",
                          "--shape", f"file:{path}")
        assert (done.returncode, done.stdout, done.stderr) == (
            0, "165580141\n", "")

    def test_sparse_region_in_bounded_memory(self, tmp_path):
        # six cells whose bounding box holds about 10^10 cells
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({"cells": [
            [0, 0], [1, 0], [50000, 0], [50001, 0],
            [100000, 100000], [100001, 100000]]}))
        done = run_capped("-m", "dominoflip.cli", "count",
                          "--shape", f"file:{path}")
        assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "")

    @pytest.mark.parametrize("shape,cells", [
        ("square:6000", 36000000), ("aztec:100000", 20000200000),
        ("square:99999999999", 99999999999 ** 2),
    ], ids=["square:6000", "aztec:100000", "square:99999999999"])
    def test_shape_over_the_cell_cap_exits_4(self, shape, cells):
        # the cell count is read off the spec before any cell is built
        done = run_capped("-m", "dominoflip.cli", "count", "--shape", shape,
                          timeout=30)
        assert (done.returncode, done.stdout) == (4, "")
        assert "Traceback" not in done.stderr
        count, cap = map(int, re.findall(r"\d+", done.stderr)[-2:])
        assert (count, cap) == (cells, dominoflip.cli.MAX_SHAPE_CELLS)

    def test_file_over_the_cell_cap_exits_4(self, capsys, monkeypatch,
                                            tmp_path):
        monkeypatch.setattr(dominoflip.cli, "MAX_SHAPE_CELLS", 5)
        path = tmp_path / "six.json"
        path.write_text(json.dumps({"cells": [[x, 0] for x in range(6)]}))
        code, out, err = run(capsys, "count", "--shape", f"file:{path}")
        assert (code, out) == (4, "")
        assert re.findall(r"\d+", err)[-2:] == ["6", "5"]

    def test_out_of_memory_exits_4(self, capsys, monkeypatch):
        def exhausted(region):
            raise MemoryError

        monkeypatch.setattr(dominoflip.cli, "count_tilings", exhausted)
        code, out, err = run(capsys, "count", "--shape", "rect:4x4")
        assert (code, out, err) == (4, "", "error: out of memory\n")

    def test_bare_domino_error_exits_1(self, capsys, monkeypatch):
        def fail(region):
            raise DominoError("no answer")

        monkeypatch.setattr(dominoflip.cli, "count_tilings", fail)
        code, out, err = run(capsys, "count", "--shape", "rect:4x4")
        assert (code, out, err) == (1, "", "error: no answer\n")

    @pytest.mark.parametrize("command", [
        ["count"], ["diameter", "--method", "levels"]],
        ids=["count", "levels"])
    def test_holed_square_23_answers(self, command):
        # the determinant counts components with holes
        done = run_capped("-m", "dominoflip.cli", *command,
                          "--shape", "holed-square:23", timeout=30)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.strip().isdigit()

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "count", "--shape", "aztec:2", "--json")
        assert code == 0
        assert json.loads(out) == {"command": "count", "result": {"count": 8}}

    def test_bad_shape_exits_3(self, capsys):
        code, _, err = run(capsys, "count", "--shape", "pentagon:3")
        assert code == 3
        assert "shape" in err

    @pytest.mark.parametrize("spec", ["rect:3x", "rect:x3", "rect:3",
                                      "rect:3x2x1", "square:a", "aztec:",
                                      "holed-square:2.5"])
    def test_sizes_that_are_not_integers_name_the_spec(self, capsys, spec):
        code, out, err = run(capsys, "count", "--shape", spec)
        assert (code, out) == (3, "")
        assert err == (f"error: bad shape spec {spec!r}; its sizes must be "
                       "integers\n")

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
    @pytest.mark.parametrize("command", ["count", "components"])
    def test_counts_print_at_any_length(self, capsys, command, flags):
        # rect:2xn has F(n + 1) tilings: 4,389 digits for n = 21,000,
        # past the 4,300 digits Python turns into text by default
        limit = int_digit_limit()
        code, out, err = run(capsys, command, "--shape", "rect:2x21000",
                             *flags)
        assert (code, err) == (0, "")
        assert int_digit_limit() == limit  # put back once written
        a, b = 0, 1
        for _ in range(21001):
            a, b = b, a + b
        with ints_of_any_length():
            assert len(str(a)) > 4300
            if command == "count":
                expected, result = f"{a}\n", {"count": a}
            else:
                expected, result = f"1\n{a}\n", {"components": 1, "sizes": [a]}
            if flags:
                assert json.loads(out) == {"command": command,
                                           "result": result}
            else:
                assert out == expected

    @pytest.mark.parametrize("shape", [
        "rect:{ones}x{ones}", "rect:{ones}x2", "aztec:{ones}"],
        ids=["6000-digit count", "3000-digit count", "aztec"])
    def test_cap_refusal_prints_no_long_count(self, capsys, shape):
        # the count may be past what Python turns into text, and the
        # spec is as long as the count
        shape = shape.format(ones="1" * 3000)
        code, out, err = run(capsys, "count", "--shape", shape)
        assert (code, out) == (4, "")
        kind = shape.partition(":")[0]
        assert err == (f"error: {kind} shape has more cells than the cap "
                       f"of {dominoflip.cli.MAX_SHAPE_CELLS}\n")

    @pytest.mark.parametrize("shape,digits", [
        (f"rect:2x{'9' * 6000}", 6000), (f"square:{'1_' * 4999}1", 5000),
        (f"holed-square: +{'7' * 4400} ", 4400)],
        ids=["rect", "square with underscores", "holed-square signed"])
    def test_sizes_past_the_digit_limit_say_so(self, capsys, shape, digits):
        code, out, err = run(capsys, "count", "--shape", shape)
        kind = shape.partition(":")[0]
        assert (code, out) == (3, "")
        assert err == (f"error: bad {kind} shape spec; a size has {digits} "
                       "digits, too many to read\n")

    @pytest.mark.parametrize("where", ["budget", "shape", "file"])
    def test_huge_input_integers_still_exit_3(self, capsys, tmp_path, where):
        # inputs keep the digit limit, which bounds the time to parse them
        huge = "9" * 6000
        path = tmp_path / "huge.json"
        path.write_text(f'{{"cells": [[0, 0], [{huge}, 0]]}}')
        shape = {"budget": "rect:2x2", "shape": f"rect:2x{huge}",
                 "file": f"file:{path}"}[where]
        budget = ["--budget", huge] if where == "budget" else []
        code, out, err = run(capsys, "count", "--shape", shape, *budget)
        assert (code, out) == (3, "")
        assert "Traceback" not in err

    @pytest.mark.skipif(not int_digit_limit(), reason="ints have no limit")
    @pytest.mark.parametrize("joined", [False, True], ids=["apart", "joined"])
    @pytest.mark.parametrize("flag", ["--budget", "--cell-size"])
    def test_option_integers_past_the_digit_limit_say_so(
            self, capsys, fixtures_dir, tmp_path, flag, joined):
        # argparse's own message would echo all 6,000 digits
        argv = (["count", "--shape", "rect:2x2"] if flag == "--budget" else
                ["render", "--shape", "rect:6x2", "--out",
                 str(tmp_path / "x.svg"),
                 "--t1", str(fixtures_dir / "brick_6x2.json")])
        huge = "9" * 6000
        code, out, err = run(capsys, *argv, *([f"{flag}={huge}"] if joined
                                               else [flag, huge]))
        assert (code, out) == (3, "")
        assert err == (f"error: argument {flag} has 6000 digits, "
                       "too many to read\n")
        assert len(err) < 200


def holed_square_5_pair(tmp_path, across=False):
    """--t1 and --t2 for holed-square:5: the first and last tilings of its
    largest flip component, or the first tilings of its first two."""
    graph = build_flip_graph(make_holed_square(5))
    components = connected_components(graph)
    big = max(components, key=len)
    nodes = ([c[0] for c in components[:2]] if across
             else [big[0], big[-1]])
    argv = []
    for flag, i in zip(("--t1", "--t2"), nodes):
        path = tmp_path / f"{flag[2:]}.json"
        path.write_text(json.dumps(tiling_to_json(graph.nodes[i])))
        argv += [flag, str(path)]
    return argv


class TestDistance:
    def test_identical_files(self, capsys, fixtures_dir):
        t = str(fixtures_dir / "brick_6x2.json")
        code, out, _ = run(capsys, "distance", "--shape", "rect:6x2",
                           "--t1", t, "--t2", t, "--method", "all")
        assert code == 0
        assert out.split() == ["0", "0", "0"]

    def test_6x2_pair_all_methods(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "distance", "--shape", "rect:6x2",
                           "--t1", str(fixtures_dir / "brick_6x2.json"),
                           "--t2", str(fixtures_dir / "staggered_6x2.json"),
                           "--method", "all")
        assert code == 0
        assert out.split() == ["5", "5", "5"]

    def test_7x4_pair(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "distance", "--shape", "rect:7x4",
                           "--t1", str(fixtures_dir / "pair_7x4_a.json"),
                           "--t2", str(fixtures_dir / "pair_7x4_b.json"),
                           "--method", "all")
        assert code == 0
        assert out.split() == ["16", "16", "16"]

    def test_emit_path_replays(self, capsys, fixtures_dir, tmp_path):
        out_file = tmp_path / "path.json"
        code, out, _ = run(capsys, "distance", "--shape", "rect:6x2",
                           "--t1", str(fixtures_dir / "brick_6x2.json"),
                           "--t2", str(fixtures_dir / "staggered_6x2.json"),
                           "--emit-path", str(out_file))
        assert code == 0
        flips = json.loads(out_file.read_text())["flips"]
        assert len(flips) == 5

    def test_all_with_path_labels_each_tiling_once(
            self, capsys, fixtures_dir, tmp_path, monkeypatch):
        # the geodesic's length is the height distance, so the height
        # route labels each tiling once, with no tiling rebuilt from its
        # labels; each route checks its tilings once, as the loader does
        # (this once took 14 checks, 4 labelings and 4 tilings from labels)
        calls = Counter()
        for module, name in ((dominoflip.height, "height_function"),
                             (dominoflip.height, "tiling_from_height"),
                             (dominoflip.tiling, "is_valid_tiling")):
            def counted(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, name, counted)
            monkeypatch.setattr(dominoflip.cli, name, counted, raising=False)
        out_file = tmp_path / "path.json"
        code, out, _ = run(capsys, "distance", "--shape", "rect:6x2",
                           "--t1", str(fixtures_dir / "brick_6x2.json"),
                           "--t2", str(fixtures_dir / "staggered_6x2.json"),
                           "--method", "all", "--emit-path", str(out_file))
        assert (code, out) == (0, "5 5 5\n")
        assert len(json.loads(out_file.read_text())["flips"]) == 5
        assert calls["height_function"] == 2
        assert "tiling_from_height" not in calls
        assert calls["is_valid_tiling"] <= 8

    @pytest.mark.parametrize("method,budget,code", [
        ("height", 1, 2), ("cycles", 1, 2), ("bfs", 1, 4), ("all", 1, 2),
        ("cycles", 1000, 2), ("bfs", 1000, 2)])
    def test_path_on_a_holed_region(self, capsys, tmp_path, method, budget,
                                    code):
        # the geodesic runs where the height route does, or last: a
        # refusal or the hole ends the command first, with no path file
        graph = build_flip_graph(make_holed_square(5))
        big = max(connected_components(graph), key=len)
        paths = [tmp_path / "t1.json", tmp_path / "t2.json"]
        for path, i in zip(paths, (big[0], big[-1])):
            path.write_text(json.dumps(tiling_to_json(graph.nodes[i])))
        out_file = tmp_path / "path.json"
        done = run(capsys, "distance", "--shape", "holed-square:5",
                   "--t1", str(paths[0]), "--t2", str(paths[1]),
                   "--method", method, "--budget", str(budget),
                   "--emit-path", str(out_file))
        assert done[:2] == (code, "")
        assert not out_file.exists()

    @pytest.mark.parametrize("method", ["bfs", "all"])
    def test_path_after_a_refusal(self, capsys, fixtures_dir, tmp_path,
                                  method):
        out_file = tmp_path / "path.json"
        code, out, err = run(capsys, "distance", "--shape", "rect:6x2",
                             "--t1", str(fixtures_dir / "brick_6x2.json"),
                             "--t2", str(fixtures_dir / "staggered_6x2.json"),
                             "--method", method, "--budget", "12",
                             "--emit-path", str(out_file))
        assert (code, out) == (4, "")
        assert err == "error: flip graph would have 13 nodes, budget is 12\n"
        assert not out_file.exists()

    def test_methods_disagree_exits_1(self, capsys, fixtures_dir,
                                      monkeypatch):
        monkeypatch.setattr(dominoflip.cli, "distance_cycles",
                            lambda region, t1, t2: 4)
        code, out, err = run(capsys, "distance", "--shape", "rect:6x2",
                             "--t1", str(fixtures_dir / "brick_6x2.json"),
                             "--t2", str(fixtures_dir / "staggered_6x2.json"),
                             "--method", "all")
        assert (code, out) == (1, "5 4 5\n")
        assert err == ("error: methods disagree: "
                       "{'height': 5, 'cycles': 4, 'bfs': 5}\n")

    def test_height_on_a_holed_region_exits_2(self, capsys, tmp_path):
        tiling = tmp_path / "t.json"
        tiling.write_text(json.dumps(
            tiling_to_json(first_tiling(make_holed_square(5)))))
        code, out, err = run(capsys, "distance", "--shape", "holed-square:5",
                             "--t1", str(tiling), "--t2", str(tiling),
                             "--method", "height")
        assert (code, out) == (2, "")
        assert err == "error: height labels need a region with no hole\n"

    def test_bfs_builds_no_flip_graph(self, capsys, fixtures_dir,
                                      monkeypatch):
        def refuse(region, budget):
            raise AssertionError("distance built the whole flip graph")

        monkeypatch.setattr(dominoflip.cli, "build_flip_graph", refuse)
        code, out, _ = run(capsys, "distance", "--shape", "rect:6x2",
                           "--t1", str(fixtures_dir / "brick_6x2.json"),
                           "--t2", str(fixtures_dir / "staggered_6x2.json"),
                           "--method", "all")
        assert (code, out) == (0, "5 5 5\n")

    @pytest.mark.parametrize("method", ["cycles", "bfs"])
    def test_across_flip_components_unreachable(self, capsys, tmp_path,
                                                method):
        # the first tilings of holed-square:5's components of 194 and 1
        # tilings: their cycles wind round the hole, so the centre's
        # four corners, boundary vertices, carry nonzero values
        graph = build_flip_graph(make_holed_square(5))
        paths = []
        for i, component in enumerate(connected_components(graph)[:2]):
            paths.append(tmp_path / f"t{i}.json")
            paths[-1].write_text(json.dumps(
                tiling_to_json(graph.nodes[component[0]])))
        code, out, err = run(capsys, "distance", "--shape", "holed-square:5",
                             "--t1", str(paths[0]), "--t2", str(paths[1]),
                             "--method", method)
        assert (code, out) == (1, "unreachable\n")
        assert err == "error: tilings are not flip-connected\n"

    def test_all_on_a_holed_region_skips_heights(self, capsys, tmp_path):
        # heights refuse a hole, so `all` holds cycles to the search
        argv = ["distance", "--shape", "holed-square:5",
                *holed_square_5_pair(tmp_path), "--method", "all"]
        assert run(capsys, *argv) == (0, "6 6\n", "")
        assert run(capsys, *argv, "--json") == (
            0, '{"command": "distance", "result": {"cycles": 6, "bfs": 6}}\n',
            "")

    def test_all_across_flip_components_unreachable(self, capsys, tmp_path):
        assert run(capsys, "distance", "--shape", "holed-square:5",
                   *holed_square_5_pair(tmp_path, across=True),
                   "--method", "all") == (
            1, "unreachable unreachable\n",
            "error: tilings are not flip-connected\n")

    def test_all_on_blocks_touching_at_a_corner(self, capsys, tmp_path):
        blocks = [(0, 0), (2, 2)]
        files = {"region": {"cells": [[x + dx, y + dy] for x, y in blocks
                                      for dx in (0, 1) for dy in (0, 1)]},
                 "flat": {"dominoes": [[[x, y + dy], [x + 1, y + dy]]
                                       for x, y in blocks for dy in (0, 1)]},
                 "tall": {"dominoes": [[[x + dx, y], [x + dx, y + 1]]
                                       for x, y in blocks for dx in (0, 1)]}}
        for name, data in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        assert run(capsys, "distance", "--shape",
                   f"file:{tmp_path / 'region.json'}",
                   "--t1", str(tmp_path / "flat.json"),
                   "--t2", str(tmp_path / "tall.json"),
                   "--method", "all") == (0, "2 2 2\n", "")

    def test_path_on_blocks_touching_at_a_corner(self, capsys, tmp_path):
        # one walk labels both blocks: their shared corner borders no
        # domino, so its label is the same in every tiling
        shape = blocks_at_a_corner(tmp_path)
        ends = [tmp_path / f"c.{end}.json" for end in ("tmin", "tmax")]
        assert run(capsys, "extremes", "--shape", shape,
                   "--out", str(tmp_path / "c")) == (0, "2\n", "")
        path = tmp_path / "path.json"
        assert run(capsys, "distance", "--shape", shape, "--t1", str(ends[0]),
                   "--t2", str(ends[1]), "--method", "height",
                   "--emit-path", str(path)) == (0, "2\n", "")
        region = region_from_json(json.loads((tmp_path / "corner2.json")
                                             .read_text()))
        current, goal = (tiling_from_json(json.loads(end.read_text()))
                         for end in ends)
        for anchor in json.loads(path.read_text())["flips"]:
            current = apply_flip(region, current, tuple(anchor))
        assert current == goal

    def test_all_on_a_holed_region_disagrees(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.setattr(dominoflip.cli, "distance_cycles",
                            lambda region, t1, t2: 5)
        assert run(capsys, "distance", "--shape", "holed-square:5",
                   *holed_square_5_pair(tmp_path), "--method", "all") == (
            1, "6 5\n", "error: methods disagree: {'cycles': 5, 'bfs': 6}\n")

    def test_budget_below_the_tiling_count_exits_4(self, capsys,
                                                   fixtures_dir):
        t = str(fixtures_dir / "brick_6x2.json")
        code, out, err = run(capsys, "distance", "--shape", "rect:6x2",
                             "--t1", t, "--t2", t, "--method", "bfs",
                             "--budget", "12")
        assert (code, out) == (4, "")
        assert err == "error: flip graph would have 13 nodes, budget is 12\n"

    def test_invalid_tiling_file_exits_3(self, capsys, tmp_path, fixtures_dir):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"dominoes\": [[[0,0],[5,5]]]}")
        code, _, err = run(capsys, "distance", "--shape", "rect:6x2",
                           "--t1", str(bad),
                           "--t2", str(fixtures_dir / "brick_6x2.json"))
        assert code == 3
        assert "not a valid tiling" in err

    def test_domino_listed_twice_exits_3(self, capsys, tmp_path):
        twice = tmp_path / "twice.json"
        twice.write_text('{"dominoes": [[[0,0],[1,0]],[[0,0],[1,0]]]}')
        code, out, err = run(capsys, "distance", "--shape", "rect:2x1",
                             "--t1", str(twice), "--t2", str(twice))
        assert (code, out) == (3, "")
        assert err == ("error: domino entry [[0, 0], [1, 0]] is listed "
                       "twice\n")


class TestFileErrors:
    """An input file that cannot be read is bad input (exit 3); an output
    file that cannot be written is an I/O failure (exit 5)."""

    def test_tiling_that_is_a_directory_exits_3(self, capsys, tmp_path,
                                                fixtures_dir):
        code, out, err = run(capsys, "distance", "--shape", "rect:6x2",
                             "--t1", str(tmp_path),
                             "--t2", str(fixtures_dir / "brick_6x2.json"))
        assert (code, out) == (3, "")
        assert "Is a directory" in err

    def test_shape_file_that_is_a_directory_exits_3(self, capsys, tmp_path):
        code, out, err = run(capsys, "count", "--shape", f"file:{tmp_path}")
        assert (code, out) == (3, "")
        assert "Is a directory" in err

    def test_deeply_nested_shape_file_exits_3(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        code, out, err = run(capsys, "count", "--shape", f"file:{deep}")
        assert (code, out) == (3, "")
        assert err == f"error: {deep}: JSON nested too deeply\n"

    def test_deeply_nested_tiling_file_exits_3(self, capsys, tmp_path,
                                               fixtures_dir):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        code, out, err = run(capsys, "distance", "--shape", "rect:6x2",
                             "--t1", str(fixtures_dir / "brick_6x2.json"),
                             "--t2", str(deep), "--method", "all")
        assert (code, out) == (3, "")
        assert err == f"error: {deep}: JSON nested too deeply\n"

    def test_shape_file_that_is_not_json_names_its_path(self, capsys,
                                                        tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        code, out, err = run(capsys, "count", "--shape", f"file:{empty}")
        assert (code, out) == (3, "")
        assert err == (f"error: {empty}: Expecting value: line 1 column 1 "
                       "(char 0)\n")

    def test_tiling_that_is_not_json_names_its_path(self, capsys, tmp_path,
                                                    fixtures_dir):
        cut = tmp_path / "cut.json"
        cut.write_text('{"dominoes": [[[0, 0], [1, 0]]')
        code, out, err = run(capsys, "distance", "--shape", "rect:6x2",
                             "--t1", str(fixtures_dir / "brick_6x2.json"),
                             "--t2", str(cut))
        assert (code, out) == (3, "")
        assert err == (f"error: {cut}: Expecting ',' delimiter: line 1 "
                       "column 31 (char 30)\n")

    def test_tiling_that_is_not_utf8_names_its_path(self, capsys, tmp_path,
                                                    fixtures_dir):
        raw = tmp_path / "raw.json"
        raw.write_bytes(b"\xff")
        code, out, err = run(capsys, "distance", "--shape", "rect:6x2",
                             "--t1", str(raw),
                             "--t2", str(fixtures_dir / "brick_6x2.json"))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {raw}: 'utf-8' codec can't decode")

    def test_out_into_a_missing_directory_exits_5(self, capsys, tmp_path):
        code, out, err = run(capsys, "extremes", "--shape", "rect:2x2",
                             "--out", str(tmp_path / "missing" / "x"))
        assert (code, out) == (5, "")
        assert "No such file or directory" in err

    def test_emit_path_into_a_missing_directory_exits_5(self, capsys,
                                                         tmp_path,
                                                         fixtures_dir):
        code, out, err = run(capsys, "distance", "--shape", "rect:6x2",
                             "--t1", str(fixtures_dir / "brick_6x2.json"),
                             "--t2", str(fixtures_dir / "staggered_6x2.json"),
                             "--emit-path", str(tmp_path / "missing" / "p"))
        assert (code, out) == (5, "")
        assert "No such file or directory" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("argv,unbuffered", [
        (argv, unbuffered)
        for unbuffered in (False, True)
        for argv in (["count", "--shape", "rect:4x4"], ["--help"],
                     ["count", "--help"])
    ], ids=["count", "help", "count-help", "count-unbuffered",
            "help-unbuffered", "count-help-unbuffered"])
    def test_buffered_stdout_that_cannot_be_written_exits_5(self, argv,
                                                           unbuffered):
        # buffered, the output is first written when the run flushes it,
        # after the command returned: the interpreter's own exit-time
        # flush would report the failure as exit 120.  Unbuffered, help
        # text is written at once, where argparse's own writer would drop
        # the error and exit 0
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + path if path else "")
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "dominoflip.cli", *argv], stdout=full,
                stderr=subprocess.PIPE, text=True, timeout=60, env=env)
        assert done.returncode == 5, done.stderr
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr


class TestDiameter:
    def test_square_6_closed(self, capsys):
        code, out, _ = run(capsys, "diameter", "--shape", "square:6",
                           "--method", "closed")
        assert code == 0 and out.strip() == "35"

    def test_levels_past_the_count_cap(self):
        # tileability is one maximum matching, not a count
        done = run_capped("-m", "dominoflip.cli", "diameter", "--method",
                          "levels", "--shape", "rect:40x40")
        assert (done.returncode, done.stdout, done.stderr) == (0, "10660\n", "")

    def test_levels_on_a_wide_staircase(self, capsys, tmp_path):
        # 500 dominoes in a 501x500 box: the tileability check works on
        # its cells, not its box
        path = tmp_path / "stair.json"
        path.write_text(json.dumps({"cells": [
            list(c) for i in range(500) for c in ((i, i), (i + 1, i))]}))
        code, out, err = run(capsys, "diameter", "--method", "levels",
                             "--shape", f"file:{path}")
        assert (code, out, err) == (0, "0\n", "")

    def test_aztec_4_levels(self, capsys):
        code, out, _ = run(capsys, "diameter", "--shape", "aztec:4",
                           "--method", "levels")
        assert code == 0 and out.strip() == "30"

    def test_rect_6x2_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "diameter", "--shape", "rect:6x2",
                           "--method", "all")
        assert code == 0
        assert out.split() == ["5", "5", "5", "5"]

    def test_methods_disagree_exits_1(self, capsys, monkeypatch):
        # the level sum is a bound: below the exact routes, it disagrees
        monkeypatch.setattr(dominoflip.cli, "diameter_levels",
                            lambda region: 4)
        code, out, err = run(capsys, "diameter", "--shape", "rect:6x2",
                             "--method", "all")
        assert (code, out) == (1, "5 5 5 4\n")
        assert err == "error: level sum 4 is below the diameter 5\n"

    def test_exact_methods_disagree_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(dominoflip.cli, "diameter_lattice",
                            lambda region: 4)
        code, out, err = run(capsys, "diameter", "--shape", "rect:6x2",
                             "--method", "all")
        assert (code, out) == (1, "5 5 4 5\n")
        assert err == ("error: methods disagree: "
                       "{'lattice': 4, 'closed': 5, 'bfs': 5}\n")

    def test_levels_above_the_diameter_is_a_bound(self, capsys, tmp_path):
        # one tiling, so diameter 0, round an interior vertex of level 1
        path = tmp_path / "six.json"
        path.write_text(json.dumps({"cells": [
            [-1, 0], [0, 0], [1, 0], [2, 0], [0, 1], [1, 1]]}))
        shape = f"file:{path}"
        assert run(capsys, "diameter", "--shape", shape) == (0, "0\n", "")
        assert run(capsys, "diameter", "--shape", shape, "--method",
                   "all") == (0, "0 0 1\n", "")
        assert run(capsys, "diameter", "--shape", shape, "--method",
                   "levels") == (0, "1\n", "")

    @pytest.mark.parametrize("cells", [
        [(0, 0), (1, 0), (0, 1), (1, 1), (5, 0), (6, 0), (5, 1), (6, 1)],
        [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (3, 2), (2, 3), (3, 3)],
    ], ids=["apart", "corner"])
    def test_two_blocks_add(self, capsys, tmp_path, cells):
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps({"cells": cells}))
        shape = f"file:{path}"
        assert run(capsys, "diameter", "--shape", shape) == (0, "2\n", "")
        assert run(capsys, "diameter", "--shape", shape, "--method",
                   "all") == (0, "2 2 2\n", "")

    def test_pieces_enclosing_a_hole_refused_by_default(self, capsys,
                                                        tmp_path):
        # two S tetrominoes, one tiling each, touching at two corners
        # round the cell (1, 1): the lattice refuses the hole, as on one
        # piece, and `all` holds the level sum to the search
        path = tmp_path / "pinwheel.json"
        path.write_text(json.dumps({"cells": [
            [0, 0], [1, 0], [0, 1], [-1, 1], [2, 2], [1, 2], [2, 1], [3, 1]]}))
        shape = f"file:{path}"
        assert run(capsys, "diameter", "--shape", shape) == (
            2, "", "error: extremal tilings need a region with no hole\n")
        assert run(capsys, "diameter", "--shape", shape, "--method",
                   "all") == (0, "0 0\n", "")

    def test_hole_refused_by_default(self, capsys):
        assert run(capsys, "diameter", "--shape", "holed-square:5") == (
            2, "", "error: extremal tilings need a region with no hole\n")
        assert run(capsys, "diameter", "--shape", "holed-square:5",
                   "--method", "all") == (
            1, "", "error: flip graph is disconnected; diameter undefined\n")

    def test_lattice_json_carries_no_realizers(self, capsys):
        code, out, _ = run(capsys, "diameter", "--shape", "rect:4x3",
                           "--json")
        assert code == 0
        assert json.loads(out)["result"] == {"diameter": 6,
                                             "method": "lattice"}

    def test_single_tiling_deeper_than_the_recursion_limit(self, capsys):
        # 1,000 nested choices, so the enumerator keeps its own stack
        code, out, _ = run(capsys, "diameter", "--method", "bfs",
                           "--shape", "rect:2000x1")
        assert (code, out) == (0, "0\n")

    def test_rect_accepts_either_orientation(self, capsys):
        code, out, _ = run(capsys, "diameter", "--shape", "rect:2x6",
                           "--method", "closed")
        assert code == 0 and out.strip() == "5"

    def test_bfs_reports_realizers(self, capsys):
        code, out, _ = run(capsys, "diameter", "--shape", "rect:4x3",
                           "--method", "bfs", "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["diameter"] == 6
        assert len(result["realizers"]) == 2

    def test_all_skips_closed_form_for_file_shapes(self, capsys, tmp_path):
        cells = [(0, 0), (1, 0), (2, 0), (3, 0),
                 (0, 1), (1, 1), (2, 1), (3, 1), (4, 1),
                 (1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)]
        path = tmp_path / "lshape.json"
        path.write_text(json.dumps(region_to_json(make_from_cells(cells))))
        code, out, _ = run(capsys, "diameter", "--shape", f"file:{path}",
                           "--method", "all")
        assert code == 0
        assert out.split() == ["8", "8", "8"]  # no closed form

    def test_closed_form_unavailable_exits_3(self, capsys):
        code, _, err = run(capsys, "diameter", "--shape", "holed-square:5",
                           "--method", "closed")
        assert code == 3

    def test_budget_exceeded_exits_4(self, capsys):
        code, _, err = run(capsys, "diameter", "--shape", "rect:4x4",
                           "--method", "bfs", "--budget", "5")
        assert code == 4

    def test_untileable_exits_2(self, capsys):
        code, _, err = run(capsys, "diameter", "--shape", "rect:3x3")
        assert code == 2


class TestComponents:
    @pytest.mark.parametrize("shape,count", [
        ("rect:4x3", 1), ("holed-square:3", 2), ("holed-square:5", 3),
    ])
    def test_counts(self, capsys, shape, count):
        code, out, _ = run(capsys, "components", "--shape", shape)
        assert code == 0
        assert out.splitlines()[0] == str(count)

    def test_holed_square_3_sizes(self, capsys):
        code, out, _ = run(capsys, "components", "--shape", "holed-square:3")
        assert out.splitlines()[1] == "1 1"

    def test_single_tiling_deeper_than_the_recursion_limit(self, capsys):
        code, out, _ = run(capsys, "components", "--shape", "rect:2200x1")
        assert code == 0
        assert out.split() == ["1", "1"]

    def test_simply_connected_answers_without_a_graph(self, capsys,
                                                      monkeypatch):
        def refuse(region, budget):
            raise AssertionError("components built the flip graph")

        monkeypatch.setattr(dominoflip.cli, "build_flip_graph", refuse)
        # 12,988,816 tilings: above the default budget, which once refused
        code, out, _ = run(capsys, "components", "--shape", "square:8")
        assert (code, out) == (0, "1\n12988816\n")
        code, out, _ = run(capsys, "components", "--shape", "rect:4x3",
                           "--json")
        assert code == 0
        assert json.loads(out)["result"] == {"components": 1, "sizes": [11]}

    def test_blocks_at_a_corner_answer_without_a_graph(self, capsys,
                                                       tmp_path, monkeypatch):
        def refuse(region, budget):
            raise AssertionError("components built the flip graph")

        monkeypatch.setattr(dominoflip.cli, "build_flip_graph", refuse)
        # 12,988,816 ** 2 tilings, one component: the product of the
        # blocks' connected flip graphs
        assert run(capsys, "components", "--shape",
                   blocks_at_a_corner(tmp_path, 8)) == (
            0, "1\n168709341081856\n", "")

    def test_holes_keep_the_graph(self, capsys, monkeypatch):
        def refuse(region, budget):
            raise AssertionError("built")

        monkeypatch.setattr(dominoflip.cli, "build_flip_graph", refuse)
        with pytest.raises(AssertionError, match="built"):
            run(capsys, "components", "--shape", "holed-square:5")

    def test_untileable_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "components", "--shape",
                             mutilated_board(tmp_path))
        assert code == 2
        assert out == ""
        assert err == "error: region is untileable\n"


class TestRenderAndExtremes:
    def test_extremes_then_render_everything(self, capsys, tmp_path):
        prefix = str(tmp_path / "az2")
        code, out, _ = run(capsys, "extremes", "--shape", "aztec:2",
                           "--out", prefix)
        assert code == 0
        assert out.strip() == "5"

        svg_path = tmp_path / "tiling.svg"
        code, _, _ = run(capsys, "render", "--shape", "aztec:2",
                         "--mode", "tiling", "--t1", prefix + ".tmin.json",
                         "--out", str(svg_path))
        assert code == 0
        first = svg_path.read_bytes()

        code, _, _ = run(capsys, "render", "--shape", "aztec:2",
                         "--mode", "tiling", "--t1", prefix + ".tmin.json",
                         "--out", str(svg_path))
        assert svg_path.read_bytes() == first  # byte-identical re-render

        for mode in ("cycles", "filling"):
            out_path = tmp_path / f"{mode}.svg"
            code, _, _ = run(capsys, "render", "--shape", "aztec:2",
                             "--mode", mode,
                             "--t1", prefix + ".tmin.json",
                             "--t2", prefix + ".tmax.json",
                             "--out", str(out_path))
            assert code == 0
            assert out_path.read_text().startswith("<svg")

    @pytest.mark.parametrize("size, message", [
        ("0", "cell size must be positive"),
        ("-1", "cell size must be positive"),
        (str(10 ** 308), "cell size too large to draw"),
        (str(10 ** 400), "cell size too large to draw"),
    ], ids=["0", "-1", "1e308", "1e400"])
    @pytest.mark.parametrize("mode", ["tiling", "cycles", "filling"])
    def test_bad_cell_size_exits_3(self, capsys, tmp_path, fixtures_dir,
                                   mode, size, message):
        out_path = tmp_path / "x.svg"
        code, out, err = run(
            capsys, "render", "--shape", "rect:6x2", "--mode", mode,
            "--t1", str(fixtures_dir / "brick_6x2.json"),
            "--t2", str(fixtures_dir / "staggered_6x2.json"),
            f"--cell-size={size}", "--out", str(out_path))
        assert (code, out, err) == (3, "", f"error: {message}\n")
        assert not out_path.exists()

    def test_bad_tiling_reported_before_a_bad_cell_size(
            self, capsys, tmp_path, fixtures_dir):
        code, _, err = run(
            capsys, "render", "--shape", "rect:6x2",
            "--t1", str(fixtures_dir / "pair_7x4_a.json"),
            "--cell-size", "0", "--out", str(tmp_path / "x.svg"))
        assert code == 3
        assert err == (f"error: {fixtures_dir / 'pair_7x4_a.json'} is not a "
                       "valid tiling of the region\n")

    def test_400_digit_cell_size_in_a_child(self, tmp_path, fixtures_dir):
        done = run_capped("-m", "dominoflip.cli", "render", "--shape",
                          "rect:6x2", "--t1",
                          str(fixtures_dir / "brick_6x2.json"),
                          "--cell-size", str(10 ** 400),
                          "--out", str(tmp_path / "x.svg"), timeout=30)
        assert (done.returncode, done.stdout, done.stderr) == (
            3, "", "error: cell size too large to draw\n")

    def test_extremes_square_4_distance_10(self, capsys, tmp_path):
        code, out, _ = run(capsys, "extremes", "--shape", "square:4",
                           "--out", str(tmp_path / "sq4"))
        assert code == 0
        assert out.strip() == "10"

    def test_extremes_labels_each_tiling_once(self, capsys, tmp_path,
                                              monkeypatch):
        # the boundary walk labels no tiling, and each extreme labeling
        # becomes a tiling once; the labels are not rebuilt to measure
        # the spread (this once took 3 labelings and 5 tilings from labels)
        calls = Counter()
        for name in ("height_function", "tiling_from_height",
                     "distance_height", "extremal_tilings"):
            def counted(*args, _real=getattr(dominoflip.height, name),
                        _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(dominoflip.height, name, counted)
            monkeypatch.setattr(dominoflip.cli, name, counted, raising=False)
        code, out, _ = run(capsys, "extremes", "--shape", "square:6",
                           "--out", str(tmp_path / "sq6"))
        assert (code, out) == (0, "35\n")
        # one tiling from labels per extreme, and no labeling of a tiling
        assert calls == {"tiling_from_height": 2}

    def test_extremes_on_blocks_touching_at_a_corner(self, capsys, tmp_path):
        prefix = tmp_path / "c"
        assert run(capsys, "extremes", "--shape", blocks_at_a_corner(tmp_path),
                   "--out", str(prefix), "--json") == (0, json.dumps({
                       "command": "extremes", "result": {
                           "tmin": f"{prefix}.tmin.json",
                           "tmax": f"{prefix}.tmax.json", "distance": 2}})
                       + "\n", "")
        # each block flat in one extreme and upright in the other
        tilings = [json.loads((tmp_path / f"c.{end}.json").read_text())
                   for end in ("tmin", "tmax")]
        assert sorted(len({x for x, _ in d}) for t in tilings
                      for d in t["dominoes"]) == [1] * 4 + [2] * 4

    def test_extremes_untileable_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "extremes", "--shape", "rect:3x3",
                         "--out", str(tmp_path / "x"))
        assert code == 2

    def test_balanced_untileable_exits_2_without_backtracking(
            self, tmp_path, fixtures_dir):
        # colour-balanced and hole-free, yet no tiling: backtracking over
        # the 12x6 block would take minutes to find that out
        done = run_capped("-m", "dominoflip.cli", "extremes", "--shape",
                          f"file:{fixtures_dir / 'spur_12x6.json'}",
                          "--out", str(tmp_path / "x"), timeout=20)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: region has no tiling\n"

    def test_extremes_past_the_count_cap(self, tmp_path):
        # far too wide to count: the walks start from the boundary
        done = run_capped("-m", "dominoflip.cli", "extremes", "--shape",
                          "square:100", "--out", str(tmp_path / "x"),
                          timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (
            0, "166650\n", "")


class TestExport:
    def test_graph_dot(self, capsys):
        code, out, _ = run(capsys, "export", "--shape", "rect:2x2",
                           "--what", "graph")
        assert code == 0
        assert out == "graph tilings {\n  0;\n  1;\n  0 -- 1;\n}\n"

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_graph_of_untileable_exits_2(self, capsys, tmp_path, fmt):
        code, out, err = run(capsys, "export", "--shape",
                             mutilated_board(tmp_path), "--what", "graph",
                             "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == "error: region is untileable\n"

    def test_voxels(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "export", "--shape", "rect:7x4",
                           "--what", "voxels",
                           "--t1", str(fixtures_dir / "pair_7x4_a.json"),
                           "--t2", str(fixtures_dir / "pair_7x4_b.json"))
        assert code == 0
        assert len(json.loads(out)["voxels"]) == 16

    @pytest.mark.parametrize("flags", [
        ("--what", "graph"), ("--what", "graph", "--format", "json"),
        ("--what", "cycles"), ("--what", "voxels")],
        ids=["graph-dot", "graph-json", "cycles", "voxels"])
    def test_out_writes_what_stdout_shows(self, capsys, fixtures_dir,
                                          tmp_path, flags):
        argv = ["export", "--shape", "rect:6x2", *flags,
                "--t1", str(fixtures_dir / "brick_6x2.json"),
                "--t2", str(fixtures_dir / "staggered_6x2.json")]
        code, shown, _ = run(capsys, *argv)
        assert code == 0 and shown
        out_file = tmp_path / "export.out"
        assert run(capsys, *argv, "--out", str(out_file)) == (0, "", "")
        assert out_file.read_bytes() == shown.encode("utf-8")

    @pytest.mark.parametrize("what", ["cycles", "voxels"])
    @pytest.mark.parametrize("given,missing", [
        ((), "--t1"), (("--t1",), "--t2"), (("--t2",), "--t1")])
    def test_pair_without_a_tiling_exits_3(self, capsys, fixtures_dir, what,
                                           given, missing):
        tiling = str(fixtures_dir / "brick_6x2.json")
        flags = [arg for flag in given for arg in (flag, tiling)]
        code, out, err = run(capsys, "export", "--shape", "rect:6x2",
                             "--what", what, *flags)
        assert (code, out) == (3, "")
        assert err == f"error: export --what {what} needs {missing}\n"

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from dominoflip import enumerate_tilings, make_rectangle
from dominoflip.render import (render, render_cycles, render_filling,
                               render_tiling)

from conftest import load_tiling, run_capped

GALLERY = Path(__file__).resolve().parents[1] / "scripts/render_gallery.py"


def svg_root(text):
    return ET.fromstring(text)


class TestTilingMode:
    def test_2x2_has_two_domino_outlines(self):
        r = make_rectangle(2, 2)
        t = enumerate_tilings(r)[0]
        svg = render_tiling(r, t)
        root = svg_root(svg)
        rects = root.findall("{http://www.w3.org/2000/svg}rect")
        outlines = [e for e in rects if e.get("fill") == "none"]
        assert len(outlines) == 2
        assert len(rects) - len(outlines) == 4  # one shaded square per cell

    def test_deterministic_bytes(self):
        r = make_rectangle(4, 3)
        t = enumerate_tilings(r)[5]
        assert render_tiling(r, t) == render_tiling(r, t)


class TestCyclesMode:
    def test_2x2_single_loop_with_arrowhead(self):
        r = make_rectangle(2, 2)
        a, b = enumerate_tilings(r)
        root = svg_root(render_cycles(r, a, b))
        polygons = root.findall("{http://www.w3.org/2000/svg}polygon")
        loops = [p for p in polygons if p.get("fill") == "none"]
        arrows = [p for p in polygons if p.get("fill") != "none"]
        assert len(loops) == 1
        assert len(loops[0].get("points").split()) == 4
        assert len(arrows) == 1


class TestFillingMode:
    def test_7x4_pair_draws_sixteen_cubes(self):
        r = make_rectangle(7, 4)
        a = load_tiling("pair_7x4_a.json")
        b = load_tiling("pair_7x4_b.json")
        root = svg_root(render_filling(r, a, b))
        polygons = root.findall("{http://www.w3.org/2000/svg}polygon")
        assert len(polygons) == len(r.cells) + 3 * 16  # plate plus cube faces

    def test_zero_shape_draws_plate_only(self):
        r = make_rectangle(2, 2)
        t = enumerate_tilings(r)[0]
        root = svg_root(render_filling(r, t, t))
        polygons = root.findall("{http://www.w3.org/2000/svg}polygon")
        assert len(polygons) == len(r.cells)


class TestDispatch:
    def test_options_validation(self):
        r = make_rectangle(2, 2)
        a, b = enumerate_tilings(r)
        with pytest.raises(ValueError, match="unknown render mode"):
            render(r, "stereogram", a, b)
        for mode in ("tiling", "cycles", "filling"):
            with pytest.raises(ValueError, match="must be positive"):
                render(r, mode, a, b, cell_size=0)

    def test_pair_modes_need_second_tiling(self):
        r = make_rectangle(2, 2)
        t = enumerate_tilings(r)[0]
        with pytest.raises(ValueError):
            render(r, "cycles", t)

    def test_tiling_mode_dispatch(self):
        r = make_rectangle(2, 2)
        a, b = enumerate_tilings(r)
        assert render(r, "tiling", a) == render_tiling(r, a)
        assert render(r, "cycles", a, b, 7) == render_cycles(r, a, b, 7)
        assert render(r, "filling", b, a, 7) == render_filling(r, b, a, 7)


# (renderer, whether it draws a pair of tilings)
RENDERERS = [(render_tiling, False), (render_cycles, True),
             (render_filling, True)]


class TestCellSize:
    # every renderer refuses a size that is not positive, and one that
    # would put a coordinate no float holds into the picture; the two
    # tilings differ, so the cycle and filling pictures are not empty
    @pytest.mark.parametrize("size", [0, -1, -5])
    @pytest.mark.parametrize("draw, pair", RENDERERS)
    def test_not_positive(self, draw, pair, size):
        r = make_rectangle(2, 2)
        a, b = enumerate_tilings(r)
        with pytest.raises(ValueError, match="cell size must be positive"):
            draw(r, a, b, size) if pair else draw(r, a, size)

    @pytest.mark.parametrize("size", [10 ** 308, 10 ** 400, 1e308],
                             ids=["10**308", "10**400", "1e308"])
    @pytest.mark.parametrize("draw, pair", RENDERERS)
    def test_too_large(self, draw, pair, size):
        r = make_rectangle(2, 2)
        a, b = enumerate_tilings(r)
        with pytest.raises(ValueError, match="cell size too large to draw"):
            draw(r, a, b, size) if pair else draw(r, a, size)

    @pytest.mark.parametrize("draw, pair", RENDERERS)
    def test_large_finite_sizes_draw_finite_numbers(self, draw, pair):
        r = make_rectangle(2, 2)
        a, b = enumerate_tilings(r)
        for size in (10 ** 9, 10 ** 200):
            svg = draw(r, a, b, size) if pair else draw(r, a, size)
            assert "inf" not in svg and "nan" not in svg
            assert svg_root(svg).get("width")

    def test_arrowhead_keeps_its_shape_at_large_sizes(self):
        # the triangle's tip is 0.44 of a cell ahead of its base at every
        # size, also where the square of a cell's size overflows
        r = make_rectangle(2, 2)
        a, b = enumerate_tilings(r)
        for size in (100, 10 ** 6, 10 ** 200):
            root = svg_root(render_cycles(r, a, b, size))
            arrow = [p for p in root.findall(
                "{http://www.w3.org/2000/svg}polygon")
                if p.get("fill") != "none"][0]
            points = arrow.get("points").split()
            (tx, _), (lx, _), (rx, _) = (map(float, p.split(","))
                                         for p in points)
            assert lx == rx and tx - lx == pytest.approx(0.44 * size, rel=1e-9)


class TestGalleryScript:
    def test_writes_four_pictures(self, tmp_path):
        out = tmp_path / "gallery"
        done = run_capped(str(GALLERY), "--shape", "aztec:2", "--out-dir",
                          str(out), timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        for name in ("tmin", "tmax", "cycles", "filling"):
            assert svg_root((out / f"{name}.svg").read_text()).get("width")

    @pytest.mark.parametrize("flags, message", [
        (["--cell-size", "0"], "cell size must be positive"),
        (["--cell-size", str(10 ** 400)], "cell size too large to draw"),
        (["--shape", "pentagon:3"], "unknown shape kind 'pentagon'"),
        (["--shape", "rect:3x3"], "region has no tiling"),
        (["--shape", "holed-square:5"],
         "extremal tilings need a simply connected region"),
        (["--shape", "square:2000"],
         "shape 'square:2000' has 4000000 cells, cap is 1048576"),
    ], ids=["zero", "400-digit", "bad-shape", "untileable", "holed",
            "over-cap"])
    def test_bad_arguments_are_usage_errors(self, tmp_path, flags, message):
        out = tmp_path / "gallery"
        done = run_capped(str(GALLERY), "--out-dir", str(out), *flags,
                          timeout=60)
        assert done.returncode == 2
        assert done.stderr.endswith(f"error: {message}\n")
        assert "Traceback" not in done.stderr and not out.exists()


FAR = 10 ** 400


class TestFarAwayRegions:
    """Regions past the float range: a 2x2 block at x = 10**400 draws in
    the planar modes, whose points take the region's corner off first;
    its isometric picture, and every picture of a region whose cells lie
    10**400 apart, is refused as bad input."""

    REGIONS = {
        "far-block": ([[FAR, 0], [FAR + 1, 0], [FAR, 1], [FAR + 1, 1]],
                      [[[FAR, 0], [FAR + 1, 0]], [[FAR, 1], [FAR + 1, 1]]],
                      [[[FAR, 0], [FAR, 1]], [[FAR + 1, 0], [FAR + 1, 1]]],
                      {"tiling": 0, "cycles": 0, "filling": 3}),
        "far-apart": ([[0, 0], [1, 0], [FAR, 0], [FAR + 1, 0]],
                      [[[0, 0], [1, 0]], [[FAR, 0], [FAR + 1, 0]]],
                      [[[0, 0], [1, 0]], [[FAR, 0], [FAR + 1, 0]]],
                      {"tiling": 3, "cycles": 3, "filling": 3}),
    }

    @pytest.mark.parametrize("name", sorted(REGIONS))
    def test_render_or_refuse(self, tmp_path, name):
        cells, t1, t2, codes = self.REGIONS[name]
        files = {}
        for key, data in (("shape", {"cells": cells}),
                          ("t1", {"dominoes": t1}), ("t2", {"dominoes": t2})):
            files[key] = tmp_path / f"{key}.json"
            files[key].write_text(json.dumps(data))
        for mode, code in codes.items():
            out = tmp_path / f"{mode}.svg"
            done = run_capped(
                "-m", "dominoflip.cli", "render", "--mode", mode,
                "--shape", f"file:{files['shape']}", "--t1", str(files["t1"]),
                "--t2", str(files["t2"]), "--out", str(out), timeout=60)
            assert done.returncode == code, (mode, done.stderr)
            assert "Traceback" not in done.stderr, mode
            if code == 0:
                assert svg_root(out.read_text()).get("width") == "96.0"
            else:
                assert done.stderr.startswith("error: region too "), mode

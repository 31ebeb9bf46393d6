#!/usr/bin/env python3
"""Render a small SVG gallery for a shape: its two extreme tilings, the
cycle collection between them, and the resulting filling shape.

Usage:
    python scripts/render_gallery.py --shape aztec:4 --out-dir gallery/
"""

import argparse
from pathlib import Path

from dominoflip import DominoError, extremal_tilings
from dominoflip.cli import ShapeSpec
from dominoflip.render import render_cycles, render_filling, render_tiling


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", default="aztec:4",
                        help="rect:MxN | square:N | aztec:N | file:PATH")
    parser.add_argument("--out-dir", default="gallery")
    parser.add_argument("--cell-size", type=int, default=24)
    args = parser.parse_args()

    try:  # a bad, untileable or oversized shape, or a bad cell size
        region = ShapeSpec(args.shape).region
        tmin, tmax = extremal_tilings(region)
        pictures = {
            "tmin.svg": render_tiling(region, tmin, args.cell_size),
            "tmax.svg": render_tiling(region, tmax, args.cell_size),
            "cycles.svg": render_cycles(region, tmax, tmin, args.cell_size),
            "filling.svg": render_filling(region, tmax, tmin, args.cell_size),
        }
    except (ValueError, DominoError) as exc:
        parser.error(str(exc))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, svg in pictures.items():
        path = out / name
        path.write_text(svg, encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Tabulate flip-graph sizes and diameters for standard shapes.

For every shape the level sum and the closed form are printed; when the
tiling count stays within --bfs-limit, the flip-graph search confirms
the diameter as well, and the script stops with an assertion error on
any row where the routes disagree.

Usage:
    python scripts/diameter_table.py --max-rect 8 --max-aztec 6
"""

import argparse

from dominoflip import (count_tilings, diameter_aztec_closed, diameter_bfs,
                        diameter_levels, diameter_rectangle_closed,
                        make_aztec, make_rectangle)


def rows(max_rect, max_aztec, bfs_limit):
    for n in range(2, max_rect + 1):
        for m in range(n, max_rect + 1):
            if (m * n) % 2:
                continue
            region = make_rectangle(m, n)
            yield (f"rect {m}x{n}", region,
                   diameter_rectangle_closed(m, n), bfs_limit)
    for n in range(1, max_aztec + 1):
        yield (f"aztec {n}", make_aztec(n), diameter_aztec_closed(n), bfs_limit)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-rect", type=int, default=8)
    parser.add_argument("--max-aztec", type=int, default=6)
    parser.add_argument("--bfs-limit", type=int, default=10_000,
                        help="search the flip graph when the tiling count "
                             "is at most this")
    args = parser.parse_args()

    print(f"{'shape':<12} {'tilings':>12} {'levels':>8} {'closed':>8} {'search':>8}")
    for label, region, closed, limit in rows(args.max_rect, args.max_aztec,
                                             args.bfs_limit):
        count = count_tilings(region)
        levels = diameter_levels(region)
        searched = "-"
        if count <= limit:
            searched = str(diameter_bfs(region).value)
            assert searched == str(levels) == str(closed), label
        print(f"{label:<12} {count:>12} {levels:>8} {closed:>8} {searched:>8}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Hold every route to every other on every polyomino up to a size.

Every fixed polyomino (an edge-connected cell set, up to translation)
of up to --max-cells cells is listed once by Redelmeier's algorithm
("Counting polyominoes: yet another attack", Discrete Math. 36, 1981).
On each one of even size the script checks:

- ``count_tilings`` against the enumeration, and against ``is_tileable``;
- on a simply connected region, the flip-graph search
  (``diameter_of_graph``) against the lattice spread
  (``diameter_lattice``), with the level sum ``diameter_levels`` held
  only as an upper bound;
- the flip distance from the canonically first tiling to every other
  one: breadth-first search against heights and cycles on a simply
  connected region, and cycles against breadth-first search, unreachable
  pairs included, on one with a hole or a corner pinch.

It prints one row per size and a total row, or stops at the first
disagreement, naming the cells, and exits 1.

Usage:
    python scripts/census.py --max-cells 10
"""

import argparse
import sys

from dominoflip import (DominoError, Region, count_tilings, diameter_lattice,
                        diameter_levels, diameter_of_graph, distance_cycles,
                        distance_height, enumerate_tilings)
from dominoflip.flipgraph import bfs_distances, build_flip_graph
from dominoflip.tiling import is_tileable

COLUMNS = ("polyominoes", "tileable", "simply connected", "level sum above",
           "distance pairs", "holed pairs")


class Disagreement(Exception):
    pass


def polyominoes(max_cells):
    """Yield each fixed polyomino of up to max_cells cells once, as the
    list of its cells, growing from the cell (0, 0), which is the lowest
    row's leftmost cell.  The list is reused: copy it to keep it.

    A cell joins the untried cells when one of its neighbours joins the
    polyomino, unless it was ever a candidate before on this branch; a
    cell once tried stays marked, so no polyomino is reached twice."""
    cells, marked = [], {(0, 0)}

    def grow(untried):
        while untried:
            x, y = untried.pop()
            cells.append((x, y))
            yield cells
            if len(cells) < max_cells:
                new = [(a, b) for a, b in ((x + 1, y), (x - 1, y),
                                           (x, y + 1), (x, y - 1))
                       if (b > 0 or b == 0 and a >= 0) and (a, b) not in marked]
                marked.update(new)
                yield from grow(untried + new)
                marked.difference_update(new)
            cells.pop()

    yield from grow([(0, 0)])


def agree(what, **routes):
    if len(set(routes.values())) > 1:
        found = ", ".join(f"{name} {value}" for name, value in routes.items())
        raise Disagreement(f"{what}: {found}")


def check(cells, row):
    """Hold the routes to each other on one region, counting into row."""
    region = Region(cells)
    tilings = enumerate_tilings(region)
    agree("tilings", count_tilings=count_tilings(region),
          enumeration=len(tilings))
    agree("tileable", is_tileable=is_tileable(region),
          enumeration=bool(tilings))
    if not tilings:
        return
    row["tileable"] += 1
    graph = build_flip_graph(region)
    first = tilings[0]
    bfs = bfs_distances(graph, graph.node_index(first))
    pairs = [(t, bfs[graph.node_index(t)]) for t in tilings[1:]]
    if region.simply_connected:
        row["simply connected"] += 1
        search = diameter_of_graph(graph).value
        agree("diameter", search=search, lattice=diameter_lattice(region))
        levels = diameter_levels(region)
        if levels < search:
            raise Disagreement(f"level sum {levels} below the diameter {search}")
        row["level sum above"] += levels > search
        for t, d in pairs:
            agree("distance from the first tiling", bfs=d,
                  height=distance_height(region, first, t),
                  cycles=distance_cycles(region, first, t))
        row["distance pairs"] += len(pairs)
    else:
        for t, d in pairs:
            agree("distance from the first tiling", bfs=d,
                  cycles=distance_cycles(region, first, t))
        row["holed pairs"] += len(pairs)


def census(max_cells):
    """Print the rows; raise Disagreement naming the cells on the first
    route that disagrees with another or refuses a region it should
    answer."""
    rows = {n: dict.fromkeys(COLUMNS, 0) for n in range(2, max_cells + 1, 2)}
    for cells in polyominoes(max_cells):
        row = rows.get(len(cells))
        if row is None:
            continue
        row["polyominoes"] += 1
        try:
            check(cells, row)
        except (Disagreement, DominoError, ValueError) as exc:
            raise Disagreement(f"cells {sorted(cells)}: {exc}") from exc
    total = {c: sum(row[c] for row in rows.values()) for c in COLUMNS}
    print(f"{'cells':>5}" + "".join(f"  {c:>{len(c)}}" for c in COLUMNS))
    for label, row in [*rows.items(), (f"<={max_cells}", total)]:
        print(f"{label:>5}" + "".join(f"  {row[c]:>{len(c)},}" for c in COLUMNS))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-cells", type=int, default=8)
    args = parser.parse_args(argv)
    try:
        census(args.max_cells)
    except Disagreement as exc:
        print(f"disagreement on {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

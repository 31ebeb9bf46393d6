import importlib.util
from collections import Counter
from pathlib import Path

from conftest import run_capped

CENSUS = Path(__file__).resolve().parents[1] / "scripts/census.py"


def load_census():
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_polyominoes_listed_once_each():
    # fixed polyominoes by size (OEIS A001168), each translation class once
    shapes = [frozenset(cells) for cells in load_census().polyominoes(8)]
    sizes = Counter(map(len, shapes))
    assert [sizes[n] for n in range(1, 9)] == [1, 2, 6, 19, 63, 216, 760, 2725]
    assert len(set(shapes)) == len(shapes)
    assert all(min(cells, key=lambda c: (c[1], c[0])) == (0, 0)
               for cells in shapes)


def test_every_route_agrees_up_to_eight_cells():
    done = run_capped(str(CENSUS), "--max-cells", "8")
    assert done.returncode == 0, done.stderr
    # even-sized, tileable, simply connected, level sum above the search,
    # then the pairs checked from the first tiling: hole-free, and not
    total = done.stdout.splitlines()[-1].split()
    assert total == ["<=8", "2,962", "1,698", "1,681", "260", "349", "1"]
    # then one line per library route on stderr: its CPU seconds
    lines = [line.split() for line in done.stderr.splitlines()]
    assert [line[1] for line in lines] == [
        "enumerate_tilings", "count_tilings", "is_tileable",
        "build_flip_graph", "bfs_distances", "diameter_of_graph",
        "diameter_lattice", "diameter_levels", "distance_height",
        "distance_cycles"]
    assert all(line[0] == "cpu" and float(line[2]) >= 0 and line[3] == "s"
               for line in lines)


def test_a_disagreement_names_the_cells(monkeypatch, capsys):
    census = load_census()
    monkeypatch.setattr(census, "distance_cycles", lambda region, a, b: -1)
    assert census.main(["--max-cells", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("disagreement on cells [(")
    assert "cycles -1" in err

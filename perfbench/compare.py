"""Compare the output digests of two benchmark records.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Each record is a file the benchmark wrote to .perfbench/results/, from
the same workload and seed, for example one from a parent commit and one
from a change.  Every job's digest covers its exit code, stdout and the
files it wrote, so equal digests mean byte-identical output.  Prints
each job whose output differs and exits 1 if any does.
"""

from __future__ import annotations

import json
import sys


def differing(before: dict, after: dict) -> list[str]:
    if (before["workload"], before["seed"]) != (after["workload"],
                                                after["seed"]):
        raise ValueError("records are of different workloads or seeds")
    old = {tuple(j["argv"]): j["digest"] for j in before["jobs"]}
    new = {tuple(j["argv"]): j["digest"] for j in after["jobs"]}
    return [" ".join(argv) for argv in sorted(old.keys() | new.keys())
            if old.get(argv) != new.get(argv)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    try:
        changed = differing(*records)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in changed:
        print(f"output differs: {line}")
    print(f"{len(changed)} of {len(records[0]['jobs'])} jobs differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

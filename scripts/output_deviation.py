"""Print how far the outputs of two sets of CLI runs moved, file by file.

A and B are directories of run directories, as scripts/manifest_hashes.py
--keep writes them. For every run in both, each output whose manifest hash
differs is read as numbers: a CSV cell by cell, a JSON file leaf by leaf.
The table gives the largest absolute difference of a number in each moved
file, and notes a file whose text, shape or presence differs. It is a
report: the exit code is 0 whatever moved.

    PYTHONPATH=base/src python3 scripts/manifest_hashes.py --keep out-base > /dev/null
    PYTHONPATH=src python3 scripts/manifest_hashes.py --keep out-head > /dev/null
    python3 scripts/output_deviation.py out-base out-head
"""

import argparse
import csv
import json
import math
from pathlib import Path


class Deviation:
    """The largest absolute difference of the numbers seen, and notes."""

    def __init__(self):
        self.largest = 0.0
        self.notes = set()

    def numbers(self, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        gap = abs(a - b)
        self.largest = max(self.largest, gap if not math.isnan(gap) else math.inf)

    def values(self, a, b) -> None:
        """Compare two parsed JSON values."""
        number = (int, float)
        if isinstance(a, number) and isinstance(b, number) and not isinstance(a, bool):
            self.numbers(float(a), float(b))
        elif isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.notes.add("keys differ")
            for key in a.keys() & b.keys():
                self.values(a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.notes.add("lengths differ")
            for x, y in zip(a, b):
                self.values(x, y)
        elif a != b:
            self.notes.add("text differs")

    def cells(self, a: str, b: str) -> None:
        try:
            self.numbers(float(a), float(b))
        except ValueError:
            if a != b:
                self.notes.add("text differs")


def compare(a: Path, b: Path) -> Deviation:
    dev = Deviation()
    if a.suffix == ".json":
        dev.values(json.loads(a.read_text()), json.loads(b.read_text()))
    elif a.suffix == ".csv":
        with open(a, newline="") as fa, open(b, newline="") as fb:
            rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
        if len(rows_a) != len(rows_b) or any(len(x) != len(y) for x, y in zip(rows_a, rows_b)):
            dev.notes.add("shape differs")
        for row_a, row_b in zip(rows_a, rows_b):
            for x, y in zip(row_a, row_b):
                dev.cells(x, y)
    else:
        dev.notes.add("text differs")
    return dev


def moved(base: Path, head: Path) -> list[tuple[str, str, str, str]]:
    """(run, file, largest deviation, notes) for each output that differs."""
    rows = []
    for run in sorted(p.name for p in base.iterdir() if (p / "manifest.json").is_file()):
        if not (head / run / "manifest.json").is_file():
            rows.append((run, "", "", "run only in A"))
            continue
        hashes_a = json.loads((base / run / "manifest.json").read_text())["outputs"]
        hashes_b = json.loads((head / run / "manifest.json").read_text())["outputs"]
        for name in sorted(hashes_a.keys() | hashes_b.keys()):
            if hashes_a.get(name) == hashes_b.get(name):
                continue
            if name not in hashes_a or name not in hashes_b:
                rows.append((run, name, "", "file only in " + ("B" if name in hashes_b else "A")))
                continue
            dev = compare(base / run / name, head / run / name)
            rows.append((run, name, f"{dev.largest:.2g}", ", ".join(sorted(dev.notes))))
    for run in sorted(p.name for p in head.iterdir() if (p / "manifest.json").is_file()):
        if not (base / run / "manifest.json").is_file():
            rows.append((run, "", "", "run only in B"))
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="the base runs")
    ap.add_argument("b", type=Path, help="the runs compared with them")
    args = ap.parse_args()
    rows = moved(args.a, args.b)
    if not rows:
        print("No output moved.")
        return
    print("| run | file | largest absolute deviation | note |")
    print("| --- | --- | --- | --- |")
    for row in rows:
        print("| " + " | ".join(row) + " |")


if __name__ == "__main__":
    main()

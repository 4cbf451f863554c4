#!/usr/bin/env python3
"""Run all three golden-table reproductions against the bundled fixture.

Writes per-check reports into an output directory and prints one summary
line per table.  A table fails when its MISMATCH rows differ from the ones
it is known to have: none for tables 1 and 3, and the cells of
``reference.TABLE4_DIVERGENT_CELLS`` for table 4.  It also fails when its
command writes no report or exits with a code other than 0 or 1, and its
line then gives that code.  Exit status is the number of failed tables.
"""
import argparse
import csv
import pathlib
import sys

from cnifkit.cli import main as cli_main
from cnifkit.reference import TABLE4_DIVERGENT_CELLS

# command -> (report columns naming a check, checks known to mismatch)
TABLES = {
    "reproduce-table1": (("category",), frozenset()),
    "reproduce-table3": (("edition", "check"), frozenset()),
    "reproduce-table4": (("edition", "component", "band"), TABLE4_DIVERGENT_CELLS),
}


def mismatches(report: pathlib.Path, key: tuple[str, ...]) -> set[tuple[str, ...]]:
    with report.open(newline="", encoding="utf-8") as f:
        return {
            tuple(row[k] for k in key) for row in csv.DictReader(f) if row["status"] == "MISMATCH"
        }


def run(out_dir: pathlib.Path, fixture: str | None) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name, (key, known) in TABLES.items():
        report = out_dir / f"{name}.csv"
        argv = [name, "--out", str(report)]
        if fixture is not None:
            argv += ["--fixture", fixture]
        report.unlink(missing_ok=True)  # a report of an earlier run must not pass for this one
        code = cli_main(argv)
        if code not in (0, 1) or not report.exists():
            print(f"{name}: failed with exit {code}")
            failures += 1
        elif mismatches(report, key) != known:
            print(f"{name}: MISMATCH (see report) -> {report}")
            failures += 1
        else:
            status = f"ok ({len(known)} known divergences)" if known else "ok"
            print(f"{name}: {status} -> {report}")
    return failures


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reproduction-out")
    parser.add_argument("--fixture", help="alternative category fixture CSV")
    args = parser.parse_args()
    sys.exit(run(pathlib.Path(args.out_dir), args.fixture))

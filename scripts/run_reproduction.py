#!/usr/bin/env python3
"""Run all three golden-table reproductions against the bundled fixture.

Writes per-check reports into an output directory and prints one summary
line per table.  A table fails when its MISMATCH rows differ from the ones
it is known to have: none for tables 1 and 3, and the cells of
``reference.TABLE4_DIVERGENT_CELLS`` for table 4.  Exit status is the number
of failed tables.
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
        code = cli_main(argv)
        failed = code not in (0, 1) or mismatches(report, key) != known
        if failed:
            status = "MISMATCH (see report)"
        else:
            status = f"ok ({len(known)} known divergences)" if known else "ok"
        print(f"{name}: {status} -> {report}")
        failures += failed
    return failures


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reproduction-out")
    parser.add_argument("--fixture", help="alternative category fixture CSV")
    args = parser.parse_args()
    sys.exit(run(pathlib.Path(args.out_dir), args.fixture))

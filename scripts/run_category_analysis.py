#!/usr/bin/env python3
"""Full statistical pass over one edition (or all) of the bundled category table.

Emits correlation matrix, eigen report, normality tests, sd-band histograms,
and the Ward merge list (with a k-cluster cut) into an output directory.
"""
import argparse
import pathlib
import sys

from cnifkit.cli import main as cli_main


def run(edition: str, k: int, out_dir: pathlib.Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [
        (["stats", "corr"], "correlations.csv"),
        (["stats", "pca"], "eigen.json"),
        (["stats", "ks", "--format", "json"], "normality.json"),
        (["stats", "hist", "--format", "json"], "histograms.json"),
        (["stats", "cluster", "--k", str(k)], "merges.csv"),
    ]
    for argv, filename in jobs:
        target = out_dir / filename
        code = cli_main(argv + ["--edition", edition, "--out", str(target)])
        if code != 0:
            print(f"{' '.join(argv)}: failed with exit {code}", file=sys.stderr)
            return code
        print(f"{' '.join(argv)} -> {target}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--edition", choices=("science", "social", "all"), default="science")
    parser.add_argument("--k", type=int, default=6, help="cluster count for the dendrogram cut")
    parser.add_argument("--out-dir", default="analysis-out")
    args = parser.parse_args()
    sys.exit(run(args.edition, args.k, pathlib.Path(args.out_dir)))

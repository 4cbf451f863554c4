"""The benchmark's workloads: which CLI commands one pass runs, on what input.

A pass is a closed loop with one client: the commands run one after the
other in a single fresh interpreter, each through ``cnifkit.cli.main(argv)``
with ``--out`` pointing into a per-pass temporary directory.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    name: str  # per-command metric stem: <name>_s
    argv: tuple[str, ...]
    takes_input: bool = False  # append --input <generated csv>
    exit_code: int = 0  # the exit code the command has at the recorded baseline
    side_files: tuple[str, ...] = ()  # suffixes the command appends to --out

    @property
    def cli_name(self) -> str:
        """The CLI command, as used in the ``cli.<command>.self_s`` layer metric."""
        if self.argv[0] == "stats":
            return f"stats.{self.argv[1]}"
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    journals: int  # size of the generated journal set; 0 = bundled reference table only
    commands: tuple[Command, ...]
    why: str


def _category_analysis(edition: str) -> tuple[Command, ...]:
    """The five commands of scripts/run_category_analysis.py for one edition."""
    jobs = (
        ("corr", ("stats", "corr"), ()),
        ("pca", ("stats", "pca"), ()),
        ("ks", ("stats", "ks", "--format", "json"), ()),
        ("hist", ("stats", "hist", "--format", "json"), ()),
        ("cluster", ("stats", "cluster", "--k", "6"), (".clusters",)),
    )
    return tuple(
        Command(f"{edition}_{name}", argv + ("--edition", edition), side_files=side)
        for name, argv, side in jobs
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "score-2k",
            2000,
            (
                Command("cnif", ("cnif",), takes_input=True),
                Command("rank_cnif", ("rank", "--scorer", "cnif"), takes_input=True),
                Command("gap", ("gap",), takes_input=True, side_files=(".summary",)),
            ),
            "2,000 seeded journals through cnif, rank --scorer cnif and gap: the quadratic "
            "CNIF path, where indicators and ranking do the work",
        ),
        Workload(
            "ingest-10k",
            10000,
            (
                Command("validate", ("validate", "--format", "json"), takes_input=True),
                Command("indicators", ("indicators",), takes_input=True),
                Command("rank_if", ("rank", "--scorer", "if"), takes_input=True),
                Command("decompose_input", ("decompose",), takes_input=True),
            ),
            "10,000 seeded journals (full-JCR scale) through validate, indicators, rank "
            "--scorer if and decompose: linear parse, scan and emit paths, no CNIF",
        ),
        Workload(
            "reference-stats",
            0,
            _category_analysis("science")
            + _category_analysis("social")
            + (
                Command("cluster", ("stats", "cluster", "--k", "6"), side_files=(".clusters",)),
                Command("decompose", ("decompose",)),
                Command("reproduce_table1", ("reproduce-table1",)),
                Command("reproduce_table3", ("reproduce-table3",)),
                # 7 of 30 sd-band cells miss the published table (ROADMAP, criterion 7)
                Command("reproduce_table4", ("reproduce-table4",), exit_code=1),
            ),
            "the bundled 230-row table through the category-analysis script, cluster, "
            "decompose and tables 1/3/4: Ward and PCA, no journal CSV",
        ),
    )
}

# The CLI commands any workload runs, for the cli.<command>.self_s layer metrics.
CLI_COMMANDS = sorted({c.cli_name for w in WORKLOADS.values() for c in w.commands})

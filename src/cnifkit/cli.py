"""Command-line front end: ingest -> indicators -> ranking/stats -> reports.

Each command is a ``COMMANDS`` entry whose row function returns the exit code
and every output's rows; ``main`` writes them only after all are computed.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

from . import indicators, ingest, ranking, reference, stats
from .core_model import Edition, validate
from .ingest import CategoryFixtureRow

USAGE_ERROR = 2
DATA_ERROR = 1
COMPONENTS = ("a", "r", "p", "w", "b")

Outputs = tuple[int, dict[str, list[dict]]]  # exit code, {--out suffix: rows}


def round_away(x: float, digits: int) -> float:
    """Round half away from zero at the given number of decimals."""
    scale = 10**digits
    scaled = x * scale
    if scaled >= 0:
        return int(scaled + 0.5) / scale
    return -int(-scaled + 0.5) / scale


def _fixture(args) -> list[CategoryFixtureRow]:
    """The fixture rows of the chosen --edition; all rows for a command without one."""
    path = args.fixture or reference.bundled_fixture_path()
    rows = ingest.read_csv(path, ingest.parse_category_fixture_csv)
    return edition_rows(rows, getattr(args, "edition", "all"))


def edition_rows(rows: list[CategoryFixtureRow], edition: str) -> list[CategoryFixtureRow]:
    if edition == "all":
        return rows
    wanted = Edition.SCIENCE if edition == "science" else Edition.SOCIAL_SCIENCE
    return [r for r in rows if r.edition == wanted]


def component_columns(rows: list[CategoryFixtureRow]) -> dict[str, list[Optional[float]]]:
    return {k: list(map(attrgetter(f"printed_{k}"), rows)) for k in COMPONENTS}


def _digits(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {n}")
    return n


def _number(value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if math.isnan(x):
        raise argparse.ArgumentTypeError(f"not a number: {value!r}")
    return x


def _alpha(value: str) -> float:
    x = _number(value)
    if not 0 < x < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {value}")
    return x


def _fmt(x: Optional[float], digits: int) -> str:
    return "" if x is None else f"{round_away(x, digits):.{digits}f}"


def _cells(obj, names, digits: int) -> dict[str, str]:
    return {name: _fmt(getattr(obj, name), digits) for name in names}


def _validate_rows(args) -> Outputs:
    report = validate(ingest.read_csv(args.input, ingest.parse_journals_csv, strict=False))
    rows = [{"record_id": v.record_id, "rule": v.rule} for v in report]
    return (DATA_ERROR if report else 0), {"": rows}


def _indicator_rows(args) -> Outputs:
    dataset = ingest.read_csv(args.input, ingest.parse_journals_csv)
    rows = []
    for code in dataset.category_codes():
        agg = indicators.category_aggregate(dataset, code)
        row = {"category": code, "journals": len(dataset.member_rows(code))}
        try:
            row["aif"] = _fmt(indicators.aggregate_impact_factor(agg), args.digits)
        except ValueError:  # UndefinedIndicatorError
            row["aif"] = ""
        try:
            row.update(_cells(indicators.components(agg), COMPONENTS, args.digits))
        except ValueError:
            row.update(dict.fromkeys(COMPONENTS, ""))
        row["reference_exclusions"] = agg.reference_exclusions
        rows.append(row)
    return 0, {"": rows}


def _decompose_rows(args) -> Outputs:
    rows = []
    if args.input:
        dataset = ingest.read_csv(args.input, ingest.parse_journals_csv)
        for code in dataset.category_codes():
            agg = indicators.category_aggregate(dataset, code)
            cv = indicators.components(agg)
            rows.append(
                {
                    "category": code,
                    **_cells(cv, COMPONENTS, args.digits),
                    "product": _fmt(indicators.recompose(cv), args.digits),
                    "aif": _fmt(indicators.aggregate_impact_factor(agg), args.digits),
                }
            )
    else:
        for r in _fixture(args):
            pwb = (_fmt(v, args.digits) for v in indicators.fixture_reference_components(r))
            rows.append({"category": r.code, **dict(zip("pwb", pwb))})
    return 0, {"": rows}


def _cnif_rows(args) -> Outputs:
    dataset = ingest.read_csv(args.input, ingest.parse_journals_csv)
    ids = dataset.columns["id"]
    rows = []
    for i in sorted(range(len(ids)), key=ids.__getitem__):
        score = indicators.row_cnif(dataset, i)
        rows.append(
            {
                "journal_id": score.journal_id,
                "if": _fmt(score.if_value, args.digits),
                **_cells(score, ("meta_aif", "jcr_aif", "score", "cnif"), args.digits),
            }
        )
    return 0, {"": rows}


def _rank_rows(args) -> Outputs:
    dataset = ingest.read_csv(args.input, ingest.parse_journals_csv)
    rows = [
        {
            "category": e.category,
            "journal_id": e.journal_id,
            "score_desc": args.scorer,  # higher score = better (lower) percentile
            "score": _fmt(e.score, args.digits),
            "rank": e.rank,
            "percentile": _fmt(e.percentile, args.digits),
        }
        for code in dataset.category_codes()
        for e in ranking.rank_category(dataset, code, args.scorer)
    ]
    return 0, {"": rows}


def _gap_rows(args) -> Outputs:
    dataset = ingest.read_csv(args.input, ingest.parse_journals_csv)
    summary, reports = ranking.compare_gaps(dataset)
    cnif_score = ranking.score_function(dataset, "cnif")
    ids, categories = dataset.columns["id"], dataset.columns["categories"]
    by_id = iter(sorted(range(len(ids)), key=ids.__getitem__))  # compare_gaps reports in id order
    rows = []
    for r in reports:
        i = next(i for i in by_id if ids[i] == r.journal_id)
        rows.append(
            {
                "journal_id": r.journal_id,
                "categories": ";".join(categories[i]),
                "if": _fmt(indicators.row_impact_factor(dataset, i), args.digits),
                "cnif": _fmt(cnif_score(i), args.digits),
                "gap_if": _fmt(r.gap_if, args.digits),
                "gap_cnif": _fmt(r.gap_cnif, args.digits),
            }
        )
    measures = ("max_gap_if", "max_gap_cnif", "mean_gap_if", "mean_gap_cnif", "fraction_reduced")
    summary_row = {"journal_count": summary.journal_count, **_cells(summary, measures, args.digits)}
    return 0, {"": rows, ".summary": [summary_row]}


def _corr_rows(args) -> Outputs:
    matrix = stats.correlation_matrix(component_columns(_fixture(args)))
    if args.format == "json":
        first, cell = "variable", lambda v: round_away(float(v), args.digits)
    else:  # the CSV header row starts with an empty cell
        first, cell = "", lambda v: _fmt(float(v), args.digits)
    rows = [
        {first: lab, **{c: cell(v) for c, v in zip(matrix.labels, matrix.values[i])}}
        for i, lab in enumerate(matrix.labels)
    ]
    return 0, {"": rows}


def _pca_rows(args) -> Outputs:
    result = stats.pca_variance_shares(component_columns(_fixture(args)))
    report = {
        "labels": list(result.labels),
        "eigenvalues": [round_away(float(v), 6) for v in result.eigen.eigenvalues],
        "variance_shares": [round_away(float(v), 6) for v in result.eigen.variance_shares],
        "loadings": [[round_away(float(v), 6) for v in col] for col in result.eigen.eigenvectors.T],
        "assignment": list(result.assignment),
        "attributed_shares": {k: round_away(v, 6) for k, v in result.attributed_shares.items()},
    }
    return 0, {"": [report]}


def _ks_rows(args) -> Outputs:
    rows = []
    for name, col in component_columns(_fixture(args)).items():
        sample = [v for v in col if v is not None]
        res = stats.ks_normality(sample, alpha=args.alpha, lilliefors=args.lilliefors)
        rows.append(
            {
                "component": name,
                "n": res.sample_size,
                **_cells(res, ("statistic", "critical_value"), args.digits),
                "alpha": res.alpha,
                "reject_normality": res.reject,
            }
        )
    return 0, {"": rows}


def _hist_rows(args) -> Outputs:
    rows = []
    for name, col in component_columns(_fixture(args)).items():
        h = stats.histogram_by_sd([v for v in col if v is not None])
        rows.append(
            {
                "component": name,
                "n": h.sample_size,
                "dropped": len(col) - h.sample_size,
                **_cells(h, ("mean", "sd"), args.digits),
                **{f"bin{i}": c for i, c in enumerate(h.bin_counts)},
                **_cells(h, ("coverage_1s", "coverage_2s", "coverage_3s"), 2),
            }
        )
    return 0, {"": rows}


def _cluster_rows(args) -> Outputs:
    complete = [r for r in _fixture(args) if r.is_complete()]
    vectors = list(zip(*component_columns(complete).values()))
    dendrogram = stats.ward_cluster([r.code for r in complete], vectors)
    # each merge's fields in their order, the height shown at 6 digits
    outputs = {"": [{**vars(m), "height": _fmt(m.height, 6)} for m in dendrogram.merges]}
    if args.k is not None or args.height is not None:
        cut = stats.cut_dendrogram(dendrogram, k=args.k, height=args.height)
        outputs[".clusters"] = [{"label": lab, "cluster": c} for lab, c in sorted(cut.items())]
    return 0, outputs


# The reproductions share one rule: a check that misses its reference is a
# MISMATCH row, and any MISMATCH row makes the command exit 1.
def _check(key: dict, got: float, want: float, tolerance: float, digits: tuple[int, int]) -> dict:
    """A check row: its key columns, both values at the given digits, and its status."""
    shown = {"computed": f"{got:.{digits[0]}f}", "reference": f"{want:.{digits[1]}f}"}
    return {**key, **shown, "status": "ok" if abs(got - want) <= tolerance else "MISMATCH"}


def _checked(rows: list[dict]) -> Outputs:
    return (DATA_ERROR if any(r["status"] == "MISMATCH" for r in rows) else 0), {"": rows}


def _table1_rows(args) -> Outputs:
    fixture = _fixture(args)
    rows = []
    for r in fixture:
        row = {"category": r.code}
        ok = True
        computed = indicators.fixture_reference_components(r)
        for name, value, printed in zip("pwb", computed, (r.printed_p, r.printed_w, r.printed_b)):
            if printed is None:
                row[name] = "absent"
                continue
            rounded = round_away(value, 2)
            match = abs(rounded - printed) <= 0.01 + 1e-12
            row[name] = f"{rounded:.2f}" + ("" if match else f"!={printed:.2f}")
            ok = ok and match
        row["status"] = "ok" if ok else "MISMATCH"
        rows.append(row)
    total = f"{sum(r['status'] == 'MISMATCH' for r in rows)} mismatches / {len(fixture)} rows"
    rows.append({"category": "TOTAL", "p": "", "w": "", "b": "", "status": total})
    return _checked(rows)


def _table3_rows(args) -> Outputs:
    fixture = _fixture(args)
    rows = []
    for edition in ("science", "social"):
        columns = component_columns(edition_rows(fixture, edition))
        matrix = stats.correlation_matrix(columns)
        for (x, y), want in reference.CORRELATIONS[edition].items():
            key = {"edition": edition, "check": f"corr({x},{y})"}
            got = matrix.get(x, y)
            rows.append(_check(key, got, want, reference.CORRELATION_TOLERANCE, (4, 2)))
        top_k, want = reference.PCA_TOP_SHARE[edition]
        shares = sorted(stats.pca_variance_shares(columns).attributed_shares.values(), reverse=True)
        key = {"edition": edition, "check": f"pca top-{top_k} share"}
        got = sum(shares[:top_k])
        rows.append(_check(key, got, want, reference.PCA_TOP_SHARE_TOLERANCE, (4, 4)))
    return _checked(rows)


def _table4_rows(args) -> Outputs:
    fixture = _fixture(args)
    rows = []
    for edition in ("science", "social"):
        for name, col in component_columns(edition_rows(fixture, edition)).items():
            h = stats.histogram_by_sd([v for v in col if v is not None])
            for band, want in zip(("1s", "2s", "3s"), reference.SD_COVERAGE[edition][name]):
                key = {"edition": edition, "component": name, "band": band}
                got = getattr(h, f"coverage_{band}")
                rows.append(_check(key, got, want, reference.SD_COVERAGE_TOLERANCE, (2, 2)))
    return _checked(rows)


@dataclass(frozen=True)
class Command:
    name: str  # "stats corr" is the subcommand corr of stats
    rows: Callable[[argparse.Namespace], Outputs]
    source: str = "--fixture"  # or "--input", which is then required
    digits: int = 3  # default --digits
    extra: tuple[str, ...] = ()  # flags of ARGUMENTS
    fmt: Optional[str] = None  # the only --format the command writes


ARGUMENTS = {
    "--input": {"help": "journal-level CSV (overrides --fixture)"},
    "--edition": {"choices": ("science", "social", "all"), "default": "all"},
    "--scorer": {"choices": ranking.SCORERS, "default": "if"},
    "--alpha": {"type": _alpha, "default": 0.05},
    "--lilliefors": {"action": "store_true"},
    "--k": {"type": int},
    "--height": {"type": _number},
}

COMMANDS = (
    Command("validate", _validate_rows, "--input"),
    Command("indicators", _indicator_rows, "--input"),
    Command("decompose", _decompose_rows, extra=("--input", "--edition")),
    Command("cnif", _cnif_rows, "--input"),
    Command("rank", _rank_rows, "--input", extra=("--scorer",)),
    Command("gap", _gap_rows, "--input"),
    Command("stats corr", _corr_rows, extra=("--edition",)),
    Command("stats pca", _pca_rows, extra=("--edition",), fmt="json"),
    Command("stats ks", _ks_rows, extra=("--edition", "--alpha", "--lilliefors")),
    Command("stats hist", _hist_rows, extra=("--edition",)),
    Command("stats cluster", _cluster_rows, extra=("--edition", "--k", "--height")),
    Command("reproduce-table1", _table1_rows, digits=2),
    Command("reproduce-table3", _table3_rows, digits=2),
    Command("reproduce-table4", _table4_rows, digits=2),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cnifkit")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {"": sub}
    for command in COMMANDS:
        group, _, leaf = command.name.rpartition(" ")
        if group not in groups:
            parent = sub.add_parser(group)
            groups[group] = parent.add_subparsers(dest=f"{group}_command", required=True)
        p = groups[group].add_parser(leaf)
        if command.source == "--input":
            p.add_argument("--input", required=True, help="journal-level CSV")
        else:
            p.add_argument("--fixture", help="category fixture CSV (default: bundled table)")
        p.add_argument("--out", help="output path (default: stdout)")
        formats = (command.fmt,) if command.fmt else ("csv", "json")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--digits", type=_digits, default=command.digits)
        for flag in command.extra:
            p.add_argument(flag, **ARGUMENTS[flag])
        p.set_defaults(run=command)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    written = []
    try:
        code, outputs = args.run.rows(args)
        for suffix, rows in outputs.items():
            if args.out is None:
                try:
                    ingest.emit_report(rows, args.format, sys.stdout)
                    sys.stdout.flush()
                except BrokenPipeError:  # the reader stopped early, as `| head` does
                    with open(os.devnull, "w") as devnull:  # so the flush at exit is silent
                        os.dup2(devnull.fileno(), sys.stdout.fileno())
                    return code
                continue
            with open(args.out + suffix, "w", encoding="utf-8") as f:
                written.append(f.name)
                ingest.emit_report(rows, args.format, f)
        return code
    except FileNotFoundError as exc:
        message, code = f"file not found: {exc.filename}", USAGE_ERROR
    except OSError as exc:  # a failed write to stdout names no file
        message = exc.strerror if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        code = USAGE_ERROR
    except ingest.ParseError as exc:
        message, code = str(exc), USAGE_ERROR
    except ValueError as exc:  # UndefinedIndicatorError among them
        message, code = str(exc), DATA_ERROR
    for path in written:  # a failed command leaves no output behind
        os.remove(path)
    print(f"error: {message}", file=sys.stderr)
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

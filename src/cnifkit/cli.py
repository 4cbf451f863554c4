"""Command-line front end: ingest -> indicators -> ranking/stats -> reports.

Each command is a ``COMMANDS`` entry whose row function returns the exit code
and every output's columns and rows; ``main`` writes them only after all are
computed.
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
from .core_model import Edition, clip, validate
from .ingest import CategoryFixtureRow

USAGE_ERROR = 2
DATA_ERROR = 1
COMPONENTS = ("a", "r", "p", "w", "b")

Table = tuple[tuple[str, ...], list[tuple]]  # column names, rows aligned with them
Outputs = tuple[int, dict[str, Table]]  # exit code, {--out suffix: table}


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
    wanted = Edition(edition)
    return [r for r in rows if r.edition == wanted]


def component_columns(rows: list[CategoryFixtureRow]) -> dict[str, list[Optional[float]]]:
    return {k: list(map(attrgetter(f"printed_{k}"), rows)) for k in COMPONENTS}


def _integer(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {clip(value)!r}") from None


def _digits(value: str) -> int:
    n = _integer(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {clip(n)}")
    if n > 17:  # no double carries more decimals, and |x| * 10**17 stays finite
        raise argparse.ArgumentTypeError(f"must be at most 17, got {clip(n)}")
    return n


def _number(value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if math.isnan(x):
        raise argparse.ArgumentTypeError(f"not a number: {clip(value)!r}")
    return x


def _alpha(value: str) -> float:
    x = _number(value)
    if not 0 < x < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {clip(value)}")
    if x / 2 == 0:  # the KS critical value takes log(alpha / 2)
        raise argparse.ArgumentTypeError(f"too small: alpha / 2 underflows to 0, got {clip(value)}")
    return x


def _fmt(x: Optional[float], digits: int) -> str:
    return "" if x is None else f"{round_away(x, digits):.{digits}f}"


def _cells(obj, names, digits: int) -> tuple[str, ...]:
    return tuple(_fmt(getattr(obj, name), digits) for name in names)


def _validate_rows(args) -> Outputs:
    report = validate(ingest.read_csv(args.input, ingest.parse_journals_csv, strict=False))
    rows = [(v.record_id, v.rule) for v in report]
    return (DATA_ERROR if report else 0), {"": (("record_id", "rule"), rows)}


def _indicator_rows(args) -> Outputs:
    dataset = ingest.read_csv(args.input, ingest.parse_journals_csv)
    rows = []
    for code in dataset.category_codes():
        agg = indicators.category_aggregate(dataset, code)
        try:
            aif = _fmt(indicators.aggregate_impact_factor(agg), args.digits)
        except ValueError:  # UndefinedIndicatorError
            aif = ""
        try:
            cells = _cells(indicators.components(agg), COMPONENTS, args.digits)
        except ValueError:
            cells = ("",) * len(COMPONENTS)
        journals = len(dataset.member_rows(code))
        rows.append((code, journals, aif, *cells, agg.reference_exclusions))
    columns = ("category", "journals", "aif", *COMPONENTS, "reference_exclusions")
    return 0, {"": (columns, rows)}


def _decompose_rows(args) -> Outputs:
    rows = []
    if args.input:
        dataset = ingest.read_csv(args.input, ingest.parse_journals_csv)
        for code in dataset.category_codes():
            agg = indicators.category_aggregate(dataset, code)
            cv = indicators.components(agg)
            product = _fmt(indicators.recompose(cv), args.digits)
            aif = _fmt(indicators.aggregate_impact_factor(agg), args.digits)
            rows.append((code, *_cells(cv, COMPONENTS, args.digits), product, aif))
        return 0, {"": (("category", *COMPONENTS, "product", "aif"), rows)}
    for r in _fixture(args):
        pwb = (_fmt(v, args.digits) for v in indicators.fixture_reference_components(r))
        rows.append((r.code, *pwb))
    return 0, {"": (("category", "p", "w", "b"), rows)}


def _cnif_rows(args) -> Outputs:
    dataset = ingest.read_csv(args.input, ingest.parse_journals_csv)
    ids = dataset.columns["id"]
    rows = [
        (ids[i], *(_fmt(v, args.digits) for v in indicators.row_cnif(dataset, i)))
        for i in sorted(range(len(ids)), key=ids.__getitem__)
    ]
    return 0, {"": (("journal_id", "if", "meta_aif", "jcr_aif", "score", "cnif"), rows)}


def _rank_rows(args) -> Outputs:
    dataset = ingest.read_csv(args.input, ingest.parse_journals_csv)
    column, ids = ranking.score_column(dataset, args.scorer), dataset.columns["id"]
    # score_desc names the scorer: a higher score is a better (lower) percentile
    columns = ("category", "journal_id", "score_desc", "score", "rank", "percentile")
    d = args.digits
    rows = [
        (code, jid, args.scorer, _fmt(s, d), rank, _fmt(pct, d))
        for code in dataset.category_codes()
        for s, jid, rank, pct in ranking._ranked(column, ids, dataset.member_rows(code))
    ]
    return 0, {"": (columns, rows)}


def _gap_rows(args) -> Outputs:
    dataset = ingest.read_csv(args.input, ingest.parse_journals_csv)
    summary, reports = ranking.compare_gaps(dataset)
    # compare_gaps ranked every row, so both columns hold only floats
    by_if, by_cnif = ranking.score_column(dataset, "if"), ranking.score_column(dataset, "cnif")
    ids, categories = dataset.columns["id"], dataset.columns["categories"]
    row_of = {jid: i for i, jid in enumerate(ids)}  # the row of each report's journal
    rows = []
    for r in reports:
        i = row_of[r.journal_id]
        cells = (_fmt(v, args.digits) for v in (by_if[i], by_cnif[i], r.gap_if, r.gap_cnif))
        rows.append((r.journal_id, ";".join(categories[i]), *cells))
    columns = ("journal_id", "categories", "if", "cnif", "gap_if", "gap_cnif")
    measures = ("max_gap_if", "max_gap_cnif", "mean_gap_if", "mean_gap_cnif", "fraction_reduced")
    summary_row = (summary.journal_count, *_cells(summary, measures, args.digits))
    return 0, {"": (columns, rows), ".summary": (("journal_count", *measures), [summary_row])}


def _corr_rows(args) -> Outputs:
    matrix = stats.correlation_matrix(component_columns(_fixture(args)))
    if args.format == "json":
        first, cell = "variable", lambda v: round_away(float(v), args.digits)
    else:  # the CSV header row starts with an empty cell
        first, cell = "", lambda v: _fmt(float(v), args.digits)
    rows = [(lab, *map(cell, matrix.values[i])) for i, lab in enumerate(matrix.labels)]
    return 0, {"": ((first, *matrix.labels), rows)}


def _pca_rows(args) -> Outputs:
    result = stats.pca_variance_shares(component_columns(_fixture(args)))
    columns = (
        "labels", "eigenvalues", "variance_shares", "loadings", "assignment", "attributed_shares"
    )
    report = (
        list(result.labels),
        [round_away(float(v), 6) for v in result.eigen.eigenvalues],
        [round_away(float(v), 6) for v in result.eigen.variance_shares],
        [[round_away(float(v), 6) for v in col] for col in result.eigen.eigenvectors.T],
        list(result.assignment),
        {k: round_away(v, 6) for k, v in result.attributed_shares.items()},
    )
    return 0, {"": (columns, [report])}


def _ks_rows(args) -> Outputs:
    rows = []
    for name, col in component_columns(_fixture(args)).items():
        sample = [v for v in col if v is not None]
        res = stats.ks_normality(sample, alpha=args.alpha, lilliefors=args.lilliefors)
        cells = _cells(res, ("statistic", "critical_value"), args.digits)
        rows.append((name, res.sample_size, *cells, res.alpha, res.reject))
    columns = ("component", "n", "statistic", "critical_value", "alpha", "reject_normality")
    return 0, {"": (columns, rows)}


def _hist_rows(args) -> Outputs:
    coverages = ("coverage_1s", "coverage_2s", "coverage_3s")
    rows = []
    for name, col in component_columns(_fixture(args)).items():
        h = stats.histogram_by_sd([v for v in col if v is not None])
        n, dropped = h.sample_size, len(col) - h.sample_size
        mean_sd, shares = _cells(h, ("mean", "sd"), args.digits), _cells(h, coverages, 2)
        rows.append((name, n, dropped, *mean_sd, *h.bin_counts, *shares))
    bins = tuple(f"bin{i}" for i in range(8))  # the 8 sd bands of histogram_by_sd
    return 0, {"": (("component", "n", "dropped", "mean", "sd", *bins, *coverages), rows)}


def _cluster_rows(args) -> Outputs:
    complete = [r for r in _fixture(args) if r.is_complete()]
    vectors = list(zip(*component_columns(complete).values()))
    dendrogram = stats.ward_cluster([r.code for r in complete], vectors)
    # each merge's fields, the height shown at 6 digits
    columns = ("left", "right", "height", "new_id", "size")
    rows = [(m.left, m.right, _fmt(m.height, 6), m.new_id, m.size) for m in dendrogram.merges]
    outputs = {"": (columns, rows)}
    if args.k is not None or args.height is not None:
        cut = stats.cut_dendrogram(dendrogram, k=args.k, height=args.height)
        outputs[".clusters"] = (("label", "cluster"), sorted(cut.items()))
    return 0, outputs


# The reproductions share one rule: a check that misses its reference is a
# MISMATCH row, and any MISMATCH row makes the command exit 1.
CHECK_COLUMNS = ("computed", "reference", "status")


def _check(key: tuple, got: float, want: float, tolerance: float, digits: tuple[int, int]) -> tuple:
    """A check row: its key cells, both values at the given digits, and its status."""
    status = "ok" if abs(got - want) <= tolerance else "MISMATCH"
    return (*key, f"{got:.{digits[0]}f}", f"{want:.{digits[1]}f}", status)


def _checked(columns: tuple[str, ...], rows: list[tuple]) -> Outputs:
    """The exit code and output of rows whose last cell is their status."""
    return (DATA_ERROR if any(r[-1] == "MISMATCH" for r in rows) else 0), {"": (columns, rows)}


def _table1_rows(args) -> Outputs:
    fixture = _fixture(args)
    rows = []
    for r in fixture:
        cells = []
        ok = True
        computed = indicators.fixture_reference_components(r)
        for value, printed in zip(computed, (r.printed_p, r.printed_w, r.printed_b)):
            if printed is None:
                cells.append("absent")
                continue
            rounded = round_away(value, 2)
            match = abs(rounded - printed) <= 0.01 + 1e-12
            cells.append(f"{rounded:.2f}" + ("" if match else f"!={printed:.2f}"))
            ok = ok and match
        rows.append((r.code, *cells, "ok" if ok else "MISMATCH"))
    total = f"{sum(r[-1] == 'MISMATCH' for r in rows)} mismatches / {len(fixture)} rows"
    rows.append(("TOTAL", "", "", "", total))
    return _checked(("category", "p", "w", "b", "status"), rows)


def _table3_rows(args) -> Outputs:
    fixture = _fixture(args)
    rows = []
    for edition in ("science", "social"):
        columns = component_columns(edition_rows(fixture, edition))
        matrix = stats.correlation_matrix(columns)
        for (x, y), want in reference.CORRELATIONS[edition].items():
            key = (edition, f"corr({x},{y})")
            got = matrix.get(x, y)
            rows.append(_check(key, got, want, reference.CORRELATION_TOLERANCE, (4, 2)))
        top_k, want = reference.PCA_TOP_SHARE[edition]
        shares = sorted(stats.pca_variance_shares(columns).attributed_shares.values(), reverse=True)
        key = (edition, f"pca top-{top_k} share")
        got = sum(shares[:top_k])
        rows.append(_check(key, got, want, reference.PCA_TOP_SHARE_TOLERANCE, (4, 4)))
    return _checked(("edition", "check", *CHECK_COLUMNS), rows)


def _table4_rows(args) -> Outputs:
    fixture = _fixture(args)
    rows = []
    for edition in ("science", "social"):
        for name, col in component_columns(edition_rows(fixture, edition)).items():
            h = stats.histogram_by_sd([v for v in col if v is not None])
            for band, want in zip(("1s", "2s", "3s"), reference.SD_COVERAGE[edition][name]):
                key = (edition, name, band)
                got = getattr(h, f"coverage_{band}")
                rows.append(_check(key, got, want, reference.SD_COVERAGE_TOLERANCE, (2, 2)))
    return _checked(("edition", "component", "band", *CHECK_COLUMNS), rows)


@dataclass(frozen=True)
class Command:
    name: str  # "stats corr" is the subcommand corr of stats
    rows: Callable[[argparse.Namespace], Outputs]
    source: str = "--fixture"  # or "--input", which is then required
    extra: tuple[str, ...] = ()  # flags of ARGUMENTS
    fmt: Optional[str] = None  # the only --format the command writes


ARGUMENTS = {
    "--digits": {"type": _digits, "default": 3},
    "--input": {"help": "journal-level CSV (overrides --fixture)"},
    "--edition": {"choices": ("science", "social", "all"), "default": "all"},
    "--scorer": {"choices": ranking.SCORERS, "default": "if"},
    "--alpha": {"type": _alpha, "default": 0.05},
    "--lilliefors": {"action": "store_true"},
    "--k": {"type": _integer},
    "--height": {"type": _number},
}

COMMANDS = (
    Command("validate", _validate_rows, "--input"),
    Command("indicators", _indicator_rows, "--input", extra=("--digits",)),
    Command("decompose", _decompose_rows, extra=("--input", "--edition", "--digits")),
    Command("cnif", _cnif_rows, "--input", extra=("--digits",)),
    Command("rank", _rank_rows, "--input", extra=("--scorer", "--digits")),
    Command("gap", _gap_rows, "--input", extra=("--digits",)),
    Command("stats corr", _corr_rows, extra=("--edition", "--digits")),
    Command("stats pca", _pca_rows, extra=("--edition",), fmt="json"),
    Command("stats ks", _ks_rows, extra=("--edition", "--alpha", "--lilliefors", "--digits")),
    Command("stats hist", _hist_rows, extra=("--edition", "--digits")),
    Command("stats cluster", _cluster_rows, extra=("--edition", "--k", "--height")),
    Command("reproduce-table1", _table1_rows),
    Command("reproduce-table3", _table3_rows),
    Command("reproduce-table4", _table4_rows),
)


def _add_arguments(parser: argparse.ArgumentParser, command: Command) -> None:
    if command.source == "--input":
        parser.add_argument("--input", required=True, help="journal-level CSV")
    else:
        parser.add_argument("--fixture", help="category fixture CSV (default: bundled table)")
    parser.add_argument("--out", help="output path (default: stdout)")
    formats = (command.fmt,) if command.fmt else ("csv", "json")
    parser.add_argument("--format", choices=formats, default=formats[0])
    for flag in command.extra:
        parser.add_argument(flag, **ARGUMENTS[flag])
    parser.set_defaults(run=command)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cnifkit")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {"": sub}
    for command in COMMANDS:
        group, _, leaf = command.name.rpartition(" ")
        if group not in groups:
            parent = sub.add_parser(group)
            groups[group] = parent.add_subparsers(dest=f"{group}_command", required=True)
        _add_arguments(groups[group].add_parser(leaf), command)
    return parser


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the named command's
    parser when that parser takes all of argv.  Otherwise the full tree parses
    argv, so a missing or unknown command and unrecognized arguments print its
    usage and error text."""
    argv = sys.argv[1:] if argv is None else list(argv)
    for command in COMMANDS:
        words = command.name.split()
        if argv[: len(words)] == words:
            # the full tree hands a command's parser exactly these arguments
            parser = argparse.ArgumentParser(prog=f"cnifkit {command.name}")
            _add_arguments(parser, command)
            args, rest = parser.parse_known_args(argv[len(words) :])
            if not rest:
                return args
            break
    return build_parser().parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    written = []
    try:
        code, outputs = args.run.rows(args)
        for suffix, (columns, rows) in outputs.items():
            if args.out is None:
                try:
                    ingest.emit_report(columns, rows, args.format, sys.stdout)
                    sys.stdout.flush()
                except BrokenPipeError:  # the reader stopped early, as `| head` does
                    with open(os.devnull, "w") as devnull:  # so the flush at exit is silent
                        os.dup2(devnull.fileno(), sys.stdout.fileno())
                    return code
                continue
            with open(args.out + suffix, "w", encoding="utf-8") as f:
                written.append(f.name)
                ingest.emit_report(columns, rows, args.format, f)
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

"""Command-line front end: ingest -> indicators -> ranking/stats -> reports.

Each command is a ``COMMANDS`` entry whose row function returns the exit code
and, for every output, its column names, each column's values (numbers, text,
None where undefined) and the decimals of the columns shown at fixed decimals.
``main`` formats those cells only after every value is computed, as it writes.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import indicators, ingest, ranking, reference, stats
from .core_model import Dataset, Edition, clip, validate
from .ingest import CategoryFixtureRow

USAGE_ERROR = 2
DATA_ERROR = 1
COMPONENTS = ("a", "r", "p", "w", "b")

# column names, each column's values, {name: decimals} of the columns the writer formats
Table = tuple[tuple[str, ...], Iterable[Iterable], dict[str, int]]
Outputs = tuple[int, dict[str, Table]]  # exit code, {--out suffix: table}


def round_away(x: float, digits: int) -> float:
    """Round half away from zero at the given number of decimals."""
    scale = 10**digits
    scaled = x * scale
    if scaled >= 0:
        return int(scaled + 0.5) / scale
    return -int(-scaled + 0.5) / scale


@functools.cache
def _bundled_rows() -> tuple[CategoryFixtureRow, ...]:
    """The bundled table's rows, parsed once per process."""
    path = reference.bundled_fixture_path()
    return tuple(ingest.read_csv(path, ingest.parse_category_fixture_csv))


# the last journal CSV parsed, keyed by the digest of its bytes
_parsed: dict[bytes, Dataset] = {}


def _journals(args, strict: bool = True) -> Dataset:
    """The dataset of the journal CSV at --input, parsed once while its bytes
    stay the same.  The first parse in a process digests the bytes as it
    reads them; later calls digest a regular file first and reuse the kept
    dataset on a match.  A pipe's bytes can be read only once, so it is
    parsed on every call, then kept like a file.  Errors are not kept: a
    strict caller gets a new ParseError for the dataset's cross-field break."""
    try:  # hashlib's blake2b, without the OpenSSL that hashlib loads
        from _blake2 import blake2b as hasher
    except ImportError:  # a CPython built without its own blake2, which hashlib's needs
        from hashlib import sha256 as hasher
    dataset = None
    if _parsed and os.path.isfile(args.input):
        digest = hasher()
        with open(args.input, "rb") as f:
            for chunk in iter(functools.partial(f.read, 1 << 16), b""):
                digest.update(chunk)
        dataset = _parsed.get(digest.digest())
    if dataset is None:
        _parsed.clear()  # the old dataset goes before the new one is built
        digest = hasher()  # of the bytes parsed, should the file change meanwhile
        dataset = ingest.read_csv(args.input, ingest.parse_journals_csv, digest, strict=False)
        _parsed[digest.digest()] = dataset
    if strict and "break" in dataset._cache:
        raise ingest.ParseError(*dataset._cache["break"])
    return dataset


def _fixture(args) -> Sequence[CategoryFixtureRow]:
    """The fixture rows of the chosen --edition; all rows for a command without one.
    A --fixture file is read on every call."""
    if args.fixture is None:
        rows = _bundled_rows()
    else:
        rows = ingest.read_csv(args.fixture, ingest.parse_category_fixture_csv)
    return edition_rows(rows, getattr(args, "edition", "all"))


def edition_rows(rows: Sequence[CategoryFixtureRow], edition: str) -> Sequence[CategoryFixtureRow]:
    if edition == "all":
        return rows
    wanted = Edition(edition)
    return [r for r in rows if r.edition == wanted]


def component_columns(rows: Sequence[CategoryFixtureRow]) -> dict[str, list[Optional[float]]]:
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


def _formatter(digits: int) -> Callable[[Optional[float]], str]:
    """x as ``f"{round_away(x, digits):.{digits}f}"`` shows it, "" for None."""
    scale, spec = 10**digits, f".{digits}f"  # built once per formatter

    def fmt(x: Optional[float]) -> str:
        if x is None:
            return ""
        s = x * scale  # round_away inline: s has the sign of x, and 0.5 - s == -s + 0.5
        return f"{(int(s + 0.5) if s >= 0 else -int(0.5 - s)) / scale:{spec}}"

    return fmt


def _validate_rows(args) -> Outputs:
    report = validate(_journals(args, strict=False))
    return (DATA_ERROR if report else 0), {"": (("record_id", "rule"), zip(*report), {})}


def _indicator_rows(args) -> Outputs:
    dataset, rows = _journals(args), []
    for code in dataset.category_codes():
        agg = indicators.category_aggregate(dataset, code)
        aif, cv = None, (None,) * len(COMPONENTS)
        try:  # the components are undefined wherever the AIF is
            aif = indicators.aggregate_impact_factor(agg)
            cv = indicators.components(agg)
        except ValueError:  # UndefinedIndicatorError
            pass
        rows.append((code, len(dataset.member_rows(code)), aif, *cv, agg.reference_exclusions))
    columns = ("category", "journals", "aif", *COMPONENTS, "reference_exclusions")
    return 0, {"": (columns, zip(*rows), dict.fromkeys(columns[2:-1], args.digits))}


def _decompose_rows(args) -> Outputs:
    if args.input is not None:
        dataset, rows = _journals(args), []
        for code in dataset.category_codes():
            agg = indicators.category_aggregate(dataset, code)
            cv = indicators.components(agg)
            aif = indicators.aggregate_impact_factor(agg)
            rows.append((code, *cv, indicators.recompose(cv), aif))
        columns = ("category", *COMPONENTS, "product", "aif")
    else:
        rows = [(r.code, *indicators.fixture_reference_components(r)) for r in _fixture(args)]
        columns = ("category", "p", "w", "b")
    return 0, {"": (columns, zip(*rows), dict.fromkeys(columns[1:], args.digits))}


def _cnif_rows(args) -> Outputs:
    dataset = _journals(args)
    ids, terms = dataset.columns["id"], []
    order = sorted(range(len(ids)), key=ids.__getitem__)
    for _, t in ranking.cnif_scored(dataset, order):  # streamed
        if isinstance(t, ValueError):  # UndefinedIndicatorError: the first in id order aborts
            raise t
        terms.append(t)
    columns = ("journal_id", "if", "meta_aif", "jcr_aif", "score", "cnif")
    values = ([ids[i] for i in order], *zip(*terms))
    return 0, {"": (columns, values, dict.fromkeys(columns[1:], args.digits))}


def _rank_rows(args) -> Outputs:
    dataset = _journals(args)
    column, ids = ranking.score_column(dataset, args.scorer), dataset.columns["id"]
    codes, journal_ids, scores, ranks, pcts = [], [], [], [], []  # built category by category
    for code in dataset.category_codes():
        rows, rank, pct = zip(*ranking._ranked(column, ids, dataset.member_rows(code)))
        codes += [code] * len(rows)
        journal_ids += [ids[i] for i in rows]
        scores += [column[i] for i in rows]
        ranks += rank
        pcts += pct
    # score_desc names the scorer: a higher score is a better (lower) percentile
    columns = ("category", "journal_id", "score_desc", "score", "rank", "percentile")
    values = (codes, journal_ids, [args.scorer] * len(codes), scores, ranks, pcts)
    return 0, {"": (columns, values, {"score": args.digits, "percentile": args.digits})}


def _gap_rows(args) -> Outputs:
    dataset = _journals(args)
    summary, reports = ranking.compare_gaps(dataset)
    # compare_gaps ranked every row, so both columns hold only floats
    by_if, by_cnif = ranking.score_column(dataset, "if"), ranking.score_column(dataset, "cnif")
    categories, rows = dataset.columns["categories"], []
    for i, (journal_id, *gaps) in zip(ranking._report_rows(dataset), reports):  # i: its row
        rows.append((journal_id, ";".join(categories[i]), by_if[i], by_cnif[i], *gaps))
    columns = ("journal_id", "categories", "if", "cnif", "gap_if", "gap_cnif")
    measures = ranking.GapSummary._fields
    return 0, {
        "": (columns, zip(*rows), dict.fromkeys(columns[2:], args.digits)),
        ".summary": (measures, zip(summary), dict.fromkeys(measures[1:], args.digits)),
    }


def _corr_rows(args) -> Outputs:
    matrix = stats.correlation_matrix(component_columns(_fixture(args)))
    values = (matrix.labels, *matrix.values.T.tolist())
    if args.format == "json":  # the cells are numbers, rounded
        values = (matrix.labels, *([round_away(v, args.digits) for v in col] for col in values[1:]))
        return 0, {"": (("variable", *matrix.labels), values, {})}
    # the CSV header row starts with an empty cell
    return 0, {"": (("", *matrix.labels), values, dict.fromkeys(matrix.labels, args.digits))}


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
    return 0, {"": (columns, zip(report), {})}


def _ks_rows(args) -> Outputs:
    rows = []
    for name, col in component_columns(_fixture(args)).items():
        sample = [v for v in col if v is not None]
        ks = stats.ks_normality(sample, alpha=args.alpha, lilliefors=args.lilliefors)
        rows.append((name, ks.sample_size, ks.statistic, ks.critical_value, ks.alpha, ks.reject))
    columns = ("component", "n", "statistic", "critical_value", "alpha", "reject_normality")
    return 0, {"": (columns, zip(*rows), dict.fromkeys(columns[2:4], args.digits))}


def _hist_rows(args) -> Outputs:
    coverages, rows = ("coverage_1s", "coverage_2s", "coverage_3s"), []
    for name, col in component_columns(_fixture(args)).items():
        h = stats.histogram_by_sd([v for v in col if v is not None])
        n, shares = h.sample_size, (h.coverage_1s, h.coverage_2s, h.coverage_3s)
        rows.append((name, n, len(col) - n, h.mean, h.sd, *h.bin_counts, *shares))
    bins = tuple(f"bin{i}" for i in range(8))  # the 8 sd bands of histogram_by_sd
    columns = ("component", "n", "dropped", "mean", "sd", *bins, *coverages)
    digits = {"mean": args.digits, "sd": args.digits, **dict.fromkeys(coverages, 2)}
    return 0, {"": (columns, zip(*rows), digits)}


def _cluster_rows(args) -> Outputs:
    complete = [r for r in _fixture(args) if r.is_complete()]
    vectors = list(zip(*component_columns(complete).values()))
    dendrogram = stats.ward_cluster([r.code for r in complete], vectors)
    # each merge's fields, the height shown at 6 digits
    outputs = {"": (stats.Merge._fields, zip(*dendrogram.merges), {"height": 6})}
    if args.k is not None or args.height is not None:
        cut = stats.cut_dendrogram(dendrogram, k=args.k, height=args.height)
        outputs[".clusters"] = (("label", "cluster"), zip(*sorted(cut.items())), {})
    return 0, outputs


# The reproductions share one rule: a check that misses its reference is a
# MISMATCH row, and any MISMATCH row makes the command exit 1.
CHECK_COLUMNS = ("computed", "reference", "status")


def _check(key: tuple, got: float, want: float, tolerance: float, digits: tuple[int, int]) -> tuple:
    """A check row: its key cells, both values shown at the given digits, and its status."""
    status = "ok" if abs(got - want) <= tolerance else "MISMATCH"
    return (*key, _formatter(digits[0])(got), _formatter(digits[1])(want), status)


def _checked(columns: tuple[str, ...], rows: list[tuple]) -> Outputs:
    """The exit code and output of rows whose last cell is their status."""
    code = DATA_ERROR if any(r[-1] == "MISMATCH" for r in rows) else 0
    return code, {"": (columns, zip(*rows), {})}


def _table1_rows(args) -> Outputs:
    fixture, fmt = _fixture(args), _formatter(2)
    rows = []
    for r in fixture:
        cells = []
        computed = indicators.fixture_reference_components(r)
        for value, printed in zip(computed, (r.printed_p, r.printed_w, r.printed_b)):
            if printed is None:
                cells.append("absent")
                continue
            match = abs(round_away(value, 2) - printed) <= 0.01 + 1e-12
            cells.append(fmt(value) + ("" if match else f"!={fmt(printed)}"))
        rows.append((r.code, *cells, "MISMATCH" if any("!=" in c for c in cells) else "ok"))
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
        shares = sorted(stats.pca_of(matrix).attributed_shares.values(), reverse=True)
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


class Command(NamedTuple):
    name: str  # "stats corr" is the subcommand corr of stats
    rows: Callable[[argparse.Namespace], Outputs]
    source: str = "--fixture"  # or "--input", which is then required
    extra: tuple[str, ...] = ()  # flags of ARGUMENTS
    fmt: Optional[str] = None  # the only --format the command writes


ARGUMENTS = {
    "--digits": {"type": _digits, "default": 3},
    "--input": {"help": "journal-level CSV (overrides --fixture)"},
    # a value outside the choices is echoed as clip shows it, as every option value is
    "--edition": {"type": clip, "choices": ("science", "social", "all"), "default": "all"},
    "--scorer": {"type": clip, "choices": ranking.SCORERS, "default": "if"},
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


class _Parser(argparse.ArgumentParser):
    """argparse's parser, its ``error:`` line cut to 120 characters: argparse
    echoes unrecognized arguments and an unknown command whole."""

    def error(self, message):
        width = 120 - len(f"{self.prog}: error: ")
        super().error(message if len(message) <= width else message[: width - 3] + "...")


def _add_arguments(parser: argparse.ArgumentParser, command: Command) -> None:
    if command.source == "--input":
        parser.add_argument("--input", required=True, help="journal-level CSV")
    else:
        parser.add_argument("--fixture", help="category fixture CSV (default: bundled table)")
    parser.add_argument("--out", help="output path (default: stdout)")
    formats = (command.fmt,) if command.fmt else ("csv", "json")
    parser.add_argument("--format", type=clip, choices=formats, default=formats[0])
    for flag in command.extra:
        parser.add_argument(flag, **ARGUMENTS[flag])
    parser.set_defaults(run=command)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cnifkit")
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
            parser = _Parser(prog=f"cnifkit {command.name}")
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
        for suffix, (columns, values, digits) in outputs.items():
            # each cell of a formatted column is formatted as the writer reads its row
            rows = zip(*(map(_formatter(digits[c]), v) if c in digits else v
                         for c, v in zip(columns, values)))
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
    code = main()
    _parsed.clear()  # freeing the dataset here costs less than at interpreter exit
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()

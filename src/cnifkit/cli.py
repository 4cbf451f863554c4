"""Command-line front end: ingest -> indicators -> ranking/stats -> reports."""
from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import indicators, ranking, reference, stats
from .core_model import Dataset, Edition, UndefinedIndicatorError, validate
from .ingest import (
    CategoryFixtureRow,
    ParseError,
    dumps_report,
    parse_category_fixture_csv,
    parse_journals_csv,
)

USAGE_ERROR = 2
DATA_ERROR = 1


def round_away(x: float, digits: int) -> float:
    """Round half away from zero at the given number of decimals."""
    scale = 10**digits
    scaled = x * scale
    if scaled >= 0:
        return int(scaled + 0.5) / scale
    return -int(-scaled + 0.5) / scale


# utf-8-sig drops the byte-order mark that Excel writes before the header
def _load_dataset(path: str, strict: bool = True) -> Dataset:
    with open(path, encoding="utf-8-sig", newline="") as f:
        return parse_journals_csv(f, strict=strict)


def _load_fixture(path: Optional[str]) -> list[CategoryFixtureRow]:
    with open(path or reference.bundled_fixture_path(), encoding="utf-8-sig", newline="") as f:
        return parse_category_fixture_csv(f)


def edition_rows(rows: list[CategoryFixtureRow], edition: str) -> list[CategoryFixtureRow]:
    if edition == "all":
        return rows
    wanted = Edition.SCIENCE if edition == "science" else Edition.SOCIAL_SCIENCE
    return [r for r in rows if r.edition == wanted]


def component_columns(rows: list[CategoryFixtureRow]) -> dict[str, list[Optional[float]]]:
    return {
        "a": [r.printed_a for r in rows],
        "r": [r.printed_r for r in rows],
        "p": [r.printed_p for r in rows],
        "w": [r.printed_w for r in rows],
        "b": [r.printed_b for r in rows],
    }


def _write(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _digits(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {n}")
    return n


def _fmt(x: Optional[float], digits: int) -> str:
    return "" if x is None else f"{round_away(x, digits):.{digits}f}"


def cmd_validate(args) -> int:
    report = validate(_load_dataset(args.input, strict=False))
    rows = [{"record_id": v.record_id, "rule": v.rule} for v in report]
    _write(dumps_report(rows, args.format), args.out)
    return DATA_ERROR if report else 0


def cmd_indicators(args) -> int:
    dataset = _load_dataset(args.input)
    rows = []
    for code in dataset.category_codes():
        agg = indicators.category_aggregate(dataset, code)
        row = {"category": code, "journals": len(dataset.members(code))}
        try:
            row["aif"] = _fmt(indicators.aggregate_impact_factor(agg), args.digits)
        except UndefinedIndicatorError:
            row["aif"] = ""
        try:
            cv = indicators.components(agg)
            for k in ("a", "r", "p", "w", "b"):
                row[k] = _fmt(getattr(cv, k), args.digits)
        except (UndefinedIndicatorError, ValueError):
            for k in ("a", "r", "p", "w", "b"):
                row[k] = ""
        row["reference_exclusions"] = agg.reference_exclusions
        rows.append(row)
    _write(dumps_report(rows, args.format), args.out)
    return 0


def cmd_decompose(args) -> int:
    rows = []
    if args.input:
        dataset = _load_dataset(args.input)
        for code in dataset.category_codes():
            agg = indicators.category_aggregate(dataset, code)
            cv = indicators.components(agg)
            rows.append(
                {
                    "category": code,
                    "a": _fmt(cv.a, args.digits),
                    "r": _fmt(cv.r, args.digits),
                    "p": _fmt(cv.p, args.digits),
                    "w": _fmt(cv.w, args.digits),
                    "b": _fmt(cv.b, args.digits),
                    "product": _fmt(indicators.recompose(cv), args.digits),
                    "aif": _fmt(indicators.aggregate_impact_factor(agg), args.digits),
                }
            )
    else:
        for r in edition_rows(_load_fixture(args.fixture), args.edition):
            p, w, b = indicators.fixture_reference_components(r)
            rows.append(
                {
                    "category": r.code,
                    "p": _fmt(p, args.digits),
                    "w": _fmt(w, args.digits),
                    "b": _fmt(b, args.digits),
                }
            )
    _write(dumps_report(rows, args.format), args.out)
    return 0


def cmd_cnif(args) -> int:
    dataset = _load_dataset(args.input)
    rows = []
    for j in sorted(dataset.journals, key=lambda j: j.id):
        score = indicators.cnif(j, dataset)
        rows.append(
            {
                "journal_id": j.id,
                "if": _fmt(score.if_value, args.digits),
                "meta_aif": _fmt(score.meta_aif, args.digits),
                "jcr_aif": _fmt(score.jcr_aif, args.digits),
                "score": _fmt(score.score, args.digits),
                "cnif": _fmt(score.cnif, args.digits),
            }
        )
    _write(dumps_report(rows, args.format), args.out)
    return 0


def cmd_rank(args) -> int:
    dataset = _load_dataset(args.input)
    rows = []
    for code in dataset.category_codes():
        if not dataset.members(code):
            continue
        for e in ranking.rank_category(dataset, code, args.scorer):
            rows.append(
                {
                    "category": e.category,
                    "journal_id": e.journal_id,
                    "score_desc": args.scorer,  # higher score = better (lower) percentile
                    "score": _fmt(e.score, args.digits),
                    "rank": e.rank,
                    "percentile": _fmt(e.percentile, args.digits),
                }
            )
    _write(dumps_report(rows, args.format), args.out)
    return 0


def cmd_gap(args) -> int:
    dataset = _load_dataset(args.input)
    summary, reports = ranking.compare_gaps(dataset)
    cnif_score = ranking.score_function(dataset, "cnif")
    by_id = {j.id: j for j in dataset.journals}
    rows = []
    for r in reports:
        j = by_id[r.journal_id]
        rows.append(
            {
                "journal_id": r.journal_id,
                "categories": ";".join(j.categories),
                "if": _fmt(indicators.impact_factor(j), args.digits),
                "cnif": _fmt(cnif_score(j), args.digits),
                "gap_if": _fmt(r.gap_if, args.digits),
                "gap_cnif": _fmt(r.gap_cnif, args.digits),
            }
        )
    summary_rows = [
        {
            "journal_count": summary.journal_count,
            "max_gap_if": _fmt(summary.max_gap_if, args.digits),
            "max_gap_cnif": _fmt(summary.max_gap_cnif, args.digits),
            "mean_gap_if": _fmt(summary.mean_gap_if, args.digits),
            "mean_gap_cnif": _fmt(summary.mean_gap_cnif, args.digits),
            "fraction_reduced": _fmt(summary.fraction_reduced, args.digits),
        }
    ]
    _write(dumps_report(rows, args.format), args.out)
    summary_out = f"{args.out}.summary" if args.out else None
    _write(dumps_report(summary_rows, args.format), summary_out)
    return 0


def cmd_stats_corr(args) -> int:
    rows = edition_rows(_load_fixture(args.fixture), args.edition)
    matrix = stats.correlation_matrix(component_columns(rows))
    if args.format == "json":
        rows_out = [
            {"variable": lab, **{c: round_away(float(matrix.values[i, j]), args.digits)
                                 for j, c in enumerate(matrix.labels)}}
            for i, lab in enumerate(matrix.labels)
        ]
        _write(dumps_report(rows_out, "json"), args.out)
    else:
        lines = ["," + ",".join(matrix.labels)]
        for i, lab in enumerate(matrix.labels):
            lines.append(
                lab + "," + ",".join(_fmt(float(v), args.digits) for v in matrix.values[i])
            )
        _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_stats_pca(args) -> int:
    rows = edition_rows(_load_fixture(args.fixture), args.edition)
    result = stats.pca_variance_shares(component_columns(rows))
    report = {
        "labels": list(result.labels),
        "eigenvalues": [round_away(float(v), 6) for v in result.eigen.eigenvalues],
        "variance_shares": [round_away(float(v), 6) for v in result.eigen.variance_shares],
        "loadings": [[round_away(float(v), 6) for v in col] for col in result.eigen.eigenvectors.T],
        "assignment": list(result.assignment),
        "attributed_shares": {k: round_away(v, 6) for k, v in result.attributed_shares.items()},
    }
    _write(dumps_report([report], "json"), args.out)
    return 0


def cmd_stats_ks(args) -> int:
    rows = edition_rows(_load_fixture(args.fixture), args.edition)
    columns = component_columns(rows)
    out = []
    for name, col in columns.items():
        sample = [v for v in col if v is not None]
        res = stats.ks_normality(sample, alpha=args.alpha, lilliefors=args.lilliefors)
        out.append(
            {
                "component": name,
                "n": res.sample_size,
                "statistic": _fmt(res.statistic, args.digits),
                "critical_value": _fmt(res.critical_value, args.digits),
                "alpha": res.alpha,
                "reject_normality": res.reject,
            }
        )
    _write(dumps_report(out, args.format), args.out)
    return 0


def cmd_stats_hist(args) -> int:
    rows = edition_rows(_load_fixture(args.fixture), args.edition)
    columns = component_columns(rows)
    out = []
    for name, col in columns.items():
        sample = [v for v in col if v is not None]
        h = stats.histogram_by_sd(sample)
        row = {
            "component": name,
            "n": h.sample_size,
            "dropped": len(col) - h.sample_size,
            "mean": _fmt(h.mean, args.digits),
            "sd": _fmt(h.sd, args.digits),
        }
        for i, c in enumerate(h.bin_counts):
            row[f"bin{i}"] = c
        row["coverage_1s"] = _fmt(h.coverage_1s, 2)
        row["coverage_2s"] = _fmt(h.coverage_2s, 2)
        row["coverage_3s"] = _fmt(h.coverage_3s, 2)
        out.append(row)
    _write(dumps_report(out, args.format), args.out)
    return 0


def cmd_stats_cluster(args) -> int:
    rows = edition_rows(_load_fixture(args.fixture), args.edition)
    labeled = [
        (r.code, [r.printed_a, r.printed_r, r.printed_p, r.printed_w, r.printed_b])
        for r in rows
        if r.is_complete()
    ]
    labels = [lab for lab, _ in labeled]
    vectors = [vec for _, vec in labeled]
    dendrogram = stats.ward_cluster(labels, vectors)
    merge_rows = [
        {
            "left": m.left,
            "right": m.right,
            "height": _fmt(m.height, 6),
            "new_id": m.new_id,
            "size": m.size,
        }
        for m in dendrogram.merges
    ]
    _write(dumps_report(merge_rows, args.format), args.out)
    if args.k is not None or args.height is not None:
        assignment = stats.cut_dendrogram(dendrogram, k=args.k, height=args.height)
        cut_rows = [{"label": lab, "cluster": c} for lab, c in sorted(assignment.items())]
        cut_out = f"{args.out}.clusters" if args.out else None
        _write(dumps_report(cut_rows, args.format), cut_out)
    return 0


def cmd_reproduce_table1(args) -> int:
    rows = _load_fixture(args.fixture)
    failures = 0
    out = []
    for r in rows:
        p, w, b = indicators.fixture_reference_components(r)
        row = {"category": r.code}
        ok = True
        for name, computed, printed in (("p", p, r.printed_p), ("w", w, r.printed_w), ("b", b, r.printed_b)):
            if printed is None:
                row[name] = "absent"
                continue
            rounded = round_away(computed, 2)
            match = abs(rounded - printed) <= 0.01 + 1e-12
            row[name] = f"{rounded:.2f}" + ("" if match else f"!={printed:.2f}")
            ok = ok and match
        row["status"] = "ok" if ok else "MISMATCH"
        if not ok:
            failures += 1
        out.append(row)
    out.append({"category": "TOTAL", "p": "", "w": "", "b": "", "status": f"{failures} mismatches / {len(rows)} rows"})
    _write(dumps_report(out, args.format), args.out)
    return 0 if failures == 0 else DATA_ERROR


def cmd_reproduce_table3(args) -> int:
    rows = _load_fixture(args.fixture)
    failures = []
    out = []
    for edition in ("science", "social"):
        sub = edition_rows(rows, edition)
        matrix = stats.correlation_matrix(component_columns(sub))
        for (x, y), expected in reference.CORRELATIONS[edition].items():
            got = matrix.get(x, y)
            ok = abs(got - expected) <= reference.CORRELATION_TOLERANCE
            if not ok:
                failures.append(f"{edition} corr({x},{y})")
            out.append(
                {
                    "edition": edition,
                    "check": f"corr({x},{y})",
                    "computed": f"{got:.4f}",
                    "reference": f"{expected:.2f}",
                    "status": "ok" if ok else "MISMATCH",
                }
            )
        result = stats.pca_variance_shares(component_columns(sub))
        top_k, expected_share = reference.PCA_TOP_SHARE[edition]
        shares = sorted(result.attributed_shares.values(), reverse=True)
        got_share = sum(shares[:top_k])
        ok = abs(got_share - expected_share) <= reference.PCA_TOP_SHARE_TOLERANCE
        if not ok:
            failures.append(f"{edition} pca top-{top_k}")
        out.append(
            {
                "edition": edition,
                "check": f"pca top-{top_k} share",
                "computed": f"{got_share:.4f}",
                "reference": f"{expected_share:.4f}",
                "status": "ok" if ok else "MISMATCH",
            }
        )
    _write(dumps_report(out, args.format), args.out)
    return 0 if not failures else DATA_ERROR


def cmd_reproduce_table4(args) -> int:
    rows = _load_fixture(args.fixture)
    failures = []
    out = []
    for edition in ("science", "social"):
        columns = component_columns(edition_rows(rows, edition))
        for name, col in columns.items():
            sample = [v for v in col if v is not None]
            h = stats.histogram_by_sd(sample)
            expected = reference.SD_COVERAGE[edition][name]
            for band, got, want in zip(
                ("1s", "2s", "3s"), (h.coverage_1s, h.coverage_2s, h.coverage_3s), expected
            ):
                ok = abs(got - want) <= reference.SD_COVERAGE_TOLERANCE
                if not ok:
                    failures.append(f"{edition} {name} +-{band}")
                out.append(
                    {
                        "edition": edition,
                        "component": name,
                        "band": band,
                        "computed": f"{got:.2f}",
                        "reference": f"{want:.2f}",
                        "status": "ok" if ok else "MISMATCH",
                    }
                )
    _write(dumps_report(out, args.format), args.out)
    return 0 if not failures else DATA_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cnifkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, input_required=False, fixture=False, digits_default=3):
        if input_required:
            p.add_argument("--input", required=True, help="journal-level CSV")
        elif fixture:
            p.add_argument("--fixture", help="category fixture CSV (default: bundled table)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--digits", type=_digits, default=digits_default)
        return p

    common(sub.add_parser("validate"), input_required=True).set_defaults(func=cmd_validate)
    common(sub.add_parser("indicators"), input_required=True).set_defaults(func=cmd_indicators)

    p = common(sub.add_parser("decompose"), fixture=True)
    p.add_argument("--input", help="journal-level CSV (overrides --fixture)")
    p.add_argument("--edition", choices=("science", "social", "all"), default="all")
    p.set_defaults(func=cmd_decompose)

    common(sub.add_parser("cnif"), input_required=True).set_defaults(func=cmd_cnif)

    p = common(sub.add_parser("rank"), input_required=True)
    p.add_argument("--scorer", choices=ranking.SCORERS, default="if")
    p.set_defaults(func=cmd_rank)

    common(sub.add_parser("gap"), input_required=True).set_defaults(func=cmd_gap)

    p_stats = sub.add_parser("stats")
    stats_sub = p_stats.add_subparsers(dest="stats_command", required=True)

    def stats_common(p):
        common(p, fixture=True)
        p.add_argument("--edition", choices=("science", "social", "all"), default="all")
        return p

    stats_common(stats_sub.add_parser("corr")).set_defaults(func=cmd_stats_corr)
    stats_common(stats_sub.add_parser("pca")).set_defaults(func=cmd_stats_pca)
    p = stats_common(stats_sub.add_parser("ks"))
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--lilliefors", action="store_true")
    p.set_defaults(func=cmd_stats_ks)
    stats_common(stats_sub.add_parser("hist")).set_defaults(func=cmd_stats_hist)
    p = stats_common(stats_sub.add_parser("cluster"))
    p.add_argument("--k", type=int)
    p.add_argument("--height", type=float)
    p.set_defaults(func=cmd_stats_cluster)

    for name, fn in (
        ("reproduce-table1", cmd_reproduce_table1),
        ("reproduce-table3", cmd_reproduce_table3),
        ("reproduce-table4", cmd_reproduce_table4),
    ):
        common(sub.add_parser(name), fixture=True, digits_default=2).set_defaults(func=fn)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return USAGE_ERROR
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (UndefinedIndicatorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

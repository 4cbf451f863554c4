"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line.  Criterion 7 compares the sd-band coverages of the bundled
2010 table with the published Table 4.  The bundled data determine 23 of its
30 cells, and each of those must match within SD_COVERAGE_TOLERANCE.  The
other 7 cells (reference.TABLE4_DIVERGENT_CELLS) are left out of that
comparison because the data prove they cannot be reproduced: the two `a`
cells need values finer than the printed 2 decimals, and the five p and w
cells miss even on the exact values recomputed from the table's raw counts.
The test asserts that proof, and that exactly those 7 cells miss.
"""
import functools
import io
import itertools
import math
import random
import statistics
import time
from statistics import NormalDist

import numpy as np
import pytest

from cnifkit import indicators
from cnifkit.cli import component_columns, edition_rows, round_away
from cnifkit.ingest import emit_journals_csv, parse_journals_csv
from cnifkit.ranking import (
    RankingEntry,
    compare_gaps,
    gap,
    rank_category,
)
from cnifkit.reference import (
    CORRELATION_TOLERANCE,
    CORRELATIONS,
    PCA_TOP_SHARE,
    PCA_TOP_SHARE_TOLERANCE,
    REPORTED_FRACTION_REDUCED,
    REPORTED_MAX_GAP_CNIF,
    REPORTED_MAX_GAP_IF,
    SD_COVERAGE,
    SD_COVERAGE_TOLERANCE,
    TABLE4_DIVERGENT_CELLS,
)
from cnifkit.stats import (
    Matrix,
    correlation_matrix,
    cut_dendrogram,
    histogram_by_sd,
    ks_normality,
    pca_variance_shares,
    symmetric_eigendecomposition,
    ward_cluster,
)

from conftest import make_dataset, make_journal, random_journal


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}")
                raise
            print(f"[PASS] criterion {number}: {title}")

        return run

    return wrap


@criterion(1, "reference-table component reproduction within +-0.01, under 1 s")
def test_criterion_1_component_reproduction(fixture_rows, fixture_by_code):
    start = time.perf_counter()
    checked = 0
    for row in fixture_rows:
        p, w, b = indicators.fixture_reference_components(row)
        for computed, printed in ((p, row.printed_p), (w, row.printed_w), (b, row.printed_b)):
            if printed is None:
                continue
            assert abs(round_away(computed, 2) - printed) <= 0.01 + 1e-12, row.code
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 3 * 225
    assert elapsed < 1.0

    anchors = {
        ("S1", "p"): 0.79,
        ("S1", "w"): 0.15,
        ("S1", "b"): 0.90,
        ("S113", "b"): 2.55,
        ("SS2", "w"): 0.45,
    }
    for (code, name), expected in anchors.items():
        p, w, b = indicators.fixture_reference_components(fixture_by_code[code])
        got = {"p": p, "w": w, "b": b}[name]
        assert round_away(got, 2) == pytest.approx(expected, abs=0.01 + 1e-12)


@criterion(2, "five-factor decomposition identity (exact and 2-dp inputs)")
def test_criterion_2_decomposition_identity(fixture_rows):
    rng = random.Random(20)
    for _ in range(200):
        journals = [
            random_journal(rng, f"j{i}", ["F"]) for i in range(rng.randint(1, 20))
        ]
        ds = make_dataset(journals)
        agg = indicators.category_aggregate(ds, "F")
        try:
            cv = indicators.components(agg)
            aif = indicators.aggregate_impact_factor(agg)
        except Exception:
            continue
        assert abs(indicators.recompose(cv) - aif) <= 1e-9 * max(1.0, abs(aif))

    complete = [r for r in fixture_rows if r.is_complete()]
    within = sum(
        1
        for r in complete
        if abs(r.printed_a * r.printed_r * r.printed_p * r.printed_w * r.printed_b - r.printed_aif)
        <= 0.035 * r.printed_aif
    )
    assert within / len(complete) >= 0.95


@criterion(3, "weighted-mean identity over 1,000 random categories")
def test_criterion_3_weighted_mean_identity():
    rng = random.Random(30)
    for _ in range(1000):
        n = rng.randint(1, 50)
        journals = [random_journal(rng, f"j{i}", ["F"], max_count=10**6) for i in range(n)]
        ds = make_dataset(journals)
        members = ds.members("F")
        if sum(j.items_window for j in members) == 0:
            continue
        agg = indicators.category_aggregate(ds, "F")
        direct = indicators.aggregate_impact_factor(agg)
        weights = [indicators.journal_weight(j, agg) for j in members]
        assert abs(sum(w.value for w in weights) - 1.0) <= 1e-12
        weighted = indicators.weighted_mean_aif(ds, "F")
        assert abs(weighted - direct) <= 1e-9 * max(1.0, abs(direct))


@criterion(4, "annual growth-rate ratios reproduce the four cited values at 3 dp")
def test_criterion_4_growth_ratios():
    # the 20% case prints as a truncation of 0.65454..., so agreement is
    # asserted to within one unit in the third decimal for all four values
    for rate, printed in ((0.05, 0.538), (0.10, 0.576), (0.20, 0.654), (-0.05, 0.463)):
        got = indicators.growth_ratio_from_rate(rate)
        assert abs(got - printed) < 1e-3, (rate, got, printed)


@criterion(5, "all 10 component correlations per edition within +-0.06")
def test_criterion_5_correlations(fixture_rows):
    for edition in ("science", "social"):
        matrix = correlation_matrix(component_columns(edition_rows(fixture_rows, edition)))
        expected = CORRELATIONS[edition]
        assert len(expected) == 10
        for (x, y), value in expected.items():
            got = matrix.get(x, y)
            assert abs(got - value) <= CORRELATION_TOLERANCE, (edition, x, y, got)


@criterion(6, "eigenstructure: trace 5, top attributed shares, reconstruction")
def test_criterion_6_pca(fixture_rows):
    for edition in ("science", "social"):
        cols = component_columns(edition_rows(fixture_rows, edition))
        res = pca_variance_shares(cols)
        assert abs(float(res.eigen.eigenvalues.sum()) - 5.0) <= 1e-9
        top_k, expected = PCA_TOP_SHARE[edition]
        shares = sorted(res.attributed_shares.values(), reverse=True)
        assert abs(sum(shares[:top_k]) - expected) <= PCA_TOP_SHARE_TOLERANCE
        matrix = correlation_matrix(cols)
        rebuilt = (
            res.eigen.eigenvectors @ np.diag(res.eigen.eigenvalues) @ res.eigen.eigenvectors.T
        )
        assert np.max(np.abs(rebuilt - matrix.values)) < 1e-9


def sd_band_count(sample, k):
    """Values inside the closed band mean +- k sd (sample sd), by the stdlib."""
    m, s = statistics.fmean(sample), statistics.stdev(sample)
    return sum(1 for v in sample if m - k * s <= v <= m + k * s)


def published_count(percent, n):
    """The one count c out of n whose share c/n, in percent to 2 dp, is printed."""
    counts = [c for c in range(n + 1) if round(100 * c / n, 2) == percent]
    assert len(counts) == 1, (percent, n, counts)
    return counts[0]


@criterion(7, "sd-band coverage: 23 cells within 1.5 pp, 7 proven unreproducible")
def test_criterion_7_sd_band_coverage(fixture_rows):
    misses = set()
    for edition in ("science", "social"):
        rows = edition_rows(fixture_rows, edition)
        for name, col in component_columns(rows).items():
            sample = [v for v in col if v is not None]
            if edition == "science" and name == "a":
                assert len(sample) == 172
            h = histogram_by_sd(sample)
            for k, want in zip((1, 2, 3), SD_COVERAGE[edition][name]):
                cell = (edition, name, f"{k}s")
                got = getattr(h, f"coverage_{k}s")
                assert got == pytest.approx(100 * sd_band_count(sample, k) / len(sample)), cell
                # Table 4 counts the same categories: every cell is c/n
                published = published_count(want, len(sample))
                if abs(got - want) <= SD_COVERAGE_TOLERANCE:
                    continue
                misses.add(cell)
                if name == "a":
                    # the table holds no raw counts for a; ranked by distance
                    # from the mean, the published count's last value and the
                    # next one print alike, so no mean-centred band holds
                    # exactly that count
                    mean = statistics.fmean(sample)
                    by_distance = sorted(sample, key=lambda v: abs(v - mean))
                    assert by_distance[published - 1] == by_distance[published], cell
                else:
                    assert name in ("p", "w"), f"no proven cause for {cell}"
                    # p and w are exact in the raw counts, and miss there too
                    index = ("p", "w").index(name)
                    exact = [
                        indicators.fixture_reference_components(r)[index]
                        for r in rows
                        if getattr(r, f"printed_{name}") is not None
                    ]
                    exact_got = getattr(histogram_by_sd(exact), f"coverage_{k}s")
                    assert abs(exact_got - want) > SD_COVERAGE_TOLERANCE, cell
    assert misses == TABLE4_DIVERGENT_CELLS, (
        f"new misses: {sorted(misses - TABLE4_DIVERGENT_CELLS)}; "
        f"now matching: {sorted(TABLE4_DIVERGENT_CELLS - misses)}"
    )


@criterion(8, "percentile gap arithmetic and comparison properties")
def test_criterion_8_gaps():
    def entries(category, pct):
        return [RankingEntry(j, category, 0.0, 1, p) for j, p in pct.items()]

    assert gap("x", [entries("A", {"x": 67.0}), entries("B", {"x": 85.0})]) == 18.0
    assert gap("x", [entries("A", {"x": 69.0}), entries("B", {"x": 77.0})]) == 8.0
    assert gap("x", [entries("A", {"x": 42.0})]) == 0.0

    # study-level figures ship as constants only; sanity-check their presence
    assert REPORTED_MAX_GAP_IF == 28.0 and REPORTED_MAX_GAP_CNIF == 17.0
    assert REPORTED_FRACTION_REDUCED == 0.51

    # scale invariance of rankings and gaps
    rng = random.Random(80)
    journals = [
        make_journal(f"j{i}", rng.sample(["A", "B", "C"], rng.randint(1, 2)), rng.randint(1, 9), 0, rng.randint(0, 50))
        for i in range(10)
    ]
    ds = make_dataset(journals)
    scaled = make_dataset(
        [
            make_journal(j.id, j.categories, j.items_t1, j.items_t2, j.cited_in_window * 5)
            for j in journals
        ]
    )
    for code in ds.category_codes():
        assert [(e.journal_id, e.rank) for e in rank_category(ds, code)] == [
            (e.journal_id, e.rank) for e in rank_category(scaled, code)
        ]

    # strict-reduction counting on a hand-built closing-gap fixture: jx leads
    # a weak field A but trails the strong field B; normalization against the
    # mostly-A union lifts jx past both B incumbents
    closing = make_dataset(
        [make_journal("jx", ["A", "B"], 10, 0, 12)]
        + [make_journal(f"a{i}", ["A"], 10, 0, 0) for i in range(8)]
        + [make_journal("b1", ["B"], 10, 0, 30), make_journal("b2", ["B"], 10, 0, 40)]
    )
    summary, reports = compare_gaps(closing)
    assert summary.journal_count == 1
    assert reports[0].gap_if > reports[0].gap_cnif
    assert summary.fraction_reduced == 1.0


@criterion(9, "cross-field normalization equalizes field means, preserves order")
def test_criterion_9_cnif():
    # two disjoint fields, field B four times the aggregate impact of field A
    journals = [
        make_journal("a1", ["A"], 10, 10, 10),
        make_journal("a2", ["A"], 10, 10, 30),
        make_journal("b1", ["B"], 10, 10, 40),
        make_journal("b2", ["B"], 10, 10, 120),
    ]
    ds = make_dataset(journals)
    aif_a = indicators.aggregate_impact_factor(indicators.category_aggregate(ds, "A"))
    aif_b = indicators.aggregate_impact_factor(indicators.category_aggregate(ds, "B"))
    assert aif_b == pytest.approx(4 * aif_a)

    def field_mean(field):
        agg = indicators.category_aggregate(ds, field)
        members = ds.members(field)
        weights = [indicators.journal_weight(j, agg) for j in members]
        scores = [indicators.cnif(j, ds).cnif for j in members]
        return sum(w.value * s for w, s in zip(weights, scores))

    ratio = field_mean("B") / field_mean("A")
    assert abs(ratio - 1.0) <= 1e-9

    # order preservation inside a fixed category set
    rng = random.Random(90)
    journals = [
        make_journal(f"j{i}", ["X", "Y"], rng.randint(1, 50), rng.randint(0, 50), rng.randint(0, 500))
        for i in range(1000)
    ]
    big = make_dataset(journals)
    pairs = [
        (indicators.impact_factor(j), indicators.cnif(j, big).cnif) for j in big.journals
    ]
    for (if1, c1), (if2, c2) in itertools.combinations(random.Random(91).sample(pairs, 60), 2):
        if if1 > if2:
            assert c1 > c2
        elif if1 == if2:
            assert c1 == pytest.approx(c2, abs=1e-12)


@criterion(10, "agglomerative merge monotonicity and planted-cluster recovery")
def test_criterion_10_clustering():
    rng = random.Random(100)
    for _ in range(500):
        n = rng.randint(2, 40)
        vecs = [[rng.gauss(0, 1) for _ in range(5)] for _ in range(n)]
        d = ward_cluster([f"v{i:02d}" for i in range(n)], vecs)
        heights = [m.height for m in d.merges]
        assert len(heights) == n - 1
        assert all(b >= a - 1e-9 for a, b in zip(heights, heights[1:]))

    for trial in range(50):
        trng = random.Random(1000 + trial)
        n1, n2 = trng.randint(3, 10), trng.randint(3, 10)
        centre = [trng.uniform(-5, 5) for _ in range(5)]
        shift = [c + 10 for c in centre]  # separation >= 10 sd at unit noise
        pts, labels = [], []
        for i in range(n1):
            pts.append([c + trng.gauss(0, 1) for c in centre])
            labels.append(f"left{i:02d}")
        for i in range(n2):
            pts.append([c + trng.gauss(0, 1) for c in shift])
            labels.append(f"right{i:02d}")
        cut = cut_dendrogram(ward_cluster(labels, pts, standardize=False), k=2)
        left = {cut[l] for l in labels if l.startswith("left")}
        right = {cut[l] for l in labels if l.startswith("right")}
        assert len(left) == 1 and len(right) == 1 and left != right

    d = ward_cluster(["p0", "p1", "p2", "p3"], [[0], [1], [10], [11]], standardize=False)
    assert {frozenset((m.left, m.right)) for m in d.merges[:2]} == {
        frozenset((0, 1)),
        frozenset((2, 3)),
    }


@criterion(11, "normality test accepts exact quantiles, rejects uniform data")
def test_criterion_11_ks():
    nd = NormalDist(0, 1)
    for n in (10, 50, 200, 1000):
        sample = [nd.inv_cdf((i - 0.5) / n) for i in range(1, n + 1)]
        res = ks_normality(sample, alpha=0.05)
        assert not res.reject
        assert res.statistic <= 0.5 / n + 0.05

    threshold = 1.358 / math.sqrt(1000)
    rejects = 0
    for seed in range(100):
        rng = random.Random(seed)
        sample = [rng.random() for _ in range(1000)]
        res = ks_normality(sample, alpha=0.05)
        if res.reject and res.statistic > threshold:
            rejects += 1
    assert rejects >= 99


@criterion(12, "emit/parse round-trip preserves every raw integer field")
def test_criterion_12_round_trip():
    rng = random.Random(120)
    for _ in range(1000):
        n = rng.randint(1, 6)
        journals = [
            random_journal(rng, f"j{i}", [f"C{rng.randint(0, 3)}"], max_count=10**6)
            for i in range(n)
        ]
        ds = make_dataset(journals)
        buf = io.StringIO()
        emit_journals_csv(ds, buf)
        again = parse_journals_csv(io.StringIO(buf.getvalue()))
        assert again.journals == ds.journals

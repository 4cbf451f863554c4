import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnifkit.core_model import UndefinedIndicatorError
from cnifkit.ranking import (
    GapSummary,
    RankingEntry,
    compare_gaps,
    gap,
    rank_category,
)

from conftest import make_dataset, make_journal


def dataset_with_scores(scores, category="A"):
    # cited = score, items window = 1 -> IF equals the requested score
    return make_dataset(
        [make_journal(f"j{i}", [category], 1, 0, s) for i, s in enumerate(scores)]
    )


class TestRankCategory:
    def test_uniform_percentiles(self):
        ds = dataset_with_scores([4, 3, 2, 1])
        entries = rank_category(ds, "A")
        assert [e.percentile for e in entries] == [25.0, 50.0, 75.0, 100.0]
        assert [e.rank for e in entries] == [1, 2, 3, 4]

    def test_single_journal_percentile_100(self):
        ds = dataset_with_scores([5])
        entries = rank_category(ds, "A")
        assert entries[0].rank == 1
        assert entries[0].percentile == 100.0

    def test_tie_at_top_uses_competition_ranking(self):
        ds = dataset_with_scores([7, 7, 1])
        entries = rank_category(ds, "A")
        assert [e.rank for e in entries] == [1, 1, 3]
        assert entries[0].percentile == pytest.approx(100 / 3)
        assert entries[2].percentile == 100.0

    def test_competition_rank_oracle(self):
        # independent oracle: rank = 1 + number of strictly better scores
        rng = random.Random(1)
        scores = [rng.randint(0, 5) for _ in range(20)]
        ds = dataset_with_scores(scores)
        entries = rank_category(ds, "A")
        by_id = {e.journal_id: e for e in entries}
        for i, s in enumerate(scores):
            expected = 1 + sum(1 for t in scores if t > s)
            assert by_id[f"j{i}"].rank == expected

    def test_percentile_monotone_in_score(self):
        rng = random.Random(2)
        ds = dataset_with_scores([rng.randint(0, 100) for _ in range(25)])
        entries = rank_category(ds, "A")
        for x in entries:
            for y in entries:
                if x.score > y.score:
                    assert x.percentile < y.percentile

    def test_empty_category_rejected(self):
        ds = dataset_with_scores([1])
        with pytest.raises(KeyError):
            rank_category(ds, "Z")

    def test_cnif_scorer(self):
        ds = make_dataset(
            [
                make_journal("j1", ["A"], 1, 0, 5),
                make_journal("j2", ["A"], 1, 0, 3),
                make_journal("j3", ["B"], 1, 0, 10),
            ]
        )
        entries = rank_category(ds, "A", scorer="cnif")
        assert [e.journal_id for e in entries] == ["j1", "j2"]


def entries(category, pct_by_journal):
    n = len(pct_by_journal)
    return [
        RankingEntry(jid, category, 0.0, round(p * n / 100), p)
        for jid, p in pct_by_journal.items()
    ]


class TestGap:
    def test_published_example_18(self):
        rankings = [entries("A", {"x": 67.0}), entries("B", {"x": 85.0})]
        assert gap("x", rankings) == 18.0

    def test_published_example_8(self):
        rankings = [entries("A", {"x": 69.0}), entries("B", {"x": 77.0})]
        assert gap("x", rankings) == 8.0

    def test_single_category_gap_zero(self):
        assert gap("x", [entries("A", {"x": 40.0})]) == 0.0

    def test_absent_journal_rejected(self):
        with pytest.raises(ValueError):
            gap("nope", [entries("A", {"x": 40.0})])


class TestCompareGaps:
    def test_identical_scores_no_strict_reduction(self):
        # one shared member between two otherwise identical categories:
        # CNIF rescaling is per-journal-positive, so gaps coincide
        ds = make_dataset(
            [
                make_journal("j1", ["A", "B"], 1, 0, 5),
                make_journal("j2", ["A"], 1, 0, 3),
                make_journal("j3", ["B"], 1, 0, 3),
            ]
        )
        summary, reports = compare_gaps(ds)
        assert summary.journal_count == 1
        assert reports[0].gap_if == reports[0].gap_cnif
        assert summary.fraction_reduced == 0.0

    def test_multi_category_filter(self):
        ds = make_dataset(
            [
                make_journal("j1", ["A", "B"], 1, 0, 5),
                make_journal("j2", ["A"], 1, 0, 3),
                make_journal("j3", ["B"], 1, 0, 4),
            ]
        )
        summary, reports = compare_gaps(ds)
        assert [r.journal_id for r in reports] == ["j1"]

    def test_normalization_can_close_gap(self):
        # j1 leads the weak category A but trails in the strong category B
        # under IF; CNIF boosts A-dominated scores and closes the spread
        ds = make_dataset(
            [
                make_journal("jx", ["A", "B"], 10, 0, 12),
                make_journal("a1", ["A"], 10, 0, 2),
                make_journal("a2", ["A"], 10, 0, 4),
                make_journal("b1", ["B"], 10, 0, 30),
                make_journal("b2", ["B"], 10, 0, 40),
            ]
        )
        summary, reports = compare_gaps(ds)
        report = reports[0]
        assert report.journal_id == "jx"
        assert report.gap_if >= report.gap_cnif

    def test_empty_filter_gives_zero_summary(self):
        ds = make_dataset([make_journal("j1", ["A"], 1, 0, 5)])
        summary, reports = compare_gaps(ds)
        assert summary == GapSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert reports == []

    def test_deterministic_order_by_id(self):
        ds = make_dataset(
            [
                make_journal("zz", ["A", "B"], 1, 0, 5),
                make_journal("aa", ["A", "B"], 1, 0, 4),
            ]
        )
        _, reports = compare_gaps(ds)
        assert [r.journal_id for r in reports] == ["aa", "zz"]


class TestScaleInvariance:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 7))
    @example(seed=2973, k=2)  # a category whose members all have no citations
    def test_gaps_unchanged_under_common_scaling(self, seed, k):
        rng = random.Random(seed)
        journals = []
        for i in range(8):
            cats = rng.sample(["A", "B", "C"], rng.randint(1, 2))
            journals.append(make_journal(f"j{i}", cats, rng.randint(1, 9), 0, rng.randint(0, 50)))
        ds = make_dataset(journals)
        scaled = make_dataset(
            [
                make_journal(j.id, j.categories, j.items_t1, j.items_t2, j.cited_in_window * k)
                for j in journals
            ]
        )
        for code in ds.category_codes():
            before = rank_category(ds, code)
            after = rank_category(scaled, code)
            assert [(e.journal_id, e.rank, e.percentile) for e in before] == [
                (e.journal_id, e.rank, e.percentile) for e in after
            ]
        # a union of codes with no citations has no CNIF: both datasets raise alike
        outcomes = []
        for d in (ds, scaled):
            try:
                outcomes.append([(r.journal_id, r.gap_if) for r in compare_gaps(d)[1]])
            except UndefinedIndicatorError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

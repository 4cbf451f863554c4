import dataclasses
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cnifkit.core_model import (
    CategoryAggregate,
    ComponentVector,
    JournalRecord,
    UndefinedIndicatorError,
)
from cnifkit import indicators
from cnifkit.cli import main
from cnifkit.ingest import emit_journals_csv
from cnifkit.ranking import rank_category
from cnifkit.indicators import (
    aggregate_impact_factor,
    category_aggregate,
    cnif,
    components,
    fixture_reference_components,
    growth_ratio_from_rate,
    impact_factor,
    jcr_aggregate,
    journal_weight,
    meta_category_aggregate,
    recompose,
    weighted_mean_aif,
)

from conftest import make_dataset, make_journal, random_journal


def exact_scores(ds, j):
    """IF, union AIF, whole-database AIF, score and CNIF as exact rationals."""
    def aif(agg):
        return Fraction(agg.ncited, agg.items_window)

    jcr, meta = aif(jcr_aggregate(ds)), aif(meta_category_aggregate(ds, j.categories))
    if_value = Fraction(j.cited_in_window, j.items_window)
    return if_value, meta, jcr, jcr / meta, jcr / meta * if_value


def agg(code="X", **kw):
    return CategoryAggregate(code=code, **kw)


class TestImpactFactor:
    def test_symmetric(self):
        assert impact_factor(make_journal("j", ["A"], 5, 5, 10)) == 1.0

    def test_zero_numerator(self):
        assert impact_factor(make_journal("j", ["A"], 3, 4, 0)) == 0.0

    def test_hand_division(self):
        assert impact_factor(make_journal("j", ["A"], 2, 0, 7)) == 3.5

    def test_zero_denominator(self):
        with pytest.raises(UndefinedIndicatorError):
            impact_factor(make_journal("j", ["A"], 0, 0, 7))


class TestCategoryAggregate:
    def test_additivity(self):
        ds = make_dataset(
            [make_journal("j1", ["A"], 1, 1, 3), make_journal("j2", ["A"], 1, 1, 4)]
        )
        assert category_aggregate(ds, "A").ncited == 7

    def test_unknown_category(self):
        ds = make_dataset([make_journal("j1", ["A"], 1, 1, 3)])
        with pytest.raises(KeyError):
            category_aggregate(ds, "Z")

    def test_multi_category_journal_counted_in_each(self):
        ds = make_dataset(
            [make_journal("j1", ["A", "B"], 1, 1, 3), make_journal("j2", ["B"], 1, 1, 4)]
        )
        assert category_aggregate(ds, "A").ncited == 3
        assert category_aggregate(ds, "B").ncited == 7

    def test_reference_exclusions_counted(self):
        ds = make_dataset(
            [
                make_journal("j1", ["A"], 1, 1, 3, refs=(10, 8, 2)),
                make_journal("j2", ["A"], 1, 1, 4),
            ]
        )
        a = category_aggregate(ds, "A")
        assert a.refs_total == 10
        assert a.reference_exclusions == 1


class TestAif:
    def test_ratio(self):
        assert aggregate_impact_factor(agg(a_t1=5, a_t2=5, ncited=20)) == 2.0

    def test_single_journal_category_equals_if(self):
        j = make_journal("j1", ["A"], 7, 3, 11)
        ds = make_dataset([j])
        assert aggregate_impact_factor(category_aggregate(ds, "A")) == impact_factor(j)

    def test_matches_brute_force_ratio(self):
        rng = random.Random(7)
        journals = [random_journal(rng, f"j{i}", ["A"], max_count=100) for i in range(3)]
        ds = make_dataset(journals)
        brute = sum(j.cited_in_window for j in journals) / sum(
            j.items_t1 + j.items_t2 for j in journals
        )
        assert aggregate_impact_factor(category_aggregate(ds, "A")) == pytest.approx(
            brute, rel=1e-12
        )

    def test_zero_denominator(self):
        with pytest.raises(UndefinedIndicatorError):
            aggregate_impact_factor(agg(ncited=5))


class TestWeights:
    def test_sole_journal_weight_one(self):
        j = make_journal("j1", ["A"], 5, 5, 1)
        ds = make_dataset([j])
        assert journal_weight(j, category_aggregate(ds, "A")).value == 1.0

    def test_identical_journals_split_evenly(self):
        js = [make_journal("j1", ["A"], 5, 5, 1), make_journal("j2", ["A"], 5, 5, 9)]
        a = category_aggregate(make_dataset(js), "A")
        assert journal_weight(js[0], a).value == 0.5
        assert journal_weight(js[1], a).value == 0.5

    @settings(max_examples=50)
    @given(st.integers(0, 2**32), st.integers(1, 30))
    def test_weights_sum_to_one(self, seed, n):
        rng = random.Random(seed)
        journals = [random_journal(rng, f"j{i}", ["A"]) for i in range(n)]
        ds = make_dataset(journals)
        a = category_aggregate(ds, "A")
        total = sum(journal_weight(j, a).value for j in journals)
        assert abs(total - 1.0) <= 1e-12


class TestWeightedMeanIdentity:
    def test_single_journal(self):
        j = make_journal("j1", ["A"], 2, 3, 7)
        ds = make_dataset([j])
        assert weighted_mean_aif(ds, "A") == impact_factor(j)

    def test_two_equal_weights(self):
        js = [make_journal("j1", ["A"], 5, 5, 10), make_journal("j2", ["A"], 5, 5, 30)]
        assert weighted_mean_aif(make_dataset(js), "A") == pytest.approx(2.0)

    @settings(max_examples=50)
    @given(st.integers(0, 2**32))
    def test_identity_with_ratio_form(self, seed):
        rng = random.Random(seed)
        journals = [random_journal(rng, f"j{i}", ["A"]) for i in range(10)]
        ds = make_dataset(journals)
        lhs = weighted_mean_aif(ds, "A")
        rhs = aggregate_impact_factor(category_aggregate(ds, "A"))
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestComponents:
    def test_s1_reference_values(self, fixture_by_code):
        p, w, b = fixture_reference_components(fixture_by_code["S1"])
        assert p == pytest.approx(87001 / 110560)
        assert round(p, 2) == 0.79
        assert round(w, 2) == 0.15
        assert round(b, 2) == 0.90

    def test_s113_cited_to_citing_above_one(self, fixture_by_code):
        _, _, b = fixture_reference_components(fixture_by_code["S113"])
        assert b == pytest.approx(206138 / 80965)
        assert round(b, 2) == 2.55

    def test_ss2_window_ratio(self, fixture_by_code):
        _, w, _ = fixture_reference_components(fixture_by_code["SS2"])
        assert w == pytest.approx(12555 / 28124)
        assert round(w, 2) == 0.45

    def test_blocked_component_named(self):
        a = agg(a_t=10, a_t1=5, a_t2=5, ncited=1, refs_total=10, refs_jcr=0, nciting=0)
        with pytest.raises(UndefinedIndicatorError, match="component w"):
            components(a)

    def test_full_component_vector(self):
        a = agg(a_t=10, a_t1=5, a_t2=5, ncited=9, refs_total=200, refs_jcr=100, nciting=10)
        cv = components(a)
        assert cv == ComponentVector(a=1.0, r=20.0, p=0.5, w=0.1, b=0.9)


class TestGrowthRatio:
    @pytest.mark.parametrize(
        "g,expected",
        [(0.05, 0.538), (0.10, 0.576), (-0.05, 0.463), (0.0, 0.5)],
    )
    def test_published_examples(self, g, expected):
        assert round(growth_ratio_from_rate(g), 3) == expected

    def test_twenty_percent_growth(self):
        # exact value is 0.654545..., printed as 0.654 (truncated, not rounded)
        assert abs(growth_ratio_from_rate(0.20) - 0.654) < 1e-3

    def test_rate_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            growth_ratio_from_rate(-1.0)


class TestRecompose:
    def test_all_ones(self):
        assert recompose(ComponentVector(1, 1, 1, 1, 1)) == 1.0

    def test_printed_s1_product_near_printed_aif(self, fixture_by_code):
        s1 = fixture_by_code["S1"]
        product = 0.51 * 29.14 * 0.79 * 0.15 * 0.90
        assert product == pytest.approx(1.585, abs=5e-4)
        # rounding of the printed inputs keeps the product within ~2.1%
        assert abs(product - s1.printed_aif) / s1.printed_aif < 0.025

    @settings(max_examples=50)
    @given(st.integers(0, 2**32))
    def test_identity_on_exact_aggregates(self, seed):
        rng = random.Random(seed)
        refs_total = rng.randint(1, 10**6)
        refs_jcr = rng.randint(1, refs_total)
        a = agg(
            a_t=rng.randint(1, 10**6),
            a_t1=rng.randint(1, 10**6),
            a_t2=rng.randint(0, 10**6),
            refs_total=refs_total,
            refs_jcr=refs_jcr,
            ncited=rng.randint(0, 10**6),
            nciting=rng.randint(1, refs_jcr),
        )
        cv = components(a)
        assert recompose(cv) == pytest.approx(aggregate_impact_factor(a), rel=1e-12)


class TestUnions:
    def test_single_set_union_equals_category(self):
        ds = make_dataset(
            [make_journal("j1", ["A"], 1, 1, 3), make_journal("j2", ["B"], 1, 1, 4)]
        )
        union = meta_category_aggregate(ds, ["A"])
        cat = category_aggregate(ds, "A")
        assert union.ncited == cat.ncited
        assert union.items_window == cat.items_window

    def test_shared_journal_counted_once(self):
        ds = make_dataset(
            [
                make_journal("j1", ["A", "B"], 1, 1, 3),
                make_journal("j2", ["A"], 1, 1, 4),
                make_journal("j3", ["B"], 1, 1, 5),
            ]
        )
        union = meta_category_aggregate(ds, ["A", "B"])
        per_cat = category_aggregate(ds, "A").ncited + category_aggregate(ds, "B").ncited
        assert union.ncited == 12
        assert union.ncited <= per_cat

    def test_union_matches_set_oracle(self):
        rng = random.Random(11)
        journals = [
            random_journal(rng, f"j{i}", rng.sample(["A", "B", "C"], rng.randint(1, 3)))
            for i in range(20)
        ]
        ds = make_dataset(journals)
        codes = ["A", "B", "C"]
        oracle = {j.id: j for j in journals if set(j.categories) & set(codes)}
        union = meta_category_aggregate(ds, codes)
        assert union.ncited == sum(j.cited_in_window for j in oracle.values())
        assert union.a_t1 == sum(j.items_t1 for j in oracle.values())

    def test_jcr_aggregate_is_whole_set_union(self):
        rng = random.Random(13)
        journals = [random_journal(rng, f"j{i}", ["A", "B"]) for i in range(10)]
        ds = make_dataset(journals)
        whole = jcr_aggregate(ds)
        union = meta_category_aggregate(ds, ds.category_codes())
        assert whole.ncited == union.ncited == sum(j.cited_in_window for j in journals)

    def test_jcr_aggregate_empty_dataset(self):
        with pytest.raises(UndefinedIndicatorError):
            jcr_aggregate(make_dataset([]))


class TestCnif:
    def test_equal_aifs_give_if(self):
        ds = make_dataset([make_journal("j1", ["A"], 5, 5, 10)])
        score = cnif(ds.journals[0], ds)
        assert score.score == 1.0
        assert score.cnif == score.if_value

    def test_direct_substitution(self):
        # field A has AIF 1.0, whole set AIF 2.0 -> score 2, cnif = 2 * IF
        ds = make_dataset(
            [
                make_journal("j1", ["A"], 5, 5, 10),  # IF 1.0 in field A
                make_journal("j2", ["B"], 5, 5, 30),  # IF 3.0 lifts the global mean
            ]
        )
        score = cnif(ds.journals[0], ds)
        assert score.meta_aif == 1.0
        assert score.jcr_aif == 2.0
        assert score.cnif == pytest.approx(2.0)

    def test_low_aif_field_gains(self):
        # field A is below the whole-set average, so every member gains
        journals = [
            make_journal("a1", ["A"], 10, 10, 4),
            make_journal("a2", ["A"], 10, 10, 6),
            make_journal("b1", ["B"], 10, 10, 60),
        ]
        ds = make_dataset(journals)
        for j in journals[:2]:
            score = cnif(j, ds)
            assert score.cnif > score.if_value

    def test_cnif_identity_holds_exactly(self):
        # cnif is score times IF as exact rationals, rounded once
        rng = random.Random(3)
        journals = [random_journal(rng, f"j{i}", ["A", "B"][: rng.randint(1, 2)]) for i in range(8)]
        ds = make_dataset(journals)
        for j in journals:
            s = cnif(j, ds)
            assert s.cnif == float(exact_scores(ds, j)[4])
            assert math.isclose(s.cnif, s.score * s.if_value, rel_tol=4 * sys.float_info.epsilon)

    def test_equal_rational_cnifs_tie(self):
        # j0 and j1 both have CNIF exactly 3/2; rounding the AIFs, the score and
        # the product one by one gave 1.4999999999999998 and 1.5, ranks 2 and 1
        journals = [
            make_journal("j0", ["A"], 6, 0, 11, items_t=1),
            make_journal("j1", ["A", "B"], 2, 0, 3, items_t=1),
            make_journal("j2", ["B"], 2, 0, 0, items_t=1),
            make_journal("j3", ["A"], 1, 0, 1, items_t=1),
        ]
        ds = make_dataset(journals)
        assert [(e.journal_id, e.score, e.rank) for e in rank_category(ds, "A", "cnif")] == [
            ("j0", 1.5, 1),
            ("j1", 1.5, 1),
            ("j3", 9 / 11, 3),
        ]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_value_is_its_exact_rational_rounded_once(self, data):
        # small counts make equal rationals common
        journals = [
            make_journal(
                f"j{i}",
                data.draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=3, unique=True)),
                data.draw(st.integers(1, 6)),
                data.draw(st.integers(0, 2)),
                data.draw(st.integers(0, 11)),
            )
            for i in range(data.draw(st.integers(1, 8)))
        ]
        ds = make_dataset(journals)
        exact = {}
        for j in journals:
            # a zero union AIF leaves the score undefined
            assume(meta_category_aggregate(ds, j.categories).ncited > 0)
            values = exact_scores(ds, j)
            s = cnif(j, ds)
            assert (s.if_value, s.meta_aif, s.jcr_aif, s.score, s.cnif) == tuple(map(float, values))
            exact[j.id] = values[4]
        for code in ds.category_codes():
            entries = rank_category(ds, code, "cnif")
            for a in entries:
                assert a.rank == 1 + sum(exact[b.journal_id] > exact[a.journal_id] for b in entries)

    def test_journal_without_category_is_named_as_cause(self):
        ds = make_dataset([JournalRecord("j1", "J", (), 1, 1, 1, 1)])
        with pytest.raises(
            UndefinedIndicatorError, match="^journal j1: lists no category, CNIF undefined$"
        ):
            cnif(ds.journals[0], ds)

    def test_order_preserved_within_category_set(self):
        rng = random.Random(5)
        journals = [random_journal(rng, f"j{i}", ["A", "B"]) for i in range(30)]
        ds = make_dataset(journals)
        scored = [(impact_factor(j), cnif(j, ds).cnif) for j in journals]
        for (if1, c1) in scored:
            for (if2, c2) in scored:
                if if1 > if2:
                    assert c1 > c2

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 10))
    def test_scale_invariance_of_score(self, seed, k):
        rng = random.Random(seed)
        journals = [random_journal(rng, f"j{i}", ["A", "B"][: rng.randint(1, 2)]) for i in range(6)]
        ds = make_dataset(journals)
        scaled = make_dataset(
            [
                make_journal(
                    j.id,
                    j.categories,
                    j.items_t1,
                    j.items_t2,
                    j.cited_in_window * k,
                    items_t=j.items_t,
                )
                for j in journals
            ]
        )
        for j, js in zip(ds.journals, scaled.journals):
            before = cnif(j, ds)
            after = cnif(js, scaled)
            assert after.score == pytest.approx(before.score, rel=1e-12)
            assert after.cnif == pytest.approx(before.cnif * k, rel=1e-12)



def _metamorphic_journals(rng: random.Random) -> list:
    """Journals in codes A-E with positive windows and citations, so every
    IF and CNIF is defined; one journal lists A alone."""
    ids = ["solo"] + [f"j{i}" for i in range(rng.randint(3, 14))]
    return [
        make_journal(
            jid,
            ["A"] if jid == "solo" else rng.sample("ABCDE", rng.randint(1, 3)),
            rng.randint(1, 40),
            rng.randint(0, 40),
            rng.randint(1, 90),
        )
        for jid in ids
    ]


class TestMetamorphic:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_copying_a_categorys_members_keeps_its_aifs(self, seed):
        rng = random.Random(seed)
        journals = _metamorphic_journals(rng)
        ds = make_dataset(journals)
        members = ds.members("A")
        copies = [dataclasses.replace(j, id=j.id + "-copy") for j in members]
        doubled = make_dataset(journals + copies)
        before = aggregate_impact_factor(category_aggregate(ds, "A"))
        assert aggregate_impact_factor(category_aggregate(doubled, "A")) == before
        # a journal listing A alone has A as its union
        for j in (journals[0], copies[members.index(journals[0])]):
            assert cnif(j, doubled).meta_aif == before == cnif(journals[0], ds).meta_aif

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 1000))
    def test_scaling_citations_scales_if_and_keeps_cnif_ranks(self, seed, k):
        rng = random.Random(seed)
        journals = _metamorphic_journals(rng)
        scaled = [dataclasses.replace(j, cited_in_window=k * j.cited_in_window) for j in journals]
        for j, js in zip(journals, scaled):
            assert math.isclose(impact_factor(js), k * impact_factor(j), rel_tol=1e-12)
        ranks = []
        with tempfile.TemporaryDirectory() as tmp:
            for i, js in enumerate((journals, scaled)):
                path, out = os.path.join(tmp, f"in{i}.csv"), os.path.join(tmp, f"out{i}.json")
                with open(path, "w", encoding="utf-8", newline="") as f:
                    emit_journals_csv(make_dataset(js), f)
                argv = ["rank", "--input", path, "--scorer", "cnif", "--format", "json"]
                assert main(argv + ["--out", out]) == 0
                with open(out, encoding="utf-8") as f:
                    rows = json.load(f)
                ranks.append({(r["category"], r["journal_id"]): r["rank"] for r in rows})
        assert ranks[0].keys() == ranks[1].keys()
        ds = make_dataset(journals)
        score = {j.id: cnif(j, ds).cnif for j in journals}
        for (code, jid), rank in ranks[0].items():
            others = [m.id for m in ds.members(code) if m.id != jid]
            if not any(math.isclose(score[jid], score[m], rel_tol=1e-12) for m in others):
                assert ranks[1][code, jid] == rank

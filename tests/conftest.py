import random
from functools import partial

import pytest

from cnifkit.core_model import (
    CategoryAggregate,
    Dataset,
    JournalRecord,
    UndefinedIndicatorError,
    Violation,
)
from cnifkit.indicators import cnif, row_impact_factor
from cnifkit.ingest import parse_category_fixture_csv
from cnifkit.ranking import GapReport, GapSummary, RankingEntry
from cnifkit.reference import bundled_fixture_path


def make_dataset(journals):
    return Dataset(tuple(journals))


def make_journal(jid, categories, items_t1, items_t2, cited, items_t=0, refs=None):
    refs_total, refs_jcr, refs_win = refs if refs else (None, None, None)
    return JournalRecord(
        id=jid,
        name=jid.upper(),
        categories=tuple(categories),
        items_t=items_t,
        items_t1=items_t1,
        items_t2=items_t2,
        cited_in_window=cited,
        refs_total=refs_total,
        refs_jcr=refs_jcr,
        refs_jcr_in_window=refs_win,
    )


def random_journal(rng: random.Random, jid, categories, max_count=10**6):
    refs_total = rng.randint(0, max_count)
    refs_jcr = rng.randint(0, refs_total)
    return JournalRecord(
        id=jid,
        name=jid,
        categories=tuple(categories),
        items_t=rng.randint(0, max_count),
        items_t1=rng.randint(1, max_count),
        items_t2=rng.randint(0, max_count),
        cited_in_window=rng.randint(0, max_count),
        refs_total=refs_total,
        refs_jcr=refs_jcr,
        refs_jcr_in_window=rng.randint(0, refs_jcr),
    )


def oracle_validate(journals) -> list[Violation]:
    """The two cross-field reference rules walked over the records, in row
    then rule order; an absent reference field breaks neither."""
    report = []
    for j in journals:
        rt, rj, rjw = j.refs_total, j.refs_jcr, j.refs_jcr_in_window
        if None not in (rt, rj) and rj > rt:
            report.append(Violation(j.id, "refs_jcr exceeds refs_total"))
        if None not in (rj, rjw) and rjw > rj:
            report.append(Violation(j.id, "refs_jcr_in_window exceeds refs_jcr"))
    return report


def oracle_aggregate(journals, code: str) -> CategoryAggregate:
    """Fieldwise sums over the records, the walk the columnar aggregates replaced."""
    sums = dict(a_t=0, a_t1=0, a_t2=0, refs_total=0, refs_jcr=0, ncited=0, nciting=0)
    excluded = 0
    for j in journals:
        sums["a_t"] += j.items_t
        sums["a_t1"] += j.items_t1
        sums["a_t2"] += j.items_t2
        sums["ncited"] += j.cited_in_window
        if None not in (j.refs_total, j.refs_jcr, j.refs_jcr_in_window):
            sums["refs_total"] += j.refs_total
            sums["refs_jcr"] += j.refs_jcr
            sums["nciting"] += j.refs_jcr_in_window
        else:
            excluded += 1
    return CategoryAggregate(code, **sums, reference_exclusions=excluded)


def oracle_union_aggregate(dataset, codes) -> CategoryAggregate:
    """``oracle_aggregate`` over the union of the codes' members, each journal id once."""
    codes = list(codes)
    union = {}
    for code in codes:
        for j in dataset.members(code):
            union.setdefault(j.id, j)
    return oracle_aggregate(union.values(), "+".join(sorted(codes)))


def oracle_jcr_aggregate(dataset) -> CategoryAggregate:
    if not dataset.journals:
        raise UndefinedIndicatorError("empty dataset has no whole-database aggregate")
    return oracle_aggregate(dataset.journals, "JCR")


def oracle_score_function(dataset, name):
    """The score of a journal's row under a scorer name, computed on every
    call: the scorer that the score columns replaced."""
    if name == "if":
        return partial(row_impact_factor, dataset)
    if name == "cnif":
        return lambda row: cnif(dataset.journals[row], dataset).cnif
    raise ValueError(f"unknown scorer: {name!r}")


def oracle_rank_category(dataset, category, scorer="if"):
    """Members scored in member order, sorted by descending score then id,
    with competition ranks: the walk that ``ranking._ranked`` replaced."""
    rows = dataset.member_rows(category)
    score = oracle_score_function(dataset, scorer)
    ids = dataset.columns["id"]
    scored = sorted(((score(i), ids[i]) for i in rows), key=lambda t: (-t[0], t[1]))
    n = len(scored)
    out = []
    rank = 1
    for pos, (s, jid) in enumerate(scored, start=1):
        if pos > 1 and s < scored[pos - 2][0]:
            rank = pos
        out.append(RankingEntry(jid, category, s, rank, rank / n * 100.0))
    return out


def oracle_compare_gaps(dataset):
    """``compare_gaps`` from every category's oracle ranking under each
    scorer, keeping each journal's list of percentiles."""
    gaps = {}
    for scorer in ("if", "cnif"):
        pcts = {}
        for code in dataset.category_codes():
            for e in oracle_rank_category(dataset, code, scorer):
                pcts.setdefault(e.journal_id, []).append(e.percentile)
        gaps[scorer] = {jid: max(p) - min(p) for jid, p in pcts.items()}
    ids, categories = dataset.columns["id"], dataset.columns["categories"]
    multi = sorted(jid for jid, cats in zip(ids, categories) if len(cats) > 1)
    reports = [GapReport(jid, gaps["if"][jid], gaps["cnif"][jid]) for jid in multi]
    if not reports:
        return GapSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0), reports
    gaps_if = [r.gap_if for r in reports]
    gaps_cnif = [r.gap_cnif for r in reports]
    summary = GapSummary(
        journal_count=len(reports),
        max_gap_if=max(gaps_if),
        max_gap_cnif=max(gaps_cnif),
        mean_gap_if=sum(gaps_if) / len(gaps_if),
        mean_gap_cnif=sum(gaps_cnif) / len(gaps_cnif),
        fraction_reduced=sum(1 for r in reports if r.gap_cnif < r.gap_if) / len(reports),
    )
    return summary, reports


@pytest.fixture(scope="session")
def fixture_rows():
    with open(bundled_fixture_path(), encoding="utf-8") as f:
        return parse_category_fixture_csv(f)


@pytest.fixture(scope="session")
def fixture_by_code(fixture_rows):
    return {r.code: r for r in fixture_rows}

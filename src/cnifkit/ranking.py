"""Per-category rankings, percentiles, and the cross-category gap metric."""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import neg
from typing import Iterable, Iterator

from .core_model import Dataset, UndefinedIndicatorError
# the benchmark tracer in perfbench/ patches ``ranking.cnif``, so the name stays bound
from .indicators import cnif, cnif_terms, row_counts, row_impact_factor  # noqa: F401

SCORERS = ("if", "cnif")


@dataclass(frozen=True)
class RankingEntry:
    journal_id: str
    category: str
    score: float
    rank: int
    percentile: float


@dataclass(frozen=True)
class GapReport:
    journal_id: str
    gap_if: float
    gap_cnif: float


@dataclass(frozen=True)
class GapSummary:
    journal_count: int
    max_gap_if: float
    max_gap_cnif: float
    mean_gap_if: float
    mean_gap_cnif: float
    fraction_reduced: float


def score_column(dataset: Dataset, name: str) -> list:
    """Each row's score under the scorer ``name``, computed once per dataset.

    A row whose score is undefined holds its error message instead; ranking
    a category raises it, as ``UndefinedIndicatorError``, at the first such
    member.
    """
    if name not in SCORERS:
        raise ValueError(f"unknown scorer: {name!r}")
    key = f"{name} scores"
    column = dataset._cache.get(key)
    if column is None:
        rows = range(len(dataset.columns["id"]))
        if name == "cnif":  # one pass of the CNIF kernel over every row
            terms = cnif_terms(dataset, row_counts(dataset, rows))
            column = [str(t) if isinstance(t, UndefinedIndicatorError) else t[-1] for t in terms]
        else:
            column = []
            for row in rows:
                try:
                    column.append(row_impact_factor(dataset, row))
                except UndefinedIndicatorError as exc:
                    column.append(str(exc))
        dataset._cache[key] = column  # only once every row has its score
    return column


def _ranked(column: list, ids: tuple, rows: list[int]) -> Iterator[tuple[float, str, int, float]]:
    """``(score, journal_id, rank, percentile)`` of each of the rows, ranked
    as ``rank_category`` ranks a category's members."""
    scores = [column[i] for i in rows]
    try:
        ranked = sorted(zip(map(neg, scores), [ids[i] for i in rows]))
    except TypeError:  # a message, not a float: the first undefined score aborts
        raise UndefinedIndicatorError(next(s for s in scores if isinstance(s, str))) from None
    n = len(ranked)
    rank, last = 0, None
    for pos, (key, jid) in enumerate(ranked, start=1):
        if key != last:
            rank, last = pos, key
        yield -key, jid, rank, rank / n * 100.0


def rank_category(dataset: Dataset, category: str, scorer: str = "if") -> list[RankingEntry]:
    """Rank category members descending by score with competition ranking,
    ties by journal id: tied scores share the smallest rank of their block
    ("1,1,3"), and the percentile is rank over category size times 100."""
    rows = dataset.member_rows(category)
    column = score_column(dataset, scorer)
    ranked = _ranked(column, dataset.columns["id"], rows)
    return [RankingEntry(jid, category, s, rank, pct) for s, jid, rank, pct in ranked]


def gap(journal_id: str, rankings: Iterable[list[RankingEntry]]) -> float:
    """Spread of a journal's percentiles across the rankings that include it."""
    pcts = [e.percentile for ranking in rankings for e in ranking if e.journal_id == journal_id]
    if not pcts:
        raise ValueError(f"journal {journal_id} appears in no ranking")
    return max(pcts) - min(pcts)


def _journal_gaps(dataset: Dataset, scorer: str) -> dict[str, float]:
    """Each ranked journal's gap under the scorer, keyed by journal id."""
    column, ids = score_column(dataset, scorer), dataset.columns["id"]
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}
    for code in dataset.category_codes():
        for _, jid, _, pct in _ranked(column, ids, dataset.member_rows(code)):
            if pct < lo.get(jid, math.inf):
                lo[jid] = pct
            if pct > hi.get(jid, -math.inf):
                hi[jid] = pct
    return {jid: hi[jid] - p for jid, p in lo.items()}


def compare_gaps(dataset: Dataset) -> tuple[GapSummary, list[GapReport]]:
    """Gap under IF and CNIF of each multi-category journal, plus a summary.

    ``fraction_reduced`` counts strict decreases of the gap only.  The reports
    come in ascending journal id order.
    """
    by_if = _journal_gaps(dataset, "if")
    by_cnif = _journal_gaps(dataset, "cnif")
    ids, categories = dataset.columns["id"], dataset.columns["categories"]
    multi = sorted(jid for jid, cats in zip(ids, categories) if len(cats) > 1)
    reports = [GapReport(jid, by_if[jid], by_cnif[jid]) for jid in multi]
    if reports:
        gaps_if = [r.gap_if for r in reports]
        gaps_cnif = [r.gap_cnif for r in reports]
        reduced = sum(1 for r in reports if r.gap_cnif < r.gap_if)
        summary = GapSummary(
            journal_count=len(reports),
            max_gap_if=max(gaps_if),
            max_gap_cnif=max(gaps_cnif),
            mean_gap_if=sum(gaps_if) / len(gaps_if),
            mean_gap_cnif=sum(gaps_cnif) / len(gaps_cnif),
            fraction_reduced=reduced / len(reports),
        )
    else:
        summary = GapSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return summary, reports

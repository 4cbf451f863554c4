"""Per-category rankings, percentiles, and the cross-category gap metric."""
from __future__ import annotations

import math
from operator import neg
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core_model import Dataset, UndefinedIndicatorError
# the benchmark tracer in perfbench/ patches ``ranking.cnif``, so the name stays bound
from .indicators import _impact_factor, cnif, cnif_terms, row_counts  # noqa: F401

SCORERS = ("if", "cnif")


class RankingEntry(NamedTuple):
    journal_id: str
    category: str
    score: float
    rank: int
    percentile: float


class GapReport(NamedTuple):
    journal_id: str
    gap_if: float
    gap_cnif: float


class GapSummary(NamedTuple):
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
        if name == "cnif":
            for _ in cnif_scored(dataset, rows):  # the pass keeps the column
                pass
            return dataset._cache[key]
        column = []
        for journal_id, _, cited, items in row_counts(dataset, rows):
            try:
                column.append(_impact_factor(journal_id, cited, items))
            except UndefinedIndicatorError as exc:
                column.append(str(exc))
        dataset._cache[key] = column  # only once every row has its score
    return column


def cnif_scored(dataset: Dataset, order: Sequence[int]) -> Iterator[tuple[int, object]]:
    """``(row, terms)`` of every row in ``order``, a permutation of the rows,
    with ``terms`` as ``cnif_terms`` yields them.  A pass run to its end keeps
    each row's score as ``score_column(dataset, "cnif")``, so the CNIF kernel
    reads each journal once per dataset."""
    column = [None] * len(order)
    for row, terms in zip(order, cnif_terms(dataset, row_counts(dataset, order))):
        column[row] = str(terms) if isinstance(terms, UndefinedIndicatorError) else terms[-1]
        yield row, terms
    dataset._cache["cnif scores"] = column


def _ranked(column: list, ids: tuple, rows: list[int]) -> Iterator[tuple[int, int, float]]:
    """``(row, rank, percentile)`` of each of the rows, ranked as
    ``rank_category`` ranks a category's members."""
    scores = [column[i] for i in rows]
    try:  # journal ids are unique, so the sort never compares two rows
        ranked = sorted(zip(map(neg, scores), [ids[i] for i in rows], rows))
    except TypeError:  # a message, not a float: the first undefined score aborts
        raise UndefinedIndicatorError(next(s for s in scores if isinstance(s, str))) from None
    n = len(ranked)
    rank, last = 0, None
    for pos, (key, _, row) in enumerate(ranked, start=1):
        if key != last:
            rank, last = pos, key
        yield row, rank, rank / n * 100.0


def rank_category(dataset: Dataset, category: str, scorer: str = "if") -> list[RankingEntry]:
    """Rank category members descending by score with competition ranking,
    ties by journal id: tied scores share the smallest rank of their block
    ("1,1,3"), and the percentile is rank over category size times 100."""
    rows = dataset.member_rows(category)
    column, ids = score_column(dataset, scorer), dataset.columns["id"]
    ranked = _ranked(column, ids, rows)
    return [RankingEntry(ids[i], category, column[i], rank, pct) for i, rank, pct in ranked]


def gap(journal_id: str, rankings: Iterable[list[RankingEntry]]) -> float:
    """Spread of a journal's percentiles across the rankings that include it."""
    pcts = [e.percentile for ranking in rankings for e in ranking if e.journal_id == journal_id]
    if not pcts:
        raise ValueError(f"journal {journal_id} appears in no ranking")
    return max(pcts) - min(pcts)


def _report_rows(dataset: Dataset) -> list[int]:
    """The rows of the journals listing two or more codes, in journal id
    order: the journals ``compare_gaps`` reports, in its order."""
    ids, categories = dataset.columns["id"], dataset.columns["categories"]
    return sorted((i for i, cats in enumerate(categories) if len(cats) > 1), key=ids.__getitem__)


def _journal_gaps(dataset: Dataset, scorer: str, rows: list[int]) -> list[float]:
    """The gap under the scorer of the journal at each of the rows."""
    column, ids = score_column(dataset, scorer), dataset.columns["id"]
    lo, hi = [math.inf] * len(ids), [-math.inf] * len(ids)
    for code in dataset.category_codes():
        for row, _, pct in _ranked(column, ids, dataset.member_rows(code)):
            if pct < lo[row]:
                lo[row] = pct
            if pct > hi[row]:
                hi[row] = pct
    return [hi[i] - lo[i] for i in rows]


def compare_gaps(dataset: Dataset) -> tuple[GapSummary, list[GapReport]]:
    """Gap under IF and CNIF of each multi-category journal, plus a summary.

    ``fraction_reduced`` counts strict decreases of the gap only.  The reports
    come in ascending journal id order, the order of ``_report_rows``.
    """
    rows, ids = _report_rows(dataset), dataset.columns["id"]
    by_if, by_cnif = _journal_gaps(dataset, "if", rows), _journal_gaps(dataset, "cnif", rows)
    reports = list(map(GapReport, [ids[i] for i in rows], by_if, by_cnif))
    if reports:
        n = len(reports)
        reduced = sum(c < i for i, c in zip(by_if, by_cnif))
        summary = GapSummary(
            journal_count=n,
            max_gap_if=max(by_if),
            max_gap_cnif=max(by_cnif),
            mean_gap_if=sum(by_if) / n,
            mean_gap_cnif=sum(by_cnif) / n,
            fraction_reduced=reduced / n,
        )
    else:
        summary = GapSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return summary, reports

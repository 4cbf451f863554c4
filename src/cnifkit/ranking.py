"""Per-category rankings, percentiles, and the cross-category gap metric."""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from .core_model import Dataset
# the benchmark tracer in perfbench/ patches ``ranking.cnif``, so the name stays bound
from .indicators import cnif, row_cnif, row_impact_factor  # noqa: F401

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


def score_function(dataset: Dataset, name: str) -> Callable[[int], float]:
    """The score of a journal's row under ``rank_category``'s ``scorer`` name;
    the CNIF scores of multi-category journals are kept by row, so each is
    computed once."""
    if name == "if":
        return partial(row_impact_factor, dataset)
    if name == "cnif":
        categories = dataset.columns["categories"]
        scores = dataset._cache.setdefault("cnif", {})

        def cnif_score(row: int) -> float:
            if len(categories[row]) == 1:
                return row_cnif(dataset, row).cnif
            s = scores.get(row)
            if s is None:
                s = scores[row] = row_cnif(dataset, row).cnif
            return s

        return cnif_score
    raise ValueError(f"unknown scorer: {name!r}")


def rank_category(dataset: Dataset, category: str, scorer: str = "if") -> list[RankingEntry]:
    """Rank category members descending by score with competition ranking.

    Tied scores share the smallest rank of their block ("1,1,3"), and the
    percentile is rank over category size times 100, so lower is better.
    """
    rows = dataset.member_rows(category)
    score = score_function(dataset, scorer)
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


def gap(journal_id: str, rankings: Iterable[list[RankingEntry]]) -> float:
    """Spread of a journal's percentiles across the rankings that include it."""
    pcts = [e.percentile for ranking in rankings for e in ranking if e.journal_id == journal_id]
    if not pcts:
        raise ValueError(f"journal {journal_id} appears in no ranking")
    return max(pcts) - min(pcts)


def _journal_gaps(dataset: Dataset, scorer: str) -> dict[str, float]:
    """Each ranked journal's gap under the scorer, keyed by journal id."""
    pcts: dict[str, list[float]] = {}
    for code in dataset.category_codes():
        for e in rank_category(dataset, code, scorer):
            pcts.setdefault(e.journal_id, []).append(e.percentile)
    return {jid: max(p) - min(p) for jid, p in pcts.items()}


def compare_gaps(dataset: Dataset) -> tuple[GapSummary, list[GapReport]]:
    """Gap under IF and CNIF of each multi-category journal, plus a summary.

    ``fraction_reduced`` counts strict decreases of the gap only.  The reports
    come in ascending journal id order; the ``gap`` command relies on it.
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

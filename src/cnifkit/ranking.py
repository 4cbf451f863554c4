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
    percentiles_if: dict[str, float]
    percentiles_cnif: dict[str, float]
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


def _percentile_map(
    dataset: Dataset, scorer: str, categories: list[str]
) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for code in categories:
        for e in rank_category(dataset, code, scorer):
            out.setdefault(e.journal_id, {})[code] = e.percentile
    return out


def compare_gaps(
    dataset: Dataset, multi_category_only: bool = True
) -> tuple[GapSummary, list[GapReport]]:
    """Per-journal gap under IF and CNIF plus a summary over the filter.

    ``fraction_reduced`` counts strict decreases of the gap only.  The reports
    come in ascending journal id order; the ``gap`` command relies on it.
    """
    codes = dataset.category_codes()
    by_if = _percentile_map(dataset, "if", codes)
    by_cnif = _percentile_map(dataset, "cnif", codes)
    reports = []
    for jid in sorted(dataset.columns["id"]):
        pcts_if = by_if.get(jid, {})
        if not pcts_if:
            continue
        if multi_category_only and len(pcts_if) < 2:
            continue
        pcts_cnif = by_cnif[jid]
        reports.append(
            GapReport(
                journal_id=jid,
                percentiles_if=pcts_if,
                percentiles_cnif=pcts_cnif,
                gap_if=max(pcts_if.values()) - min(pcts_if.values()),
                gap_cnif=max(pcts_cnif.values()) - min(pcts_cnif.values()),
            )
        )
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

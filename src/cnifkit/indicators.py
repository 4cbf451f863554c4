"""Impact-indicator arithmetic: IF, AIF, weights, components, CNIF."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core_model import (
    CategoryAggregate,
    ComponentVector,
    Dataset,
    JournalRecord,
    UndefinedIndicatorError,
)


@dataclass(frozen=True)
class Weight:
    journal_id: str
    value: float


@dataclass(frozen=True)
class NormalizedScore:
    """A journal's IF together with its category-normalized rescaling.

    ``score`` is the whole-database AIF over the AIF of the union of the
    journal's categories; ``cnif`` is score times IF.
    """

    journal_id: str
    if_value: float
    meta_aif: float
    jcr_aif: float
    score: float
    cnif: float


def impact_factor(journal: JournalRecord) -> float:
    denom = journal.items_t1 + journal.items_t2
    if denom == 0:
        raise UndefinedIndicatorError(
            f"journal {journal.id}: no citable items in target window, IF undefined"
        )
    return journal.cited_in_window / denom


def _sum_aggregate(journals: Sequence[JournalRecord], code: str) -> CategoryAggregate:
    a_t = a_t1 = a_t2 = ncited = 0
    refs_total = refs_jcr = nciting = 0
    excluded = 0
    for j in journals:
        a_t += j.items_t
        a_t1 += j.items_t1
        a_t2 += j.items_t2
        ncited += j.cited_in_window
        if j.has_reference_fields():
            refs_total += j.refs_total
            refs_jcr += j.refs_jcr
            nciting += j.refs_jcr_in_window
        else:
            excluded += 1
    return CategoryAggregate(
        code=code,
        a_t=a_t,
        a_t1=a_t1,
        a_t2=a_t2,
        refs_total=refs_total,
        refs_jcr=refs_jcr,
        ncited=ncited,
        nciting=nciting,
        reference_exclusions=excluded,
    )


def category_aggregate(dataset: Dataset, code: str) -> CategoryAggregate:
    """Fieldwise sums over every journal listing the category code.

    A journal belonging to several categories contributes to each of them;
    deduplication applies only to union aggregates.
    """
    return _sum_aggregate(dataset.members(code), code)


def _aif(codes: Iterable[str], ncited: int, items_window: int) -> float:
    """AIF of the aggregate labelled by the sorted codes joined with "+"."""
    if items_window == 0:
        raise UndefinedIndicatorError(
            f"category {'+'.join(sorted(codes))}: no citable items in target window, AIF undefined"
        )
    return ncited / items_window


def aggregate_impact_factor(agg: CategoryAggregate) -> float:
    return _aif((agg.code,), agg.ncited, agg.items_window)


def journal_weight(journal: JournalRecord, agg: CategoryAggregate) -> Weight:
    if agg.items_window == 0:
        raise UndefinedIndicatorError(f"category {agg.code}: zero item total, weights undefined")
    return Weight(journal.id, journal.items_window / agg.items_window)


def weighted_mean_aif(dataset: Dataset, code: str) -> float:
    """AIF as the item-weighted mean of member IFs; identical to the ratio form."""
    agg = category_aggregate(dataset, code)
    total = 0.0
    for j in dataset.members(code):
        w = journal_weight(j, agg).value
        if w == 0.0:
            continue
        total += w * impact_factor(j)
    return total


def components(agg: CategoryAggregate) -> ComponentVector:
    """Split an aggregate into its five multiplicative factors."""
    if agg.items_window == 0:
        raise UndefinedIndicatorError(f"category {agg.code}: zero item total blocks component a")
    if agg.a_t == 0:
        raise UndefinedIndicatorError(f"category {agg.code}: zero census items block component r")
    if agg.refs_total == 0:
        raise UndefinedIndicatorError(f"category {agg.code}: zero references block component p")
    if agg.refs_jcr == 0:
        raise UndefinedIndicatorError(
            f"category {agg.code}: zero indexed references block component w"
        )
    if agg.nciting == 0:
        raise UndefinedIndicatorError(
            f"category {agg.code}: zero in-window references block component b"
        )
    return ComponentVector(
        a=agg.a_t / agg.items_window,
        r=agg.refs_total / agg.a_t,
        p=agg.refs_jcr / agg.refs_total,
        w=agg.nciting / agg.refs_jcr,
        b=agg.ncited / agg.nciting,
    )


def growth_ratio_from_rate(g: float) -> float:
    """Growth component of a field growing (or shrinking) at annual rate g."""
    if g <= -1:
        raise ValueError(f"annual growth rate must exceed -1, got {g}")
    return (1 + g) ** 2 / (2 + g)


def recompose(cv: ComponentVector) -> float:
    return cv.a * cv.r * cv.p * cv.w * cv.b


def meta_category_aggregate(dataset: Dataset, codes: Iterable[str]) -> CategoryAggregate:
    """Aggregate over the union of the member sets, each journal counted once."""
    codes = list(codes)
    seen: set[str] = set()
    union: list[JournalRecord] = []
    for code in codes:
        for j in dataset.members(code):
            if j.id not in seen:
                seen.add(j.id)
                union.append(j)
    return _sum_aggregate(union, "+".join(sorted(codes)))


def jcr_aggregate(dataset: Dataset) -> CategoryAggregate:
    """Whole-database aggregate over every journal."""
    if not dataset.journals:
        raise UndefinedIndicatorError("empty dataset has no whole-database aggregate")
    return _sum_aggregate(dataset.journals, "JCR")


def _category_table(journals: Sequence[JournalRecord]) -> tuple[dict, int, int]:
    """Per code: summed window items and citations, and the journals that also
    list another code; plus the whole-database sums (exact Python ints)."""
    by_code: dict[str, list] = {}
    for j in journals:
        for code in j.categories:
            entry = by_code.setdefault(code, [0, 0, []])
            entry[0] += j.items_t1 + j.items_t2
            entry[1] += j.cited_in_window
            if len(j.categories) > 1:
                entry[2].append(j)
    items = sum(j.items_t1 + j.items_t2 for j in journals)
    cited = sum(j.cited_in_window for j in journals)
    return {c: (i, n, tuple(shared)) for c, (i, n, shared) in by_code.items()}, items, cited


def cnif(journal: JournalRecord, dataset: Dataset) -> NormalizedScore:
    """Normalize a journal's IF by the union of its subject categories.

    With a single category the union is that category, so the score reduces
    to the whole-database AIF over the category AIF.  Both AIFs come from a
    table built once per dataset.
    """
    if_value = impact_factor(journal)
    if not dataset.journals:
        raise UndefinedIndicatorError("empty dataset has no whole-database aggregate")
    if "category_table" not in dataset._cache:
        dataset._cache["category_table"] = _category_table(dataset.journals)
    by_code, jcr_items, jcr_cited = dataset._cache["category_table"]
    jcr_aif = _aif(("JCR",), jcr_cited, jcr_items)
    items = cited = 0
    seen: set[str] = set()
    for code in journal.categories:
        if code not in by_code:
            raise KeyError(f"unknown category: {code}")
        code_items, code_cited, shared = by_code[code]
        items += code_items
        cited += code_cited
        if seen:
            for m in shared:
                if not seen.isdisjoint(m.categories):  # counted with an earlier code
                    items -= m.items_t1 + m.items_t2
                    cited -= m.cited_in_window
        seen.add(code)
    meta_aif = _aif(journal.categories, cited, items)
    if meta_aif == 0:
        raise UndefinedIndicatorError(
            f"journal {journal.id}: zero meta-category AIF, normalization undefined"
        )
    score = jcr_aif / meta_aif
    return NormalizedScore(
        journal_id=journal.id,
        if_value=if_value,
        meta_aif=meta_aif,
        jcr_aif=jcr_aif,
        score=score,
        cnif=score * if_value,
    )


def fixture_reference_components(row) -> tuple[float, float, float]:
    """Recompute (p, w, b) exactly from a fixture row's raw counts."""
    if row.refs_total == 0:
        raise UndefinedIndicatorError(f"{row.code}: zero references block p")
    if row.refs_jcr == 0:
        raise UndefinedIndicatorError(f"{row.code}: zero indexed references block w")
    if row.nciting == 0:
        raise UndefinedIndicatorError(f"{row.code}: zero in-window references block b")
    return (
        row.refs_jcr / row.refs_total,
        row.nciting / row.refs_jcr,
        row.ncited / row.nciting,
    )

"""Impact-indicator arithmetic: IF, AIF, weights, components, CNIF."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .core_model import (
    COUNT_FIELDS,
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
    return _impact_factor(journal.id, journal.cited_in_window, journal.items_t1 + journal.items_t2)


def row_impact_factor(dataset: Dataset, row: int) -> float:
    """``impact_factor`` of the journal at ``row``, read from the columns."""
    c = dataset.columns
    items = c["items_t1"][row] + c["items_t2"][row]
    return _impact_factor(c["id"][row], c["cited_in_window"][row], items)


def _impact_factor(journal_id: str, cited: int, items: int) -> float:
    if items == 0:
        raise UndefinedIndicatorError(
            f"journal {journal_id}: no citable items in target window, IF undefined"
        )
    return cited / items


def category_aggregate(dataset: Dataset, code: str) -> CategoryAggregate:
    """Fieldwise sums over every journal listing the category code.

    A journal belonging to several categories contributes to each of them;
    deduplication applies only to union aggregates.
    """
    by_code = _table(dataset)[0]
    if code not in by_code:
        raise KeyError(f"unknown category: {code}")
    return by_code[code][0]


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
    rows: set[int] = set()
    for code in codes:
        rows.update(dataset.member_rows(code))
    counts = ([col[i] for i in rows] for col in map(dataset.columns.get, COUNT_FIELDS))
    return _sums("+".join(sorted(codes)), *counts)


def jcr_aggregate(dataset: Dataset) -> CategoryAggregate:
    """Whole-database aggregate over every journal."""
    if not dataset.columns["id"]:
        raise UndefinedIndicatorError("empty dataset has no whole-database aggregate")
    return _table(dataset)[1]


def _sums(code: str, t, t1, t2, cited, *refs) -> CategoryAggregate:
    """Fieldwise sums of count columns given in ``COUNT_FIELDS`` order.  A row
    lacking a reference count is left out of the three reference sums and
    counted in ``reference_exclusions``."""
    complete = [None not in r for r in zip(*refs)]
    rt, rj, rjw = (sum(compress(col, complete)) for col in refs)
    excluded = complete.count(False)
    return CategoryAggregate(code, sum(t), sum(t1), sum(t2), rt, rj, sum(cited), rjw, excluded)


def _category_table(dataset: Dataset) -> tuple[dict, CategoryAggregate]:
    """Per code: its aggregate and its member rows that also list another
    code; plus the whole-database aggregate.  One pass over the columns sums
    exact Python ints."""
    c = dataset.columns
    sums = {code: [0] * 8 for code in dataset.category_codes()}  # CategoryAggregate's order
    shared: dict[str, list[int]] = {code: [] for code in sums}
    counts = [c[name] for name in COUNT_FIELDS]
    for row, (codes, t, t1, t2, cited, rt, rj, rjw) in enumerate(zip(c["categories"], *counts)):
        has_refs = rt is not None and rj is not None and rjw is not None
        for code in codes:
            s = sums[code]
            s[0] += t
            s[1] += t1
            s[2] += t2
            s[5] += cited
            if has_refs:
                s[3] += rt
                s[4] += rj
                s[6] += rjw
            else:
                s[7] += 1
        if len(codes) > 1:
            for code in codes:
                shared[code].append(row)
    table = {code: (CategoryAggregate(code, *s), shared[code]) for code, s in sums.items()}
    return table, _sums("JCR", *counts)


def _table(dataset: Dataset) -> tuple[dict, CategoryAggregate]:
    table = dataset._cache.get("category_table")
    if table is None:
        table = dataset._cache["category_table"] = _category_table(dataset)
    return table


def cnif(journal: JournalRecord, dataset: Dataset) -> NormalizedScore:
    """Normalize a journal's IF by the union of its subject categories.

    With a single category the union is that category, so the score reduces
    to the whole-database AIF over the category AIF.  Both AIFs come from a
    table built once per dataset.  ``score`` and ``cnif`` are each one
    correctly rounded division of exact integer products, so journals whose
    scores are equal rationals get equal floats; two different rationals
    within half an ulp of each other still round to the same float.
    """
    items = journal.items_t1 + journal.items_t2
    terms = _cnif_terms(dataset, journal.id, journal.categories, journal.cited_in_window, items)
    return NormalizedScore(journal.id, *terms)


def row_cnif(dataset: Dataset, row: int) -> tuple[float, float, float, float, float]:
    """The fields of ``cnif`` after ``journal_id`` for the journal at ``row``,
    read from the columns: ``(if_value, meta_aif, jcr_aif, score, cnif)``."""
    c = dataset.columns
    jid, codes, cited = c["id"][row], c["categories"][row], c["cited_in_window"][row]
    return _cnif_terms(dataset, jid, codes, cited, c["items_t1"][row] + c["items_t2"][row])


def _cnif_terms(
    dataset: Dataset, journal_id: str, codes, cited: int, items: int
) -> tuple[float, float, float, float, float]:
    """IF, union AIF, whole-database AIF, score and CNIF of a journal with
    these categories and window counts."""
    if_value = _impact_factor(journal_id, cited, items)
    if not dataset.columns["id"]:
        raise UndefinedIndicatorError("empty dataset has no whole-database aggregate")
    by_code, jcr = _table(dataset)
    jcr_aif = aggregate_impact_factor(jcr)
    c = dataset.columns
    categories, t1, t2, ncited = c["categories"], c["items_t1"], c["items_t2"], c["cited_in_window"]
    union_items = union_cited = 0
    seen: set[str] = set()
    for code in codes:
        if code not in by_code:
            raise KeyError(f"unknown category: {code}")
        agg, shared = by_code[code]
        union_items += agg.items_window
        union_cited += agg.ncited
        if seen:
            for m in shared:
                if not seen.isdisjoint(categories[m]):  # counted with an earlier code
                    union_items -= t1[m] + t2[m]
                    union_cited -= ncited[m]
        seen.add(code)
    meta_aif = _aif(codes, union_cited, union_items)
    if union_cited == 0:
        raise UndefinedIndicatorError(
            f"journal {journal_id}: zero meta-category AIF, normalization undefined"
        )
    # score = (jcr cited / jcr items) / (union cited / union items), cnif = score * IF
    num, den = jcr.ncited * union_items, jcr.items_window * union_cited
    return if_value, meta_aif, jcr_aif, num / den, num * cited / (den * items)


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

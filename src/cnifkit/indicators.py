"""Impact-indicator arithmetic: IF, AIF, weights, components, CNIF."""
from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, NamedTuple

from .core_model import (
    COUNT_FIELDS,
    CategoryAggregate,
    ComponentVector,
    Dataset,
    JournalRecord,
    UndefinedIndicatorError,
)


class Weight(NamedTuple):
    journal_id: str
    value: float


class NormalizedScore(NamedTuple):
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
    """AIF as the item-weighted mean of member IFs; identical to the ratio form.

    A member with no window items has weight 0.  It is skipped when it has no
    citations either.  When it has some, which the ratio form counts, its
    undefined IF raises ``UndefinedIndicatorError``.
    """
    agg = category_aggregate(dataset, code)
    total = 0.0
    for j in dataset.members(code):
        w = journal_weight(j, agg).value
        if w == 0.0 and j.cited_in_window == 0:
            continue
        total += w * impact_factor(j)
    return total


def components(agg: CategoryAggregate) -> ComponentVector:
    """Split an aggregate into its five multiplicative factors."""
    if agg.items_window == 0:
        raise UndefinedIndicatorError(f"category {agg.code}: zero item total blocks component a")
    if agg.a_t == 0:
        raise UndefinedIndicatorError(f"category {agg.code}: zero census items block component r")
    a, r = agg.a_t / agg.items_window, agg.refs_total / agg.a_t
    return ComponentVector(a, r, *fixture_reference_components(agg))


def fixture_reference_components(row) -> tuple[float, float, float]:
    """(p, w, b) exactly from the four reference counts of a fixture row or a
    ``CategoryAggregate``, which name them alike."""
    if row.refs_total == 0:
        raise UndefinedIndicatorError(f"category {row.code}: zero references block component p")
    if row.refs_jcr == 0:
        raise UndefinedIndicatorError(
            f"category {row.code}: zero indexed references block component w"
        )
    if row.nciting == 0:
        raise UndefinedIndicatorError(
            f"category {row.code}: zero in-window references block component b"
        )
    return row.refs_jcr / row.refs_total, row.nciting / row.refs_jcr, row.ncited / row.nciting


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


_EMPTY_DATASET = "empty dataset has no whole-database aggregate"


def jcr_aggregate(dataset: Dataset) -> CategoryAggregate:
    """Whole-database aggregate over every journal."""
    if not dataset.columns["id"]:
        raise UndefinedIndicatorError(_EMPTY_DATASET)
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
    counts = journal.id, journal.categories, journal.cited_in_window, journal.items_window
    terms = next(cnif_terms(dataset, [counts]))
    if isinstance(terms, UndefinedIndicatorError):
        raise terms
    return NormalizedScore(journal.id, *terms)


def row_counts(dataset: Dataset, rows: Iterable[int]) -> Iterator[tuple[str, tuple, int, int]]:
    """``(journal_id, codes, cited_in_window, items_window)`` of each of the
    rows, in their order: the journals as ``cnif_terms`` reads them."""
    c = dataset.columns
    ids, categories, cited = c["id"], c["categories"], c["cited_in_window"]
    t1, t2 = c["items_t1"], c["items_t2"]
    return ((ids[i], categories[i], cited[i], t1[i] + t2[i]) for i in rows)


def cnif_terms(
    dataset: Dataset, journals: Iterable[tuple[str, tuple, int, int]]
) -> Iterator[tuple[float, float, float, float, float] | UndefinedIndicatorError]:
    """For each ``(journal_id, codes, cited_in_window, items_window)``: the
    fields of ``cnif`` after ``journal_id``, or the ``UndefinedIndicatorError``
    that leaves that journal undefined.  The table (each code's window items,
    citations and shared rows), the whole-database AIF and the columns are
    read once; an unregistered code raises ``KeyError``."""
    c = dataset.columns
    by_code, jcr = _table(dataset)
    sums = {code: (agg.items_window, agg.ncited, shared) for code, (agg, shared) in by_code.items()}
    jcr_cited, jcr_items = jcr.ncited, jcr.items_window
    try:  # the whole-database error, which every journal with an IF gets
        jcr_aif, undefined = aggregate_impact_factor(jcr), None
    except UndefinedIndicatorError as exc:  # an empty dataset's window is 0 too
        undefined = str(exc) if c["id"] else _EMPTY_DATASET
    categories, t1, t2, ncited = c["categories"], c["items_t1"], c["items_t2"], c["cited_in_window"]
    for journal_id, codes, cited, items in journals:
        try:
            if_value = _impact_factor(journal_id, cited, items)
            if undefined:
                raise UndefinedIndicatorError(undefined)
            union_items = union_cited = 0
            seen: set[str] = set()
            for code in codes:
                if code not in sums:
                    raise KeyError(f"unknown category: {code}")
                items_window, cited_in_window, shared = sums[code]
                union_items += items_window
                union_cited += cited_in_window
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
        except UndefinedIndicatorError as exc:
            yield exc
        else:
            # score = (jcr cited / jcr items) / (union cited / union items), cnif = score * IF
            num, den = jcr_cited * union_items, jcr_items * union_cited
            yield if_value, meta_aif, jcr_aif, num / den, num * cited / (den * items)

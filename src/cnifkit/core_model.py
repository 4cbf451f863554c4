"""Domain types and dataset validation shared by all other modules."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class Edition(Enum):
    SCIENCE = "science"
    SOCIAL_SCIENCE = "social"
    UNION = "union"


class UndefinedIndicatorError(ValueError):
    """A denominator required by an indicator is zero."""


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One journal's per-year counts and category memberships.

    ``items_t*`` are citable-item counts in the census year t and the two
    target-window years.  ``cited_in_window`` counts citations received in
    year t to the t-1/t-2 volumes.  The three reference fields are optional:
    absent means unknown, never zero.  A repeated category code raises ``ValueError``.
    """

    id: str
    name: str
    categories: tuple[str, ...]
    items_t: int
    items_t1: int
    items_t2: int
    cited_in_window: int
    refs_total: Optional[int] = None
    refs_jcr: Optional[int] = None
    refs_jcr_in_window: Optional[int] = None

    def __post_init__(self):
        categories = tuple(self.categories)
        if len(categories) > 1 and len(set(categories)) != len(categories):
            raise ValueError(f"journal {self.id}: duplicate category codes")
        object.__setattr__(self, "categories", categories)

    @property
    def items_window(self) -> int:
        return self.items_t1 + self.items_t2

    def has_reference_fields(self) -> bool:
        return (
            self.refs_total is not None
            and self.refs_jcr is not None
            and self.refs_jcr_in_window is not None
        )


@dataclass(frozen=True)
class CategoryAggregate:
    """Summed raw counts for a category or meta-category.

    ``reference_exclusions`` counts member journals left out of the
    reference sums because they lack the optional reference fields.
    """

    code: str
    a_t: int = 0
    a_t1: int = 0
    a_t2: int = 0
    refs_total: int = 0
    refs_jcr: int = 0
    ncited: int = 0
    nciting: int = 0
    reference_exclusions: int = 0

    @property
    def items_window(self) -> int:
        return self.a_t1 + self.a_t2


@dataclass(frozen=True)
class ComponentVector:
    """The five multiplicative factors of an aggregate impact factor.

    a: growth ratio of citable items, r: mean references per citable item,
    p: fraction of references to indexed items, w: fraction of indexed
    references inside the target window, b: cited-to-citing ratio.
    """

    a: float
    r: float
    p: float
    w: float
    b: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError(f"component a must be positive, got {self.a}")
        if self.r < 0 or self.b < 0:
            raise ValueError("components r and b must be non-negative")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"component p must lie in [0,1], got {self.p}")
        if not (0.0 <= self.w <= 1.0):
            raise ValueError(f"component w must lie in [0,1], got {self.w}")


@dataclass(frozen=True)
class Dataset:
    """Immutable container of journals; its categories are the codes they list.

    Journal ids are unique: construction raises ``ValueError`` on a repeat.
    ``_cache`` holds values derived from ``journals`` on first use: the
    member index here, the category table in ``indicators`` and the CNIF
    scores in ``ranking``.  It is plain data, left out of equality and repr,
    and stays valid only because ``journals`` never changes.
    """

    journals: tuple[JournalRecord, ...]
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        journals = tuple(self.journals)
        ids: set[str] = set()
        for j in journals:
            if j.id in ids:
                raise ValueError(f"duplicate journal id: {j.id}")
            ids.add(j.id)
        object.__setattr__(self, "journals", journals)

    def _index(self) -> dict[str, list[JournalRecord]]:
        index = self._cache.get("members")
        if index is None:
            index = {}
            for j in self.journals:
                for c in j.categories:
                    index.setdefault(c, []).append(j)
            self._cache["members"] = index
        return index

    def members(self, code: str) -> list[JournalRecord]:
        members = self._index().get(code)
        if members is None:
            raise KeyError(f"unknown category: {code}")
        return list(members)

    def category_codes(self) -> list[str]:
        return sorted(self._index())


@dataclass(frozen=True)
class Violation:
    record_id: str
    rule: str


def validate(dataset: Dataset) -> list[Violation]:
    """Collect every invariant violation in the dataset.

    Violations are data, not failures: an empty list means the dataset is
    well formed.  The input is never mutated and the result is independent
    of journal order up to ordering of the report.
    """
    report: list[Violation] = []
    for j in dataset.journals:
        if not j.categories:
            report.append(Violation(j.id, "empty category list"))
        for name in ("items_t", "items_t1", "items_t2", "cited_in_window"):
            if getattr(j, name) < 0:
                report.append(Violation(j.id, f"negative count: {name}"))
        for name in ("refs_total", "refs_jcr", "refs_jcr_in_window"):
            v = getattr(j, name)
            if v is not None and v < 0:
                report.append(Violation(j.id, f"negative count: {name}"))
        if j.refs_total is not None and j.refs_jcr is not None and j.refs_jcr > j.refs_total:
            report.append(Violation(j.id, "refs_jcr exceeds refs_total"))
        if (
            j.refs_jcr is not None
            and j.refs_jcr_in_window is not None
            and j.refs_jcr_in_window > j.refs_jcr
        ):
            report.append(Violation(j.id, "refs_jcr_in_window exceeds refs_jcr"))
    return report

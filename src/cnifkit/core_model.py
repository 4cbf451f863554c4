"""Domain types and dataset validation shared by all other modules."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class Edition(Enum):
    SCIENCE = "science"
    SOCIAL_SCIENCE = "social"
    UNION = "union"


class InsufficientDataError(ValueError):
    """An operation needed an optional field that is absent."""


class UndefinedIndicatorError(ValueError):
    """A denominator required by an indicator is zero."""


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One journal's per-year counts and category memberships.

    ``items_t*`` are citable-item counts in the census year t and the two
    target-window years.  ``cited_in_window`` counts citations received in
    year t to the t-1/t-2 volumes.  The three reference fields are optional:
    absent means unknown, never zero.
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
        object.__setattr__(self, "categories", tuple(self.categories))

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
    name: str
    edition: Edition
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
class CategoryInfo:
    code: str
    name: str
    edition: Edition


@dataclass(frozen=True)
class Dataset:
    """Immutable container: census year, journals, and the category registry.

    ``_cache`` holds values derived from ``journals`` on first use: the
    member index here, the category table in ``indicators`` and the CNIF
    scores in ``ranking``.  It is plain data, left out of equality and repr,
    and stays valid only because ``journals`` never changes.
    """

    year: int
    journals: tuple[JournalRecord, ...]
    registry: dict[str, CategoryInfo] = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "journals", tuple(self.journals))
        object.__setattr__(self, "registry", dict(self.registry))

    def members(self, code: str) -> list[JournalRecord]:
        if code not in self.registry:
            raise KeyError(f"unknown category: {code}")
        index = self._cache.get("members")
        if index is None:
            index = {}
            for j in self.journals:
                for c in set(j.categories):  # a repeated code lists j once, as a scan does
                    index.setdefault(c, []).append(j)
            self._cache["members"] = index
        return list(index.get(code, ()))

    def category_codes(self) -> list[str]:
        return sorted(self.registry)


@dataclass(frozen=True)
class Violation:
    record_id: str
    rule: str


def _check_journal(j: JournalRecord) -> list[Violation]:
    out = []
    if not j.categories:
        out.append(Violation(j.id, "empty category list"))
    if len(set(j.categories)) != len(j.categories):
        out.append(Violation(j.id, "duplicate category codes"))
    for name in ("items_t", "items_t1", "items_t2", "cited_in_window"):
        if getattr(j, name) < 0:
            out.append(Violation(j.id, f"negative count: {name}"))
    for name in ("refs_total", "refs_jcr", "refs_jcr_in_window"):
        v = getattr(j, name)
        if v is not None and v < 0:
            out.append(Violation(j.id, f"negative count: {name}"))
    if j.refs_total is not None and j.refs_jcr is not None and j.refs_jcr > j.refs_total:
        out.append(Violation(j.id, "refs_jcr exceeds refs_total"))
    if (
        j.refs_jcr is not None
        and j.refs_jcr_in_window is not None
        and j.refs_jcr_in_window > j.refs_jcr
    ):
        out.append(Violation(j.id, "refs_jcr_in_window exceeds refs_jcr"))
    return out


def validate(dataset: Dataset) -> list[Violation]:
    """Collect every invariant violation in the dataset.

    Violations are data, not failures: an empty list means the dataset is
    well formed.  The input is never mutated and the result is independent
    of journal order up to ordering of the report.
    """
    report: list[Violation] = []
    seen: set[str] = set()
    for j in dataset.journals:
        if j.id in seen:
            report.append(Violation(j.id, "duplicate journal id"))
        seen.add(j.id)
        report.extend(_check_journal(j))
        for code in j.categories:
            if code not in dataset.registry:
                report.append(Violation(j.id, f"unregistered category: {code}"))
    return report

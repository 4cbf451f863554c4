"""Domain types and dataset validation shared by all other modules."""
from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, Optional


class Edition(Enum):
    SCIENCE = "science"
    SOCIAL_SCIENCE = "social"


class UndefinedIndicatorError(ValueError):
    """A denominator required by an indicator is zero."""


# Every count lies below the int64 bound; summed over journals it keeps every
# IF, AIF and CNIF ratio a finite float.
COUNT_LIMIT = 2**63
CLIP_WIDTH = 20


def clip(value) -> str:
    """``str(value)`` as an error message echoes it: cut to ``CLIP_WIDTH``
    characters, the last three "...", when it is longer."""
    text = str(value)
    return text if len(text) <= CLIP_WIDTH else text[: CLIP_WIDTH - 3] + "..."


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One journal's per-year counts and category memberships.

    ``items_t*`` are citable-item counts in the census year t and the two
    target-window years.  ``cited_in_window`` counts citations received in
    year t to the t-1/t-2 volumes.  The three reference fields are optional:
    absent means unknown, never zero.  An empty category list, a repeated
    category code or a count that is negative or ``COUNT_LIMIT`` or more
    raises ``ValueError``.
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
        if not categories:
            raise ValueError(f"journal {self.id}: empty category list")
        if len(categories) > 1 and len(set(categories)) != len(categories):
            raise ValueError(f"journal {self.id}: duplicate category codes")
        object.__setattr__(self, "categories", categories)
        for name in COUNT_FIELDS:
            value = getattr(self, name)
            if value is None:
                continue
            if value < 0:
                raise ValueError(f"journal {self.id}: negative count in {name}: {value}")
            if value >= COUNT_LIMIT:
                raise ValueError(f"journal {self.id}: count in {name} is 2**63 or more")

    @property
    def items_window(self) -> int:
        return self.items_t1 + self.items_t2


@dataclass(frozen=True, slots=True)
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


FIELDS = tuple(f.name for f in fields(JournalRecord))  # the columns of a Dataset, in order
COUNT_FIELDS = FIELDS[3:]


class Dataset:
    """Journals held as columns; its categories are the codes they list.

    ``columns`` maps each ``JournalRecord`` field name, in ``FIELDS`` order,
    to a tuple of that field of every journal: row i is journal i.
    ``member_rows(code)`` are the rows listing a code, in row order; callers
    must not change them.  Journal ids are unique: construction raises
    ``ValueError`` on a repeat.  ``_cache`` holds values derived from the
    columns on first use: the records here, the category table in
    ``indicators`` and the score columns in ``ranking``.  It is left out of
    equality and repr, and stays valid only because nothing changes the
    columns after construction.
    """

    __slots__ = ("columns", "_members", "_cache")

    def __init__(self, journals: Iterable[JournalRecord]):
        journals = tuple(journals)
        ids: set[str] = set()
        members: dict[str, list[int]] = {}
        for row, j in enumerate(journals):
            if j.id in ids:
                raise ValueError(f"duplicate journal id: {j.id}")
            ids.add(j.id)
            for c in j.categories:
                members.setdefault(c, []).append(row)
        self.columns = {name: tuple(getattr(j, name) for j in journals) for name in FIELDS}
        self._members = members
        self._cache = {"journals": journals}

    @classmethod
    def _from_columns(cls, columns: dict[str, tuple], members: dict[str, list[int]]) -> Dataset:
        """A dataset of checked columns and each code's member rows, as the parser builds them."""
        dataset = cls.__new__(cls)
        dataset.columns, dataset._members, dataset._cache = columns, members, {}
        return dataset

    @property
    def journals(self) -> tuple[JournalRecord, ...]:
        """The journals as records, built on first use."""
        journals = self._cache.get("journals")
        if journals is None:
            journals = self._cache["journals"] = tuple(map(JournalRecord, *self.columns.values()))
        return journals

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self):
        return hash(tuple(self.columns.values()))

    def __repr__(self):
        return f"Dataset(journals={self.journals!r})"

    def member_rows(self, code: str) -> list[int]:
        rows = self._members.get(code)
        if rows is None:
            raise KeyError(f"unknown category: {code}")
        return rows

    def members(self, code: str) -> list[JournalRecord]:
        journals = self.journals
        return [journals[i] for i in self.member_rows(code)]

    def category_codes(self) -> list[str]:
        return sorted(self._members)


@dataclass(frozen=True)
class Violation:
    record_id: str
    rule: str


def validate(dataset: Dataset) -> list[Violation]:
    """Collect every break of the two cross-field reference rules, row by row.

    Violations are data, not failures: an empty list means the dataset is
    well formed.  A record's own rules are ``JournalRecord``'s, so no dataset
    breaks them.  The input is never mutated and the result is independent
    of journal order up to ordering of the report.
    """
    report: list[Violation] = []
    c = dataset.columns
    for jid, rt, rj, rjw in zip(c["id"], c["refs_total"], c["refs_jcr"], c["refs_jcr_in_window"]):
        if rt is not None and rj is not None and rj > rt:
            report.append(Violation(jid, "refs_jcr exceeds refs_total"))
        if rj is not None and rjw is not None and rjw > rj:
            report.append(Violation(jid, "refs_jcr_in_window exceeds refs_jcr"))
    return report

"""Domain types and dataset validation shared by all other modules."""
from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence


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


class CheckedTuple(tuple):
    """A named tuple's base: ``_make``, and so ``_replace``, checks as ``__new__`` does."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def code_list_break(codes: Sequence[str]) -> Optional[str]:
    """The first category-code rule ``codes`` breaks, or None: the list is
    not empty; no code is empty or holds ";" (the CSV's code separator) or a
    carriage return (which ``csv.writer`` leaves unquoted before Python
    3.13); no code repeats."""
    if not codes:
        return "empty category list"
    for code in codes:
        if not code:
            return "empty category code"
        if ";" in code:
            return f"';' in category code {code!r}"
        if "\r" in code:
            return f"carriage return in category code {code!r}"
    return "duplicate category codes" if len(set(codes)) != len(codes) else None


def count_break(name: str, value) -> Optional[str]:
    """The first count rule ``value``, the count in column ``name``, breaks,
    or None: it is an int, not a bool, not negative and below ``COUNT_LIMIT``."""
    if type(value) is not int:  # a bool would be written as "True"
        return f"non-integer count in {name}: {value!r}"
    if value < 0:
        return f"negative count in {name}: {value}"
    return f"count in {name} is 2**63 or more" if value >= COUNT_LIMIT else None


class _JournalFields(NamedTuple):
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


class JournalRecord(CheckedTuple, _JournalFields):
    """One journal's per-year counts and category memberships, as a named tuple.

    ``items_t*`` are citable-item counts in the census year t and the two
    target-window years.  ``cited_in_window`` counts citations received in
    year t to the t-1/t-2 volumes.  The three reference fields are optional:
    absent means unknown, never zero.  ``categories``, a list of codes but
    not one str, is stored as a tuple.  An empty id or one holding a carriage
    return, codes that break ``code_list_break``, a lone surrogate (which
    UTF-8 cannot encode) in the id, name or a code, or a present count that
    breaks ``count_break`` raises ``ValueError``, checked in that order, as
    ``_make`` and ``_replace`` do: the parser can produce none of them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        jid = self.id
        if not jid:
            raise ValueError("empty journal id")
        if "\r" in jid:
            raise ValueError(f"carriage return in journal id {jid!r}")
        if isinstance(self.categories, str):  # it would read as one code per character
            raise ValueError(f"journal {jid}: category list is a str")
        categories = tuple(self.categories)
        if broken := code_list_break(categories):
            raise ValueError(f"journal {jid}: {broken}")
        try:  # str.encode refuses only a lone surrogate
            "".join((jid, self.name, *categories)).encode()
        except UnicodeEncodeError:
            raise ValueError(f"journal {jid}: lone surrogate in id, name or code") from None
        for k, (name, value) in enumerate(zip(COUNT_FIELDS, self[3:])):  # refs_* from k = 4
            if (k < 4 or value is not None) and (broken := count_break(name, value)):
                raise ValueError(f"journal {jid}: {broken}")
        if categories is not self.categories:
            self = tuple.__new__(cls, (jid, self.name, categories, *self[3:]))
        return self

    @property
    def items_window(self) -> int:
        return self.items_t1 + self.items_t2


class CategoryAggregate(NamedTuple):
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


class _ComponentFields(NamedTuple):
    a: float
    r: float
    p: float
    w: float
    b: float


class ComponentVector(CheckedTuple, _ComponentFields):
    """The five multiplicative factors of an aggregate impact factor.

    a: growth ratio of citable items, r: mean references per citable item,
    p: fraction of references to indexed items, w: fraction of indexed
    references inside the target window, b: cited-to-citing ratio.
    ``_make`` and ``_replace`` check as the constructor does.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        a, r, p, w, b = self
        if a <= 0:
            raise ValueError(f"component a must be positive, got {a}")
        if r < 0 or b < 0:
            raise ValueError("components r and b must be non-negative")
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"component p must lie in [0,1], got {p}")
        if not (0.0 <= w <= 1.0):
            raise ValueError(f"component w must lie in [0,1], got {w}")
        return self


FIELDS = JournalRecord._fields  # the columns of a Dataset, in order
COUNT_FIELDS = FIELDS[3:]


class Dataset:
    """Journals held as columns; its categories are the codes they list.

    ``columns`` maps each ``JournalRecord`` field name, in ``FIELDS`` order,
    to a tuple of that field of every journal: row i is journal i.
    ``member_rows(code)`` are the rows listing a code, in row order; callers
    must not change them.  Journal ids are unique: construction raises
    ``ValueError`` on a repeat.  ``_cache`` holds values derived from the
    columns on first use: the records here, the category table in
    ``indicators`` and the score columns in ``ranking``; a lenient parse
    puts the first cross-field break there as ``(line, message)``.  It is
    left out of equality and repr, and stays valid only because nothing
    changes the columns after construction.  So one dataset may serve several commands
    in a process: the CLI parses a journal CSV once while its bytes stay the
    same, and each later command reuses the values cached here.
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


class Violation(NamedTuple):
    record_id: str
    rule: str


def reference_breaks(refs_total, refs_jcr, refs_jcr_in_window) -> tuple[str, ...]:
    """The two cross-field reference rules a journal's counts break, in rule
    order: ``refs_jcr`` at most ``refs_total``, ``refs_jcr_in_window`` at
    most ``refs_jcr``.  An absent count breaks neither rule it appears in."""
    if refs_jcr is None:
        return ()
    broken = ()
    if refs_total is not None and refs_jcr > refs_total:
        broken = ("refs_jcr exceeds refs_total",)
    if refs_jcr_in_window is not None and refs_jcr_in_window > refs_jcr:
        broken += ("refs_jcr_in_window exceeds refs_jcr",)
    return broken


def validate(dataset: Dataset) -> list[Violation]:
    """Collect every break of the two cross-field reference rules, row by
    row, as ``reference_breaks`` states them.

    Violations are data, not failures: an empty list means the dataset is
    well formed.  A record's own rules are ``JournalRecord``'s, so no dataset
    breaks them.  The input is never mutated and the result is independent
    of journal order up to ordering of the report.
    """
    report: list[Violation] = []
    c = dataset.columns
    for jid, rt, rj, rjw in zip(c["id"], c["refs_total"], c["refs_jcr"], c["refs_jcr_in_window"]):
        for rule in reference_breaks(rt, rj, rjw):
            report.append(Violation(jid, rule))
    return report

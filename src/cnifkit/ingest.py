"""CSV parsing and emission for journal datasets and category fixtures."""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections import defaultdict
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar

from .core_model import COUNT_FIELDS, COUNT_LIMIT, FIELDS, Dataset, Edition, reference_breaks

JOURNAL_HEADER = list(FIELDS)

T = TypeVar("T")

_EDITIONS = {e.value: e for e in Edition}


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _FixtureFields(NamedTuple):
    code: str
    name: str
    edition: Edition
    refs_jcr: int
    refs_total: int
    ncited: int
    nciting: int
    printed_a: Optional[float] = None
    printed_r: Optional[float] = None
    printed_p: Optional[float] = None
    printed_w: Optional[float] = None
    printed_b: Optional[float] = None
    printed_aif: Optional[float] = None


FIXTURE_HEADER = [n.removeprefix("printed_") for n in _FixtureFields._fields]


class CategoryFixtureRow(_FixtureFields):
    """One category row of the published reference table, as a named tuple.

    Raw counts are exact integers; ``printed_*`` carry the table's rounded
    values and are ``None`` where the table shows "-".  They are kept for
    golden comparisons only and never fed back into arithmetic.  The
    constructor checks that the code holds no carriage return, that counts
    are non-negative and below ``COUNT_LIMIT`` and that p and w lie in
    [0,1]; ``_make`` and ``_replace`` check as the constructor does.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if "\r" in self.code:  # csv.writer leaves a lone one unquoted before Python 3.13
            raise ValueError(f"carriage return in category code {self.code!r}")
        for name in ("refs_jcr", "refs_total", "ncited", "nciting"):
            count = getattr(self, name)
            if count < 0:
                raise ValueError(f"{self.code}: negative count {name}")
            if count >= COUNT_LIMIT:
                raise ValueError(f"{self.code}: count {name} is 2**63 or more")
        for name in ("printed_p", "printed_w"):
            v = getattr(self, name)
            if v is not None and not (0.0 <= v <= 1.0):
                raise ValueError(f"{self.code}: {name} outside [0,1]")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def is_complete(self) -> bool:
        return None not in self[7:12]  # printed a, r, p, w and b


def _records(stream: IO[str], header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Check the header row, then yield each record with its first physical
    line; a wrong field count, malformed CSV or a byte that is not UTF-8
    raises ParseError at that line."""
    reader = csv.reader(stream)
    end = 0  # last physical line read
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError(1, "empty input, header row required")
        if first != header:
            raise ParseError(1, f"bad header: expected {header}, got {first}")
        end = reader.line_num
        width = len(header)
        for row in reader:
            if len(row) != width:
                raise ParseError(end + 1, f"expected {width} fields, got {len(row)}")
            yield end + 1, row
            end = reader.line_num
    except csv.Error as exc:
        raise ParseError(end + 1, str(exc)) from None
    except UnicodeDecodeError as exc:
        # exc.object is the chunk being decoded; the reader has read every
        # line that ends before it, and a line ends at "\n", "\r\n" or a lone "\r"
        before = exc.object[: exc.start]
        ends = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        message = f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise ParseError(reader.line_num + 1 + ends, message) from None


def _parse_count(value: str, column: str, line: int) -> int:
    try:
        n = int(value)
    except ValueError:
        raise ParseError(line, f"non-integer count in {column}: {value!r}") from None
    if n < 0:
        raise ParseError(line, f"negative count in {column}: {n}")
    if n >= COUNT_LIMIT:
        raise ParseError(line, f"count in {column} is 2**63 or more")
    return n


def parse_journals_csv(stream: IO[str], strict: bool = True) -> Dataset:
    """Parse the journal-level CSV schema into a validated, columnar Dataset.

    One streaming pass checks each record as it is read and raises a
    structural error at once.  It also finds the first record that breaks one
    of the two cross-field rules, asking ``core_model.reference_breaks`` as
    ``validate`` does, and keeps the first rule that record breaks.  A
    ``strict`` parse raises that break after the last row, so structural
    errors anywhere come first; a lenient one keeps it as ``(line, message)``
    in the dataset's ``_cache["break"]``, which is absent when no record
    breaks a rule.
    """
    values: list = []
    members: defaultdict[str, list[int]] = defaultdict(list)
    seen: set[str] = set()
    # rows listing the same codes share one tuple, and all tuples one string per code
    category_sets: dict[str, tuple[str, ...]] = {}
    violation = None
    for row_index, (line, row) in enumerate(_records(stream, JOURNAL_HEADER)):
        jid, name, cats, t, t1, t2, cited, rt, rj, rjw = row
        if not jid:
            raise ParseError(line, "empty journal id")
        if "\r" in jid:  # csv.writer leaves a lone one unquoted before Python 3.13
            raise ParseError(line, f"carriage return in journal id {jid!r}")
        if jid in seen:
            raise ParseError(line, f"duplicate journal id: {jid}")
        seen.add(jid)
        codes = category_sets.get(cats)
        if codes is None:
            if "\r" in cats:
                raise ParseError(line, f"journal {jid}: carriage return in category codes")
            codes = cats.split(";")
            if "" in codes:
                codes = [c for c in codes if c]
                if not codes:
                    raise ParseError(line, f"journal {jid}: empty category list")
            if len(codes) > 1 and len(set(codes)) != len(codes):
                raise ParseError(line, f"journal {jid}: duplicate category codes")
            codes = category_sets[cats] = tuple(map(sys.intern, codes))
        try:
            t, t1, t2, cited = int(t), int(t1), int(t2), int(cited)
            rt = int(rt) if rt else None
            rj = int(rj) if rj else None
            rjw = int(rjw) if rjw else None
            # an or of ints is negative if one is, else as long as the longest
            valid = 0 <= (t | t1 | t2 | cited | (rt or 0) | (rj or 0) | (rjw or 0)) < COUNT_LIMIT
        except ValueError:
            valid = False
        if not valid:  # raise the first bad column's message
            for i, value in enumerate(row[3:], start=3):
                if value or i < 7:  # the three refs_* columns may be empty
                    _parse_count(value, JOURNAL_HEADER[i], line)
        if violation is None and (broken := reference_breaks(rt, rj, rjw)):
            violation = line, f"journal {jid}: {broken[0]}"
        values += jid, name, codes, t, t1, t2, cited, rt, rj, rjw
        for code in codes:
            members[code].append(row_index)
    if strict and violation is not None:
        raise ParseError(*violation)
    # Split into columns after freeing the id set and the memo, so memory
    # peaks lower.  One flat list, not a tuple per row: the tuple free list
    # would keep 2,000 freed row tuples for the life of the process.
    members = dict(members)
    del seen, category_sets
    n = len(FIELDS)
    columns = {name: tuple(values[k::n]) for k, name in enumerate(FIELDS)}
    dataset = Dataset._from_columns(columns, members)
    if violation is not None:
        dataset._cache["break"] = violation
    return dataset


class _DigestedFile(io.FileIO):
    """A file that feeds each byte it reads to a digest."""

    def __init__(self, path: str, digest):
        super().__init__(path)
        self.digest = digest

    def readinto(self, buffer) -> int:  # every line a TextIOWrapper reads comes through here
        n = super().readinto(buffer)
        self.digest.update(buffer[:n])
        return n


def read_csv(path: str, parse: Callable[..., T], digest=None, **kwargs) -> T:
    """Parse the CSV file at ``path`` with ``parse(stream, **kwargs)``; a
    ``digest`` is updated with each byte the parse reads.

    The file is read once, as UTF-8; utf-8-sig drops the byte-order mark that
    Excel writes before the header.  A byte that is not UTF-8 is a ParseError
    at the physical line that holds it, a lone CR ending a line as the CSV
    reader has it.  When a read chunk ends exactly on a lone CR, that line
    end is not counted yet, so the line comes out one too low.
    """
    raw = io.FileIO(path) if digest is None else _DigestedFile(path, digest)
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8-sig", newline="") as f:
        return parse(f, **kwargs)


def _parse_printed(value: str, column: str, line: int) -> Optional[float]:
    if value == "-":
        return None
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):  # nan, inf and overflowing forms such as 1e999 too
        raise ParseError(line, f"bad value in {column}: {value!r}")
    return x


def parse_category_fixture_csv(stream: IO[str]) -> list[CategoryFixtureRow]:
    """Parse the category-level fixture schema; "-" marks absent printed values."""
    out = []
    seen: set[str] = set()
    for line, row in _records(stream, FIXTURE_HEADER):
        code, name, edition = row[:3]
        if code in seen:
            raise ParseError(line, f"duplicate category code: {code}")
        seen.add(code)
        edition = _EDITIONS.get(edition)
        if edition is None:
            raise ParseError(line, f"unknown edition: {row[2]!r}")
        counts = [_parse_count(row[i], FIXTURE_HEADER[i], line) for i in range(3, 7)]
        printed = [_parse_printed(row[i], FIXTURE_HEADER[i], line) for i in range(7, 13)]
        try:
            out.append(CategoryFixtureRow(code, name, edition, *counts, *printed))
        except ValueError as exc:
            raise ParseError(line, str(exc)) from None
    return out


def emit_journals_csv(dataset: Dataset, stream: IO[str]) -> None:
    c = dataset.columns  # csv.writer writes an absent reference count, None, as ""
    codes = list(map(";".join, c["categories"]))
    # the writer quotes a field holding "\n" but not one holding a lone "\r",
    # which the reader takes for a line end; then every field is quoted (ids
    # and codes hold no "\r": JournalRecord and the parser refuse it)
    split = any("\r" in name for name in c["name"])
    quoting = csv.QUOTE_ALL if split else csv.QUOTE_MINIMAL
    writer = csv.writer(stream, lineterminator="\n", quoting=quoting)
    writer.writerow(JOURNAL_HEADER)
    writer.writerows(zip(c["id"], c["name"], codes, *(c[name] for name in COUNT_FIELDS)))


def emit_report(columns: Sequence[str], rows: Iterable[tuple], fmt: str, stream: IO[str]) -> None:
    """Write report rows, each aligned with ``columns``, as CSV or JSON.  The
    rows may be any iterable, such as a generator; it is read once.

    CSV is the header line, then one line per row; ``None`` is an empty cell.
    JSON is exactly ``json.dump([dict(zip(columns, row)) for row in rows],
    stream, indent=2)`` and a newline.
    """
    if fmt == "json":
        json.dump([dict(zip(columns, row)) for row in rows], stream, indent=2)
        stream.write("\n")
    elif fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        raise ValueError(f"unknown format: {fmt!r}")


def dumps_report(columns: Sequence[str], rows: Sequence[tuple], fmt: str) -> str:
    buf = io.StringIO()
    emit_report(columns, rows, fmt, buf)
    return buf.getvalue()

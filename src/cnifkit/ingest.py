"""CSV parsing and emission for journal datasets and category fixtures."""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections import defaultdict
from typing import IO, Callable, Iterator, NamedTuple, Optional, Sequence, TypeVar

from .core_model import COUNT_FIELDS, COUNT_LIMIT, FIELDS, Dataset, Edition

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
    constructor checks that counts are non-negative and that p and w lie in
    [0,1]; ``_make`` and ``_replace`` check nothing.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("refs_jcr", "refs_total", "ncited", "nciting"):
            if getattr(self, name) < 0:
                raise ValueError(f"{self.code}: negative count {name}")
        for name in ("printed_p", "printed_w"):
            v = getattr(self, name)
            if v is not None and not (0.0 <= v <= 1.0):
                raise ValueError(f"{self.code}: {name} outside [0,1]")
        return self

    def is_complete(self) -> bool:
        return None not in self[7:12]  # printed a, r, p, w and b


def _records(stream: IO[str], header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Check the header row, then yield each record with its first physical
    line; malformed CSV raises ParseError at the record's line."""
    reader = csv.reader(stream)
    end = 0  # last physical line read
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError(1, "empty input, header row required")
        if first != header:
            raise ParseError(1, f"bad header: expected {header}, got {first}")
        end = reader.line_num
        for row in reader:
            yield end + 1, row
            end = reader.line_num
    except csv.Error as exc:
        raise ParseError(end + 1, str(exc)) from None


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
    structural error at once.  ``strict`` adds ``validate``'s two cross-field
    rules; the first record breaking one is raised after the last row, so
    structural errors anywhere come first.
    """
    values, members = _journal_values(stream, strict)
    # Split into columns after the pass has freed its id set, so memory peaks
    # lower.  One flat list, not a tuple per row: the tuple free list would
    # keep 2,000 freed row tuples for the life of the process.
    n = len(FIELDS)
    columns = {name: tuple(values[k::n]) for k, name in enumerate(FIELDS)}
    return Dataset._from_columns(columns, members)


def _journal_values(stream: IO[str], strict: bool) -> tuple[list, dict[str, list[int]]]:
    """The fields of each checked row of a journal CSV, row after row in one
    list, and each code's member rows."""
    values: list = []
    members: defaultdict[str, list[int]] = defaultdict(list)
    seen: set[str] = set()
    # rows listing the same codes share one tuple, and all tuples one string per code
    category_sets: dict[str, tuple[str, ...]] = {}
    violation = None
    for row_index, (line, row) in enumerate(_records(stream, JOURNAL_HEADER)):
        if len(row) != len(JOURNAL_HEADER):
            raise ParseError(line, f"expected {len(JOURNAL_HEADER)} fields, got {len(row)}")
        jid, name, cats, t, t1, t2, cited, rt, rj, rjw = row
        if not jid:
            raise ParseError(line, "empty journal id")
        if jid in seen:
            raise ParseError(line, f"duplicate journal id: {jid}")
        seen.add(jid)
        codes = category_sets.get(cats)
        if codes is None:
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
        if strict and violation is None and rj is not None:
            if rt is not None and rj > rt:
                violation = ParseError(line, f"journal {jid}: refs_jcr exceeds refs_total")
            elif rjw is not None and rjw > rj:
                violation = ParseError(line, f"journal {jid}: refs_jcr_in_window exceeds refs_jcr")
        values += jid, name, codes, t, t1, t2, cited, rt, rj, rjw
        for code in codes:
            members[code].append(row_index)
    if violation is not None:
        raise violation
    return values, dict(members)


def read_csv(path: str, parse: Callable[..., T], **kwargs) -> T:
    """Parse the CSV file at ``path`` with ``parse(stream, **kwargs)``.

    The file is read as UTF-8; utf-8-sig drops the byte-order mark that Excel
    writes before the header.  A byte that is not UTF-8 is a ParseError at
    the physical line that holds it.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as f:
            return parse(f, **kwargs)
    except UnicodeDecodeError:
        with open(path, "rb") as f:  # the decoder's offset is within its chunk
            data = f.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            message = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
            raise ParseError(line, message) from None
        raise


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
    make = CategoryFixtureRow._make  # the checks below are the constructor's
    for line, row in _records(stream, FIXTURE_HEADER):
        if len(row) != len(FIXTURE_HEADER):
            raise ParseError(line, f"expected {len(FIXTURE_HEADER)} fields, got {len(row)}")
        code, name, edition, rj, rt, ncited, nciting, *printed = row
        if code in seen:
            raise ParseError(line, f"duplicate category code: {code}")
        seen.add(code)
        edition = _EDITIONS.get(edition)
        if edition is None:
            raise ParseError(line, f"unknown edition: {row[2]!r}")
        try:
            rj, rt, ncited, nciting = int(rj), int(rt), int(ncited), int(nciting)
            # an or of ints is negative if one is, else as long as the longest
            valid = 0 <= (rj | rt | ncited | nciting) < COUNT_LIMIT
        except ValueError:
            valid = False
        if not valid:  # raise the first bad column's message
            for i in range(3, 7):
                _parse_count(row[i], FIXTURE_HEADER[i], line)
        try:
            printed = [None if v == "-" else float(v) for v in printed]
            # None and 0.0 drop out; a nan or an infinity makes the sum non-finite
            valid = math.isfinite(sum(filter(None, printed)))
        except ValueError:
            valid = False
        if not valid:  # raise the first bad column's message, or the sum overflowed
            printed = [_parse_printed(row[i], FIXTURE_HEADER[i], line) for i in range(7, 13)]
        p, w = printed[2], printed[3]
        if p is not None and not (0.0 <= p <= 1.0):
            raise ParseError(line, f"{code}: printed_p outside [0,1]")
        if w is not None and not (0.0 <= w <= 1.0):
            raise ParseError(line, f"{code}: printed_w outside [0,1]")
        out.append(make((code, name, edition, rj, rt, ncited, nciting, *printed)))
    return out


def emit_journals_csv(dataset: Dataset, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(JOURNAL_HEADER)
    c = dataset.columns  # csv.writer writes an absent reference count, None, as ""
    codes = map(";".join, c["categories"])
    writer.writerows(zip(c["id"], c["name"], codes, *(c[name] for name in COUNT_FIELDS)))


def emit_report(columns: Sequence[str], rows: Sequence[tuple], fmt: str, stream: IO[str]) -> None:
    """Write report rows, each aligned with ``columns``, as CSV or JSON.

    CSV is the header line, then one line per row; ``None`` is an empty cell.
    JSON is exactly ``json.dump([dict(zip(columns, row)) for row in rows],
    stream, indent=2)`` and a newline, written one row at a time.
    """
    if fmt == "json":
        sep = "[\n  "
        for row in rows:
            # json.dumps escapes newlines inside strings, so each one here starts a line
            stream.write(sep + json.dumps(dict(zip(columns, row)), indent=2).replace("\n", "\n  "))
            sep = ",\n  "
        stream.write("\n]\n" if rows else "[]\n")
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

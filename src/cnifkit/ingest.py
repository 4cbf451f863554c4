"""CSV parsing and emission for journal datasets and category fixtures."""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import IO, Callable, Iterator, Optional, Sequence, TypeVar

from .core_model import (
    CategoryInfo,
    Dataset,
    Edition,
    JournalRecord,
)

JOURNAL_HEADER = [
    "id",
    "name",
    "categories",
    "items_t",
    "items_t1",
    "items_t2",
    "cited_in_window",
    "refs_total",
    "refs_jcr",
    "refs_jcr_in_window",
]

FIXTURE_HEADER = [
    "code",
    "name",
    "edition",
    "refs_jcr",
    "refs_total",
    "ncited",
    "nciting",
    "a",
    "r",
    "p",
    "w",
    "b",
    "aif",
]

T = TypeVar("T")

_EDITIONS = {
    "science": Edition.SCIENCE,
    "social": Edition.SOCIAL_SCIENCE,
    "union": Edition.UNION,
}


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class CategoryFixtureRow:
    """One category row of the published reference table.

    Raw counts are exact integers; ``printed_*`` carry the table's rounded
    values and are ``None`` where the table shows "-".  They are kept for
    golden comparisons only and never fed back into arithmetic.
    """

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

    def __post_init__(self):
        for name in ("refs_jcr", "refs_total", "ncited", "nciting"):
            if getattr(self, name) < 0:
                raise ValueError(f"{self.code}: negative count {name}")
        for name in ("printed_p", "printed_w"):
            v = getattr(self, name)
            if v is not None and not (0.0 <= v <= 1.0):
                raise ValueError(f"{self.code}: {name} outside [0,1]")

    def is_complete(self) -> bool:
        return None not in (
            self.printed_a,
            self.printed_r,
            self.printed_p,
            self.printed_w,
            self.printed_b,
        )


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
    return n


def parse_journals_csv(stream: IO[str], year: int = 0, strict: bool = True) -> Dataset:
    """Parse the journal-level CSV schema into a validated Dataset.

    One streaming pass checks each record as it is read and raises a
    structural error at once.  ``strict`` adds ``validate``'s two cross-field
    rules; the first record breaking one is raised after the last row, so
    structural errors anywhere come first.  The category registry is built
    from the codes encountered; editions are unknown at the journal level, so
    every entry is tagged Union.
    """
    journals = []
    seen: set[str] = set()
    codes: set[str] = set()
    violation = None
    for line, row in _records(stream, JOURNAL_HEADER):
        if len(row) != len(JOURNAL_HEADER):
            raise ParseError(line, f"expected {len(JOURNAL_HEADER)} fields, got {len(row)}")
        jid, name, cats, t, t1, t2, cited, rt, rj, rjw = row
        if not jid:
            raise ParseError(line, "empty journal id")
        if jid in seen:
            raise ParseError(line, f"duplicate journal id: {jid}")
        seen.add(jid)
        categories = cats.split(";")
        if "" in categories:
            categories = [c for c in categories if c]
            if not categories:
                raise ParseError(line, f"journal {jid}: empty category list")
        if len(categories) > 1 and len(set(categories)) != len(categories):
            raise ParseError(line, f"journal {jid}: duplicate category codes")
        codes.update(categories)
        try:
            t, t1, t2, cited = int(t), int(t1), int(t2), int(cited)
            rt = int(rt) if rt else None
            rj = int(rj) if rj else None
            rjw = int(rjw) if rjw else None
            valid = (t | t1 | t2 | cited | (rt or 0) | (rj or 0) | (rjw or 0)) >= 0
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
        journals.append(JournalRecord(jid, name, categories, t, t1, t2, cited, rt, rj, rjw))
    if violation is not None:
        raise violation
    registry = {c: CategoryInfo(c, c, Edition.UNION) for c in codes}
    return Dataset(year=year, journals=tuple(journals), registry=registry)


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
    for offset, row in _records(stream, FIXTURE_HEADER):
        if len(row) != len(FIXTURE_HEADER):
            raise ParseError(offset, f"expected {len(FIXTURE_HEADER)} fields, got {len(row)}")
        if row[0] in seen:
            raise ParseError(offset, f"duplicate category code: {row[0]}")
        seen.add(row[0])
        if row[2] not in _EDITIONS:
            raise ParseError(offset, f"unknown edition: {row[2]!r}")
        try:
            out.append(
                CategoryFixtureRow(
                    code=row[0],
                    name=row[1],
                    edition=_EDITIONS[row[2]],
                    refs_jcr=_parse_count(row[3], "refs_jcr", offset),
                    refs_total=_parse_count(row[4], "refs_total", offset),
                    ncited=_parse_count(row[5], "ncited", offset),
                    nciting=_parse_count(row[6], "nciting", offset),
                    printed_a=_parse_printed(row[7], "a", offset),
                    printed_r=_parse_printed(row[8], "r", offset),
                    printed_p=_parse_printed(row[9], "p", offset),
                    printed_w=_parse_printed(row[10], "w", offset),
                    printed_b=_parse_printed(row[11], "b", offset),
                    printed_aif=_parse_printed(row[12], "aif", offset),
                )
            )
        except ValueError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(offset, str(exc)) from None
    return out


def _journal_row(j: JournalRecord) -> list[str]:
    def opt(v: Optional[int]) -> str:
        return "" if v is None else str(v)

    return [
        j.id,
        j.name,
        ";".join(j.categories),
        str(j.items_t),
        str(j.items_t1),
        str(j.items_t2),
        str(j.cited_in_window),
        opt(j.refs_total),
        opt(j.refs_jcr),
        opt(j.refs_jcr_in_window),
    ]


def emit_journals_csv(dataset: Dataset, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(JOURNAL_HEADER)
    for j in dataset.journals:
        writer.writerow(_journal_row(j))


def emit_report(rows: Sequence[dict], fmt: str, stream: IO[str]) -> None:
    """Write report rows as CSV or JSON, one row at a time.

    CSV columns are the keys of the first row, in order; a row without one of
    them, or with ``None`` in it, gets an empty cell, and no rows write
    nothing.  JSON is exactly ``json.dump(rows, stream, indent=2)`` and a
    newline.
    """
    if fmt == "json":
        sep = "[\n  "
        for row in rows:
            # json.dumps escapes newlines inside strings, so each one here starts a line
            stream.write(sep + json.dumps(row, indent=2).replace("\n", "\n  "))
            sep = ",\n  "
        stream.write("\n]\n" if rows else "[]\n")
    elif fmt == "csv":
        if rows:
            keys = list(rows[0])
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(keys)
            writer.writerows([row.get(k) for k in keys] for row in rows)
    else:
        raise ValueError(f"unknown format: {fmt!r}")


def dumps_report(rows: Sequence[dict], fmt: str) -> str:
    buf = io.StringIO()
    emit_report(rows, fmt, buf)
    return buf.getvalue()

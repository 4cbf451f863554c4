"""The streaming journal parser against the two-pass parser it replaced.

``oracle_parse_journals_csv`` is the earlier parser, kept as the reference
with one rule added (a count of 2**63 or more is a ParseError): it reads
every row first, builds one ``JournalRecord`` per row, converts each count
through ``_parse_count`` and, in strict mode, walks the records with
``conftest.oracle_validate``, not the package's own rule function.  On input
without embedded newlines the streaming parser must give an equal dataset,
or the same first ParseError line and message.

``oracle_utf8_error`` is the rule ``read_csv`` once used to place a byte that
is not UTF-8: decode the whole file again and count the "\n" before it.  The
parser now takes the line from the chunk the decoder was reading, and must
agree with it on LF and CRLF input.
"""
import copy
import csv
import io
import pickle
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnifkit.cli import main
from cnifkit.core_model import Dataset, JournalRecord
from cnifkit.ingest import (
    JOURNAL_HEADER,
    ParseError,
    parse_category_fixture_csv,
    parse_journals_csv,
)
from cnifkit.reference import bundled_fixture_path

from conftest import oracle_validate

HEADER = ",".join(JOURNAL_HEADER)


def _oracle_count(value: str, column: str, line: int) -> int:
    try:
        n = int(value)
    except ValueError:
        raise ParseError(line, f"non-integer count in {column}: {value!r}") from None
    if n < 0:
        raise ParseError(line, f"negative count in {column}: {n}")
    if n >= 2**63:
        raise ParseError(line, f"count in {column} is 2**63 or more")
    return n


def _oracle_optional_count(value: str, column: str, line: int) -> Optional[int]:
    if value == "":
        return None
    return _oracle_count(value, column, line)


def oracle_parse_journals_csv(stream, strict: bool = True) -> Dataset:
    reader = csv.reader(stream)
    rows = list(reader)
    if not rows:
        raise ParseError(1, "empty input, header row required")
    if rows[0] != JOURNAL_HEADER:
        raise ParseError(1, f"bad header: expected {JOURNAL_HEADER}, got {rows[0]}")
    journals = []
    seen: set[str] = set()
    for offset, row in enumerate(rows[1:], start=2):
        if len(row) != len(JOURNAL_HEADER):
            raise ParseError(offset, f"expected {len(JOURNAL_HEADER)} fields, got {len(row)}")
        jid = row[0]
        if not jid:
            raise ParseError(offset, "empty journal id")
        if jid in seen:
            raise ParseError(offset, f"duplicate journal id: {jid}")
        seen.add(jid)
        categories = tuple(c for c in row[2].split(";") if c)
        if not categories:
            raise ParseError(offset, f"journal {jid}: empty category list")
        if len(set(categories)) != len(categories):
            raise ParseError(offset, f"journal {jid}: duplicate category codes")
        journals.append(
            JournalRecord(
                id=jid,
                name=row[1],
                categories=categories,
                items_t=_oracle_count(row[3], "items_t", offset),
                items_t1=_oracle_count(row[4], "items_t1", offset),
                items_t2=_oracle_count(row[5], "items_t2", offset),
                cited_in_window=_oracle_count(row[6], "cited_in_window", offset),
                refs_total=_oracle_optional_count(row[7], "refs_total", offset),
                refs_jcr=_oracle_optional_count(row[8], "refs_jcr", offset),
                refs_jcr_in_window=_oracle_optional_count(row[9], "refs_jcr_in_window", offset),
            )
        )
    dataset = Dataset(tuple(journals))
    if strict:
        bad = oracle_validate(journals)
        if bad:
            first = bad[0]
            line = 2 + next(i for i, j in enumerate(journals) if j.id == first.record_id)
            raise ParseError(line, f"journal {first.record_id}: {first.rule}")
    return dataset


# count cells int() rejects, negatives, forms int() accepts as written, and
# counts at the 2**63 bound
ODD_COUNTS = ["x", "", "-3", "-12", "1.5", "-0", " 4", "+2", "1_000", "٣"]
ODD_COUNTS += [str(2**63 - 1), str(2**63), "9" * 400]
BAD_CATEGORIES = ["", ";", ";;", "A;A", "A;;B", ";A;", "B;A;B", "A;B;;A"]


@st.composite
def journal_rows(draw):
    """Rows of a journal CSV, most of them valid, some with one mutation."""
    n = draw(st.integers(0, 8))
    rows = []
    for i in range(n):
        codes = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=3, unique=True))
        counts = [str(draw(st.integers(0, 50))) for _ in range(4)]
        if draw(st.booleans()):
            rt = draw(st.integers(0, 100))
            rj = draw(st.integers(0, rt))
            refs = [str(rt), str(rj), str(draw(st.integers(0, rj)))]
        else:
            refs = [draw(st.sampled_from(["", "7"])) for _ in range(3)]
        name = draw(st.text(alphabet='ab ,";é', max_size=4))
        row = [f"j{i}", name, ";".join(codes)] + counts + refs
        mutation = draw(
            st.sampled_from(["none"] * 12 + ["count"] * 2 + ["arity", "id", "cats"] + ["cross"] * 3)
        )
        if mutation == "count":
            row[draw(st.integers(3, 9))] = draw(st.sampled_from(ODD_COUNTS))
        elif mutation == "arity":
            k = draw(st.sampled_from([0, 1, 9, 11]))
            row = (row + ["1", "2"])[:k]
        elif mutation == "id":
            row[0] = "" if i == 0 or draw(st.booleans()) else f"j{draw(st.integers(0, i - 1))}"
        elif mutation == "cats":
            row[2] = draw(st.sampled_from(BAD_CATEGORIES))
        elif mutation == "cross":
            big = draw(st.integers(101, 200))
            row[7:10] = draw(
                st.sampled_from(
                    [[str(big - 101), str(big), ""], ["50", "10", str(big)], ["5", "9", "11"]]
                )
            )
        rows.append(row)
    return rows


def _text(rows, newline: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=newline)
    writer.writerow(JOURNAL_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


def _outcome(parse, text: str, strict: bool, stream: str = "plain"):
    if stream == "plain":
        source = io.StringIO(text)
    else:  # opened as the CLI opens a file, which drops an Excel byte-order mark
        raw = (b"\xef\xbb\xbf" if stream == "bom" else b"") + text.encode("utf-8")
        source = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")
    try:
        return parse(source, strict=strict)
    except ParseError as exc:
        return (exc.line, str(exc))


@settings(max_examples=400, deadline=None)
@given(
    journal_rows(),
    st.booleans(),
    st.sampled_from(["\n", "\r\n"]),
    st.sampled_from(["plain", "text", "bom"]),
)
def test_stream_parser_matches_oracle(rows, strict, newline, stream):
    text = _text(rows, newline)
    got = _outcome(parse_journals_csv, text, strict, stream)
    want = _outcome(oracle_parse_journals_csv, text, strict, stream)
    assert got == want
    if isinstance(want, Dataset):
        assert [hash(j) for j in got.journals] == [hash(j) for j in want.journals]
        assert all(type(j.categories) is tuple for j in got.journals)
        assert got == Dataset(got.journals)  # the columns hold each record's fields
        for code in got.category_codes():
            assert got.members(code) == [j for j in got.journals if code in j.categories]
    lenient, strict_got = (_outcome(parse_journals_csv, text, s, stream) for s in (False, True))
    if isinstance(lenient, Dataset):  # a lenient parse keeps the break a strict one raises
        line, message = lenient._cache.get("break", (None, None))
        assert strict_got == (lenient if line is None else (line, f"line {line}: {message}"))


@pytest.mark.parametrize("strict", [True, False])
def test_every_odd_count_in_every_column_matches_oracle(strict):
    valid = ["j1", "J", "A", "1", "2", "3", "4", "9", "8", "7"]
    for column in range(3, len(JOURNAL_HEADER)):
        for value in ODD_COUNTS:
            row = valid[:3] + ["5"] * 7
            row[0], row[column] = "j2", value
            text = _text([valid, row], "\n")
            got = _outcome(parse_journals_csv, text, strict)
            assert got == _outcome(oracle_parse_journals_csv, text, strict), (column, value)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize(
    "text",
    ["", HEADER.replace("name", "title") + "\n", "\ufeff" + HEADER + "\nj1,J,A,1,1,1,1,,,\n"],
    ids=["empty", "header", "unstripped-bom"],
)
def test_header_errors_match_oracle(text, strict):
    got = _outcome(parse_journals_csv, text, strict)
    assert got == _outcome(oracle_parse_journals_csv, text, strict)
    assert got[0] == 1


def _parse_error(text: str) -> tuple[int, str]:
    with pytest.raises(ParseError) as exc:
        parse_journals_csv(io.StringIO(text))
    return exc.value.line, str(exc.value)


def test_structural_error_comes_before_earlier_cross_field_violations():
    rows = [
        "j1,J,A,1,1,1,1,10,5,2",
        "j2,J,A,1,1,1,1,10,20,5",  # refs_jcr > refs_total
        "j3,J,A,1,1,1,1,10,5,9",  # refs_jcr_in_window > refs_jcr
        "j4,J,A,1,x,1,1,,,",
    ]
    text = HEADER + "\n" + "\n".join(rows) + "\n"
    assert _parse_error(text) == (5, "line 5: non-integer count in items_t1: 'x'")
    text = HEADER + "\n" + "\n".join(rows[:3]) + "\n"
    assert _parse_error(text) == (3, "line 3: journal j2: refs_jcr exceeds refs_total")
    assert len(parse_journals_csv(io.StringIO(text), strict=False).journals) == 3


class TestPhysicalLines:
    MULTILINE = HEADER + '\nj1,"Two\nlines",A,1,1,1,1,,,\n'

    def test_error_after_multiline_record_names_its_physical_line(self):
        text = self.MULTILINE + "j2,J,A,1,x,1,1,,,\n"
        assert _parse_error(text) == (4, "line 4: non-integer count in items_t1: 'x'")

    def test_multiline_record_reports_its_first_line(self):
        text = HEADER + '\nj1,J,A,1,1,1,1,,,\nj2,"Two\nlines",A,1,1,1,1,10,20,5\n'
        assert _parse_error(text) == (3, "line 3: journal j2: refs_jcr exceeds refs_total")

    def test_multiline_name_is_kept(self):
        ds = parse_journals_csv(io.StringIO(self.MULTILINE))
        assert ds.journals[0].name == "Two\nlines"

    def test_fixture_error_after_multiline_record(self):
        with open(bundled_fixture_path(), encoding="utf-8", newline="") as f:
            header, first, second = list(csv.reader(f))[:3]
        first[1] = "Two\nlines"
        second[3] = "x"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, first, second])
        with pytest.raises(ParseError) as exc:
            parse_category_fixture_csv(io.StringIO(buf.getvalue()))
        assert str(exc.value) == "line 4: non-integer count in refs_jcr: 'x'"
        assert exc.value.line == 4


def oracle_utf8_error(data: bytes) -> Optional[tuple[int, str]]:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return line, f"line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.text(alphabet='ab ,"\né', max_size=6), max_size=12),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
    st.sampled_from([b"\xe9", b"\xff", b"\x80", b"\xc3"]),
    st.integers(0, 10**6),
    st.sampled_from([1, 2, 3, 5, 16, 8192]),
)
def test_a_non_utf8_byte_is_placed_as_the_whole_file_rule_places_it(
    names, newline, bom, bad, position, chunk_size
):
    rows = [[f"j{i}", name, "A", "1", "1", "1", "1", "", "", ""] for i, name in enumerate(names)]
    data = (b"\xef\xbb\xbf" if bom else b"") + _text(rows, newline).encode("utf-8")
    position %= len(data) + 1
    if data[position - 1 : position + 1] == b"\r\n":  # it would leave a lone CR
        position -= 1
    data = data[:position] + bad + data[position:]
    # read as read_csv reads a file, in chunks of chunk_size bytes
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    stream._CHUNK_SIZE = chunk_size
    with pytest.raises(ParseError) as exc:
        parse_journals_csv(stream, strict=False)
    assert (exc.value.line, str(exc.value)) == oracle_utf8_error(data)


class TestMalformedCsv:
    """A field over csv.field_size_limit() is an input error, not a crash."""

    HUGE = "x" * 200_000

    def test_validate_input(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text(HEADER + f"\nj1,J,A,1,1,1,1,,,\nj2,{self.HUGE},A,1,1,1,1,,,\n")
        assert main(["validate", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line 3: field larger than field limit ({csv.field_size_limit()})\n"

    def test_stats_cluster_fixture(self, tmp_path, capsys):
        lines = Path(bundled_fixture_path()).read_text(encoding="utf-8").splitlines()
        row = next(csv.reader([lines[4]]))
        row[1] = self.HUGE
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(row)
        lines[4] = buf.getvalue().rstrip("\n")
        fixture = tmp_path / "fixture.csv"
        fixture.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        argv = ["stats", "cluster", "--edition", "science", "--k", "3"]
        assert main(argv + ["--fixture", str(fixture), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line 5: field larger than field limit ({csv.field_size_limit()})\n"
        assert not out.exists()


class TestSlottedRecord:
    def record(self, **changes):
        fields = dict(
            id="j1",
            name="J",
            categories=["A", "B"],
            items_t=1,
            items_t1=2,
            items_t2=3,
            cited_in_window=4,
            refs_total=10,
            refs_jcr=5,
            refs_jcr_in_window=2,
        )
        return JournalRecord(**{**fields, **changes})

    def test_no_instance_dict(self):
        j = self.record()
        assert not hasattr(j, "__dict__")

    def test_value_semantics(self):
        a, b = self.record(), self.record(categories=("A", "B"))
        assert a == b and hash(a) == hash(b)
        assert a.categories == ("A", "B") and type(a.categories) is tuple
        assert a != self.record(refs_total=None)
        assert len({a, b}) == 1

    def test_frozen(self):
        j = self.record()
        with pytest.raises(AttributeError):
            j.items_t = 5
        with pytest.raises(AttributeError):
            del j.name

    def test_copies(self):
        j = self.record()
        for other in (pickle.loads(pickle.dumps(j)), copy.deepcopy(j), copy.copy(j)):
            assert other == j and hash(other) == hash(j)
        r = j._replace(categories=["C"], refs_total=None)
        assert r.categories == ("C",) and r.refs_total is None and r.id == "j1"

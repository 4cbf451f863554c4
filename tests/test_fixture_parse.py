"""The category fixture parser against a reference written apart from it.

``oracle_parse_category_fixture_csv`` is the reference: it converts every
cell through ``_parse_count`` and ``_parse_printed`` and builds each row
through the checking ``CategoryFixtureRow`` constructor, turning its
ValueError into a ParseError at the row's line.  On any input the parser
must give the same rows field for field, or the same ParseError line and
message.
"""
import csv
import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnifkit.core_model import COUNT_LIMIT, Edition
from cnifkit.ingest import (
    _EDITIONS,
    FIXTURE_HEADER,
    CategoryFixtureRow,
    ParseError,
    _parse_count,
    _parse_printed,
    _records,
    parse_category_fixture_csv,
)
from cnifkit.reference import bundled_fixture_path


def oracle_parse_category_fixture_csv(stream) -> list[CategoryFixtureRow]:
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


with open(bundled_fixture_path(), encoding="utf-8", newline="") as _f:
    _HEADER, *_ROWS = list(csv.reader(_f))
# rows of both editions; S21 and SS7 show printed values as "-"
VALID_ROWS = _ROWS[:5] + [r for r in _ROWS if r[0] in ("S21", "SS1", "SS2", "SS7")]
assert sum("-" in r for r in VALID_ROWS) == 2



def test_fixture_header_is_bundled_first_line():
    with open(bundled_fixture_path(), encoding="utf-8", newline="") as f:
        assert f.readline() == ",".join(FIXTURE_HEADER) + "\r\n"


ODD_NUMBERS = ["-", "nan", "NaN", "inf", "-inf", "1e999", "-1e999", "-1", "-0", "-0.0", "0"]
ODD_NUMBERS += ["1.5", "-0.1", "1", "1.0000001", "x", "", " 7", "1_0", "1e-400", "1e308"]
ODD_NUMBERS += [str(2**63 - 1), str(2**63), "9" * 400]


@st.composite
def fixture_texts(draw) -> str:
    rows = [list(r) for r in draw(st.lists(st.sampled_from(VALID_ROWS), max_size=6))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["drop", "extra", "code", "edition", "share"] + ["number"] * 4))
        if kind == "drop":
            del row[draw(st.integers(0, len(row) - 1))]
        elif kind == "extra":
            row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(ODD_NUMBERS)))
        elif kind == "code":  # repeat another row's code
            row[0] = draw(st.sampled_from(rows))[0]
        elif kind == "edition":
            row[2] = draw(st.sampled_from(["union", "", "Science", "social ", "all"]))
        elif kind == "share":  # p or w, just in or out of [0,1]
            value = draw(st.sampled_from(["1.5", "-0.1", "1", "0", "1.0000001", "-0.0", "-"]))
            row[draw(st.sampled_from([9, 10]))] = value
        else:  # a count or a printed value
            row[draw(st.integers(3, len(row) - 1))] = draw(st.sampled_from(ODD_NUMBERS))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_HEADER] + rows)
    return buf.getvalue()


def _outcome(parse, text: str):
    try:
        rows = parse(io.StringIO(text))
    except ParseError as exc:
        return exc.line, str(exc)
    assert all(type(r) is CategoryFixtureRow for r in rows)
    # repr tells 0 from 0.0 and -0.0, and an int from a float
    return [[repr(v) for v in r] for r in rows]


@settings(max_examples=500, deadline=None)
@given(fixture_texts())
def test_parser_matches_oracle(text):
    assert _outcome(parse_category_fixture_csv, text) == _outcome(
        oracle_parse_category_fixture_csv, text
    )


def test_bundled_fixture_matches_oracle():
    with open(bundled_fixture_path(), encoding="utf-8", newline="") as f:
        text = f.read()
    got = _outcome(parse_category_fixture_csv, text)
    assert len(got) == 230
    assert got == _outcome(oracle_parse_category_fixture_csv, text)


@pytest.mark.parametrize(
    "cells",
    [
        {"a": "1e308", "r": "1e308"},  # each value finite, their sum not
        {"a": "-1.7e308", "aif": "-1.7e308"},
        {"refs_jcr": "-0", "ncited": "+7", "nciting": " 8"},
        {"p": "-0.0", "w": "1", "b": "-"},
        {"w": "1e-400"},
        {"nciting": "-1", "a": "nan"},  # a count is checked before a printed value
        {"b": "x", "p": "1.5"},  # a bad value before p's range
        {"p": "1.5", "w": "-0.1"},
        {"p": "-", "w": "inf"},
    ],
)
def test_edge_rows_match_oracle(cells):
    row = dict(zip(_HEADER, VALID_ROWS[1]))
    row.update(cells)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_HEADER, VALID_ROWS[0], list(row.values())])
    text = buf.getvalue()
    assert _outcome(parse_category_fixture_csv, text) == _outcome(
        oracle_parse_category_fixture_csv, text
    )


class TestRow:
    FIELDS = dict(code="S1", name="ACOUSTICS", edition=Edition.SCIENCE, refs_jcr=87001)
    FIELDS.update(refs_total=110560, ncited=11626, nciting=12872)

    @pytest.mark.parametrize("count", ["refs_jcr", "refs_total", "ncited", "nciting"])
    def test_negative_count_raises(self, count):
        with pytest.raises(ValueError, match=f"^S1: negative count {count}$"):
            CategoryFixtureRow(**{**self.FIELDS, count: -1})

    @pytest.mark.parametrize("count", ["refs_jcr", "refs_total", "ncited", "nciting"])
    @pytest.mark.parametrize("value", [COUNT_LIMIT, 10**400])
    def test_count_the_parser_rejects_raises(self, count, value):
        # the parser's bound; past it fixture_reference_components overflows
        with pytest.raises(ValueError, match=rf"^S1: count {count} is 2\*\*63 or more$"):
            CategoryFixtureRow(**{**self.FIELDS, count: value})
        row = CategoryFixtureRow(**{**self.FIELDS, count: COUNT_LIMIT - 1})
        assert getattr(row, count) == COUNT_LIMIT - 1

    @pytest.mark.parametrize("share", ["printed_p", "printed_w"])
    @pytest.mark.parametrize("value", [1.5, -0.1, float("nan")])
    def test_share_outside_unit_interval_raises(self, share, value):
        with pytest.raises(ValueError, match=rf"^S1: {share} outside \[0,1\]$"):
            CategoryFixtureRow(**{**self.FIELDS, share: value})

    def test_is_a_named_tuple(self):
        row = CategoryFixtureRow(**self.FIELDS, printed_p=1.0, printed_w=0.0)
        assert isinstance(row, tuple) and len(row) == 13
        assert row._fields == ("code", "name", "edition", *FIXTURE_HEADER[3:7]) + tuple(
            f"printed_{c}" for c in FIXTURE_HEADER[7:]
        )
        assert row.printed_a is None and not row.is_complete()
        assert CategoryFixtureRow(*row[:7], 0.5, 30.0, 0.8, 0.2, 0.9).is_complete()
        assert pickle.loads(pickle.dumps(row)) == row

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnifkit.core_model import Edition
from cnifkit.ingest import (
    ParseError,
    dumps_report,
    emit_journals_csv,
    parse_category_fixture_csv,
    parse_journals_csv,
)
from cnifkit.reference import bundled_fixture_path

from conftest import make_dataset, random_journal

HEADER = "id,name,categories,items_t,items_t1,items_t2,cited_in_window,refs_total,refs_jcr,refs_jcr_in_window"


def parse(text):
    return parse_journals_csv(io.StringIO(text))


def test_parse_simple_row():
    ds = parse(HEADER + "\nj1,Journal One,SS9;SS3,10,12,11,30,400,300,60\n")
    j = ds.journals[0]
    assert j.categories == ("SS9", "SS3")
    assert j.items_t == 10
    assert j.items_t1 == 12
    assert j.cited_in_window == 30
    assert j.refs_jcr_in_window == 60


def test_negative_count_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse(HEADER + "\nj1,J,A,1,-3,1,1,,,\n")
    assert exc.value.line == 2


def test_strict_record_violation_carries_its_own_line():
    rows = [f"j{i},J,A,1,1,1,1,10,5,2" for i in range(1, 6)]
    rows.insert(5, "bad,J,A,1,1,1,1,10,20,5")  # refs_jcr > refs_total, line 7
    with pytest.raises(ParseError) as exc:
        parse(HEADER + "\n" + "\n".join(rows) + "\n")
    assert exc.value.line == 7
    assert str(exc.value) == "line 7: journal bad: refs_jcr exceeds refs_total"


def test_header_only_gives_empty_dataset():
    ds = parse(HEADER + "\n")
    assert ds.journals == ()


def test_duplicate_journal_id_rejected():
    text = HEADER + "\nj1,J,A,1,1,1,1,,,\nj1,J,A,1,1,1,1,,,\n"
    with pytest.raises(ParseError, match="duplicate journal id"):
        parse(text)


def test_wrong_arity_rejected():
    with pytest.raises(ParseError, match="expected 10 fields"):
        parse(HEADER + "\nj1,J,A,1,1\n")


def test_bad_header_rejected():
    with pytest.raises(ParseError, match="bad header"):
        parse("id,name\nj1,J\n")


def test_optional_fields_absent_not_zero():
    ds = parse(HEADER + "\nj1,J,A,1,1,1,1,,,\n")
    assert ds.journals[0].refs_total is None


def test_quoted_name_with_comma_round_trips():
    ds = parse(HEADER + '\nj1,"AGR, DAIRY & ANIMAL SCI",A,1,2,3,4,,,\n')
    assert ds.journals[0].name == "AGR, DAIRY & ANIMAL SCI"
    buf = io.StringIO()
    emit_journals_csv(ds, buf)
    again = parse(buf.getvalue())
    assert again.journals == ds.journals


def test_fixture_has_230_rows(fixture_rows):
    assert len(fixture_rows) == 230
    assert sum(1 for r in fixture_rows if r.edition == Edition.SCIENCE) == 174
    assert sum(1 for r in fixture_rows if r.edition == Edition.SOCIAL_SCIENCE) == 56


def test_fixture_edition_is_science_or_social():
    with open(bundled_fixture_path(), encoding="utf-8") as f:
        header, first, second = f.readlines()[:3]
    text = header + first + second.replace(",science,", ",union,")
    with pytest.raises(ParseError) as exc:
        parse_category_fixture_csv(io.StringIO(text))
    assert str(exc.value) == "line 3: unknown edition: 'union'"


def test_fixture_anchor_rows(fixture_by_code):
    s1 = fixture_by_code["S1"]
    assert (s1.refs_jcr, s1.refs_total, s1.ncited, s1.nciting) == (87001, 110560, 11626, 12872)
    assert s1.printed_aif == 1.553
    ss7 = fixture_by_code["SS7"]
    assert ss7.printed_a is None and ss7.printed_aif is None
    s113 = fixture_by_code["S113"]
    assert (s113.ncited, s113.nciting) == (206138, 80965)


def test_emit_report_empty_json():
    assert dumps_report(("code", "ncited"), [], "json") == "[]\n"


def test_emit_report_csv_single_row():
    out = dumps_report(("code", "ncited"), [("S1", 5)], "csv")
    assert out == "code,ncited\nS1,5\n"


def test_emit_report_unknown_format():
    with pytest.raises(ValueError):
        dumps_report(("code",), [], "xml")


@st.composite
def journal_strategy(draw, jid):
    rng = random.Random(draw(st.integers(0, 2**32)))
    n_cats = draw(st.integers(1, 3))
    cats = [f"C{i}" for i in range(n_cats)]
    return random_journal(rng, jid, cats)


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.integers(0, 8))
def test_round_trip_preserves_raw_integers(seed, n):
    rng = random.Random(seed)
    journals = [
        random_journal(rng, f"j{i}", [f"C{rng.randint(0, 3)}"], max_count=1000) for i in range(n)
    ]
    ds = make_dataset(journals)
    buf = io.StringIO()
    emit_journals_csv(ds, buf)
    again = parse_journals_csv(io.StringIO(buf.getvalue()))
    assert again.journals == ds.journals

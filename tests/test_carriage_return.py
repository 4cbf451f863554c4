"""A carriage return in a journal id or a category code is refused on input.

``csv.writer`` quotes a field holding a lone "\\r" only from Python 3.13, and
``csv.reader`` takes an unquoted one for a line end, so such an id or code
would make report bytes depend on the Python version.  The journal parser,
``JournalRecord`` and ``CategoryFixtureRow`` (and with it the fixture
parser) refuse it; a name, which no report writes, may still hold one.
"""
import io
import re

import pytest

from cnifkit.cli import main
from cnifkit.core_model import Edition, JournalRecord
from cnifkit.ingest import (
    FIXTURE_HEADER,
    CategoryFixtureRow,
    ParseError,
    emit_journals_csv,
    parse_category_fixture_csv,
    parse_journals_csv,
)

from conftest import make_dataset

HEADER = "id,name,categories,items_t,items_t1,items_t2,cited_in_window,refs_total,refs_jcr,refs_jcr_in_window"


def parse(text):
    return parse_journals_csv(io.StringIO(text, newline=""))


@pytest.mark.parametrize("jid", ["J\r1", "J\r\n1", "\r"])
def test_parser_refuses_a_carriage_return_in_an_id(jid):
    text = HEADER + f'\nj0,Zero,A,1,1,1,1,,,\n"{jid}",One,A,1,1,1,1,,,\nj2,Two,A,1,1,1,1,,,\n'
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == f"line 3: carriage return in journal id {jid!r}"


@pytest.mark.parametrize("codes", ["A\rB", "A;\rB", "A;B\r"])
def test_parser_refuses_a_carriage_return_in_the_codes(codes):
    text = HEADER + f'\nj1,One,A,1,1,1,1,,,\nj2,Two,"{codes}",1,1,1,1,,,\n'
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == "line 3: journal j2: carriage return in category codes"


def test_parser_refuses_codes_it_has_read_before_only_once():
    # the codes of the first row are checked when first read; a later row
    # listing the same codes reuses them, and the id check still holds there
    text = HEADER + '\nj1,One,A;B,1,1,1,1,,,\n"j\r2",Two,A;B,1,1,1,1,,,\n'
    with pytest.raises(ParseError, match=re.escape("line 3: carriage return in journal id")):
        parse(text)


def test_a_name_may_hold_a_carriage_return_and_reads_back_as_written():
    ds = parse(HEADER + '\nj1,"One\rTwo",A,1,1,1,1,,,\n')
    assert ds.columns["name"] == ("One\rTwo",)
    out = io.StringIO()
    emit_journals_csv(ds, out)
    assert parse(out.getvalue()) == ds


RECORD = ("j1", "J1", ("A",), 1, 1, 1, 1)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"id": "j\r1"}, "carriage return in journal id 'j\\r1'"),
        ({"categories": ("A", "B\r")}, "journal j1: carriage return in category code 'B\\r'"),
        ({"categories": ("\r\n",)}, "journal j1: carriage return in category code '\\r\\n'"),
    ],
)
def test_record_refuses_a_carriage_return_in_its_id_or_a_code(change, message):
    good = JournalRecord(*RECORD)
    fields = [change.get(name, value) for name, value in zip(JournalRecord._fields, good)]
    builds = (
        lambda: JournalRecord(*fields),
        lambda: JournalRecord._make(fields),
        lambda: good._replace(**change),
    )
    for build in builds:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_record_accepts_a_carriage_return_in_its_name():
    record = JournalRecord("j1", "J\r1", ("A",), 1, 1, 1, 1)
    assert make_dataset([record]).columns["name"] == ("J\r1",)


def test_cli_refuses_the_file_and_writes_no_report(tmp_path, capsys):
    path = tmp_path / "journals.csv"
    path.write_bytes(
        (HEADER + '\n"J\r1",Alpha,A,5,5,5,10,,,\nJ2,Beta,A,5,5,5,20,,,\n').encode()
    )
    out = tmp_path / "rank.csv"
    for _ in range(2):  # the error is not cached: a second command gets it again
        assert main(["rank", "--input", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: line 2: carriage return in journal id 'J\\r1'\n"
        assert not out.exists()


def test_fixture_row_refuses_a_carriage_return_in_its_code():
    good = CategoryFixtureRow("S1", "Soc", Edition.SOCIAL_SCIENCE, 1, 2, 3, 4)
    message = "carriage return in category code 'S\\r1'"
    bad = ("S\r1", *good[1:])
    for build in (lambda: CategoryFixtureRow(*bad), lambda: good._replace(code="S\r1")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
    assert CategoryFixtureRow("S1", "S\r1", Edition.SOCIAL_SCIENCE, 1, 2, 3, 4).name == "S\r1"


def test_fixture_parser_refuses_a_carriage_return_in_a_code():
    rows = ["S1,One,social,1,2,3,4,-,-,-,-,-,-", '"S\r2",Two,social,1,2,3,4,-,-,-,-,-,-']
    text = "\n".join([",".join(FIXTURE_HEADER), *rows]) + "\n"
    with pytest.raises(ParseError) as exc:
        parse_category_fixture_csv(io.StringIO(text, newline=""))
    assert str(exc.value) == "line 3: carriage return in category code 'S\\r2'"

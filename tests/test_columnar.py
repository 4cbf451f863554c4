"""The per-code sums table and the aggregate API against the record walk
they replaced, and the journal paths' freedom from records.

``oracle_aggregate`` and its union and whole-database variants in
``conftest`` walk records as ``category_aggregate``, ``meta_category_aggregate``
and ``jcr_aggregate`` did before the columns.  The columnar parser's
differential test against the record parser is in ``test_ingest_stream``.
"""
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnifkit import indicators
from cnifkit.cli import main
from cnifkit.core_model import JournalRecord, UndefinedIndicatorError
from cnifkit.ingest import JOURNAL_HEADER, emit_journals_csv, parse_journals_csv

from conftest import (
    make_dataset,
    make_journal,
    oracle_aggregate,
    oracle_jcr_aggregate,
    oracle_union_aggregate,
)


@st.composite
def datasets(draw):
    """Journals in codes A-D, some without reference fields."""
    journals = []
    for i in range(draw(st.integers(0, 12))):
        codes = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=3, unique=True))
        counts = [draw(st.integers(0, 10**6)) for _ in range(4)]
        refs = draw(st.sampled_from([None, (5, 4, 3), (0, 0, 0), (10**12, 10**11, 10**10)]))
        if refs is not None and draw(st.booleans()):  # one reference field absent
            absent = draw(st.integers(0, 2))
            refs = tuple(None if k == absent else v for k, v in enumerate(refs))
        journals.append(JournalRecord(f"j{i}", "J", codes, *counts, *(refs or (None,) * 3)))
    return make_dataset(journals)


@settings(max_examples=200, deadline=None)
@given(datasets())
def test_sums_table_equals_record_aggregates(ds):
    for code in ds.category_codes():
        assert indicators.category_aggregate(ds, code) == oracle_aggregate(ds.members(code), code)
    by_code, jcr = indicators._table(ds)
    assert set(by_code) == set(ds.category_codes())
    assert jcr == oracle_aggregate(ds.journals, "JCR")
    for code, (_, shared) in by_code.items():
        multi = [j for j in ds.members(code) if len(j.categories) > 1]
        assert [ds.journals[i] for i in shared] == multi


def outcome(call):
    """The aggregate, or the error's type and message."""
    try:
        return call()
    except (KeyError, UndefinedIndicatorError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(datasets(), st.lists(st.lists(st.sampled_from("ABCDZ"), max_size=6), max_size=4))
def test_aggregate_api_equals_record_walk(ds, code_lists):
    # repeated codes, the empty list and the unknown code Z among them
    for codes in code_lists + [[], list(ds.category_codes())]:
        expected = outcome(lambda: oracle_union_aggregate(ds, codes))
        assert outcome(lambda: indicators.meta_category_aggregate(ds, iter(codes))) == expected
    # the empty dataset among them
    expected = outcome(lambda: oracle_jcr_aggregate(ds))
    assert outcome(lambda: indicators.jcr_aggregate(ds)) == expected


CSV_ROWS = [
    "j1,Alpha,A;B,10,12,11,46,400,300,60",
    "j2,Beta,A,8,9,10,19,,,",
    "j3,Gamma,B,6,7,8,90,500,450,75",
    "j4,Delta,B;C,5,6,7,13,200,150,30",
]
CSV_TEXT = ",".join(JOURNAL_HEADER) + "\n" + "\n".join(CSV_ROWS) + "\n"

JOURNAL_COMMANDS = [
    ["validate"],
    ["indicators"],
    ["decompose"],
    ["rank", "--scorer", "if"],
    ["rank", "--scorer", "cnif"],
    ["cnif"],
    ["gap"],
]


@pytest.fixture
def no_records(monkeypatch):
    def no_record(cls, *args, **kwargs):
        raise AssertionError(f"JournalRecord built from {args or kwargs}")

    # the constructor, _make, _replace, pickle and copy all pass through __new__
    monkeypatch.setattr(JournalRecord, "__new__", no_record)
    with pytest.raises(AssertionError):
        JournalRecord._make(("j1", "J", ("A",), 0, 0, 0, 0))


@pytest.mark.parametrize("command", JOURNAL_COMMANDS, ids=" ".join)
def test_journal_commands_build_no_record(command, tmp_path, no_records):
    path = tmp_path / "journals.csv"
    path.write_text(CSV_TEXT)
    assert main(command + ["--input", str(path), "--out", str(tmp_path / "out.csv")]) == 0


@pytest.mark.parametrize(
    "call",
    [
        indicators.jcr_aggregate,
        lambda ds: indicators.meta_category_aggregate(ds, ["B", "C", "A", "B"]),
        lambda ds: emit_journals_csv(ds, io.StringIO()),
    ],
    ids=["jcr_aggregate", "meta_category_aggregate", "emit_journals_csv"],
)
def test_parsed_dataset_api_builds_no_record(call, no_records):
    call(parse_journals_csv(io.StringIO(CSV_TEXT)))


def test_api_dataset_keeps_its_records():
    journals = (make_journal("j1", ["A"], 1, 1, 1), make_journal("j2", ["B", "A"], 2, 2, 2))
    ds = make_dataset(journals)
    assert ds.journals is journals
    assert list(ds.member_rows("A")) == [0, 1]
    assert ds.members("A") == list(journals)
    assert repr(ds) == f"Dataset(journals={journals!r})"
    assert hash(ds) == hash(make_dataset(list(journals)))

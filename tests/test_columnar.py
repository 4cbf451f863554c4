"""The per-code sums table against the record walk it replaced, and the
journal commands' freedom from records.

``oracle_aggregate`` is the record walk that ``category_aggregate`` did
before the sums table.  The columnar parser's differential test against the
record parser is in ``test_ingest_stream``.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnifkit import indicators
from cnifkit.cli import main
from cnifkit.core_model import CategoryAggregate, JournalRecord
from cnifkit.ingest import JOURNAL_HEADER

from conftest import make_dataset, make_journal


def oracle_aggregate(journals, code: str) -> CategoryAggregate:
    sums = dict(a_t=0, a_t1=0, a_t2=0, refs_total=0, refs_jcr=0, ncited=0, nciting=0)
    excluded = 0
    for j in journals:
        sums["a_t"] += j.items_t
        sums["a_t1"] += j.items_t1
        sums["a_t2"] += j.items_t2
        sums["ncited"] += j.cited_in_window
        if j.has_reference_fields():
            sums["refs_total"] += j.refs_total
            sums["refs_jcr"] += j.refs_jcr
            sums["nciting"] += j.refs_jcr_in_window
        else:
            excluded += 1
    return CategoryAggregate(code, **sums, reference_exclusions=excluded)


@st.composite
def datasets(draw):
    """Journals in codes A-D, some without reference fields, a few with no code."""
    journals = []
    for i in range(draw(st.integers(0, 12))):
        codes = draw(st.lists(st.sampled_from("ABCD"), max_size=3, unique=True))
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


CSV_ROWS = [
    "j1,Alpha,A;B,10,12,11,46,400,300,60",
    "j2,Beta,A,8,9,10,19,,,",
    "j3,Gamma,B,6,7,8,90,500,450,75",
    "j4,Delta,B;C,5,6,7,13,200,150,30",
]

JOURNAL_COMMANDS = [
    ["validate"],
    ["indicators"],
    ["decompose"],
    ["rank", "--scorer", "if"],
    ["rank", "--scorer", "cnif"],
    ["cnif"],
    ["gap"],
]


@pytest.mark.parametrize("command", JOURNAL_COMMANDS, ids=" ".join)
def test_journal_commands_build_no_record(command, tmp_path, monkeypatch):
    path = tmp_path / "journals.csv"
    path.write_text(",".join(JOURNAL_HEADER) + "\n" + "\n".join(CSV_ROWS) + "\n")

    def no_record(self):
        raise AssertionError(f"JournalRecord built for {self.id}")

    monkeypatch.setattr(JournalRecord, "__post_init__", no_record)
    assert main(command + ["--input", str(path), "--out", str(tmp_path / "out.csv")]) == 0


def test_api_dataset_keeps_its_records():
    journals = (make_journal("j1", ["A"], 1, 1, 1), make_journal("j2", ["B", "A"], 2, 2, 2))
    ds = make_dataset(journals)
    assert ds.journals is journals
    assert list(ds.member_rows("A")) == [0, 1]
    assert ds.members("A") == list(journals)
    assert repr(ds) == f"Dataset(journals={journals!r})"
    assert hash(ds) == hash(make_dataset(list(journals)))

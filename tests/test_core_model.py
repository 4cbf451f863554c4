import csv
import io
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnifkit.core_model import COUNT_FIELDS, COUNT_LIMIT, FIELDS, JournalRecord, Violation, validate
from cnifkit.ingest import ParseError, emit_journals_csv, parse_journals_csv

from conftest import make_dataset, make_journal, oracle_validate

RECORD = dict(
    id="j1",
    name="J1",
    categories=("A",),
    items_t=1,
    items_t1=1,
    items_t2=1,
    cited_in_window=1,
    refs_total=3,
    refs_jcr=2,
    refs_jcr_in_window=1,
)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("id", "", "empty journal id"),
        ("categories", (), "journal j1: empty category list"),
        ("categories", ("",), "journal j1: empty category code"),
        ("categories", ("A", ""), "journal j1: empty category code"),
        ("categories", ("A;B",), "journal j1: ';' in category code 'A;B'"),
        ("name", "J\ud800", "journal j1: lone surrogate in id, name or code"),
        ("categories", "AB", "journal j1: category list is a str"),
        ("items_t", True, "journal j1: non-integer count in items_t: True"),
        ("items_t", "9" * 40, "journal j1: non-integer count in items_t: '9999999999999999..."),
        ("items_t", -(10**40), "journal j1: negative count in items_t: -1000000000000000..."),
    ]
    + [(name, -3, f"journal j1: negative count in {name}: -3") for name in COUNT_FIELDS]
    + [(name, 1.5, f"journal j1: non-integer count in {name}: 1.5") for name in COUNT_FIELDS]
    + [(name, None, f"journal j1: non-integer count in {name}: None") for name in COUNT_FIELDS[:4]],
    ids=[
        "id", "categories", "empty-code", "empty-second-code", "separator-in-code", "surrogate",
        "str-categories", "bool-count", "long-str-count", "long-negative-count", *COUNT_FIELDS, *(f"{name}-float" for name in COUNT_FIELDS),
        *(f"{name}-none" for name in COUNT_FIELDS[:4]),
    ],
)
def test_record_rejects_break_of_its_own_rules(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        JournalRecord(**{**RECORD, field: value})


@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_record_rejects_count_the_parser_rejects(field):
    # the parser's bound: a record past it would be written by
    # emit_journals_csv and then refused when read back
    message = f"journal j1: count in {field} is 2**63 or more"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        JournalRecord(**{**RECORD, field: COUNT_LIMIT})
    # one below the bound is a count, and the dataset reads back as written;
    # refs_total and refs_jcr one below it too keep both reference rules
    record = {**RECORD, "refs_total": COUNT_LIMIT - 1, "refs_jcr": COUNT_LIMIT - 1}
    ds = make_dataset([JournalRecord(**{**record, field: COUNT_LIMIT - 1})])
    out = io.StringIO()
    emit_journals_csv(ds, out)
    assert parse_journals_csv(io.StringIO(out.getvalue())) == ds


COUNT = st.sampled_from([-1, 0, 1, COUNT_LIMIT - 1, COUNT_LIMIT])


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["j1", "", "j\r1"]),
    st.lists(st.sampled_from(["", "A", "B", "\r", "A\r"]), max_size=4),
    st.lists(COUNT, min_size=4, max_size=4),
    st.lists(st.none() | COUNT, min_size=3, max_size=3),
)
@example("j1", ["A", "A\r"], [1, 1, 1, 1], [None] * 3)
def test_parser_and_record_state_each_shared_rule_in_the_same_words(jid, codes, counts, refs):
    # the parser reads the codes between separators, so an empty one is a
    # stray separator to it; the record gets the codes the parser reads
    row = [jid, "n", ";".join(codes), *counts, *refs]
    out = io.StringIO()  # every field quoted: a lone carriage return in one reads back
    csv.writer(out, quoting=csv.QUOTE_ALL).writerows([FIELDS, row])
    try:
        record = JournalRecord(jid, "n", [c for c in codes if c], *counts, *refs)
    except ValueError as exc:
        with pytest.raises(ParseError) as parsed:
            parse_journals_csv(io.StringIO(out.getvalue(), newline=""), strict=False)
        rule = str(exc)
        if " count in " in rule:  # the parser names a bad count's column, not its journal
            rule = rule.removeprefix(f"journal {jid}: ")
        assert str(parsed.value) == f"line 2: {rule}"
    else:
        dataset = parse_journals_csv(io.StringIO(out.getvalue(), newline=""), strict=False)
        assert dataset.journals == (record,)


def test_row_breaking_both_reference_rules_has_two_violations_in_rule_order():
    j = make_journal("j1", ["A"], 5, 5, 10, refs=(5, 10, 20))
    assert validate(make_dataset([j])) == [
        Violation("j1", "refs_jcr exceeds refs_total"),
        Violation("j1", "refs_jcr_in_window exceeds refs_jcr"),
    ]


def test_well_formed_dataset_has_empty_report():
    ds = make_dataset(
        [
            make_journal("j1", ["A"], 5, 5, 10, refs=(100, 80, 20)),
            make_journal("j2", ["A", "B"], 3, 4, 0),
        ]
    )
    assert validate(ds) == []


def test_duplicate_journal_id_reported():
    # a construction error; such a dataset once gave j1's union AIF 5.0 for
    # codes A+B and 0.1 for B+A
    journals = [make_journal("j1", ["A"], 1, 1, 10), make_journal("j1", ["B"], 5, 5, 1)]
    with pytest.raises(ValueError, match="^duplicate journal id: j1$"):
        make_dataset(journals)


def test_repeated_category_code_rejected_at_construction():
    for categories in [("A", "A"), ["B", "A", "B"]]:
        with pytest.raises(ValueError, match="^journal j1: duplicate category codes$"):
            JournalRecord("j1", "J1", categories, 1, 1, 1, 1)


REFERENCE_COUNT = st.none() | st.integers(0, 20)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(REFERENCE_COUNT, REFERENCE_COUNT, REFERENCE_COUNT), max_size=8))
@example([(5, 10, 20)])  # breaks both rules
@example([(None, 10, 20), (5, None, 20), (5, 10, None)])
def test_validate_equals_record_walk(refs):
    journals = [make_journal(f"j{i}", ["A"], 1, 1, 1, refs=r) for i, r in enumerate(refs)]
    assert validate(make_dataset(journals)) == oracle_validate(journals)


TEXT = st.text(max_size=4)
if sys.version_info < (3, 11):  # its csv module neither writes nor reads NUL; later ones do
    TEXT = TEXT.filter(lambda text: "\x00" not in text)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(TEXT, TEXT, st.lists(TEXT, max_size=3), st.integers(0, 3), REFERENCE_COUNT),
        max_size=3,
    )
)
@example([("j1", "a\rb", ["A"], 1, None)])  # a lone carriage return in a field
@example([("j1", "\ud800", ["A"], 1, None)])  # a lone surrogate, which UTF-8 cannot encode
@example([("j1", "", ["A", "B;C"], 1, 2)])
def test_record_the_api_accepts_reads_back_as_written(drawn):
    # either the record or the dataset refuses the drawn fields, or the
    # dataset, written as a UTF-8 file, reads back as it was written
    try:
        ds = make_dataset(
            JournalRecord(jid, name, codes, n, n, n, n, refs, refs, refs)
            for jid, name, codes, n, refs in drawn
        )
    except ValueError:
        return
    out = io.StringIO()
    emit_journals_csv(ds, out)
    text = out.getvalue().encode("utf-8").decode("utf-8-sig")  # as read_csv reads the file
    assert parse_journals_csv(io.StringIO(text, newline=""), strict=False) == ds


@given(st.randoms(use_true_random=False))
def test_validate_order_insensitive(rnd):
    journals = [
        make_journal("j1", ["A"], 5, 5, 10, refs=(5, 10, 2)),  # refs_jcr > refs_total
        make_journal("j2", ["A"], 1, 1, 1, refs=(10, 5, 7)),  # refs_jcr_in_window > refs_jcr
        make_journal("j3", ["A"], 1, 1, 1),
    ]
    baseline = sorted((v.record_id, v.rule) for v in validate(make_dataset(journals)))
    shuffled = journals[:]
    rnd.shuffle(shuffled)
    report = validate(make_dataset(shuffled))
    assert sorted((v.record_id, v.rule) for v in report) == baseline


def test_validate_is_idempotent_and_pure():
    journals = [make_journal("j1", ["A"], 5, 5, 10)]
    ds = make_dataset(journals)
    first = validate(ds)
    second = validate(ds)
    assert first == second
    assert ds.journals[0].id == "j1"


def test_categories_coerced_to_tuple():
    j = JournalRecord("j1", "J1", ["A", "B"], 1, 1, 1, 1)
    assert isinstance(j.categories, tuple)

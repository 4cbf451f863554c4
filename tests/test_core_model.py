import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cnifkit.core_model import JournalRecord, validate

from conftest import make_dataset, make_journal


def test_empty_category_list_is_violation():
    ds = make_dataset([make_journal("j1", ["A"], 5, 5, 10)])
    bad = JournalRecord("j2", "J2", (), 1, 1, 1, 1)
    ds = make_dataset([bad])
    report = validate(ds)
    assert any(v.rule == "empty category list" for v in report)


def test_refs_jcr_exceeding_total_is_violation():
    j = make_journal("j1", ["A"], 5, 5, 10, refs=(5, 10, 2))
    report = validate(make_dataset([j]))
    assert any(v.rule == "refs_jcr exceeds refs_total" and v.record_id == "j1" for v in report)


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


def test_negative_counts_reported():
    j = JournalRecord("j1", "J1", ("A",), 1, -3, 1, 1)
    report = validate(make_dataset([j]))
    assert any(v.rule == "negative count: items_t1" for v in report)


@given(st.randoms(use_true_random=False))
def test_validate_order_insensitive(rnd):
    journals = [
        make_journal("j1", ["A"], 5, 5, 10, refs=(5, 10, 2)),  # refs_jcr > refs_total
        JournalRecord("j2", "J2", (), 1, 1, 1, 1),
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

"""The dataset-level memo behind cnif() and Dataset.members().

The uncached compositions of jcr_aggregate, meta_category_aggregate and
impact_factor are the oracles.  The complexity guard counts aggregate calls
through the CLI; it uses no clocks.
"""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnifkit import indicators
from cnifkit.cli import main
from cnifkit.core_model import JournalRecord, UndefinedIndicatorError
from cnifkit.indicators import (
    aggregate_impact_factor,
    cnif,
    impact_factor,
    jcr_aggregate,
    meta_category_aggregate,
)

from conftest import make_dataset, make_journal

CODES = ("A", "B", "C", "D", "E")


def random_dataset(rnd, n, repeat_ids=False):
    journals = []
    for i in range(n):
        cats = rnd.sample(CODES, rnd.randint(1, 3))  # random code order
        jid = f"j{rnd.randrange(n)}" if repeat_ids else f"j{i}"
        # positive counts keep every IF and union AIF defined and nonzero
        journals.append(
            make_journal(
                jid,
                cats,
                rnd.randint(1, 10**6),
                rnd.randint(0, 10**6),
                rnd.randint(1, 10**6),
                items_t=rnd.randint(0, 10**6),
            )
        )
    return make_dataset(journals)


def uncached_cnif(ds, j):
    jcr_aif = aggregate_impact_factor(jcr_aggregate(ds))
    meta_aif = aggregate_impact_factor(meta_category_aggregate(ds, j.categories))
    return jcr_aif / meta_aif * impact_factor(j)


def scan_members(ds, code):
    return [j for j in ds.journals if code in j.categories]


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.booleans())
def test_cnif_bit_identical_to_uncached_composition(rnd, n_datasets, repeat_ids):
    datasets = [random_dataset(rnd, rnd.randint(1, 25), repeat_ids) for _ in range(n_datasets)]
    expected = {
        (d, k): uncached_cnif(ds, j)
        for d, ds in enumerate(datasets)
        for k, j in enumerate(ds.journals)
    }
    calls = list(expected) * 2
    rnd.shuffle(calls)
    for d, k in calls:
        ds = datasets[d]
        assert cnif(ds.journals[k], ds).cnif == expected[d, k]


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_members_matches_linear_scan(rnd, repeat_ids):
    ds = random_dataset(rnd, rnd.randint(0, 25), repeat_ids)
    for code in ds.category_codes():
        first = ds.members(code)
        assert first == scan_members(ds, code)
        first.clear()
        second = ds.members(code)
        assert second is not first
        assert second == scan_members(ds, code)


def test_members_lists_a_journal_once_despite_repeated_codes():
    # API-built datasets may repeat a code; validate() reports it, parse rejects it
    j = JournalRecord("j1", "J1", ("A", "A"), 1, 1, 1, 1)
    ds = make_dataset([j])
    assert ds.members("A") == scan_members(ds, "A") == [j]


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_filled_cache_invisible_to_equality_and_repr(rnd):
    journals = random_dataset(rnd, rnd.randint(1, 15)).journals
    warm, cold = make_dataset(journals), make_dataset(journals)
    for j in warm.journals:
        cnif(j, warm)
    assert warm == cold
    assert repr(warm) == repr(cold)


def test_zero_union_aif_raises_for_every_journal_sharing_it():
    ds = make_dataset(
        [
            make_journal("j1", ["A"], 5, 5, 10),
            make_journal("j2", ["C"], 4, 5, 0),
            make_journal("j3", ["C"], 3, 5, 0),
        ]
    )
    for jid in ("j2", "j3", "j2"):
        j = next(j for j in ds.journals if j.id == jid)
        with pytest.raises(UndefinedIndicatorError, match=f"journal {jid}: zero meta-category AIF"):
            cnif(j, ds)


HEADER = "id,name,categories,items_t,items_t1,items_t2,cited_in_window,refs_total,refs_jcr,refs_jcr_in_window"

BASE_ROWS = [
    "j1,Alpha,A;B,10,12,11,46,400,300,60",
    "j2,Beta,A,8,9,10,19,350,280,40",
    "j3,Gamma,B,6,7,8,90,500,450,75",
    "j4,Delta,B,5,6,7,13,200,150,30",
]

GUARD_ROWS = BASE_ROWS + [
    "j5,Eps,B;A,4,5,6,22,,,",
    "j6,Zeta,C,3,4,5,9,120,100,20",
    "j7,Eta,A;B,7,8,9,30,300,250,50",
    "j8,Theta,A,2,3,4,5,,,",
]
GUARD_SETS = {("A", "B"), ("A",), ("B",), ("B", "A"), ("C",)}

CNIF_COMMANDS = (["cnif"], ["rank", "--scorer", "cnif"], ["gap"])


def write_csv(tmp_path, rows):
    path = tmp_path / "journals.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("command", CNIF_COMMANDS, ids=lambda c: " ".join(c))
def test_one_aggregate_per_database_and_per_category_tuple(command, tmp_path, monkeypatch):
    jcr_calls = Counter()
    meta_calls = Counter()

    def counting_jcr(dataset):
        jcr_calls["jcr"] += 1
        return jcr_aggregate(dataset)

    def counting_meta(dataset, codes):
        meta_calls[tuple(codes)] += 1
        return meta_category_aggregate(dataset, codes)

    monkeypatch.setattr(indicators, "jcr_aggregate", counting_jcr)
    monkeypatch.setattr(indicators, "meta_category_aggregate", counting_meta)
    path = write_csv(tmp_path, GUARD_ROWS)
    assert main(command + ["--input", path, "--out", str(tmp_path / "out.csv")]) == 0
    assert jcr_calls["jcr"] == 1
    assert meta_calls == Counter(GUARD_SETS)


ZERO_WINDOW = "journal j5: no citable items in target window, IF undefined"
ZERO_AIF = "journal {}: zero meta-category AIF, normalization undefined"


@pytest.mark.parametrize(
    "extra_rows, messages",
    [
        (["j5,Eps,B;A,3,0,0,0,,,"], [ZERO_WINDOW] * 3),
        # category C's AIF is zero; j7 reaches it first in id order (cnif),
        # j8 first in member order (rank, gap)
        (
            ["j8,Theta,C,3,4,5,0,,,", "j6,Zeta,C;A,3,4,5,0,,,", "j7,Eta,C,3,4,5,0,,,"],
            [ZERO_AIF.format("j7"), ZERO_AIF.format("j8"), ZERO_AIF.format("j8")],
        ),
    ],
    ids=["zero-window", "zero-union-aif"],
)
def test_undefined_cnif_aborts_with_first_error(extra_rows, messages, tmp_path, capsys):
    path = write_csv(tmp_path, BASE_ROWS + extra_rows)
    for command, message in zip(CNIF_COMMANDS, messages):
        assert main(command + ["--input", path, "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

"""The category table behind cnif(), the score columns and Dataset.members().

The record walks of ``conftest`` (whole-database and union aggregates),
composed with impact_factor, are the oracles; score and CNIF are their exact
rationals, rounded once.  The complexity guard counts table builds,
aggregate calls and CNIF computations through the CLI; it uses no clocks.
"""
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnifkit import indicators, ranking
from cnifkit.cli import main
from cnifkit.core_model import UndefinedIndicatorError
from cnifkit.indicators import (
    aggregate_impact_factor,
    category_aggregate,
    cnif,
    cnif_terms,
    impact_factor,
    row_counts,
)
from cnifkit.ingest import parse_journals_csv, read_csv

from conftest import make_dataset, make_journal, oracle_jcr_aggregate, oracle_union_aggregate

CODES = ("A", "B", "C", "D", "E")


def random_dataset(rnd, n):
    journals = []
    for i in range(n):
        cats = rnd.sample(CODES, rnd.randint(1, 3))  # random code order
        # positive counts keep every IF and union AIF defined and nonzero
        journals.append(
            make_journal(
                f"j{i}",
                cats,
                rnd.randint(1, 10**6),
                rnd.randint(0, 10**6),
                rnd.randint(1, 10**6),
                items_t=rnd.randint(0, 10**6),
            )
        )
    return make_dataset(journals)


def exact_aif(agg):
    return Fraction(agg.ncited, agg.items_window)


def exact_score(ds, j):
    return exact_aif(oracle_jcr_aggregate(ds)) / exact_aif(oracle_union_aggregate(ds, j.categories))


def uncached_cnif(ds, j):
    return float(exact_score(ds, j) * Fraction(j.cited_in_window, j.items_window))


def scan_members(ds, code):
    return [j for j in ds.journals if code in j.categories]


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_cnif_bit_identical_to_uncached_composition(rnd, n_datasets):
    datasets = [random_dataset(rnd, rnd.randint(1, 25)) for _ in range(n_datasets)]
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


def outcome(compute):
    """The floats' bit patterns, or the error's type and message."""
    try:
        return [x.hex() for x in compute()]
    except (UndefinedIndicatorError, KeyError) as exc:
        return type(exc), str(exc)


def uncached_score(ds, j):
    if_value = impact_factor(j)
    jcr_aif = aggregate_impact_factor(oracle_jcr_aggregate(ds))
    meta_aif = aggregate_impact_factor(oracle_union_aggregate(ds, j.categories))
    if meta_aif == 0:
        raise UndefinedIndicatorError(
            f"journal {j.id}: zero meta-category AIF, normalization undefined"
        )
    return if_value, meta_aif, jcr_aif, float(exact_score(ds, j)), uncached_cnif(ds, j)


def degenerate_dataset(rnd, n):
    """Journals in random code order; every member of a dead code has a zero
    window."""
    dead = {c for c in CODES if rnd.random() < 0.3}
    journals = []
    for i in range(n):
        cats = rnd.sample(CODES, rnd.randint(1, 3))
        zero_window = not dead.isdisjoint(cats) or rnd.random() < 0.2
        items_t1, items_t2 = (0, 0) if zero_window else (rnd.randint(0, 50), rnd.randint(1, 50))
        cited = rnd.choice([0, rnd.randint(0, 10**6)])
        journals.append(make_journal(f"j{i}", cats, items_t1, items_t2, cited))
    return make_dataset(journals)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_table_aifs_bit_identical_to_uncached_aggregates(rnd):
    ds = degenerate_dataset(rnd, rnd.randint(0, 20))
    # the dataset's own journals, and outside journals listing their codes
    # shuffled or with an unregistered code
    probes = list(ds.journals) + [
        make_journal("p", rnd.sample(j.categories, len(j.categories)), 1, 1, 1)
        for j in ds.journals
    ]
    codes = rnd.choice(ds.journals).categories if ds.journals else ()
    probes.append(make_journal("q", [*codes, "Z"], 1, 1, 1))
    rnd.shuffle(probes)
    for j in probes:
        expected = outcome(lambda: uncached_score(ds, j))

        def table_score():
            s = cnif(j, ds)
            return s.if_value, s.meta_aif, s.jcr_aif, s.score, s.cnif

        assert outcome(table_score) == expected


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_members_matches_linear_scan(rnd):
    ds = random_dataset(rnd, rnd.randint(0, 25))
    # the dataset's categories are exactly the codes its journals list
    assert ds.category_codes() == sorted({c for j in ds.journals for c in j.categories})
    for code in ds.category_codes():
        first = ds.members(code)
        assert first
        assert first == scan_members(ds, code)
        first.clear()
        second = ds.members(code)
        assert second is not first
        assert second == scan_members(ds, code)
    for code in set(CODES + ("Z",)) - set(ds.category_codes()):
        for call in (ds.members, lambda c: category_aggregate(ds, c),
                     lambda c: ranking.rank_category(ds, c)):
            with pytest.raises(KeyError, match=f"^'unknown category: {code}'$"):
                call(code)


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

# one journal in 40 codes, C0-C39, among 48 journals in one to three of them:
# the limits case for any bound on the number of codes per journal
WIDE_ROWS = ["w,Wide," + ";".join(f"C{k}" for k in range(40)) + ",5,6,7,40,300,250,50"] + [
    f"j{i},J{i}," + ";".join(f"C{(i + shift) % 40}" for shift in (0, 11, 23)[: i % 3 + 1])
    + f",3,{i % 5 + 1},{i % 4 + 2},{i * 3 % 17},,,"
    for i in range(1, 49)
]

CNIF_COMMANDS = (["cnif"], ["rank", "--scorer", "cnif"], ["gap"])


def write_csv(tmp_path, rows):
    path = tmp_path / "journals.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "command, rows",
    [pytest.param(c, GUARD_ROWS, id=" ".join(c)) for c in CNIF_COMMANDS]
    + [pytest.param(c, WIDE_ROWS, id=" ".join(c) + " wide") for c in CNIF_COMMANDS],
)
def test_one_table_build_and_one_cnif_per_journal(command, rows, tmp_path, monkeypatch):
    calls = Counter()
    scored = Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    def counting_kernel(dataset, journals):
        def counted():
            for journal in journals:
                scored[journal[0]] += 1
                yield journal
        return cnif_terms(dataset, counted())

    for name in ("jcr_aggregate", "meta_category_aggregate", "_category_table"):
        monkeypatch.setattr(indicators, name, counting(name, getattr(indicators, name)))
    # cnif formats the kernel's fields; rank and gap read the CNIF column,
    # which ranking fills from one pass of the kernel; each journal the
    # kernel reads is counted
    monkeypatch.setattr(indicators, "cnif_terms", counting_kernel)
    monkeypatch.setattr(ranking, "cnif_terms", counting_kernel)
    path = write_csv(tmp_path, rows)
    assert main(command + ["--input", path, "--out", str(tmp_path / "out.csv")]) == 0
    assert calls == Counter({"_category_table": 1})
    assert scored == Counter(row.split(",")[0] for row in rows)


def test_journal_in_forty_codes_matches_oracles(tmp_path):
    ds = read_csv(write_csv(tmp_path, WIDE_ROWS), parse_journals_csv)
    wide = ds.journals[0]
    assert len(wide.categories) == 40
    terms = next(cnif_terms(ds, row_counts(ds, [0])))
    assert terms == tuple(cnif(wide, ds))[1:] == uncached_score(ds, wide)


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
        out = tmp_path / "out.csv"
        assert main(command + ["--input", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

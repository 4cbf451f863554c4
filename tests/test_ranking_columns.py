"""Rankings and gaps read from the score columns, against the per-call walk.

The oracles in ``conftest`` score each member on every call, sort entries
and keep every percentile of a journal; ``rank_category``, the ``rank``
command's rows and ``compare_gaps`` must give the same floats, ranks and
first error; ``row_cnif`` and the ``cnif`` command must give ``cnif()``'s
floats and first error.  Hypothesis draws API-built datasets whose journals
list 1 to 4 codes, with ties between equal rationals written differently
(scaled copies of another journal's counts), zero target windows, and codes
whose members all have zero citations, so that a journal listing only such
codes has a zero union AIF.  The only errors allowed are ``ValueError`` (with
``UndefinedIndicatorError``) and ``KeyError``.
"""
import contextlib
import io
import os
import tempfile
from dataclasses import astuple
from functools import partial
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnifkit import cli, ingest, ranking
from cnifkit.indicators import cnif, row_cnif, row_impact_factor
from cnifkit.ranking import compare_gaps, rank_category

from conftest import make_dataset, make_journal, oracle_compare_gaps, oracle_rank_category

CODES = ("A", "B", "C", "D", "E")
MAX_COUNT = (2**63 - 1) // 5  # five times it still parses: a count must be below 2**63


@st.composite
def datasets(draw):
    dead = draw(st.sets(st.sampled_from(CODES), max_size=1))  # every member has 0 citations
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    journals = []
    for jid in ids:
        codes = draw(st.lists(st.sampled_from(CODES), min_size=1, max_size=4, unique=True))
        if journals and draw(st.integers(0, 3)) == 0:
            # k times another journal's counts: the same IF, and with its
            # codes the same CNIF, as a different pair of integers; the
            # first journal is never a copy, so some base stays below MAX_COUNT
            counts = attrgetter("items_t1", "items_t2", "cited_in_window")
            bases = [j for j in journals if max(counts(j)) <= MAX_COUNT]
            base, k = draw(st.sampled_from(bases)), draw(st.integers(2, 5))
            if draw(st.booleans()):
                codes = base.categories
            t1, t2, cited = (k * x for x in counts(base))
        else:
            # small counts make zero windows and ties; large ones use every bit
            counts = st.integers(0, 6) if draw(st.integers(0, 3)) else st.integers(0, MAX_COUNT)
            t1, t2, cited = draw(counts), draw(counts), draw(counts)
        if not dead.isdisjoint(codes):
            cited = 0
        journals.append(make_journal(f"j{jid}", codes, t1, t2, cited))
    return make_dataset(journals)


def outcome(compute) -> str:
    """The repr of the result, which tells every float bit apart, or the
    error's type and message."""
    try:
        return repr(compute())
    except (ValueError, KeyError) as exc:  # UndefinedIndicatorError is a ValueError
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=150, deadline=None)
@given(datasets(), st.randoms(use_true_random=False))
def test_rank_category_matches_oracle(ds, rnd):
    calls = [(code, scorer) for code in [*ds.category_codes(), "Z"] for scorer in ("if", "cnif", "x")]
    rnd.shuffle(calls)  # the columns are filled by whichever call comes first
    for code, scorer in calls:
        expected = outcome(lambda: oracle_rank_category(ds, code, scorer))
        assert outcome(lambda: rank_category(ds, code, scorer)) == expected


@settings(max_examples=150, deadline=None)
@given(datasets(), st.booleans())
def test_compare_gaps_matches_oracle(ds, warm):
    expected = outcome(lambda: oracle_compare_gaps(ds))
    if warm:  # a ranking first fills one column, errors included
        outcome(lambda: rank_category(ds, ds.category_codes()[-1], "cnif"))
    assert outcome(lambda: compare_gaps(ds)) == expected
    assert outcome(lambda: compare_gaps(ds)) == expected


def expected_run(columns, compute_rows):
    """Exit code, CSV output and stderr of a command whose rows
    ``compute_rows`` gives, or whose first error it raises."""
    try:
        rows = compute_rows()
    except ValueError as exc:
        return 1, None, f"error: {exc}\n"
    out = io.StringIO()
    ingest.emit_report(columns, rows, "csv", out)
    return 0, out.getvalue(), ""


def run_command(ds, argv):
    """Exit code, --out file (None when absent) and stderr of ``argv`` on
    ``ds`` written as a journal CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "in.csv"), os.path.join(tmp, "out.csv")
        with open(path, "w", encoding="utf-8") as f:
            ingest.emit_journals_csv(ds, f)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--input", path, "--out", out])
        written = open(out, encoding="utf-8").read() if os.path.exists(out) else None
    return code, written, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(datasets(), st.sampled_from(["if", "cnif"]), st.sampled_from([0, 3, 17]))
def test_rank_rows_match_oracle(ds, scorer, digits):
    def rows():
        fmt = partial(cli._fmt, digits=digits)
        return [
            (code, e.journal_id, scorer, fmt(e.score), e.rank, fmt(e.percentile))
            for code in ds.category_codes()
            for e in oracle_rank_category(ds, code, scorer)
        ]

    columns = ("category", "journal_id", "score_desc", "score", "rank", "percentile")
    argv = ["rank", "--scorer", scorer, "--digits", str(digits)]
    assert run_command(ds, argv) == expected_run(columns, rows)


@settings(max_examples=100, deadline=None)
@given(datasets(), st.sampled_from([0, 3, 17]))
def test_row_cnif_and_cnif_command_match_cnif(ds, digits):
    for row, j in enumerate(ds.journals):
        # the five fields of cnif() after journal_id, every float bit compared
        assert outcome(lambda: row_cnif(ds, row)) == outcome(lambda: astuple(cnif(j, ds))[1:])

    def rows():  # in id order, so the first error is the first in id order
        by_id = sorted(ds.journals, key=attrgetter("id"))
        return [(j.id, *(cli._fmt(v, digits) for v in astuple(cnif(j, ds))[1:])) for j in by_id]

    columns = ("journal_id", "if", "meta_aif", "jcr_aif", "score", "cnif")
    assert run_command(ds, ["cnif", "--digits", str(digits)]) == expected_run(columns, rows)


def test_column_left_unfinished_is_not_cached(monkeypatch):
    ds = make_dataset([make_journal("j1", ["A"], 1, 0, 2), make_journal("j2", ["A"], 1, 0, 1)])

    def interrupted(dataset, row):
        if row == 1:
            raise RuntimeError("interrupted")
        return row_impact_factor(dataset, row)

    monkeypatch.setattr(ranking, "row_impact_factor", interrupted)
    with pytest.raises(RuntimeError):
        rank_category(ds, "A")
    monkeypatch.undo()
    assert rank_category(ds, "A") == oracle_rank_category(ds, "A")

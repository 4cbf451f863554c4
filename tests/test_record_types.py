"""The record types are named tuples that read, print, copy and pickle as
the frozen dataclasses they replaced did.

Each record type keeps its field order, its defaults and the repr text of
the dataclass; setting an attribute raises ``AttributeError``; a pickle or
copy round trip gives an equal value with an equal hash.  No class in the
package is a dataclass.  ``JournalRecord``, ``ComponentVector`` and
``CategoryFixtureRow`` check their fields in ``__new__``, and ``_make`` and
``_replace`` check as the constructor does.
"""
import copy
import dataclasses
import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import cnifkit
from cnifkit import cli, core_model, indicators, ingest, ranking, stats

EIGEN = stats.EigenResult(np.array([1.0]), np.eye(1), np.array([1.0]))
EIGEN_REPR = (
    "EigenResult(eigenvalues=array([1.]), eigenvectors=array([[1.]]), variance_shares=array([1.]))"
)
MERGE = stats.Merge(0, 1, 0.5, 2, 2)
MERGE_REPR = "Merge(left=0, right=1, height=0.5, new_id=2, size=2)"

# each type: a sample value, its fields in order, its defaults, and the repr
# its frozen dataclass gave that value; 1x1 arrays, so that == gives one bool
RECORDS = [
    (
        core_model.JournalRecord("j1", "J", ["A", "B"], 1, 2, 3, 4),
        core_model.FIELDS,
        dict.fromkeys(("refs_total", "refs_jcr", "refs_jcr_in_window")),
        "JournalRecord(id='j1', name='J', categories=('A', 'B'), items_t=1, items_t1=2, items_t2=3,"
        " cited_in_window=4, refs_total=None, refs_jcr=None, refs_jcr_in_window=None)",
    ),
    (
        core_model.ComponentVector(1.0, 2.0, 0.5, 0.25, 3.0),
        ("a", "r", "p", "w", "b"),
        {},
        "ComponentVector(a=1.0, r=2.0, p=0.5, w=0.25, b=3.0)",
    ),
    (
        core_model.CategoryAggregate("S22"),
        ("code", "a_t", "a_t1", "a_t2", "refs_total", "refs_jcr", "ncited", "nciting",
         "reference_exclusions"),
        dict.fromkeys(("a_t", "a_t1", "a_t2", "refs_total", "refs_jcr", "ncited", "nciting",
                       "reference_exclusions"), 0),
        "CategoryAggregate(code='S22', a_t=0, a_t1=0, a_t2=0, refs_total=0, refs_jcr=0, ncited=0,"
        " nciting=0, reference_exclusions=0)",
    ),
    (
        core_model.Violation("j1", "refs_jcr exceeds refs_total"),
        ("record_id", "rule"),
        {},
        "Violation(record_id='j1', rule='refs_jcr exceeds refs_total')",
    ),
    (
        indicators.Weight("j1", 0.25),
        ("journal_id", "value"),
        {},
        "Weight(journal_id='j1', value=0.25)",
    ),
    (
        indicators.NormalizedScore("j1", 1.5, 2.0, 3.0, 1.5, 2.25),
        ("journal_id", "if_value", "meta_aif", "jcr_aif", "score", "cnif"),
        {},
        "NormalizedScore(journal_id='j1', if_value=1.5, meta_aif=2.0, jcr_aif=3.0, score=1.5,"
        " cnif=2.25)",
    ),
    (
        ranking.RankingEntry("j1", "S22", 1.5, 2, 50.0),
        ("journal_id", "category", "score", "rank", "percentile"),
        {},
        "RankingEntry(journal_id='j1', category='S22', score=1.5, rank=2, percentile=50.0)",
    ),
    (
        ranking.GapReport("j1", 10.0, 5.0),
        ("journal_id", "gap_if", "gap_cnif"),
        {},
        "GapReport(journal_id='j1', gap_if=10.0, gap_cnif=5.0)",
    ),
    (
        ranking.GapSummary(2, 10.0, 5.0, 7.5, 2.5, 0.5),
        ("journal_count", "max_gap_if", "max_gap_cnif", "mean_gap_if", "mean_gap_cnif",
         "fraction_reduced"),
        {},
        "GapSummary(journal_count=2, max_gap_if=10.0, max_gap_cnif=5.0, mean_gap_if=7.5,"
        " mean_gap_cnif=2.5, fraction_reduced=0.5)",
    ),
    (
        stats.Matrix(("a",), np.eye(1)),
        ("labels", "values"),
        {},
        "Matrix(labels=('a',), values=array([[1.]]))",
    ),
    (EIGEN, ("eigenvalues", "eigenvectors", "variance_shares"), {}, EIGEN_REPR),
    (
        stats.PcaResult(("a",), EIGEN, {"a": 1.0}, ("a",)),
        ("labels", "eigen", "attributed_shares", "assignment"),
        {},
        f"PcaResult(labels=('a',), eigen={EIGEN_REPR}, attributed_shares={{'a': 1.0}},"
        " assignment=('a',))",
    ),
    (MERGE, ("left", "right", "height", "new_id", "size"), {}, MERGE_REPR),
    (
        stats.Dendrogram(("a", "b"), (MERGE,)),
        ("leaf_labels", "merges"),
        {},
        f"Dendrogram(leaf_labels=('a', 'b'), merges=({MERGE_REPR},))",
    ),
    (
        stats.KsResult(0.125, 10, 0.05, 0.43, False),
        ("statistic", "sample_size", "alpha", "critical_value", "reject"),
        {},
        "KsResult(statistic=0.125, sample_size=10, alpha=0.05, critical_value=0.43, reject=False)",
    ),
    (
        stats.SdHistogram(0.5, 0.25, (0, 1, 2, 3, 3, 2, 1, 0), 68.0, 95.0, 99.5, 12),
        ("mean", "sd", "bin_counts", "coverage_1s", "coverage_2s", "coverage_3s", "sample_size"),
        {},
        "SdHistogram(mean=0.5, sd=0.25, bin_counts=(0, 1, 2, 3, 3, 2, 1, 0), coverage_1s=68.0,"
        " coverage_2s=95.0, coverage_3s=99.5, sample_size=12)",
    ),
    (
        cli.Command("validate", cli._validate_rows, "--input"),
        ("name", "rows", "source", "extra", "fmt"),
        {"source": "--fixture", "extra": (), "fmt": None},
        f"Command(name='validate', rows={cli._validate_rows!r}, source='--input', extra=(),"
        " fmt=None)",
    ),
]


@pytest.mark.parametrize(
    "value, fields, defaults, text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
def test_record_type_keeps_its_dataclass_behaviour(value, fields, defaults, text):
    cls = type(value)
    assert cls._fields == fields and cls._field_defaults == defaults
    assert repr(value) == text
    assert value == tuple(value) == cls(*value)
    with pytest.raises(AttributeError):
        setattr(value, fields[0], None)
    with pytest.raises(AttributeError):
        value.extra_attribute = None
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value
        try:
            assert hash(twin) == hash(value) == hash(tuple(value))
        except TypeError:  # a field holds an array or a dict, as it did in the dataclass
            with pytest.raises(TypeError):
                hash(value)


def test_no_class_is_a_dataclass():
    # defining a frozen dataclass cost about 0.65 ms of `import cnifkit.cli`
    # each, a named tuple 0.09 ms, and importing `dataclasses` itself 7-13 ms
    found = []
    for info in pkgutil.iter_modules(cnifkit.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"cnifkit.{info.name}")
        found.extend(
            f"{info.name}.{name}"
            for name, obj in vars(module).items()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        )
    assert found == []
    assert len(RECORDS) == 17


# each checked type: a valid value, a bad field change, and the constructor's message
CHECKED = [
    (RECORDS[0][0], {"items_t": -1}, "journal j1: negative count in items_t: -1"),
    (RECORDS[0][0], {"categories": []}, "journal j1: empty category list"),
    (RECORDS[1][0], {"a": 0}, "component a must be positive, got 0"),
    (RECORDS[1][0], {"r": -1.0}, "components r and b must be non-negative"),
    (RECORDS[1][0], {"b": -1.0}, "components r and b must be non-negative"),
    (RECORDS[1][0], {"p": 1.5}, "component p must lie in [0,1], got 1.5"),
    (RECORDS[1][0], {"w": 1.5}, "component w must lie in [0,1], got 1.5"),
    (
        ingest.CategoryFixtureRow("S1", "Soc", core_model.Edition.SOCIAL_SCIENCE, 1, 2, 3, 4),
        {"printed_p": 1.5},
        "S1: printed_p outside [0,1]",
    ),
]


@pytest.mark.parametrize(
    "value, change, message",
    CHECKED,
    ids=[type(v).__name__ + "." + "".join(c) for v, c, _ in CHECKED],
)
def test_make_and_replace_check_as_the_constructor_does(value, change, message):
    cls = type(value)
    bad = [change.get(name, field) for name, field in zip(cls._fields, value)]
    for build in (lambda: cls(*bad), lambda: cls._make(bad), lambda: value._replace(**change)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

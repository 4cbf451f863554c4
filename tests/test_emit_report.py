"""The report writer against its documented form: every row a dict, the
whole list through ``json.dump``; ``csv.writer`` for CSV."""
import csv
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from cnifkit.ingest import dumps_report


def oracle_dumps_report(columns, rows, fmt):
    """The writer as it was before it streamed: make every row a dict, then
    dump the whole list at once."""
    stream = io.StringIO()
    if fmt == "json":
        json.dump([dict(zip(columns, row)) for row in rows], stream, indent=2)
        stream.write("\n")
        return stream.getvalue()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return stream.getvalue()


# quotes, commas, newlines and non-ASCII text, the characters CSV and JSON escape
TEXT = st.text(alphabet=st.sampled_from('ab,"\'\n\r\t\\ é€😀\x00'), max_size=8) | st.text(max_size=8)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TEXT
# nested lists and dicts, as in the PCA report
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)
KEYS = st.sampled_from(["a", "b", "", "c,d", 'q"t', "n\nl", "é"]) | TEXT
COLUMNS = st.lists(KEYS, unique=True, max_size=5).map(tuple)


@st.composite
def tables(draw):
    """Column names and rows of as many cells."""
    columns = draw(COLUMNS)
    row = st.tuples(*[VALUES] * len(columns))
    return columns, draw(st.lists(row, max_size=6))


@settings(max_examples=200, deadline=None)
@given(tables(), st.sampled_from(["csv", "json"]))
def test_streaming_writer_matches_whole_list_writer(table, fmt):
    columns, rows = table
    got = dumps_report(columns, rows, fmt)
    assert got.encode("utf-8") == oracle_dumps_report(columns, rows, fmt).encode("utf-8")


def test_empty_rows():
    columns = ("code", "ncited")
    assert dumps_report(columns, [], "json") == oracle_dumps_report(columns, [], "json") == "[]\n"
    assert dumps_report(columns, [], "csv") == oracle_dumps_report(columns, [], "csv") == "code,ncited\n"


def test_pca_shaped_row():
    columns = ("labels", "loadings", "attributed_shares", "empty")
    row = (["a", "r"], [[0.5, -0.5], []], {"a": 0.25, "r": None}, {})
    got = dumps_report(columns, [row, row], "json")
    assert got == oracle_dumps_report(columns, [row, row], "json")

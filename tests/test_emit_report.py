"""The streaming report writer against the whole-list writer it replaced."""
import csv
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from cnifkit.ingest import dumps_report


def oracle_dumps_report(rows, fmt):
    """The writer as it was before it streamed: copy every row, then dump the
    whole list at once."""
    stream = io.StringIO()
    records = [dict(r) for r in rows]
    if fmt == "json":
        json.dump(records, stream, indent=2)
        stream.write("\n")
        return stream.getvalue()
    writer = csv.writer(stream, lineterminator="\n")
    if not records:
        return ""
    keys = list(records[0])
    writer.writerow(keys)
    for rec in records:
        writer.writerow(["" if rec.get(k) is None else rec.get(k) for k in keys])
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
# rows drawing keys from one small pool share some keys and miss others
KEYS = st.sampled_from(["a", "b", "", "c,d", 'q"t', "n\nl", "é"]) | TEXT
ROWS = st.lists(st.dictionaries(KEYS, VALUES, max_size=5), max_size=6)


@settings(max_examples=200, deadline=None)
@given(ROWS, st.sampled_from(["csv", "json"]))
def test_streaming_writer_matches_whole_list_writer(rows, fmt):
    assert dumps_report(rows, fmt).encode("utf-8") == oracle_dumps_report(rows, fmt).encode("utf-8")


def test_empty_rows():
    assert dumps_report([], "json") == oracle_dumps_report([], "json") == "[]\n"
    assert dumps_report([], "csv") == oracle_dumps_report([], "csv") == ""


def test_pca_shaped_row():
    row = {
        "labels": ["a", "r"],
        "loadings": [[0.5, -0.5], []],
        "attributed_shares": {"a": 0.25, "r": None},
        "empty": {},
    }
    assert dumps_report([row, row], "json") == oracle_dumps_report([row, row], "json")

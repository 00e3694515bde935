"""``reports.write_report`` against the payload-dumping writer of
``tests/report_reference.py``, byte for byte.

The cells mix every kind a report holds: floats with NaN, infinities and
-0.0, ints beyond 2**63, booleans, None, and strings with quotes, commas,
newlines and non-ASCII characters; rows and columns may be empty and the
metadata nested.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sublinexp.reports import csv_from_json, write_report

import report_reference

TEXT = st.text(st.sampled_from('ab,"\n\r \\/\t\x00\x7fé€😀'), max_size=6) | st.text(max_size=4)
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 0.1, 1e16, 5e-324]),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**70) | st.integers(max_value=-(2**63) + 2, min_value=-(2**70)),
    st.booleans(),
    st.none(),
    TEXT,
)
META = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)


def _write_both(writer, columns, rows, meta):
    with tempfile.TemporaryDirectory() as tmp:
        writer(Path(tmp) / "out", "r", columns, rows, meta)
        return [(Path(tmp) / "out" / f"r.{ext}").read_bytes() for ext in ("csv", "json")]


@settings(max_examples=300, deadline=None)
@given(
    columns=st.lists(TEXT, max_size=4),
    rows=st.lists(st.lists(CELLS, max_size=4), max_size=4),
    meta=st.none() | st.dictionaries(TEXT, META, max_size=4),
)
def test_writer_bytes_equal_the_reference(columns, rows, meta):
    got = _write_both(write_report, columns, rows, meta)
    assert got == _write_both(report_reference.write_report, columns, rows, meta)


@settings(max_examples=100, deadline=None)
@given(
    columns=st.lists(TEXT, min_size=1, max_size=3),
    rows=st.lists(st.lists(CELLS, min_size=1, max_size=3), max_size=3),
)
def test_mirror_regenerates_the_csv(columns, rows):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, json_path = write_report(tmp, "r", columns, rows)
        assert csv_from_json(json_path).encode("utf-8") == Path(csv_path).read_bytes()

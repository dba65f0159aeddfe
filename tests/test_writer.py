"""The row writer keeps the csv and json modules' bytes.

``qpr.cli._write_rows`` builds CSV lines by str.join and JSON through the C
encoder; ``oracles.write_rows`` is the same output as two library calls.
Both must give the same text for any flat rows under two or more columns,
as every subcommand has: floats at the edges of double range, big ints,
None, bools, and text that needs quoting or escaping; with no rows at all;
and in a file as on stdout.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qpr.cli import SWEEP_COLUMNS, VERIFY_COLUMNS, WITNESS_COLUMNS, _write_rows, main

EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324,
               1e16, 1e-7, 1e-5, 1e15, 1.7976931348623157e308, 0.1, -2.5]
TEXT = st.text(st.one_of(st.sampled_from(',"\r\n;: \t\'\\é€\U0001f600\x00'),
                         st.characters(blacklist_categories=("Cs",))), max_size=12)
CELLS = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(),
    st.integers(), st.integers(-10**40, 10**40), st.sampled_from([0, -1, 2**63, -2**64]),
    st.none(), st.booleans(), TEXT)
COLUMNS = st.one_of(st.sampled_from([VERIFY_COLUMNS, WITNESS_COLUMNS, SWEEP_COLUMNS]),
                    st.lists(TEXT, min_size=2, max_size=6, unique=True))


@st.composite
def tables(draw):
    """Columns, and rows that may miss a column or carry an extra key."""
    columns = draw(COLUMNS)
    keys = st.sampled_from(columns + ["extra"])
    rows = draw(st.lists(st.dictionaries(keys, CELLS), max_size=5))
    return columns, rows


def _stdout(columns, rows, fmt) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_rows(columns, rows, fmt, None)
    return out.getvalue()


def _file(columns, rows, fmt) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows")
        _write_rows(columns, rows, fmt, path)
        with open(path, "rb") as fh:
            return fh.read()


class TestWriterKeepsLibraryBytes:
    @settings(max_examples=300, deadline=None)
    @given(tables(), st.sampled_from(["csv", "json"]))
    @example((VERIFY_COLUMNS, []), "csv")
    @example((VERIFY_COLUMNS, []), "json")
    @example((["a", "b"], [{"a": None}, {"a": "", "b": ""}, {}]), "csv")
    @example((["a", "b"], [{"a": "x,y", "b": 'say "hi"'}, {"a": "1\r2", "b": "3\n4"}]), "csv")
    @example((["a", "b"], [{"a": True, "b": False}, {"a": 1, "b": 0}]), "json")
    def test_same_text(self, table, fmt):
        columns, rows = table
        assert _stdout(columns, rows, fmt) == oracles.write_rows(columns, rows, fmt)

    @settings(max_examples=60, deadline=None)
    @given(tables(), st.sampled_from(["csv", "json"]))
    @example((WITNESS_COLUMNS, []), "csv")
    @example((WITNESS_COLUMNS, []), "json")
    def test_file_bytes_equal_stdout_bytes(self, table, fmt):
        columns, rows = table
        assert _file(columns, rows, fmt) == _stdout(columns, rows, fmt).encode("utf-8")

    def test_cli_output_file_equals_stdout(self, tmp_path):
        base = ["verify", "--case", "4", "--q", "0.8", "--z=0.8+0.9j", "--tau=-1",
                "--theta", "1/3", "--n", "60..120", "--n-step", "20"]
        for fmt in ("csv", "json"):
            path = tmp_path / f"rows.{fmt}"
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(base + ["--format", fmt])
            assert main(base + ["--format", fmt, "--output", str(path)]) == code
            assert path.read_bytes() == out.getvalue().encode("utf-8")
            assert out.getvalue().count("\n") > 3

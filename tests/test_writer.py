"""The row writer keeps the csv and json modules' bytes.

``qpr.cli._write_rows`` builds CSV lines by str.join and JSON through the C
encoder; ``oracles.write_rows`` is the same output as two library calls.
Both must give the same text for any rows under two or more columns, as
every subcommand has, each row holding its cells in column order: floats at
the edges of double range, big ints, None, bools, and text that needs
quoting or escaping; values past the last column, which are no cell; with
no rows at all; and in a file as on stdout.  ``qpr.cli._witness_text``
formats a witness scan's lines directly, and must give the text of the same
oracle for the scan's rows.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qpr.cli import SWEEP_COLUMNS, VERIFY_COLUMNS, WITNESS_COLUMNS, _beta_value, \
    _witness_text, _write_rows, main
from qpr.diophantine import DiophantineWitness, joint_witness_search, witness_search
from qpr.reals import parse_real

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
    """Columns, and rows of one cell per column in column order, which may
    carry further values after the last column (as a verify row carries
    its witness) that are no cell."""
    columns = draw(COLUMNS)
    width = len(columns)
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width + 2).map(tuple),
                         max_size=5))
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
    @example((["a", "b"], [(None, None), ("", ""), (None, None, "not a cell")]), "csv")
    @example((["a", "b"], [("x,y", 'say "hi"'), ("1\r2", "3\n4")]), "csv")
    @example((["a", "b"], [(True, False), (1, 0, None)]), "json")
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


# Witness rows: ints, the None of a single search's m1, and finite floats,
# with beta and rho the same on every row of a scan.
RESIDUALS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 1e-16]),
                      st.floats(-0.5, 0.5))
BETAS = st.one_of(st.sampled_from([float(Fraction(1, 3)), float(Fraction(2, 7)), 0.0, 5e-324]),
                  st.floats(0.0, 1.0, exclude_max=True))
RHOS = st.one_of(st.sampled_from([1.0, 0.5, 0.4, -400.0, 0.0, -0.0, 1e300]),
                 st.floats(allow_nan=False, allow_infinity=False))
DEGREES = st.one_of(st.integers(1, 10**6), st.integers(1, 10**18))
INTS = st.one_of(st.integers(-3, 3), st.integers(-10**18, 10**18))


@st.composite
def witness_lists(draw):
    """Records as witness_search (m1 None) or joint_witness_search builds
    them: one beta and rho per scan, any degrees and residuals."""
    beta, rho = draw(BETAS), draw(RHOS)
    cells = st.tuples(DEGREES, INTS, RESIDUALS)
    if draw(st.booleans()):
        return [DiophantineWitness(n, m, None, beta, r, rho)
                for n, m, r in draw(st.lists(cells, max_size=6))]
    beta2 = draw(BETAS)
    return [DiophantineWitness(n, m, m1, beta, r, rho, True, beta2, r2)
            for (n, m, r), m1, r2 in draw(st.lists(st.tuples(cells, INTS, RESIDUALS),
                                                   max_size=6))]


def _witness_oracle(wits, fmt) -> str:
    return oracles.write_rows(WITNESS_COLUMNS, [oracles.witness_row(w) for w in wits], fmt)


class TestWitnessLinesKeepLibraryBytes:
    @settings(max_examples=300, deadline=None)
    @given(witness_lists(), st.sampled_from(["csv", "json"]))
    @example([], "csv")
    @example([], "json")
    @example([DiophantineWitness(10**18, -10**18, 0, float(Fraction(1, 3)), -0.0, 0.5,
                                 True, 0.0, 5e-324)], "json")
    def test_same_text(self, wits, fmt):
        assert _witness_text(wits, fmt) == _witness_oracle(wits, fmt)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["sqrt2", "golden", "-sqrt3", "2/7"]),
           st.sampled_from([None, "sqrt3", "1/1000", "-5/3"]),
           st.sampled_from(["0", "1/3", "0.25"]), st.sampled_from(["1", "0.5", "-400"]),
           st.integers(1, 600), st.sampled_from(["csv", "json"]))
    @example("sqrt2", "1/1000", "0", "-400", 600, "csv")  # m1 = 0 up to n = 499
    @example("sqrt2", None, "1/3", "1", 1, "json")
    def test_scan_through_the_cli(self, theta, theta2, beta, rho, nmax, fmt):
        """A scan's stdout is the oracle's text of the scan's records, and
        --output writes the same bytes."""
        th = parse_real(theta)
        if theta2 is None:
            wits = witness_search(th, _beta_value(beta), float(rho), nmax)
        else:
            wits = joint_witness_search(th, parse_real(theta2), _beta_value(beta), Fraction(0),
                                        float(rho), nmax)
        argv = ["witness", f"--theta={theta}", "--beta", beta, f"--rho={rho}",
                "--nmax", str(nmax), "--format", fmt]
        argv += [f"--theta2={theta2}"] if theta2 else []
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        text = out.getvalue()
        assert code == (0 if wits else 3)
        assert text == _witness_oracle(wits, fmt)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows")
            assert main(argv + ["--output", path]) == code
            with open(path, "rb") as fh:
                assert fh.read() == text.encode("utf-8")

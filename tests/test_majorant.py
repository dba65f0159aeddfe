"""Majorant: one record per row's error majorant.

Its double is checked bit for bit against the expression each regime used
to write inline (tests/oracles.stated_bound), and its log form against
log(bound) where the double is finite and positive.
"""

import math

import pytest

import qpr.asymptotics as asy
from qpr.qlaguerre import ScalingParameter
from qpr.qseries import QContext
from qpr.reals import parse_real

import oracles

# (q, z, tau, theta, run_verify keywords): every case, rows whose bound is
# inf (z = 1e-200 in case 2, n^rho underflowing at rho = -400 in cases 3
# and 5), and the log-space rows of case 1 at z = 1e-200
RUNS = [
    (0.5, 1.0, "1", "0", {"n_values": range(1, 31)}),
    (0.7, 3.0, "1/2", "0", {"n_values": range(1, 41)}),
    (0.5, 1e-200, "1", "0", {"n_values": range(5, 11)}),
    (0.5, 1.0, "0", "1/3", {"n_values": range(1, 61)}),
    (0.9, 0.3, "0", "1/4", {"n_values": range(1, 41)}),
    (0.5, 1e-200, "0", "1/3", {"n_values": range(5, 9)}),
    (0.5, 2.0, "0", "sqrt2", {"rho": 1.0, "n_max": 20000}),
    (0.5, 2.0, "0", "sqrt2", {"rho": -400.0, "n_max": 10}),
    (0.5, 1.0, "-1", "1/3", {"n_values": range(1, 301)}),
    (0.7, 2.0, "-1/2", "1/4", {"n_values": range(1, 101)}),
    (0.7, 1.0, "-1", "sqrt2", {"rho": 0.75, "n_max": 20000}),
    (0.5, 2.0, "-1", "sqrt2", {"rho": -400.0, "n_max": 10}),
    (0.7, 1.0, "-sqrt2", "1/3", {"rho": 0.75, "n_max": 20000}),
    (0.7, 1.0, "-sqrt2", "sqrt3", {"rho": 0.6, "n_max": 20000}),
]


def _rows():
    """(ctx, sp, majorant, report) of every row of RUNS, the majorant as
    the evaluator handed it to certify_row."""
    seen = []
    real = asy.certify_row

    def spy(case_id, n, exact, main, majorant, conds, **kw):
        r = real(case_id, n, exact, main, majorant, conds, **kw)
        seen.append((majorant, r))
        return r

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asy, "certify_row", spy)
        for q, z, tau, theta, kw in RUNS:
            ctx = QContext(q, 0.0, z)
            sp = ScalingParameter(parse_real(tau), parse_real(theta))
            reports = asy.run_verify(ctx, sp, **kw)
            assert [r for _, r in seen] == reports
            out.extend((ctx, sp, m, r) for m, r in seen)
            seen.clear()
    return out


@pytest.fixture(scope="module")
def rows():
    return _rows()


def test_every_case_and_edge_is_covered(rows):
    assert {r.case_id for *_, r in rows} == set(range(1, 8))
    assert any(math.isinf(r.bound) for *_, r in rows if r.case_id == 2)
    assert any(math.isinf(r.bound) for *_, r in rows if r.case_id in (3, 5))
    assert any("log space" in r.notes for *_, r in rows if r.case_id == 1)


def test_bound_is_the_stated_expression_bit_for_bit(rows):
    for ctx, sp, m, r in rows:
        want, want_log = oracles.stated_bound(ctx, sp, r)
        assert m.bound.hex() == want.hex() == r.bound.hex(), (r.case_id, r.n)
        if r.case_id == 1:
            assert m.log.hex() == want_log.hex(), r.n


def test_log_form_agrees_with_log_of_bound(rows):
    checked = set()
    for _, _, m, r in rows:
        bound = m.bound
        if not (math.isfinite(bound) and bound > 0.0):
            continue
        if m.log_prefactor is None:
            m = m._replace(log_prefactor=math.log(m.prefactor))
        want = math.log(bound)
        assert abs(m.log - want) <= 1e-12 * max(1.0, abs(want)), (r.case_id, r.n)
        checked.add(r.case_id)
    assert checked == set(range(1, 8))


"""Saturated tau = 0 rows reuse their reversed sum, byte for byte.

Once a tau = 0 row's degree n and every index n - k its reversed sum reads
are past the Pochhammer tables' saturation point, the sum depends on n only
through d_n = {n theta}, so qpr.qlaguerre.normalized_laguerre_lp reads it
from a per-context memo (_saturated_reversed) that keeps the value and its
last index K.  These tests hold every row to the direct sum kept in
oracles.normalized_laguerre_direct, bit for bit, at the degrees where the
memo's side condition n - K >= top flips; check that a row reads the memo
exactly where that condition holds; check which rows may create memo
entries (only saturated tau = 0 rows of an exact rational theta); and show
that an entry not certified within MAX_TERMS leaves its rows on the direct
path.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

import qpr.qlaguerre as ql
from qpr.diophantine import FIXTURES, RealValue
from qpr.qlaguerre import ScalingParameter, _saturated_reversed, normalized_laguerre_lp
from qpr.qseries import QContext

import oracles


def rational(x) -> RealValue:
    return RealValue.from_rational(F(x))


def assert_same_bits(ctx: QContext, sp: ScalingParameter, n: int) -> None:
    got = normalized_laguerre_lp(ctx, sp, n)
    want = oracles.normalized_laguerre_direct(ctx, sp, n)
    assert (got.log_mag.hex(), got.phase.hex()) == (want.log_mag.hex(), want.phase.hex()), n


@pytest.fixture
def sums(monkeypatch) -> list:
    """Records every certified_terms call made by qpr.qlaguerre."""
    calls = []
    real = ql.certified_terms
    monkeypatch.setattr(ql, "certified_terms",
                        lambda *a, **kw: calls.append(kw.get("stop")) or real(*a, **kw))
    return calls


class TestReuseIsBitIdentical:
    # z off the axis gives general phases; z = 2 at theta = 0 gives a
    # quarter-turn phase step
    @pytest.mark.parametrize("z", [0.9 + 0.3j, 2.0], ids=["general", "real"])
    @pytest.mark.parametrize("theta", [F(0), F(1, 3), F(3, 7)], ids=str)
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.97])
    def test_threshold_degrees_match_direct_path(self, q, alpha, theta, z, sums):
        ctx = QContext(q, alpha, z)
        sp = ScalingParameter(rational(0), rational(theta))
        top = max(ctx.tq.sat, ctx.ta.sat)
        den = theta.denominator
        last = {}
        for r in range(den):
            entry = _saturated_reversed(ctx, sp.theta.mul_floor_frac(r)[1])
            assert entry is not None
            last[r] = entry[1]
        # every n with n - K - top in {-1, 0, 1}, K being the last index of
        # n's own residue, and the last row of each residue below the
        # threshold with the first at or past it
        degrees = {n for n in range(top, top + max(last.values()) + 2)
                   if n - last[n % den] - top in (-1, 0, 1)}
        for r, k in last.items():
            first = top + k + (r - top - k) % den
            degrees.update((first - den, first))
        degrees = sorted(n for n in degrees if n >= 1)
        reused = 0
        for n in degrees + [10 ** 6, 10 ** 6 + 1, 10 ** 12 + 1]:
            before = len(sums)
            assert_same_bits(ctx, sp, n)
            memo = n >= top and n - last[n % den] >= top
            # a memo row sums nothing; every other row sums once, to n
            assert sums[before:] == ([] if memo else [n]), n
            reused += memo
        assert 0 < reused < len(degrees) + 3

    def test_entry_longer_than_max_terms_less_top(self, sums):
        # at |z| = 1e-65 and q = 0.99 the terms peak near k = 7 450, so an
        # entry ends past MAX_TERMS - top: its indices n - k stay saturated
        # only because it is summed at a degree of MAX_TERMS + top
        ctx = QContext(0.99, 0.0, 1e-65)
        sp = ScalingParameter(rational(0), rational(F(1, 3)))
        top = max(ctx.tq.sat, ctx.ta.sat)
        k = _saturated_reversed(ctx, sp.theta.mul_floor_frac(1)[1])[1]
        assert k > ql.MAX_TERMS - top
        n = top + k + (1 - top - k) % 3
        for degree, memo in ((n - 3, False), (n, True), (n + 3, True)):
            before = len(sums)
            assert_same_bits(ctx, sp, degree)
            assert sums[before:] == ([] if memo else [degree])


class TestGating:
    CTX = QContext(0.9, 0.5, 0.9 + 0.3j)

    def test_case1_irrational_and_unsaturated_rows_create_no_entries(self):
        top = max(self.CTX.tq.sat, self.CTX.ta.sat)
        _saturated_reversed.cache_clear()
        for tau in (F(1, 4), F(1, 2), F(1)):
            sp = ScalingParameter(rational(tau), rational(F(1, 3)))
            for n in (1, top, top + 500, 10 ** 6):
                normalized_laguerre_lp(self.CTX, sp, n)
        # {n theta} of a surd, or of a float declared rational, need not recur
        for theta in (FIXTURES["sqrt2"], RealValue.from_float(0.25, assumed_rational=True)):
            sp = ScalingParameter(rational(0), theta)
            for n in (top, top + 500, 10 ** 6):
                assert_same_bits(self.CTX, sp, n)
        sp = ScalingParameter(rational(0), rational(F(1, 3)))
        for n in range(top):
            normalized_laguerre_lp(self.CTX, sp, n)
        info = _saturated_reversed.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        # the first saturated degree makes the first entry
        normalized_laguerre_lp(self.CTX, sp, top)
        assert _saturated_reversed.cache_info().currsize == 1

    def test_entry_certified_past_max_terms_leaves_rows_on_the_direct_path(self, sums):
        # at |z| = 1e-300 and q = 0.97 the terms peak near k = 11 340, so no
        # entry is certified within MAX_TERMS; the rows, saturated from
        # n = 1092, sum to n as before
        ctx = QContext(0.97, 0.0, 1e-300)
        sp = ScalingParameter(rational(0), rational(F(1, 3)))
        assert max(ctx.tq.sat, ctx.ta.sat) < 2000
        for n in (2000, 2001, 2003):
            assert _saturated_reversed(ctx, sp.theta.mul_floor_frac(n)[1]) is None
            before = len(sums)
            assert_same_bits(ctx, sp, n)
            assert sums[before:] == [n]

    def test_residue_class_sums_once(self, sums):
        # rows of one residue of n theta, near 10^4 and near 10^12: only the
        # first row sums, and it sums the memo's entry
        ctx = QContext(0.95, 0.5, 0.8 - 0.4j)
        sp = ScalingParameter(rational(0), rational(F(2, 5)))
        _saturated_reversed.cache_clear()
        counts = []
        for n in [10 ** 4 + 5 * j for j in range(4)] + [10 ** 12 + 5 * j for j in range(4)]:
            before = len(sums)
            normalized_laguerre_lp(ctx, sp, n)
            counts.append(sums[before:])
        assert counts == [[None]] + [[]] * 7

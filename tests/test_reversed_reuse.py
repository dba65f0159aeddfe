"""Saturated tau = 0 rows reuse their reversed sum, byte for byte.

Once a tau = 0 row's degree n and every index n - k its reversed sum reads
are past the Pochhammer tables' saturation point, the sum depends on n only
through d_n = {n theta}.  qpr.qlaguerre.normalized_laguerre_lp keeps one
slot per context and residue in the store _saturated: the first row whose
own sum ends at a K with n - K >= top fills it with (value, K), and later
rows with n - K >= top read it.  These tests hold every row to the direct
sum kept in oracles.normalized_laguerre_direct, bit for bit, at the degrees
where that condition flips; check that a row reads the store exactly where
a filled slot serves it and sums once otherwise; check which rows may make
slots (only saturated tau = 0 rows of an exact rational theta); and show
that a sum longer than MAX_TERMS fills its slot from the first row that
reaches it.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

import qpr.qlaguerre as ql
from qpr.diophantine import FIXTURES, RealValue
from qpr.numerics import MAX_TERMS
from qpr.qlaguerre import ScalingParameter, _saturated, normalized_laguerre_lp
from qpr.qseries import QContext

import oracles


def rational(x) -> RealValue:
    return RealValue.from_rational(F(x))


def assert_same_bits(ctx: QContext, sp: ScalingParameter, n: int) -> None:
    got = normalized_laguerre_lp(ctx, sp, n)
    want = oracles.normalized_laguerre_direct(ctx, sp, n)
    assert (got.log_mag.hex(), got.phase.hex()) == (want.log_mag.hex(), want.phase.hex()), n


def slot(ctx: QContext, sp: ScalingParameter, n: int) -> list:
    return _saturated(ctx, sp.theta.mul_floor_frac(n)[1])


def saturated_k(ctx: QContext, sp: ScalingParameter, n: int) -> int:
    """The last index K of the saturated sum of n's residue, read from the
    slot a row 10^6 periods on fills; the store is left empty."""
    far = n + sp.theta.fraction.denominator * 10 ** 6
    normalized_laguerre_lp(ctx, sp, far)
    k = slot(ctx, sp, far)[1]
    _saturated.cache_clear()
    return k


@pytest.fixture
def sums(monkeypatch) -> list:
    """Records the stop of every certified_terms call made by qpr.qlaguerre."""
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
        last = {r: saturated_k(ctx, sp, r) for r in range(den)}
        # every n with n - K - top in {-1, 0, 1}, K being the last index of
        # n's own residue, and the last row of each residue below the
        # threshold with the first at or past it
        degrees = {n for n in range(top, top + max(last.values()) + 2)
                   if n - last[n % den] - top in (-1, 0, 1)}
        for r, k in last.items():
            first = top + k + (r - top - k) % den
            degrees.update((first - den, first))
        degrees = sorted(n for n in degrees if n >= 1)
        filled, reused = set(), 0
        for n in degrees + [10 ** 6, 10 ** 6 + 1, 10 ** 12 + 1]:
            before = len(sums)
            assert_same_bits(ctx, sp, n)
            r = n % den
            saturated = n >= top and n - last[r] >= top
            # a row that a filled slot serves sums nothing; every other row
            # sums once, to n, and the first saturated one fills the slot
            assert sums[before:] == ([] if saturated and r in filled else [n]), n
            reused += saturated and r in filled
            if saturated:
                filled.add(r)
            if n >= top:
                assert bool(slot(ctx, sp, n)) == (r in filled), n
        assert 0 < reused < len(degrees) + 3

    def test_slot_filled_by_a_sum_longer_than_max_terms_less_top(self, sums):
        # at |z| = 1e-65 and q = 0.99 the terms peak near k = 7 450, so the
        # saturated sum ends past MAX_TERMS - top: the first row with
        # n >= top + K fills its slot, and later rows read it
        ctx = QContext(0.99, 0.0, 1e-65)
        sp = ScalingParameter(rational(0), rational(F(1, 3)))
        top = max(ctx.tq.sat, ctx.ta.sat)
        k = saturated_k(ctx, sp, 1)
        assert k > MAX_TERMS - top
        n = top + k + (1 - top - k) % 3
        for degree, filled, summed in ((n - 3, False, True), (n, True, True),
                                       (n + 3, True, False)):
            before = len(sums)
            assert_same_bits(ctx, sp, degree)
            assert sums[before:] == ([degree] if summed else [])
            assert bool(slot(ctx, sp, degree)) == filled


class TestGating:
    CTX = QContext(0.9, 0.5, 0.9 + 0.3j)

    def test_case1_irrational_and_unsaturated_rows_make_no_slots(self):
        top = max(self.CTX.tq.sat, self.CTX.ta.sat)
        _saturated.cache_clear()
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
        info = _saturated.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        # the first saturated degree makes the first slot, which its sum,
        # ending short of n - top, leaves empty; a row past top + K fills it
        normalized_laguerre_lp(self.CTX, sp, top)
        assert _saturated.cache_info().currsize == 1
        assert slot(self.CTX, sp, top) == []
        normalized_laguerre_lp(self.CTX, sp, top + 3 * 10 ** 4)
        assert _saturated.cache_info().currsize == 1
        assert len(slot(self.CTX, sp, top)) == 2

    def test_sum_longer_than_max_terms_fills_its_slot_past_top_plus_k(self, sums):
        # at |z| = 1e-300 and q = 0.97 the terms peak near k = 11 340, so the
        # saturated sum ends at K = 11 408 > MAX_TERMS; the rows saturated
        # from n = 1092 sum to n and leave the slot empty, and the first row
        # with n >= top + K fills it
        ctx = QContext(0.97, 0.0, 1e-300)
        sp = ScalingParameter(rational(0), rational(F(1, 3)))
        assert max(ctx.tq.sat, ctx.ta.sat) < 2000
        _saturated.cache_clear()
        for n in (2000, 2001, 2003):
            before = len(sums)
            assert_same_bits(ctx, sp, n)
            assert sums[before:] == [n]
            assert slot(ctx, sp, n) == []
        for n, summed in ((20000, True), (20003, False), (20006, False)):
            before = len(sums)
            assert_same_bits(ctx, sp, n)
            assert sums[before:] == ([n] if summed else [])
        assert slot(ctx, sp, 20000)[1] == 11408 > MAX_TERMS

    def test_residue_class_sums_once(self, sums):
        # rows of one residue of n theta, near 10^4 and near 10^12: only the
        # first row sums, and it fills the slot the others read
        ctx = QContext(0.95, 0.5, 0.8 - 0.4j)
        sp = ScalingParameter(rational(0), rational(F(2, 5)))
        _saturated.cache_clear()
        counts = []
        for n in [10 ** 4 + 5 * j for j in range(4)] + [10 ** 12 + 5 * j for j in range(4)]:
            before = len(sums)
            normalized_laguerre_lp(ctx, sp, n)
            counts.append(sums[before:])
        assert counts == [[10 ** 4]] + [[]] * 7

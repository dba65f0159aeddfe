import cmath
import math
from fractions import Fraction as F

import pytest

import qpr.qlaguerre as ql
from qpr.numerics import DomainError, RangeGuardError
from qpr.qlaguerre import (
    ScalingParameter,
    _log_factor_e,
    _log_factor_f,
    laguerre_direct,
    normalized_laguerre_lp,
    split_sums,
)
from qpr.qseries import QContext, poch_table, pochhammer
from qpr.reals import FIXTURES, RealValue, chi

import oracles
from oracles import QI, factor_e, factor_f, half_sum, laguerre_scaled_lp, normalized_laguerre, \
    normalizer_lp, scale_point_lp, split_normalizer_lp


def sp_rat(tau, theta) -> ScalingParameter:
    return ScalingParameter(RealValue.from_rational(F(tau)),
                            RealValue.from_rational(F(theta)))


def close(a, b, rel=1e-12, abs_tol=1e-14):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


CTX = QContext(0.5, 0.0, 1.0)


class TestScalingParameter:
    def test_s_reconstruction(self):
        sp = sp_rat(F(-3, 4), F(2, 5))
        s = oracles.s_complex(sp, 0.5)
        assert s.real == -0.75 + 2.0
        assert s.imag == 2 * 0.4 * math.pi / math.log(0.5)

    def test_declarations_flow_through(self):
        sp = ScalingParameter(FIXTURES["sqrt2"].neg(),
                              RealValue.from_rational(0))
        assert sp.tau.declared_rational() is False
        assert sp.theta.declared_rational() is True


class TestScalePoint:
    def test_degree_zero(self):
        assert scale_point_lp(CTX, sp_rat(1, 0), 0).to_complex() == 1 + 0j

    def test_real_power(self):
        # q=1/2, z=1, s=2: x_3 = q^(-6) = 64
        got = scale_point_lp(CTX, sp_rat(0, 0), 3).to_complex()
        assert close(got, 64.0)

    def test_quarter_phase(self):
        # s = 2 + i*2*(1/4)*pi/log q: x_1 = q^(-2) e^(-pi i/2) = -4i
        got = scale_point_lp(CTX, sp_rat(0, F(1, 4)), 1).to_complex()
        want = oracles.scale_point(1, F(1, 2), 1, F(0), F(1, 4)).to_complex()
        assert close(got, want)
        assert close(got, -4j)

    def test_matches_oracle_grid(self):
        for n in (1, 2, 5, 9):
            for theta in (F(0), F(1, 2), F(3, 4)):
                got = scale_point_lp(CTX, sp_rat(-1, theta), n).to_complex()
                want = oracles.scale_point(n, F(1, 2), 1, F(-1), theta).to_complex()
                assert close(got, want)


class TestLaguerreDirect:
    def test_degree_zero_is_one(self):
        for x in (0, 1.5, -2 + 1j):
            assert laguerre_direct(CTX, 0, x) == 1

    def test_degree_one_exact(self):
        # 1 - q x/(1-q) at q=1/2: root at x=1, value -1 at x=2
        assert abs(laguerre_direct(CTX, 1, 1.0)) < 1e-15
        assert close(laguerre_direct(CTX, 1, 2.0), -1.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_oracle_polynomial(self, n):
        for x in (F(1, 3), F(-7, 2), F(5)):
            want = oracles.laguerre_direct(n, 0, F(1, 2), QI(x)).to_complex()
            got = laguerre_direct(CTX, n, complex(float(x)))
            assert close(got, want, rel=1e-12)

    def test_leading_coefficient_nonzero(self):
        # difference of values at large arguments grows like the degree
        for n in range(1, 5):
            lead = F(1, 2) ** (n * n) * (-1) ** n / oracles.poch(F(1, 2), F(1, 2), n)
            assert lead != 0

    def test_alpha_one_oracle(self):
        ctx = QContext(0.5, 1.0, 1.0)
        want = oracles.laguerre_direct(3, 1, F(1, 2), QI(F(3, 2))).to_complex()
        got = laguerre_direct(ctx, 3, 1.5)
        assert close(got, want)

    def test_range_guard_fires(self):
        with pytest.raises(RangeGuardError):
            laguerre_direct(CTX, 50, 1e30)

    def test_value_at_zero_is_the_constant_term(self):
        # (q^(a+1);q)_n / (q;q)_n = (1 - q^(n+1)) / (1 - q) at alpha = 1
        want = oracles.laguerre_direct(3, 1, F(1, 2), QI(0)).to_complex()
        assert want == 15 / 8 and close(laguerre_direct(QContext(0.5, 1.0, 1.0), 3, 0), want)

    def test_rejects_negative_degree(self):
        with pytest.raises(DomainError, match="nonnegative"):
            laguerre_direct(CTX, -1, 1.0)


class TestNormalized:
    def test_degree_zero(self):
        assert normalized_laguerre(CTX, sp_rat(1, 0), 0) == 1

    def test_frozen_oracle_value(self):
        # exact rational value of the reversed sum at q=1/2, tau=1, n=3
        got = normalized_laguerre(CTX, sp_rat(1, 0), 3)
        assert close(got, 2.7593665350051153)

    def test_case1_bound_at_n3(self):
        # |(q;q)_3 * normalized - 1| <= B_q(q^2/|z|) q^(1-a) q^(tau n)/((1-q)|z|)
        got = normalized_laguerre(CTX, sp_rat(1, 0), 3)
        dev = abs(got * math.exp(pochhammer(0.5, 0.5, 3).real * 0 + math.log(0.375)) - 1)
        assert dev <= 0.15757

    @pytest.mark.parametrize("tau,theta", [(F(1), F(0)), (F(0), F(1, 4)),
                                           (F(2), F(1, 3)), (F(1, 2), F(1, 2))])
    def test_cross_path_consistency(self, tau, theta):
        sp = ScalingParameter(RealValue.from_rational(tau), RealValue.from_rational(theta))
        for n in range(0, 13):
            x = scale_point_lp(CTX, sp, n).to_complex()
            direct = laguerre_direct(CTX, n, x)
            want = direct / normalizer_lp(CTX, sp, n).to_complex()
            got = normalized_laguerre(CTX, sp, n)
            assert close(got, want, rel=1e-10)

    def test_refuses_negative_tau(self):
        with pytest.raises(DomainError, match="needs tau >= 0"):
            normalized_laguerre(CTX, sp_rat(-1, 0), 4)

    def test_rejects_negative_degree(self):
        with pytest.raises(DomainError, match="nonnegative"):
            normalized_laguerre_lp(CTX, sp_rat(1, 0), -1)


class TestSplitSums:
    @pytest.mark.parametrize("tau, n, decomposition, message", [
        (-1, 0, None, "n >= 1"),
        (-1, 7, (6, 0.5), "inconsistent"),
        (F(-3, 2), 1, (3, -1.5), "incompatible"),
    ], ids=["degree-zero", "inconsistent", "m-past-2n"])
    def test_guards(self, tau, n, decomposition, message):
        with pytest.raises(DomainError, match=message):
            split_sums(CTX, sp_rat(tau, 0), n, decomposition=decomposition)

    def test_bookkeeping_integer_tau(self):
        res = split_sums(CTX, sp_rat(-1, 0), 7)
        assert res.m == 7 and res.floor_m_half == 3 and res.c_n == 0.0

    def test_bookkeeping_fractional(self):
        res = split_sums(QContext(0.5, 0.0, 1.0), sp_rat(F(-3, 4), 0), 5)
        assert res.m == 3 and math.isclose(res.c_n, 0.75)

    def test_total_is_s1_plus_s2(self):
        for tau, theta, n in [(F(-1), F(0), 6), (F(-1), F(1, 2), 9),
                              (F(-1, 2), F(1, 4), 8), (F(-3, 2), F(0), 7)]:
            sp = ScalingParameter(RealValue.from_rational(tau),
                                  RealValue.from_rational(theta))
            res = split_sums(CTX, sp, n)
            s12 = half_sum(res.terms1).to_complex() + half_sum(res.terms2).to_complex()
            tot = res.total.to_complex()
            assert close(s12, tot, rel=1e-12)

    def test_matches_exact_oracle_identity(self):
        # the two theta-normalized half sums against their exact forms
        for (n, alpha, q, z, tau, theta) in [
            (6, 0, F(1, 2), 1, F(-1), F(0)),
            (9, 0, F(1, 2), 2, F(-1), F(1, 2)),
            (7, 1, F(1, 3), F(3, 2), F(-1), F(1, 4)),
            (8, 0, F(2, 5), 1, F(-1), F(3, 4)),
        ]:
            ctx = QContext(float(q), float(alpha), complex(float(z)))
            sp = ScalingParameter(RealValue.from_rational(tau),
                                  RealValue.from_rational(theta))
            res = split_sums(ctx, sp, n)
            s1t, s2t, m = oracles.theta_half_sums(n, alpha, q, z, tau, theta)
            assert res.m == m
            # library half sums carry (q;q)_inf^2; the oracle cancels it
            e2 = math.exp(2 * poch_table(float(q), float(q)).log_inf)
            assert close(half_sum(res.terms1).to_complex(), e2 * s1t.to_complex(), rel=1e-11)
            assert close(half_sum(res.terms2).to_complex(), e2 * s2t.to_complex(), rel=1e-11)

    def test_reconstructs_normalized_value(self):
        for n in (2, 5, 6, 9, 11):
            sp = sp_rat(-1, F(1, 4))
            res = split_sums(CTX, sp, n)
            norm = res.total.to_complex() / split_normalizer_lp(
                CTX, sp, n, res.m, res.c_n, res.d_n).to_complex()
            want = oracles.reversed_normalized(n, 0, F(1, 2), 1, F(-1), F(1, 4)).to_complex()
            assert close(norm, want, rel=1e-10)

    # tau = -1 puts floor(m/2) and n - floor(m/2) at sat + {-1, 0, 1} for n
    # around 2 sat; tau = -1/2 at n = 4 sat saturates the upper half's
    # indices but not the lower half's; n = 2 sat + 10 saturates both
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("tau, shift", [(-1, -2), (-1, -1), (-1, 0), (-1, 1), (-1, 2),
                                            (-1, 10), (F(-1, 2), None)])
    def test_terms_match_per_term_factors_at_saturation(self, alpha, tau, shift):
        # the half sums read one float for every saturated Pochhammer factor;
        # each term must equal the per-term factor expression bit for bit
        ctx = QContext(0.5, alpha, 0.9 + 0.3j)
        tq, ta = poch_table(0.5, 0.5), poch_table(0.5 ** (alpha + 1.0), 0.5)
        n = 2 * tq.sat + shift if shift is not None else 4 * tq.sat
        res = split_sums(ctx, sp_rat(tau, F(1, 3)), n)
        p, lq = res.floor_m_half, ctx.log_q
        if tau == -1:
            assert abs(p - tq.sat) <= 1 or shift == 10
            assert abs(n - p - tq.sat) <= 1 or shift == 10
        log_w1 = math.log(ctx.abs_z) + (alpha + chi(res.m) + res.c_n) * lq
        args = (tq, ta, 2.0 * poch_table(0.5, 0.5).log_inf, ta.log(n), p, n)
        logs1, logs2 = res.terms1[0], res.terms2[0]
        assert [t.hex() for t in logs1] == [
            (k * k * lq + k * log_w1 + _log_factor_e(*args, k)).hex()
            for k in range(len(logs1))]
        assert [t.hex() for t in logs2] == [
            (k * k * lq - k * log_w1 + _log_factor_f(*args, k)).hex()
            for k in range(1, len(logs2) + 1)]

    def test_domain(self):
        with pytest.raises(DomainError):
            split_sums(CTX, sp_rat(1, 0), 5)
        with pytest.raises(DomainError):
            split_sums(CTX, sp_rat(-2, 0), 5)


class TestOneSumPerRow:
    """A saturated row that its residue's saturated sum cannot serve sums its
    own terms once: no other sum of the residue is made for it."""

    @pytest.fixture
    def sums(self, monkeypatch) -> list:
        # a cold start: every memo of the module empty, whatever its name
        for memo in vars(ql).values():
            getattr(memo, "cache_clear", lambda: None)()
        calls = []
        real = ql.certified_terms
        monkeypatch.setattr(ql, "certified_terms",
                            lambda *a, **kw: calls.append(kw.get("stop")) or real(*a, **kw))
        return calls

    def test_first_saturated_reversed_rows(self, sums):
        # q = 0.5 saturates at top = 53; rows 53-55 have n - K < top
        ctx = QContext(0.5, 0.0, 0.9 + 0.3j)
        assert max(ctx.tq.sat, ctx.ta.sat) == 53
        for n in (53, 54, 55):
            before = len(sums)
            normalized_laguerre_lp(ctx, sp_rat(0, F(1, 3)), n)
            assert sums[before:] == [n], n

    def test_first_saturated_split_row_of_its_residue(self, sums):
        # at tau = -1/2 and degree 4 sat, p = sat: both split indices are
        # saturated, and the lower half overruns its window, which ends at 0
        ctx = QContext(0.9, 0.0, 1.5 + 0.2j)
        n = 4 * ctx.tq.sat
        assert n == 1312 and ctx.ta.sat == ctx.tq.sat
        res = split_sums(ctx, sp_rat(F(-1, 2), F(1, 3)), n)
        assert res.floor_m_half == ctx.tq.sat and len(res.terms1[0]) > 1
        assert sums == [n // 4, n - n // 4]


class TestScaledReconstruction:
    @pytest.mark.parametrize("tau,theta,n", [
        (F(1), F(0), 6), (F(-1), F(1, 4), 8), (F(-1, 2), F(1, 2), 10)])
    def test_matches_direct(self, tau, theta, n):
        sp = ScalingParameter(RealValue.from_rational(tau), RealValue.from_rational(theta))
        via_lp = laguerre_scaled_lp(CTX, sp, n).to_complex()
        direct = laguerre_direct(CTX, n, scale_point_lp(CTX, sp, n).to_complex())
        assert close(via_lp, direct, rel=1e-9)


class TestRandomizedRouteAgreement:
    def test_direct_vs_reconstructed_general_phases(self):
        # seeded sweep over rational tau in (-2,2), theta with denominators
        # up to 12 (general, non-cardinal phases), complex z, mixed alpha
        import random
        rng = random.Random(7)
        trials = 0
        for _ in range(200):
            qv = rng.choice([0.3, 0.5, 0.62, 0.8])
            alpha = rng.choice([0.0, 0.5, 1.0, -0.4])
            z = cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(-3.1, 3.1))
            ctx = QContext(qv, alpha, z)
            tau = F(rng.randrange(-19, 20), rng.randrange(1, 11))
            if tau <= -2 or tau == 0:
                continue
            theta = F(rng.randrange(0, 24), rng.randrange(1, 13))
            sp = ScalingParameter(RealValue.from_rational(tau),
                                  RealValue.from_rational(theta))
            n = rng.randrange(1, 12)
            try:
                direct = laguerre_direct(ctx, n, scale_point_lp(ctx, sp, n).to_complex())
            except RangeGuardError:
                continue
            if abs(direct) < 1e-12:
                continue
            via = laguerre_scaled_lp(ctx, sp, n).to_complex()
            assert abs(via - direct) / abs(direct) < 1e-9
            trials += 1
        assert trials > 100


class TestFactors:
    def test_e_near_one_for_large_indices(self):
        # needs both floor(m/2) - k and n - floor(m/2) + k large
        v = factor_e(CTX, 0, 400, 60)
        assert abs(v - 1.0) < 1e-8

    def test_e_and_f_land_in_unit_interval(self):
        ctx = QContext(0.5, 0.3, 2.0)
        for n, m in [(8, 4), (20, 13), (40, 35)]:
            p = m // 2
            for k in range(0, p + 1):
                assert 0.0 < factor_e(ctx, k, n, m) <= 1.0
            for k in range(1, n - p + 1):
                assert 0.0 < factor_f(ctx, k, n, m) <= 1.0

    def test_f_example_point(self):
        assert 0.0 < factor_f(CTX, 1, 8, 4) <= 1.0

    def test_deviation_bound(self):
        # |e(k,n) - 1| <= 15 (-q^2;q)_inf^3 q^(nu+1) / ((1-q)^4 (q;q)_inf)
        # for k <= nu - 1, with the case-4 cutoff nu
        q = 0.5
        c3 = pochhammer(-q * q, q, None).real ** 3
        e_inf = math.exp(poch_table(q, q).log_inf)
        for tau, n in [(-1.0, 40), (-1.0, 80), (-0.5, 60), (-1.5, 64)]:
            nu = min(math.floor((2 + tau) * n / 8), math.floor(-tau * n / 8))
            if nu < 1:
                continue
            m = math.floor(-tau * n)
            cap = 15 * c3 * q ** (nu + 1) / ((1 - q) ** 4 * e_inf)
            for k in range(0, nu):
                assert abs(factor_e(CTX, k, n, m) - 1.0) <= cap
            for k in range(1, nu):
                assert abs(factor_f(CTX, k, n, m) - 1.0) <= cap

    def test_index_domain(self):
        with pytest.raises(DomainError):
            factor_e(CTX, 5, 10, 4)
        with pytest.raises(DomainError):
            factor_f(CTX, 0, 10, 4)

    def test_split_integer_domain(self):
        with pytest.raises(DomainError, match="0 <= m <= 2n"):
            factor_e(CTX, 0, 2, 6)


class TestPochhammerRatioBounds:
    def test_unit_interval_ratio(self):
        # 0 < (q;q)_inf (q^(a+1);q)_n / ((q;q)_{n-k} (q^(a+1);q)_{n-k}) <= 1
        for alpha in (0.0, 0.5, 2.0):
            ctx = QContext(0.5, alpha, 1.0)
            from qpr.qseries import poch_table
            tq = poch_table(0.5, 0.5)
            ta = poch_table(0.5 ** (alpha + 1), 0.5)
            for n in (3, 10, 25):
                for k in range(0, n + 1):
                    v = math.exp(tq.log_inf + ta.log(n) - tq.log(n - k) - ta.log(n - k))
                    assert 0.0 < v <= 1.0 + 1e-15

    def test_half_range_deviation_bound(self):
        # |ratio - 1| <= 7 (-q^2;q)_inf^2 q^(n/2) / ((1-q)^3 (q;q)_inf)
        from qpr.qseries import poch_table
        q = 0.5
        c2 = pochhammer(-q * q, q, None).real ** 2
        e_inf = math.exp(poch_table(q, q).log_inf)
        for alpha in (0.0, 1.0, -0.5):
            tq = poch_table(q, q)
            ta = poch_table(q ** (alpha + 1), q)
            for n in (4, 9, 16, 33):
                cap = 7 * c2 * q ** (n / 2) / ((1 - q) ** 3 * e_inf)
                for k in range(0, n // 2):
                    v = math.exp(tq.log_inf + ta.log(n) - tq.log(n - k) - ta.log(n - k))
                    assert abs(v - 1.0) <= cap

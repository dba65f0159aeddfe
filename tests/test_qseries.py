import cmath
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import qpr.numerics as numerics
import qpr.qlaguerre as qlaguerre
import qpr.qseries as qseries
from qpr.diophantine import RealValue
from qpr.numerics import ConvergenceError, DomainError
from qpr.qlaguerre import ScalingParameter, normalized_laguerre_lp, split_sums
from qpr.qseries import (
    QContext,
    aq_series_lp,
    b_function,
    poch_table,
    pochhammer,
    ramanujan_a,
    ramanujan_a_deriv,
    remainder_r1,
    remainder_r2,
    theta,
    theta_lp,
    theta_triple_product,
)

import oracles
from oracles import euler_product_series_check, q_binomial


REL = 1e-12


def close(a, b, rel=REL, abs_tol=1e-14):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


# (q, z = (re, im)) at rational q and Gaussian-rational z, for the exact
# partial sums of tests/oracles
GAUSSIAN_POINTS = [
    (F(2, 5), (F(1, 3), F(1, 2))),
    (F(1, 2), (F(-3, 2), F(2))),
    (F(3, 5), (F(7, 10), F(1, 5))),
    (F(9, 10), (F(1, 4), F(-6, 5))),
]


class TestQContext:
    def test_validation(self):
        QContext(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            QContext(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            QContext(0.5, -1.0, 1.0)
        with pytest.raises(DomainError):
            QContext(0.5, 0.0, 0.0)

    @pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(1, float("-inf"))])
    def test_nonfinite_z_rejected(self, z):
        with pytest.raises(DomainError):
            QContext(0.5, 0.0, z)

    def test_alpha_outside_double_range_rejected(self):
        QContext(0.5, 1000.0, 1.0)  # q^(2-alpha) = 2^998 is still a double
        with pytest.raises(DomainError):
            QContext(0.5, 1e6, 1.0)  # q^(2-alpha) overflows
        with pytest.raises(DomainError):
            QContext(1e-10, 31.5, 1.0)  # q^(alpha+1) underflows to zero


    @pytest.mark.parametrize("q, alpha, z", [(0.5, 0.0, 1.0), (0.9, 0.5, 0.8 + 0.9j),
                                             (0.97, -0.5, -2e-3j)])
    def test_cached_values_equal_the_per_call_expressions(self, q, alpha, z):
        ctx = QContext(q, alpha, z)
        for _ in range(2):  # first use computes, the second reads the kept value
            assert ctx.log_q.hex() == math.log(q).hex()
            assert ctx.abs_z.hex() == abs(complex(z)).hex()
            assert ctx.log_zqa.hex() == (math.log(abs(complex(z)))
                                         + alpha * math.log(q)).hex()
            assert ctx.tq is qseries.poch_table(q, q)
            assert ctx.ta is qseries.poch_table(q ** (alpha + 1.0), q)

    def test_equal_contexts_compare_and_hash_equal(self):
        used, fresh = QContext(0.7, 0.5, 1 + 1j), QContext(0.7, 0.5, 1 + 1j)
        _ = used.log_zqa, used.tq, used.ta
        assert used == fresh and hash(used) == hash(fresh)
        assert {used: 1}[fresh] == 1
        assert used != QContext(0.7, 0.5, 1 - 1j)

    def test_tables_are_built_on_first_use(self):
        # q this close to 1 cannot saturate a table; constructing the context
        # must not fail on it, so argument errors are reported first
        ctx = QContext(0.9999, 0.0, 1.0)
        with pytest.raises(ConvergenceError):
            ctx.tq

    def test_magnitude_beyond_double_range_rejected(self):
        with pytest.raises(DomainError, match="z must be finite and nonzero"):
            QContext(0.5, 0.0, 1.5e308 + 1.5e308j)

class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(0.7 + 0.3j, 0.5, 0) == 1

    def test_two_factors_exact(self):
        # (1-1/2)(1-1/4) = 3/8
        assert close(pochhammer(0.5, 0.5, 2).real, 0.375)

    def test_infinite_product_frozen(self):
        # exact 300-factor rational product, converted to float at the end
        assert close(pochhammer(0.5, 0.5, None).real, 0.2887880950866024)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(0.5, 0.5, -1)

    def test_divergent_base_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(0.5, 1.0, None)

    def test_product_beyond_double_range_is_a_range_error(self):
        # inf * inf cross terms would make the product nan + nan j
        with pytest.raises(numerics.RangeGuardError, match="leaves double range"):
            pochhammer(1.5e308 + 1.5e308j, 0.5, 3)

    def test_matches_oracle_at_random_rationals(self):
        for a, q, n in [(F(1, 3), F(1, 2), 5), (F(-2, 3), F(2, 5), 7), (F(7, 4), F(1, 3), 4)]:
            assert close(pochhammer(float(a), float(q), n).real,
                         float(oracles.poch(a, q, n)), rel=1e-13)


class TestQBinomial:
    @pytest.mark.parametrize("n", [0, 1, 5, 20])
    def test_k_zero(self, n):
        assert close(q_binomial(n, 0, 0.37), 1.0)

    def test_4_choose_2_exact(self):
        assert close(q_binomial(4, 2, 0.5), 2.1875)

    def test_symmetry(self):
        for n, k, q in [(7, 2, 0.3), (9, 4, 0.8), (12, 5, 0.55)]:
            assert close(q_binomial(n, k, q), q_binomial(n, n - k, q))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            q_binomial(3, 4, 0.5)

    def test_positive_on_grid(self):
        for n in range(0, 9):
            for k in range(n + 1):
                assert q_binomial(n, k, 0.6) > 0


class TestEulerIdentity:
    def test_z_zero(self):
        lhs, rhs = euler_product_series_check(0, 0.5)
        assert lhs == 1 and rhs == 1

    def test_vanishing_factor(self):
        lhs, rhs = euler_product_series_check(1, 0.5)
        assert abs(lhs) == 0
        assert abs(rhs) < 1e-14

    def test_product_equals_series(self):
        for z, q in [(0.3, 0.5), (0.9 - 0.4j, 0.6), (-2.5 + 1j, 0.35)]:
            lhs, rhs = euler_product_series_check(z, q)
            assert close(lhs, rhs, rel=1e-13)


class TestRamanujanA:
    def test_at_zero(self):
        assert ramanujan_a(0.3, 0) == 1

    def test_frozen_value(self):
        assert close(ramanujan_a(0.5, 1).real, 0.16076378893208873, rel=1e-12)

    def test_sign_identity_with_b(self):
        assert close(ramanujan_a(0.5, -1), b_function(0.5, 1))

    def test_b_frozen_values(self):
        assert close(b_function(0.5, 1).real, 2.1726687508496636)
        assert close(b_function(0.5, 0.25).real, 1.260509866479123)

    def test_oracle_cross_check_complex(self):
        z = F(1, 3) + 0j
        want = oracles.aq_partial(F(2, 5), oracles.QI(F(1, 3), F(1, 2))).to_complex()
        got = ramanujan_a(0.4, complex(1 / 3, 0.5))
        assert close(got, want, rel=1e-12)

    @pytest.mark.parametrize("q, z", GAUSSIAN_POINTS)
    def test_b_oracle_cross_check_complex(self, q, z):
        # B_q enters the majorants of cases 1-3
        want = oracles.bq_partial(q, oracles.QI(*z)).to_complex()
        got = b_function(float(q), complex(*map(float, z)))
        assert close(got, want, rel=1e-12)


class TestTheta:
    def test_frozen_value(self):
        assert close(theta(1, 0.5).real, 2.128936827211877)

    @given(st.complex_numbers(min_magnitude=0.05, max_magnitude=20,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=60)
    @example(2 + 5e-324j)  # subnormal imaginary part: cmath.phase raises here
    def test_reflection(self, z):
        a = theta(z, 0.55)
        b = theta(1 / z, 0.55)
        assert close(a, b, rel=1e-13, abs_tol=1e-13)

    @given(st.floats(min_value=-323.0, max_value=300.0), st.floats(-math.pi, math.pi))
    @settings(max_examples=30)
    @example(math.log10(1.5e-323), 0.0)  # the left tail's ratio bound overflowed here
    @example(-310.0, 0.0)
    def test_log_polar_value_at_extreme_magnitudes(self, log10_r, phi):
        z = cmath.rect(10.0 ** log10_r, phi)
        if z == 0:
            return
        v = theta_lp(z, 0.5)
        assert math.isfinite(v.log_mag) and math.isfinite(v.phase)

    @pytest.mark.parametrize("q, z", GAUSSIAN_POINTS)
    def test_oracle_cross_check_complex(self, q, z):
        # Theta is the main term of cases 4-7
        want = oracles.theta_partial(oracles.QI(*z), q).to_complex()
        got = theta(complex(*map(float, z)), float(q))
        assert close(got, want, rel=1e-12)

    def test_triple_product_reference_point(self):
        z, q = 0.7 + 0.2j, 0.6
        a = theta(z, q)
        b = theta_triple_product(z, q)
        assert close(a, b, rel=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            theta(0, 0.5)

    def test_term_cap_raises(self):
        with pytest.raises(ConvergenceError):
            theta(1.0, 0.999999)


@pytest.mark.parametrize("series", [
    lambda z: aq_series_lp(0.5, z, True),
    lambda z: aq_series_lp(0.5, z, False),
    lambda z: ramanujan_a(0.5, z),
    lambda z: b_function(0.5, z),
    lambda z: theta_lp(z, 0.5),
    lambda z: theta(z, 0.5),
], ids=["aq_series_lp_a", "aq_series_lp_b", "ramanujan_a", "b_function", "theta_lp",
        "theta"])
@pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(1, math.inf)],
                         ids=["nan", "inf", "1+infj"])
def test_non_finite_argument_is_domain_error(series, z):
    # a non-finite argument is rejected at once, not after the term cap
    with pytest.raises(DomainError, match="z must be finite"):
        series(z)


def _bits(w: complex) -> tuple[str, str]:
    return w.real.hex(), w.imag.hex()


class TestPhaseConvention:
    """Phases are taken in (-pi, pi], so the sign of a zero imaginary part
    reaches no value, and every term phase certified_terms returns for the
    series' phase steps lies in that range."""

    @pytest.mark.parametrize("fn, x", [
        (ramanujan_a, 0.7), (ramanujan_a, -1.3), (b_function, 0.7), (b_function, -1.3),
        (lambda q, z: theta(z, q), -0.8), (lambda q, z: theta(z, q), -2.5),
    ], ids=["a-pos", "a-neg", "b-pos", "b-neg", "theta-0.8", "theta-2.5"])
    def test_real_argument_gives_real_value_for_either_zero(self, fn, x):
        # at q = 0.9 the series run to odd k where k*pi is inexact, so a
        # phase of -pi would leave each term off the real axis
        plus, minus = fn(0.9, complex(x, 0.0)), fn(0.9, complex(x, -0.0))
        assert plus.imag == 0.0 and minus.imag == 0.0
        assert _bits(plus) == _bits(minus)

    @pytest.mark.parametrize("z", [0.7, -1.3, complex(0.7, -0.0), complex(-1.3, -0.0),
                                   0.6 - 1.1j, -0.4 + 0.9j])
    def test_term_phases_lie_in_range(self, monkeypatch, z):
        seen = []

        def checked(*args, **kwargs):
            logs, phases = numerics.certified_terms(*args, **kwargs)
            seen.extend(phases)
            return logs, phases

        monkeypatch.setattr(qseries, "certified_terms", checked)
        monkeypatch.setattr(qlaguerre, "certified_terms", checked)
        monkeypatch.setattr(oracles, "certified_terms", checked)
        q = 0.6
        ctx = QContext(q, 0.5, z)
        third = RealValue.from_rational(F(1, 3))
        aq_series_lp(q, z, negate=True)
        aq_series_lp(q, z, negate=False)
        theta_lp(z, q)
        ramanujan_a_deriv(q, z)
        euler_product_series_check(z, q)
        for n in (1, 7, 30):
            normalized_laguerre_lp(ctx, ScalingParameter(RealValue.from_rational(F(1, 2)),
                                                         third), n)
            split_sums(ctx, ScalingParameter(RealValue.from_rational(F(-3, 4)), third), n)
        assert len(seen) > 100
        assert [ph for ph in seen if not -math.pi < ph <= math.pi] == []


class TestLemmaRemainders:
    def test_r1_example_point(self):
        value, bound = remainder_r1(0.5, 2, 0.5)
        # value = (1/8; 1/2)_inf - 1, exact product oracle
        want = oracles.poch_inf_float(F(1, 8), F(1, 2)) - 1.0
        assert close(value, want, rel=1e-12)
        assert abs(value) <= bound

    def test_r1_decays_with_n(self):
        bounds = [remainder_r1(0.5, n, 0.5)[1] for n in range(0, 12)]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
        values = [abs(remainder_r1(0.5, n, 0.5)[0]) for n in (5, 10, 20)]
        assert values[-1] < 1e-5

    def test_r1_contract_on_grid(self):
        for a in (0.1, 0.5, 1.0, 1.5, 3.0):
            for n in (0, 1, 3, 8):
                for q in (0.2, 0.5, 0.8):
                    value, bound = remainder_r1(a, n, q)
                    assert abs(value) <= bound

    def test_r1_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            remainder_r1(0.0, 2, 0.5)

    def test_r2_example_point(self):
        value, bound = remainder_r2(0.5, 2, 0.5)
        want = 1.0 / oracles.poch_inf_float(F(1, 8), F(1, 2)) - 1.0
        assert close(value, want, rel=1e-12)
        assert abs(value) <= bound

    def test_r2_small_a_limit(self):
        value, bound = remainder_r2(1e-12, 3, 0.5)
        assert abs(value) < 1e-11 and bound < 1e-11

    def test_r2_contract(self):
        value, bound = remainder_r2(1.0, 3, 0.5)
        assert abs(value) <= bound

    def test_r2_domain(self):
        with pytest.raises(DomainError):
            remainder_r2(3.0, 1, 0.5)  # a*q > 1
        with pytest.raises(DomainError):
            remainder_r2(1.5, 0, 0.5)  # a*q^0 >= 1


class TestInequalities:
    def test_a_bounded_by_b(self):
        # |A_q(z)| <= B_q(|z|) across q and |z| <= 10
        for iq in range(1, 10):
            q = iq / 10
            for z in (0.3, 2.0, 10.0, -4.0, 3 + 4j, -7 + 2j, 0.1 - 9.9j):
                assert abs(ramanujan_a(q, z)) <= b_function(q, abs(z)).real * (1 + 1e-12)

    def test_derivative_bound_and_finite_difference(self):
        for q, z in [(0.3, 0.7), (0.5, 2 - 1j), (0.7, -3 + 0.5j), (0.2, 9j)]:
            d = ramanujan_a_deriv(q, z)
            cap = q / (1 - q) * b_function(q, abs(z)).real
            assert abs(d) <= cap * (1 + 1e-12)
            h = 1e-6 * max(1.0, abs(z))
            fd = (ramanujan_a(q, z + h) - ramanujan_a(q, z - h)) / (2 * h)
            assert close(d, fd, rel=1e-6, abs_tol=1e-9)

    def test_q_binomial_theorem(self):
        # (az;q)_inf/(z;q)_inf = sum_k (a;q)_k z^k/(q;q)_k for |z| < 1
        for a, z, q in [(0.4, 0.6, 0.5), (-1.2, 0.3 + 0.4j, 0.45),
                        (2.5, -0.7, 0.3), (0.9j, 0.5j, 0.6)]:
            lhs = pochhammer(a * z, q, None) / pochhammer(z, q, None)
            rhs = 0j
            term = 1.0 + 0j
            for k in range(0, 400):
                rhs += term
                term *= (1 - a * q ** k) * z / (1 - q ** (k + 1))
                if abs(term) < 1e-20:
                    break
            assert close(lhs, rhs, rel=1e-12)

    def test_pochhammer_positivity(self):
        for a in (0.0, 0.3, 0.9):
            for n in (1, 4, None):
                v = pochhammer(a, 0.6, n).real
                assert 0 < v <= 1
        for b in (0.0, 0.5, 2.0):
            for n in (1, 4, None):
                assert pochhammer(-b, 0.6, n).real >= 1

    @given(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
    def test_exp_minus_one_inequality(self, w):
        assert abs(cmath.exp(w) - 1) <= abs(w) * math.exp(abs(w)) + 1e-15


class TestExportedGuards:
    # one line per argument guard of an exported q-series function
    @pytest.mark.parametrize("call", [
        lambda: aq_series_lp(1.0, 0.5, True),
        lambda: ramanujan_a_deriv(1.0, 0.5),
        lambda: theta_lp(0.5, 1.0),
        lambda: theta_triple_product(0.5, 1.0),
        lambda: remainder_r1(0.5, 2, 1.0),
        lambda: remainder_r2(0.5, 2, 1.0),
    ], ids=["aq_series_lp", "ramanujan_a_deriv", "theta_lp", "theta_triple_product",
            "remainder_r1", "remainder_r2"])
    def test_q_outside_the_unit_interval_rejected(self, call):
        with pytest.raises(DomainError, match=r"q\|? < 1"):
            call()

    def test_triple_product_rejects_zero(self):
        with pytest.raises(DomainError, match="z = 0"):
            theta_triple_product(0.0, 0.5)

    @pytest.mark.parametrize("remainder", [remainder_r1, remainder_r2])
    def test_remainders_reject_negative_n(self, remainder):
        with pytest.raises(DomainError, match="n >= 0"):
            remainder(0.5, -1, 0.5)

    def test_pochhammer_rejects_a_fractional_order(self):
        with pytest.raises(DomainError, match="integer or infinity"):
            pochhammer(0.3, 0.5, 2.5)

    def test_pochhammer_reads_an_integral_float_order_as_an_integer(self):
        assert pochhammer(0.3, 0.5, 3.0) == pochhammer(0.3, 0.5, 3)

    def test_pochhammer_not_certified_near_q_one(self):
        # the tail bound needs about 5e7 factors at q = 1 - 1e-6
        with pytest.raises(ConvergenceError):
            pochhammer(0.5, 1.0 - 1e-6, None)

    def test_derivative_at_zero_is_minus_q_over_one_minus_q(self):
        assert ramanujan_a_deriv(0.5, 0) == -1.0

    def test_alpha_whose_power_overflows_rejected(self):
        # q^alpha and q^(alpha+1) are subnormal; q^(2-alpha) = 2^1048 raises
        # OverflowError, which reads as out of range
        with pytest.raises(DomainError, match="outside double range"):
            QContext(0.5, 1050, 1)

    @pytest.mark.parametrize("call", [
        lambda: aq_series_lp(-0.5, 1.0, True),
        lambda: ramanujan_a_deriv(0.0, 1.0),
    ], ids=["aq_series_lp", "ramanujan_a_deriv"])
    def test_q_at_or_below_zero_rejected_by_the_log_table(self, call):
        with pytest.raises(DomainError, match="log table requires 0 < q < 1"):
            call()

    def test_log_table_rejects_a_at_or_above_one(self):
        with pytest.raises(DomainError, match="log table requires a < 1"):
            poch_table(1.0, 0.5)

    def test_log_table_rejects_a_negative_index(self):
        with pytest.raises(DomainError, match="index must be nonnegative"):
            QContext(0.5, 0.0, 1.0).tq.log(-1)

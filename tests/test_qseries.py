import bisect
import cmath
import math
import re
from fractions import Fraction as F
from itertools import pairwise
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qpr.numerics as numerics
import qpr.qlaguerre as qlaguerre
import qpr.qseries as qseries
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
from qpr.reals import FIXTURES, RealValue

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
        assert used != QContext(0.7, 0.5, 1 - 1j) and used != (0.7, 0.5, 1 + 1j)

    def test_tables_are_built_on_first_use(self):
        # q this close to 1 cannot saturate a table; constructing the context
        # must not fail on it, so argument errors are reported first
        ctx = QContext(0.9999, 0.0, 1.0)
        with pytest.raises(ConvergenceError):
            ctx.tq

    def test_magnitude_beyond_double_range_rejected(self):
        with pytest.raises(DomainError, match="z must be finite and nonzero"):
            QContext(0.5, 0.0, 1.5e308 + 1.5e308j)

class TestTableSaturation:
    """A table stops at the first factor that leaves its sum unchanged, so its
    last entry is the first that equals the converged value; every read gives
    the bits of the untrimmed table, oracles.poch_table_untrimmed, whose
    factors run to a*q^k <= 1e-18."""

    # a = q^(alpha+1) for alpha in {0, 0.5, 2}, and two negative a
    @pytest.mark.parametrize("a_of_q", [lambda q: q ** 1.0, lambda q: q ** 1.5,
                                        lambda q: q ** 3.0, lambda q: -q * q,
                                        lambda q: -q ** 1.5],
                             ids=["q", "q^1.5", "q^3", "-q^2", "-q^1.5"])
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.95, 0.97, 0.99])
    def test_reads_match_untrimmed_table(self, q, a_of_q):
        a = a_of_q(q)
        table = qseries._PochTable(a, q)
        full = oracles.poch_table_untrimmed(a, q)
        top = len(full) - 1
        assert table.sat == full.index(full[-1])
        assert table.logs[table.sat - 1] != table.logs[table.sat]
        assert [x.hex() for x in table.logs] == [x.hex() for x in full[:table.sat + 1]]
        for k in range(top + 11):
            want = full[min(k, top)].hex()
            assert table.log(k).hex() == want, k
            assert table.logs[min(k, table.sat)].hex() == want, k
        assert table.log_inf.hex() == full[-1].hex()

    @pytest.mark.parametrize("a_of_q", [lambda q: q, lambda q: q ** 1.5, lambda q: -q * q],
                             ids=["q", "q^1.5", "-q^2"])
    def test_stops_where_a_factor_leaves_the_sum(self, a_of_q):
        # at q = 0.9965 and a = q the factors reach 1e-18 only after the cap,
        # but the sum stops moving before it: the table builds, its entries
        # those of the factor-by-factor loop run past the cap
        q = 0.9965
        a = a_of_q(q)
        table = qseries._PochTable(a, q)
        full = oracles.poch_table_untrimmed(a, q, max_terms=2 * numerics.MAX_TERMS)
        assert table.sat == full.index(full[-1]) <= numerics.MAX_TERMS
        assert [x.hex() for x in table.logs] == [x.hex() for x in full[:table.sat + 1]]
        if a == q:
            with pytest.raises(ConvergenceError):
                oracles.poch_table_untrimmed(a, q)

    def test_unsaturated_table_raises_as_before(self):
        with pytest.raises(ConvergenceError) as want:
            oracles.poch_table_untrimmed(0.997, 0.997)
        with pytest.raises(ConvergenceError) as got:
            qseries._PochTable(0.997, 0.997)
        assert str(got.value) == str(want.value)
        assert "did not saturate within 10000 factors" in str(got.value)


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


def _outcome(f, *args) -> tuple:
    """Both parts of f(*args) by float.hex (signed zeros included), or the
    type and message of the exception it raises."""
    try:
        v = f(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return v.real.hex(), v.imag.hex()


class TestPochhammerAgainstLoop:
    """pochhammer drives its factors by C iterators and finds the infinite
    product's stop by bisection; oracles.pochhammer_loop is the loop it
    replaced, factor by factor, with the tail test at every factor."""

    A = [0.5, -0.9801, 0.999, 0.3 - 0.7j, -0.25 + 0.5j, complex(-0.0, 1.2), 0.0,
         complex(0.0, -0.0), 2.0, 1.5e308 + 1.5e308j]
    Q = [0.5, 0.9, 0.99, 0.997, -0.7, 0.0, -0.0]
    ORDERS = [0, 1, 7, numerics.MAX_TERMS, None, math.inf]

    @pytest.mark.parametrize("q", Q)
    @pytest.mark.parametrize("a", A)
    def test_same_bits_and_errors(self, a, q):
        for n in self.ORDERS:
            assert _outcome(pochhammer, a, q, n) == \
                _outcome(oracles.pochhammer_loop, a, q, n), n

    def test_grid_reaches_every_outcome(self):
        kinds = {o[0] if isinstance(o[0], type) else "value"
                 for a in self.A for q in self.Q for n in self.ORDERS
                 for o in [_outcome(oracles.pochhammer_loop, a, q, n)]}
        assert kinds == {"value", ConvergenceError, numerics.RangeGuardError}
        assert _outcome(pochhammer, 2.0, 0.5, 7) == ("-0x0.0p+0", "0x0.0p+0")

    @pytest.mark.parametrize("a, q", [(0.5, 0.5), (0.3 - 0.7j, 0.95), (-0.9801, -0.9),
                                      (0.5 + 0.5j, 0.99)])
    def test_infinite_stop_at_the_cap(self, a, q, monkeypatch):
        # k, the infinite product's factor count, is the least cap the loop
        # certifies within: a cap of k stops at exactly MAX_TERMS factors,
        # and a cap of k - 1 needs MAX_TERMS + 1
        def certified(cap: int) -> bool:
            return not isinstance(_outcome(oracles.pochhammer_loop, a, q, None, cap)[0], type)

        k = bisect.bisect_left(range(numerics.MAX_TERMS + 1), True, key=certified)
        assert 1 < k <= numerics.MAX_TERMS
        for cap in (k, k - 1):
            monkeypatch.setattr(qseries, "MAX_TERMS", cap)
            assert _outcome(pochhammer, a, q, None) == \
                _outcome(oracles.pochhammer_loop, a, q, None, cap)
        assert _outcome(pochhammer, a, q, None)[0] is ConvergenceError

    @pytest.mark.parametrize("a, q", [(0.5, 0.5), (2.0, 0.5), (-0.5, -0.5), (0.0, 0.9),
                                      (0.3 - 0.7j, 0.5), (complex(-0.0, 1.2), -0.25),
                                      (1e40, 1e-30), (1e-17, 1.0), (1e-17, -1.0),
                                      (0.0, 3.0)])
    def test_finite_order_past_the_cap(self, a, q, monkeypatch):
        # factors are exactly 1 from some k on (at k = 0 for the last three):
        # past the cap the product ends two factors after, with the bits of
        # all n factors; at a = 1e40, q = 1e-30 the product's zero imaginary
        # part is -0.0 at k and 0.0 after one more factor 1 + 0j
        monkeypatch.setattr(qseries, "MAX_TERMS", 2000)
        for n in (2001, 5000):
            assert _outcome(pochhammer, a, q, n) == _outcome(oracles.pochhammer_loop, a, q, n)

    @pytest.mark.parametrize("a, q", [(0.5, 0.999), (0.5, -0.999), (1e-20, 2.0), (0.5, 1.0)])
    def test_finite_order_past_the_cap_not_exactly_one(self, a, q):
        n = numerics.MAX_TERMS + 1
        with pytest.raises(ConvergenceError) as exc:
            pochhammer(a, q, n)
        assert str(exc.value) == (f"(a;q)_n with |a|={abs(a):.3g}, q={q}, n={n}: its "
                                  f"factors are not all exactly 1 within {numerics.MAX_TERMS}")


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
    reaches no value, and every (cos, sin) pair a sum reads is that of its
    phase wrap_phase(k phi) in that range: the pairs step_phases forms for
    every sum, those qlaguerre takes from a recurring step's shared list or
    forms per sum, and the whole shared lists."""

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
    def test_term_pairs_are_those_of_phases_in_range(self, monkeypatch, z):
        runs = []  # (phase step, first k, pairs) of every run of terms read

        def checked(phase_step, start, stop):
            out = numerics.step_phases(phase_step, start, stop)
            runs.append((phase_step, start, out))
            return out

        def pairs(step, start, count, shared):
            out = real_pairs(step, start, count, shared)
            runs.append((step, start, out))
            if shared:
                runs.append((step, 0, qlaguerre._step_pairs(step)[0]))
            return out

        real_pairs = qlaguerre._pairs
        monkeypatch.setattr(qseries, "step_phases", checked)
        monkeypatch.setattr(qlaguerre, "step_phases", checked)
        monkeypatch.setattr(qlaguerre, "_pairs", pairs)
        monkeypatch.setattr(oracles, "step_phases", checked)
        qlaguerre._step_pairs.cache_clear()
        q = 0.6
        ctx = QContext(q, 0.5, z)
        aq_series_lp(q, z, negate=True)
        aq_series_lp(q, z, negate=False)
        theta_lp(z, q)
        ramanujan_a_deriv(q, z)
        euler_product_series_check(z, q)
        for theta in (RealValue.from_rational(F(1, 3)), FIXTURES["sqrt2"]):
            for n in (1, 7, 30, 200):
                for tau in (F(1, 2), F(0)):
                    normalized_laguerre_lp(ctx, ScalingParameter(RealValue.from_rational(tau),
                                                                 theta), n)
                split_sums(ctx, ScalingParameter(RealValue.from_rational(F(-3, 4)), theta), n)
        assert sum(len(p) for _, _, p in runs) > 300
        for step, start, got in runs:
            phases = [oracles.step_phase(step, k) for k in range(start, start + len(got))]
            assert all(-math.pi < ph <= math.pi for ph in phases)
            assert [(c.hex(), s.hex()) for c, s in got] == \
                [(c.hex(), s.hex()) for c, s in map(oracles.cis, phases)]


class TestRatioBoundContract:
    """certified_terms locates a sum's ratio bound once, by bisection, which is
    sound only for a bound that is non-increasing in k.  Every in-tree call is
    driven here and its bound walked over the sum's whole index range."""

    def test_every_in_tree_ratio_bound_is_non_increasing(self, monkeypatch):
        sites = {}

        def recording(term_log, ratio_bound, **kwargs):
            sites.setdefault(ratio_bound.__code__, []).append((ratio_bound, kwargs))
            return numerics.certified_terms(term_log, ratio_bound, **kwargs)

        monkeypatch.setattr(qseries, "certified_terms", recording)
        monkeypatch.setattr(qlaguerre, "certified_terms", recording)
        qlaguerre._saturated.cache_clear()
        third = RealValue.from_rational(F(1, 3))
        for q, alpha, z in [(0.3, 0.0, 0.7), (0.6, 0.5, 0.6 - 1.1j), (0.95, 1.5, -40 + 3j)]:
            ctx = QContext(q, alpha, z)
            aq_series_lp(q, z, negate=True)
            aq_series_lp(q, z, negate=False)
            theta_lp(z, q)
            ramanujan_a_deriv(q, z)
            for n in (1, 30, 200):
                normalized_laguerre_lp(ctx, ScalingParameter(RealValue.from_rational(F(1, 2)),
                                                             third), n)
                # a saturated tau = 0 row sums to 10^6 + n at most and fills
                # its slot in qlaguerre._saturated, through the same call site
                normalized_laguerre_lp(ctx, ScalingParameter(RealValue.from_rational(F(0)),
                                                             third), 10 ** 6 + n)
                split_sums(ctx, ScalingParameter(RealValue.from_rational(F(-3, 4)), third), n)
        # a call site this test does not drive fails here until it is added
        source = "".join(path.read_text() for path in Path(qseries.__file__).parent.glob("*.py"))
        assert len(sites) == len(re.findall(r"(?<!def )\bcertified_terms\(", source)) == 6
        for recorded in sites.values():
            for ratio_bound, kwargs in recorded:
                start, stop = kwargs.get("start", 0), kwargs.get("stop")
                last = start + numerics.MAX_TERMS if stop is None else stop
                bounds = map(ratio_bound, range(start, last + 1))
                assert all(b <= a for a, b in pairwise(bounds))


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
    def test_q_at_or_below_zero_rejected_by_the_series(self, call):
        # the series check 0 < q < 1 themselves, before any log table is built
        with pytest.raises(DomainError, match=r"series needs 0 < q < 1, got q=-?0\."):
            call()

    def test_log_table_rejects_q_outside_the_unit_interval(self):
        # the series check q first, so only a direct call reaches this guard
        with pytest.raises(DomainError, match="log table requires 0 < q < 1"):
            poch_table(0.5, -0.5)

    def test_log_table_rejects_a_at_or_above_one(self):
        with pytest.raises(DomainError, match="log table requires a < 1"):
            poch_table(1.0, 0.5)

    def test_log_table_rejects_a_negative_index(self):
        with pytest.raises(DomainError, match="index must be nonnegative"):
            QContext(0.5, 0.0, 1.0).tq.log(-1)

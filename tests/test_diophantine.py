import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import convergents, orbit

from qpr.diophantine import (
    FIXTURES,
    DiophantineWitness,
    RealValue,
    as_real_value,
    chi,
    decompose,
    default_rho,
    floor_frac,
    joint_witness_search,
    parse_real,
    witness_search,
)
from qpr.numerics import DomainError


class TestFloorFrac:
    @pytest.mark.parametrize("x,f,r", [
        (2.25, 2, 0.25),
        (-1.25, -2, 0.75),
        (3.0, 3, 0.0),
        (-0.0, 0, 0.0),
    ])
    def test_examples(self, x, f, r):
        got_f, got_r = floor_frac(x)
        assert got_f == f and math.isclose(got_r, r, abs_tol=1e-15)

    @given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
    def test_reconstruction(self, x):
        f, r = floor_frac(x)
        assert 0.0 <= r < 1.0
        # 1 ulp at the scale of max(1, |x|): the frac may round at tiny |x|
        assert abs((f + r) - x) <= max(1e-15, abs(x) * 1e-15)


class TestChi:
    def test_even(self):
        assert chi(4) == 0

    def test_odd(self):
        assert chi(7) == 1

    @given(st.integers(min_value=-10**9, max_value=10**9))
    def test_identity_with_half_fraction(self, n):
        assert chi(n) == n - 2 * math.floor(n / 2) or abs(n) > 2 ** 52
        assert chi(n) in (0, 1)
        assert chi(n) == (2 * F(n, 2)) % 2


class TestRealValue:
    def test_surd_fractional_parts_match_float_at_small_n(self):
        s2 = FIXTURES["sqrt2"]
        for n in (1, 7, 100, 12345):
            f, r = s2.mul_floor_frac(n)
            assert f == math.floor(n * math.sqrt(2))
            assert abs(r - (n * math.sqrt(2) - f)) < 1e-9

    def test_surd_large_n_precision(self):
        # {n*sqrt(2)} at a convergent denominator: residual ~ 1/(2 sqrt(2) n)
        s2 = FIXTURES["sqrt2"]
        n = 470832
        f, r = s2.mul_floor_frac(n)
        resid = min(r, 1.0 - r)
        assert abs(resid - 1.0 / ((math.sqrt(2) * n + f) )) < 1e-12

    def test_golden_ratio_descriptor(self):
        g = FIXTURES["golden"]
        assert math.isclose(g.value, (1 + math.sqrt(5)) / 2, rel_tol=1e-15)
        f, r = g.mul_floor_frac(10)
        assert f == 16 and math.isclose(r, 10 * (1 + math.sqrt(5)) / 2 - 16, abs_tol=1e-12)

    def test_perfect_square_folds_to_rational(self):
        v = RealValue.from_surd(1, 2, 3, 4)  # (1 + 2*sqrt(4))/3 = 5/3
        assert v.kind == "rational" and v.fraction == F(5, 3)

    def test_neg_roundtrip(self):
        s3 = FIXTURES["sqrt3"]
        assert math.isclose(s3.neg().value, -math.sqrt(3), rel_tol=1e-15)
        n, r = s3.neg().mul_floor_frac(5)
        assert n + r == pytest.approx(-5 * math.sqrt(3), abs=1e-12)

    def test_float_requires_declaration(self):
        v = RealValue.from_float(0.123)
        with pytest.raises(DomainError):
            v.declared_rational()

    def test_parse_tokens(self):
        assert parse_real("-3/4").fraction == F(-3, 4)
        assert parse_real("2").fraction == 2
        assert parse_real("sqrt2").kind == "surd"
        assert parse_real("-sqrt2").value == pytest.approx(-math.sqrt(2))
        assert parse_real("0.25", assume="rational").fraction == F(1, 4)
        assert parse_real("0.25", assume="irrational").assumed_rational is False
        with pytest.raises(DomainError):
            parse_real("twelve")

    def test_surd_with_negative_denominator_is_normalized(self):
        assert RealValue.from_surd(1, 1, -2, 5).surd == (-1, -1, 2, 5)

    @pytest.mark.parametrize("c, d, message", [(0, 2, "denominator"), (1, -2, "radicand")])
    def test_surd_guards(self, c, d, message):
        with pytest.raises(DomainError, match=message):
            RealValue.from_surd(0, 1, c, d)

    def test_float_zero_test(self):
        assert [RealValue.from_float(x, True).is_zero() for x in (0.0, -0.0, 0.5)] == \
            [True, True, False]

    def test_surd_fraction_below_one_at_a_pell_degree(self):
        # x^2 - 2 n^2 = 1 with x > 2^55: n sqrt2 = x - 1/(2x) - ..., whose
        # fractional part rounds to 1.0 and is returned as the double below it
        x, n = 3, 2
        while x <= 2 ** 55:
            x, n = 3 * x + 4 * n, 2 * x + 3 * n
        assert FIXTURES["sqrt2"].mul_floor_frac(n) == (x - 1, math.nextafter(1.0, 0.0))


class TestAsRealValue:
    def test_integral_float_is_an_exact_integer(self):
        assert as_real_value(2.0) == RealValue.from_rational(2)

    @pytest.mark.parametrize("x, message", [(0.5, "undeclared rationality"),
                                            ("x", "cannot interpret")])
    def test_refused(self, x, message):
        with pytest.raises(DomainError, match=message):
            as_real_value(x)


def _fraction_mul_floor_frac(x: F, n: int) -> tuple[int, float]:
    y = n * x
    f = y.numerator // y.denominator
    return f, float(y - f)


def _fraction_decompose(x: F, n: int, beta: F) -> tuple[int, float]:
    y = n * x
    fl = y.numerator // y.denominator
    d = y - fl - beta
    shift = math.floor(d + F(1, 2))
    return fl + shift, float(d - shift)


_RNG = random.Random(20261018)
_ANGLES = [F(_RNG.randrange(-10 ** 6, 10 ** 6), _RNG.randrange(1, 10 ** 6)) for _ in range(40)]
_ANGLES += [F(5, 13), F(-3, 4), F(1, 2), F(0), F(2 ** 70 + 1, 3 ** 40)]
_DEGREES = [0, 1, -1, 10 ** 40, -10 ** 40]
_DEGREES += [_RNG.randrange(-10 ** 40, 10 ** 40) for _ in range(40)]
_DEGREES += [_RNG.randrange(-10 ** 6, 10 ** 6) for _ in range(20)]
_BETAS = [F(0), F(2, 7), F(1, 2), F(999_999, 10 ** 6)]
_BETAS += [F(_RNG.randrange(0, 10 ** 5), 10 ** 5 + 3) for _ in range(5)]


class TestIntegerReduction:
    """The exact reductions run in integer arithmetic; each returns the same
    integer and the same double (bit for bit) as the Fraction expression of
    the value it reduces, since both round the same rational correctly."""

    @staticmethod
    def _same(got, want):
        assert got[0] == want[0] and got[1].hex() == want[1].hex()

    def test_rational_mul_floor_frac(self):
        for x in _ANGLES:
            v = RealValue.from_rational(x)
            for n in _DEGREES:
                self._same(v.mul_floor_frac(n), _fraction_mul_floor_frac(x, n))

    def test_surd_at_degree_zero(self):
        for surd in [(3, 1, 7, 2), (-5, 2, 3, 5)]:
            v = RealValue.from_surd(*surd)
            self._same(v.mul_floor_frac(0), (0, 0.0))

    def test_rational_value_is_its_double(self):
        for x in _ANGLES:
            assert RealValue.from_rational(x).value.hex() == float(x).hex()

    def test_exact_decompose(self):
        for x in _ANGLES:
            v = RealValue.from_rational(x)
            for beta in _BETAS:
                for n in _DEGREES:
                    self._same(decompose(v, n, float(beta), beta),
                               _fraction_decompose(x, n, beta))

    @pytest.mark.parametrize("x, beta, n", [
        (F(1, 2), F(0), 1),            # n x - beta = 1/2
        (F(1, 2), F(0), -1),           # -1/2
        (F(3, 10), F(1, 10), 7),       # 2, an integer
        (F(3, 4), F(1, 4), 10 ** 40 + 1),      # an integer + 1/2
        (F(3, 4), F(1, 4), -(10 ** 40) - 1),   # an integer + 1/2
    ])
    def test_ties_round_half_up(self, x, beta, n):
        got = decompose(RealValue.from_rational(x), n, float(beta), beta)
        self._same(got, _fraction_decompose(x, n, beta))
        assert -0.5 <= got[1] < 0.5
        assert F(n) * x - beta == got[0] + F(got[1])


class TestOrbit:
    def test_one_third_cycle(self):
        got = [r for _, r in orbit(F(1, 3), 6)]
        assert got == pytest.approx([1 / 3, 2 / 3, 0.0, 1 / 3, 2 / 3, 0.0])

    def test_zero_angle(self):
        assert all(r == 0.0 for _, r in orbit(0, 10))

    def test_rational_orbit_size(self):
        distinct = {r for _, r in orbit(F(3, 7), 100)}
        assert len(distinct) == 7
        assert distinct == {k / 7 for k in range(7)}

    def test_sqrt2_density(self):
        vals = sorted({r for _, r in orbit(FIXTURES["sqrt2"], 10_000)})
        gaps = [b - a for a, b in zip(vals, vals[1:])]
        assert max(gaps) < 1e-3


class TestConvergents:
    def test_sqrt2_prefix(self):
        got = convergents(FIXTURES["sqrt2"], 5)
        assert got == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]

    def test_golden_is_fibonacci(self):
        got = convergents(FIXTURES["golden"], 8)
        fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        want = [(fib[i + 1], fib[i]) for i in range(8)]
        assert got == want

    def test_rational_terminates_exactly(self):
        got = convergents(F(3, 7), 10)
        assert got[-1] == (3, 7)
        assert len(got) == 3

    def test_quality_bound_for_fixtures(self):
        for name, fx in FIXTURES.items():
            th = fx.value
            for p, q in convergents(fx, 8):
                assert abs(th - p / q) < 1.0 / q ** 2, (name, p, q)

    def test_float_path_tracks_value(self):
        got = convergents(math.e, 6)
        for p, q in got:
            assert abs(math.e - p / q) < 1.0 / q ** 2

    @pytest.mark.parametrize("name", ["sqrt2", "sqrt3", "golden"])
    def test_quality_bound_for_negated_fixtures(self, name):
        neg = FIXTURES[name].neg()
        got = convergents(neg, 10)
        assert len(got) == 10 and got[0][0] < 0
        for p, q in got:
            assert abs(neg.value - p / q) < 1.0 / q ** 2, (name, p, q)


class TestWitnessSearch:
    def test_sqrt2_includes_convergent_row(self):
        wits = witness_search(FIXTURES["sqrt2"], 0.0, 1.0, 100)
        by_n = {w.n: w for w in wits}
        assert 12 in by_n
        w = by_n[12]
        assert w.m == 17
        assert abs(abs(w.residual) - 0.029437) < 1e-5
        assert abs(w.residual) <= 1.0 / 12

    def test_all_convergent_denominators_appear(self):
        s2 = FIXTURES["sqrt2"]
        wits = {w.n for w in witness_search(s2, 0.0, 1.0, 100)}
        for _, q in convergents(s2, 6):
            if q <= 100:
                assert q in wits

    def test_inhomogeneous_target_nonempty(self):
        wits = witness_search(FIXTURES["sqrt2"], 0.3, 1.0, 100_000)
        assert wits
        for w in wits:
            assert abs(w.residual) < w.n ** -1.0

    def test_rational_progression_zero_residual(self):
        wits = witness_search(F(1, 3), F(1, 3), 9.0, 30)
        assert [w.n for w in wits] == [1, 4, 7, 10, 13, 16, 19, 22, 25, 28]
        assert all(w.residual == 0.0 for w in wits)

    def test_witness_identity(self):
        th = FIXTURES["sqrt3"]
        for w in witness_search(th, 0.25, 0.8, 5000):
            assert abs(w.n * math.sqrt(3) - w.m - 0.25 - w.residual) < 1e-9

    def test_threshold_filters_beyond_trivial_n1(self):
        # n = 1 always passes (threshold 1^-rho = 1); nothing else can at rho = 9
        wits = witness_search(F(1, 3), 0.1, 9.0, 50)
        assert [w.n for w in wits] == [1]


class TestJointSearch:
    def test_sqrt2_sqrt3_dirichlet_regime(self):
        wits = joint_witness_search(FIXTURES["sqrt2"], FIXTURES["sqrt3"],
                                    0.0, 0.0, 0.4, 10_000)
        assert wits
        for w in wits:
            thr = w.n ** -0.4
            assert abs(w.residual) < thr and abs(w.residual2) < thr

    def test_degenerates_to_single_search(self):
        s2 = FIXTURES["sqrt2"]
        single = witness_search(s2, 0.0, 1.0, 500)
        joint = joint_witness_search(s2, s2, 0.0, 0.0, 1.0, 500)
        assert [w.n for w in joint] == [w.n for w in single]

    def test_rho_zero_accepts_every_n(self):
        wits = joint_witness_search(FIXTURES["sqrt2"], FIXTURES["sqrt3"],
                                    0.0, 0.0, 0.0, 40)
        assert [w.n for w in wits] == list(range(1, 41))


class TestZeroResidual:
    """A residual of exactly 0 passes |0| < n^-rho at every finite rho, also
    from n = 7 on at rho = 400, where n^-400 underflows to 0."""

    @pytest.mark.parametrize("theta, beta", [
        (F(1, 4), F(1, 4)), (F(1, 4), 0.25),
        (RealValue.from_float(0.25, assumed_rational=False), 0.25)])
    def test_single(self, theta, beta):
        # n = 1 passes by 1^-400 = 1, every n = 1 mod 4 by its zero residual
        wits = witness_search(theta, beta, 400.0, 40)
        assert [w.n for w in wits] == list(range(1, 41, 4))
        assert all(w.residual == 0.0 for w in wits)
        assert _key(wits) == _key(oracles.linear_witness_search(theta, beta, 400.0, 40))

    def test_float_kind_zero_residual_is_untrusted(self):
        th = RealValue.from_float(0.5, assumed_rational=False)
        wits = witness_search(th, 0.0, 400.0, 12)
        assert [w.n for w in wits] == [1, 2, 4, 6, 8, 10, 12]
        assert [w.trusted for w in wits] == [True] + [False] * 6

    @pytest.mark.parametrize("theta2", [
        F(1, 4), RealValue.from_float(0.25, assumed_rational=True)])
    def test_joint(self, theta2):
        # n = 1 passes by 1^-400 = 1 on both angles; then n = 0 mod 4
        wits = joint_witness_search(F(1, 2), theta2, 0, 0, 400.0, 24)
        assert [w.n for w in wits] == [1, 4, 8, 12, 16, 20, 24]
        want = oracles.linear_joint_witness_search(F(1, 2), theta2, 0, 0, 400.0, 24)
        assert _key(wits) == _key(want)


class TestFixtures:
    def test_names_parse_to_the_table(self):
        for name, fixture in FIXTURES.items():
            assert parse_real(name) is fixture
            assert parse_real(name.upper()) is fixture
            assert parse_real(f"-{name}") == fixture.neg()
        assert parse_real("phi") is FIXTURES["golden"]
        assert parse_real("-phi") == FIXTURES["golden"].neg()

    def test_same_token_same_object(self):
        assert parse_real("sqrt2") is parse_real("sqrt2")

    def test_double_minus_is_not_a_name(self):
        with pytest.raises(DomainError):
            parse_real("--sqrt2")

    def test_liouville_truncation_decimal(self):
        x = FIXTURES["liouville"].fraction
        assert x == F(110001000000000000000001, 10 ** 24)
        assert f"{float(x):.24f}".startswith("0.110001")

    def test_default_rho(self):
        s2 = FIXTURES["sqrt2"]
        assert default_rho(s2, 0.0) == 1.0
        assert default_rho(s2, 0.3) == 0.5
        assert default_rho(s2, 0.0, joint=True) == 0.4


class TestTrust:
    def test_exact_kinds_always_trusted(self):
        wits = witness_search(FIXTURES["sqrt2"], 0.0, 1.0, 10_000)
        assert all(w.trusted for w in wits)

    def test_float_kind_flags_tiny_residuals(self):
        # a float "irrational" that is secretly rational produces residuals
        # at representation-noise scale, which must not be trusted
        th = RealValue.from_float(0.5, assumed_rational=False)
        wits = witness_search(th, 0.0, 2.0, 50)
        assert any(not w.trusted for w in wits)


# Angles for the enumeration property: the fixtures, a negated surd, surds
# with c > 1 and a large radicand, and rationals (scanned linearly).
ANGLES = [
    FIXTURES["sqrt2"],
    FIXTURES["sqrt3"],
    FIXTURES["golden"],
    FIXTURES["sqrt2"].neg(),
    RealValue.from_surd(1, 3, 7, 5),
    RealValue.from_surd(-2, 1, 3, 7),
    RealValue.from_surd(0, 1, 1, 1_000_001),
    RealValue.from_rational(F(3, 7)),
    RealValue.from_rational(F(355, 113)),
]
BETAS = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(0, 98), st.just(99)),
    st.floats(0.0, 1.0, exclude_max=True),
)
RHOS = st.one_of(st.sampled_from([0.0, 0.05, 0.4, 0.5, 1.0, 9.0]),
                 st.floats(0.05, 2.0))
N_MAX = st.one_of(
    st.integers(1, 10_000),
    st.builds(lambda k, d: 2 ** k + d, st.integers(1, 13), st.integers(0, 1)),
)


def _key(wits):
    return [(w.n, w.m, w.m1, w.residual, w.residual2, w.target_beta,
             w.target_beta2, w.rho, w.trusted) for w in wits]


class TestGapStepping:
    """Three-gap stepping returns exactly what a scan of every degree does."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ANGLES), BETAS, RHOS, N_MAX)
    @example(ANGLES[0], 0.3, 0.5, 8192)
    @example(ANGLES[0], 0.3, 0.5, 8193)
    @example(ANGLES[2], F(0), 1.0, 4096)
    @example(ANGLES[3], F(1, 3), 9.0, 10_000)
    def test_single_equals_linear_scan(self, theta, beta, rho, n_max):
        got = witness_search(theta, beta, rho, n_max)
        assert _key(got) == _key(oracles.linear_witness_search(theta, beta, rho, n_max))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(ANGLES), st.sampled_from(ANGLES), BETAS, BETAS, RHOS, N_MAX)
    @example(ANGLES[0], ANGLES[1], F(0), F(0), 0.4, 8193)
    def test_joint_equals_linear_scan(self, theta1, theta2, beta1, beta2, rho, n_max):
        got = joint_witness_search(theta1, theta2, beta1, beta2, rho, n_max)
        want = oracles.linear_joint_witness_search(theta1, theta2, beta1, beta2, rho, n_max)
        assert _key(got) == _key(want)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.sampled_from(ANGLES[-2:]),
                     st.builds(F, st.integers(-50, 50), st.integers(1, 40)),
                     st.builds(lambda x: RealValue.from_float(x, True),
                               st.floats(-3.0, 3.0, allow_nan=False))),
           st.sampled_from(ANGLES[:-2]), BETAS, BETAS, RHOS, N_MAX)
    @example(F(1, 3), ANGLES[0], F(0), F(1, 5), 0.3, 20_000)
    @example(RealValue.from_float(0.25, True), ANGLES[0], 0.0, F(1, 5), 1.0, 20_000)
    def test_joint_on_surd_second_angle_equals_linear_scan(self, theta1, theta2, beta1,
                                                          beta2, rho, n_max):
        # a rational or float theta1 with a surd theta2: enumerated on theta2
        got = joint_witness_search(theta1, theta2, beta1, beta2, rho, n_max)
        want = oracles.linear_joint_witness_search(theta1, theta2, beta1, beta2, rho, n_max)
        assert _key(got) == _key(want)

    def test_joint_cost_follows_surd_hits(self, monkeypatch):
        # theta1 = 1 makes every hit of theta2 a joint witness; theta1 (an
        # exact rational, reduced in Fraction arithmetic) is decomposed only
        # at those hits, and theta2's reductions follow its hits
        import qpr.diophantine as dio
        one = RealValue.from_rational(1)
        calls, on_theta1 = [], []
        orig = RealValue.mul_floor_frac
        monkeypatch.setattr(RealValue, "mul_floor_frac",
                            lambda self, n: calls.append(n) or orig(self, n))
        orig_decompose = dio.decompose
        monkeypatch.setattr(dio, "decompose", lambda th, n, *a: (
            on_theta1.append(n) if th is one else None) or orig_decompose(th, n, *a))
        wits = joint_witness_search(one, FIXTURES["sqrt2"], F(0), 0.3,
                                    0.5, 1_000_000)
        assert len(wits) > 3000
        assert len(calls) < 2 * len(wits)
        assert on_theta1 == [w.n for w in wits]

    def test_surd_cost_follows_hits(self, monkeypatch):
        # reductions of n*theta made by the search, per witness found
        calls = []
        orig = RealValue.mul_floor_frac
        monkeypatch.setattr(RealValue, "mul_floor_frac",
                            lambda self, n: calls.append(n) or orig(self, n))
        wits = witness_search(FIXTURES["sqrt2"], 0.3, 0.5, 1_000_000)
        assert len(wits) > 3000
        assert len(calls) < 2 * len(wits)

    def test_rational_angle_scans_every_degree(self, monkeypatch):
        calls = []
        orig = RealValue.mul_floor_frac
        monkeypatch.setattr(RealValue, "mul_floor_frac",
                            lambda self, n: calls.append(n) or orig(self, n))
        witness_search(F(3, 7), 0.3, 0.5, 500)
        assert calls == list(range(1, 501))

    def test_joint_surd_cost_follows_joint_hits(self, monkeypatch):
        # two surds: theta2's residual is carried along theta1's steps, so
        # n*theta is reduced exactly near joint witnesses, not at every hit
        # of theta1
        calls = []
        orig = RealValue.mul_floor_frac
        monkeypatch.setattr(RealValue, "mul_floor_frac",
                            lambda self, n: calls.append(n) or orig(self, n))
        wits = joint_witness_search(FIXTURES["sqrt2"],
                                    FIXTURES["sqrt3"], 0, 0, 0.4, 10**6)
        assert len(wits) > 100
        assert len(calls) < 4 * len(wits)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_non_finite_rho_rejected(self, rho):
        s2 = FIXTURES["sqrt2"]
        with pytest.raises(DomainError):
            witness_search(s2, 0.5, rho, 10)
        with pytest.raises(DomainError):
            joint_witness_search(s2, s2, 0.5, 0.5, rho, 10)


# Long scans: many carry steps and exact re-reductions lie before the last
# degrees, where the linear scan of a window checks every degree.
LATE_WINDOW = 4000


class TestLateWindows:
    """Scans to about 10^6 degrees equal the linear scan of their last
    4000 degrees."""

    @pytest.mark.parametrize("name", ["sqrt2", "sqrt3", "golden"])
    @pytest.mark.parametrize("beta, rho", [(F(2, 7), 0.5), (0.3, 0.5), (F(1, 3), 0.6)])
    def test_single(self, name, beta, rho):
        theta, n_max = FIXTURES[name], 1_000_003
        lo = n_max - LATE_WINDOW
        want = oracles.linear_witness_search(theta, beta, rho, n_max, lo=lo)
        assert want
        got = [w for w in witness_search(theta, beta, rho, n_max) if w.n >= lo]
        assert _key(got) == _key(want)

    # n_max near 10^6 such that the window holds a joint witness
    @pytest.mark.parametrize("names, betas, rho, n_max", [
        (("sqrt2", "sqrt3"), (F(1, 4), F(3, 5)), 0.4, 1_000_000),
        (("sqrt2", "sqrt3"), (F(0), F(0)), 0.5, 981_000),
        (("golden", "sqrt3"), (F(1, 2), F(1, 3)), 0.4, 1_000_000),
        (("golden", "sqrt3"), (F(1, 2), F(1, 3)), 0.5, 950_000),
    ])
    def test_joint(self, names, betas, rho, n_max):
        theta1, theta2 = (FIXTURES[x] for x in names)
        lo = n_max - LATE_WINDOW
        want = oracles.linear_joint_witness_search(theta1, theta2, *betas, rho, n_max, lo=lo)
        assert want
        got = [w for w in joint_witness_search(theta1, theta2, *betas, rho, n_max)
               if w.n >= lo]
        assert _key(got) == _key(want)

    @pytest.mark.parametrize("beta, rho", [(F(2, 7), 0.5), (0.3, 0.4), (0.7, 0.2)])
    def test_carried_residuals_stay_within_drift(self, monkeypatch, beta, rho):
        # the residual a scan carries into each of its steps, and a second
        # surd's carried along the degrees it visits, stay within 1e-13 of
        # decompose's
        import qpr.diophantine as dio
        s2, s3 = FIXTURES["sqrt2"], FIXTURES["sqrt3"]
        beta_frac = beta if isinstance(beta, F) else None
        stepped = []

        class Half(float):  # a window's half width, recording each residual added to it
            def __radd__(self, other):
                stepped.append(other)
                return other + float(self)

        window = dio._ThreeGapSteps.window

        def recording(self, j):
            h, *rest = window(self, j)
            return Half(h), *rest

        monkeypatch.setattr(dio._ThreeGapSteps, "window", recording)
        second = dio._carried(s3, 0.6, None)
        next(second)
        visited = []

        def follow():  # records second's residuals and skips no degree
            while True:
                n = yield 0.0
                visited.append((n, second.send(n)))

        passthrough = follow()
        next(passthrough)
        list(dio._candidates(s2, float(beta), beta_frac, rho, 10**6, passthrough))
        assert len(stepped) > 4000
        # every degree visited while stepping takes one step
        for (n, _), r in zip(visited[-len(stepped):], stepped):
            exact = decompose(s2, n, float(beta), beta_frac)[1]
            assert abs((r - exact + 0.5) % 1.0 - 0.5) < 1e-13
        for n, r in visited:
            assert abs((r - decompose(s3, n, 0.6)[1] + 0.5) % 1.0 - 0.5) < 1e-13

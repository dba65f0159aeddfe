import cmath
import math
from collections import Counter
from fractions import Fraction as F

import pytest

from qpr.asymptotics import (
    classify_case,
    eval_case1,
    eval_case_aq,
    eval_case_theta,
    nu_n,
    predicted_decay,
    run_verify,
    scaling_range_advisory,
)
from qpr.certify import NOISE_FLOOR, fit_decay_slope
from qpr.diophantine import FIXTURES, RealValue
from qpr.numerics import DomainError
from qpr.qlaguerre import ScalingParameter
from qpr.qseries import QContext, b_function, ramanujan_a, theta


FX = FIXTURES
SQRT2 = FX["sqrt2"]
SQRT3 = FX["sqrt3"]


def _main(r) -> complex:
    """The main term of the row r."""
    return complex(r.main_re, r.main_im)


def sp_rat(tau, theta) -> ScalingParameter:
    return ScalingParameter(RealValue.from_rational(F(tau)),
                            RealValue.from_rational(F(theta)))


class TestNu:
    def test_case4_symmetric(self):
        assert nu_n(4, 80, -1.0, 0.5) == 10

    def test_case3_formula_point(self):
        # q=1/2, n = round(e^10): floor(q^4 * 100 / (1 + log 2)) = 3
        assert nu_n(3, 22026, 0.0, 0.5) == 3

    def test_case4_asymmetric(self):
        assert nu_n(4, 40, -1.5, 0.5) == 2

    def test_rejects_other_cases(self):
        with pytest.raises(DomainError):
            nu_n(1, 10, 1.0, 0.5)
        with pytest.raises(DomainError):
            nu_n(4, 10, 0.5, 0.5)

    @pytest.mark.parametrize("case_id, tau", [(3, 0.0), (4, -1.0), (4, -0.25), (4, -1.75),
                                              (5, -1.0), (6, -2 ** -0.5), (7, -2 ** -0.5)])
    def test_zero_at_degree_one(self, case_id, tau):
        # log 1 = 0, and floor((2+tau)/8) = floor(-tau/8) = 0 in the strip
        assert nu_n(case_id, 1, tau, 0.5) == 0

    def test_rejects_degree_zero(self):
        with pytest.raises(DomainError, match="n >= 1"):
            nu_n(4, 0, -1.0, 0.5)


class TestDispatch:
    def test_totality(self):
        cases = {
            (RealValue.from_rational(1), RealValue.from_rational(0)): 1,
            (SQRT2, RealValue.from_rational(0)): 1,
            (RealValue.from_rational(0), RealValue.from_rational(F(1, 3))): 2,
            (RealValue.from_rational(0), SQRT2): 3,
            (RealValue.from_rational(-1), RealValue.from_rational(0)): 4,
            (RealValue.from_rational(-1), SQRT2): 5,
            (SQRT2.neg(), RealValue.from_rational(F(1, 2))): 6,
            (SQRT2.neg(), SQRT3): 7,
        }
        for (tau, theta_v), want in cases.items():
            assert classify_case(ScalingParameter(tau, theta_v)) == want

    def test_out_of_range(self):
        assert scaling_range_advisory(-2.5) is not None
        assert scaling_range_advisory(-1.0) is None
        assert scaling_range_advisory(0.0) is None
        with pytest.raises(DomainError):
            classify_case(sp_rat(-3, 0))

    def test_undeclared_float_rejected(self):
        sp = ScalingParameter(RealValue.from_rational(0), RealValue.from_float(0.123))
        with pytest.raises(DomainError):
            classify_case(sp)


class TestCase1:
    CTX = QContext(0.5, 0.0, 1.0)

    def test_reference_point(self):
        r = eval_case1(self.CTX, sp_rat(1, 0), 3)
        assert math.isclose(r.bound, 0.15756373330989039, rel_tol=1e-12)
        assert r.observed_error <= r.bound
        assert r.eligible

    def test_bound_holds_across_grid(self):
        rs = [eval_case1(self.CTX, sp_rat(1, 0), n) for n in range(5, 41)]
        assert all(r.bound_holds for r in rs)

    def test_decay_slope(self):
        rs = [eval_case1(self.CTX, sp_rat(1, 0), n) for n in range(10, 41)]
        slope = fit_decay_slope([r.n for r in rs], [r.observed_error for r in rs])
        want = 1.0 * math.log(0.5)
        assert abs(slope - want) <= 0.05 * abs(want)

    def test_bound_scales_inversely_with_z(self):
        r1 = eval_case1(self.CTX, sp_rat(1, 0), 10)
        r10 = eval_case1(QContext(0.5, 0.0, 10.0), sp_rat(1, 0), 10)
        # 1/|z| prefactor, softened by the smaller B_q argument
        assert r10.bound < r1.bound / 9.0

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(DomainError, match="requested case 1 but .* give case 2"):
            run_verify(self.CTX, sp_rat(0, 0), case_id=1, n_values=[5])

    def test_out_of_range_sides_compared_in_log_space(self):
        # |exact| ~ 1e984 and the uncapped bound ~ 1e33219 both leave double range
        ctx = QContext(0.5, 0.0, 1e-200)
        for n in (5, 10):
            r = eval_case1(ctx, sp_rat(1, 0), n)
            assert r.exact_log10_mag > 900
            assert r.bound_holds and r.eligible
            assert r.bound == math.inf
            log_bound = float(r.notes.split("ln bound ")[1])
            assert abs(log_bound / math.log(10) - 33219) < 3

    def test_in_range_rows_keep_double_comparison(self):
        r = eval_case1(self.CTX, sp_rat(1, 0), 3)
        assert r.bound_holds == (r.observed_error <= r.bound)
        assert "log space" not in r.notes

    def test_noise_floor_marks_ineligible(self):
        r = eval_case1(self.CTX, sp_rat(1, 0), 2000)
        assert r.bound < NOISE_FLOOR
        assert not r.eligible


class TestCase2:
    CTX = QContext(0.5, 0.0, 2.0)

    def test_half_theta_odd_degree_is_b_function(self):
        # lam = 1/2 gives main A_q(-1/(z q^a)) = B_q(1/(z q^a)) for real z > 0
        sp = sp_rat(0, F(1, 2))
        r = eval_case_aq(self.CTX, sp, 7, 2)
        want = b_function(0.5, 1 / 2.0)
        assert abs(_main(r) - want) < 1e-13

    def test_third_theta_reference_run(self):
        sp = sp_rat(0, F(1, 3))
        r = eval_case_aq(self.CTX, sp, 13, 2)
        lam = (13 * F(1, 3)) % 1
        assert lam == F(1, 3)
        want = ramanujan_a(0.5, cmath.exp(2j * math.pi / 3) / 2.0)
        assert abs(_main(r) - want) < 1e-13
        assert r.bound_holds and r.eligible

    def test_theta_zero_reduces_to_plain_argument(self):
        sp = sp_rat(0, 0)
        r = eval_case_aq(self.CTX, sp, 9, 2)
        want = ramanujan_a(0.5, 1 / 2.0)
        assert abs(_main(r) - want) < 1e-14

    def test_witness_is_exact(self):
        r = eval_case_aq(self.CTX, sp_rat(0, F(1, 3)), 13, 2)
        assert r.witness.residual == 0.0

    def test_rejects_nonzero_tau(self):
        with pytest.raises(DomainError, match="requested case 2 but .* give case 1"):
            run_verify(self.CTX, sp_rat(1, 0), case_id=2, n_values=[5])

    def test_rejects_irrational_theta(self):
        sp = ScalingParameter(RealValue.from_rational(0), SQRT2)
        with pytest.raises(DomainError, match="requested case 2 but .* give case 3"):
            run_verify(self.CTX, sp, case_id=2, n_values=[5])


class TestCase3:
    CTX = QContext(0.5, 0.0, 2.0)

    def test_convergent_witnesses_respect_bound(self):
        sp = ScalingParameter(RealValue.from_rational(0), SQRT2)
        rows = run_verify(self.CTX, sp, case_id=3, beta=0.0, rho=1.0, n_max=10_000)
        eligible = [r for r in rows if r.eligible]
        assert eligible, "expected eligible witnesses below 10^4"
        assert all(r.bound_holds for r in eligible)
        assert {2378, 5741} <= {r.n for r in eligible}


class TestCase4:
    CTX = QContext(0.5, 0.0, 1.0)

    def test_reference_row_n40(self):
        sp = sp_rat(-1, 0)
        r = eval_case_theta(self.CTX, sp, 40, 4)
        assert r.m == 40 and r.nu == 5
        # chi(40) = 0, lam = lam1 = 0: main term is Theta(-z q^a | q)
        want = theta(-1.0, 0.5)
        assert abs(_main(r) - want) < 1e-13
        assert r.observed_error <= r.bound

    def test_parity_enters_theta_argument(self):
        sp = sp_rat(-1, 0)
        r_even = eval_case_theta(self.CTX, sp, 40, 4)
        r_odd = eval_case_theta(self.CTX, sp, 41, 4)
        assert abs(_main(r_even) - theta(-1.0, 0.5)) < 1e-13
        assert abs(_main(r_odd) - theta(-0.5, 0.5)) < 1e-13

    def test_grid_bounds_hold_when_observable(self):
        sp = sp_rat(-1, 0)
        rows = [eval_case_theta(self.CTX, sp, n, 4) for n in range(8, 65)]
        observable = [r for r in rows if r.nu >= 2]
        assert observable
        assert all(r.bound_holds for r in observable)
        strict = [r for r in rows if r.eligible]
        assert {r.n for r in strict} == {64}
        assert all(r.bound_holds for r in strict)

    def test_exact_equals_split_total(self):
        from qpr.qlaguerre import split_sums
        sp = sp_rat(-1, F(1, 4))
        r = eval_case_theta(self.CTX, sp, 12, 4)
        res = split_sums(self.CTX, sp, 12)
        assert abs(complex(r.exact_re, r.exact_im) - res.total.to_complex()) < 1e-12

    def test_constant_discrepancy_recorded(self):
        r = eval_case_theta(self.CTX, sp_rat(-1, 0), 16, 4)
        assert r.notes.endswith("; stated constant 30 retained for the majorant; the "
                                "underlying derivation supports 15")

    def test_domain(self):
        with pytest.raises(DomainError, match="requested case 4 but .* give case 1"):
            run_verify(self.CTX, sp_rat(1, 0), case_id=4, n_values=[8])
        sp5 = ScalingParameter(RealValue.from_rational(-1), SQRT2)
        with pytest.raises(DomainError, match="requested case 4 but .* give case 5"):
            run_verify(self.CTX, sp5, case_id=4, n_values=[8])


class TestThetaIrrationalCases:
    CTX = QContext(0.5, 0.0, 1.0)

    def test_case5_rows(self):
        sp = ScalingParameter(RealValue.from_rational(-1), SQRT2)
        rows = run_verify(self.CTX, sp, case_id=5, beta=0.0, rho=1.0, n_max=6000)
        observable = [r for r in rows if r.nu >= 2]
        assert observable
        assert all(r.bound_holds for r in observable)
        # tau-side fractional part is exactly zero here: u = c_n = 0
        assert all(r.m == r.n for r in rows)

    def test_case6_rows_include_wrapped_witness(self):
        sp = ScalingParameter(SQRT2.neg(), RealValue.from_rational(F(1, 2)))
        rows = run_verify(self.CTX, sp, case_id=6, beta=0.0, rho=1.0, n_max=6000)
        observable = [r for r in rows if r.nu >= 2]
        assert observable
        assert all(r.bound_holds for r in observable)
        # n = 2378: 2378*sqrt(2) = 3362.9998: the witness rounds up past the floor
        w = {r.n: r for r in rows}
        assert w[2378].m == 3363

    def test_case7_rows(self):
        sp = ScalingParameter(SQRT2.neg(), SQRT3)
        rows = run_verify(self.CTX, sp, case_id=7, beta=0.0, beta2=0.0,
                          rho=0.4, n_max=10_000)
        observable = [r for r in rows if r.nu >= 2]
        assert len(observable) > 5
        assert all(r.bound_holds for r in observable)

    def test_nonzero_beta_targets_hold(self):
        ctx = self.CTX
        sp5 = ScalingParameter(RealValue.from_rational(-1), SQRT2)
        rows = run_verify(ctx, sp5, case_id=5, beta=0.3, rho=0.5, n_max=4000)
        obs = [r for r in rows if r.nu >= 2]
        assert obs and all(r.bound_holds for r in obs)
        sp7 = ScalingParameter(SQRT2.neg(), SQRT3)
        rows7 = run_verify(ctx, sp7, case_id=7, beta=0.2, beta2=0.4,
                           rho=0.3, n_max=4000)
        obs7 = [r for r in rows7 if r.nu >= 2]
        assert obs7 and all(r.bound_holds for r in obs7)

    def test_case3_nonzero_beta_eligible(self):
        # rho = 0.5 makes the nu <= n^rho/32 condition bind until n >= 4096
        ctx = QContext(0.5, 0.0, 2.0)
        sp = ScalingParameter(RealValue.from_rational(0), SQRT2)
        rows = run_verify(ctx, sp, case_id=3, beta=0.3, rho=0.5, n_max=10_000)
        eligible = [r for r in rows if r.eligible]
        assert eligible and all(r.bound_holds for r in eligible)
        assert all(r.n >= 4096 for r in eligible)

    def test_case5_weaker_rho_widens_witness_set(self):
        sp = ScalingParameter(RealValue.from_rational(-1), SQRT2)
        strict = run_verify(self.CTX, sp, case_id=5, beta=0.0, rho=1.0, n_max=2000)
        loose = run_verify(self.CTX, sp, case_id=5, beta=0.0, rho=0.5, n_max=2000)
        assert {r.n for r in strict} <= {r.n for r in loose}


class TestErrorOrderTracksIrrationality:
    def test_case3_error_decays_like_inverse_n(self):
        # for a quadratic irrational with beta = 0 the witness residuals are
        # ~1/n, and the observed error inherits that power law (up to log^2
        # factors): fitted exponent close to -rho = -1
        ctx = QContext(0.5, 0.0, 2.0)
        sp = ScalingParameter(RealValue.from_rational(0), SQRT2)
        rows = run_verify(ctx, sp, case_id=3, beta=0.0, rho=1.0, n_max=10_000)
        rows = [r for r in rows if r.n >= 10]
        slope = fit_decay_slope([r.n for r in rows],
                                [r.observed_error for r in rows],
                                log_abscissa=True)
        assert abs(slope - (-1.0)) < 0.15


class TestMainTermConsistency:
    def test_case2_theta_zero_vs_series(self):
        ctx = QContext(0.5, 0.0, 2.0)
        r = eval_case_aq(ctx, sp_rat(0, 0), 30, 2)
        # independent series evaluation of A_q(1/(z q^a))
        s = sum((0.5 ** (k * k)) * (-0.5) ** k /
                math.prod(1 - 0.5 ** j for j in range(1, k + 1)) for k in range(40))
        assert abs(_main(r) - s) < 1e-12

    def test_case4_theta_zero_vs_series(self):
        ctx = QContext(0.5, 0.0, 1.0)
        r = eval_case_theta(ctx, sp_rat(-1, 0), 24, 4)
        s = sum((0.5 ** (k * k)) * (-1.0) ** k for k in range(-30, 31))
        assert abs(_main(r) - s) < 1e-12


class TestVerifyDriver:
    def test_case_mismatch_rejected(self):
        ctx = QContext(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            run_verify(ctx, sp_rat(1, 0), case_id=4, n_values=[10])

    def test_grid_required_for_dense_cases(self):
        ctx = QContext(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            run_verify(ctx, sp_rat(1, 0), case_id=1)

    def test_witness_case_on_a_range_grid(self):
        # membership is tested on the grid as given: a stepped range keeps
        # the same rows as the equal list, and as filtering all witnesses
        ctx = QContext(0.5, 0.0, 2.0)
        sp = ScalingParameter(RealValue.from_rational(0), SQRT2)
        kw = dict(case_id=3, beta=0.3, rho=0.5, n_max=3000)
        grid = range(5, 2900, 3)
        rows = run_verify(ctx, sp, n_values=grid, **kw)
        assert len(rows) > 10
        assert repr(rows) == repr(run_verify(ctx, sp, n_values=list(grid), **kw))
        assert repr(rows) == repr([r for r in run_verify(ctx, sp, **kw) if r.n in grid])

    def test_top_of_a_range_grid_is_not_walked(self, monkeypatch):
        # without --nmax a witness scan stops at the grid's top degree; on a
        # range that is an end point, so max() must never iterate the range
        # (max(range(1, 10**8 + 1)) takes seconds); a list grid keeps max()
        import qpr.asymptotics as asymptotics
        seen = []

        def spy(*args, **kw):
            assert not (len(args) == 1 and isinstance(args[0], range)), \
                "max() walked a range grid"
            seen.append(args)
            return max(*args, **kw)

        monkeypatch.setattr(asymptotics, "max", spy, raising=False)
        ctx = QContext(0.5, 0.0, 2.0)
        sp = ScalingParameter(RealValue.from_rational(0), SQRT2)
        kw = dict(case_id=3, beta=0.3, rho=0.5)
        for grid in (range(5, 2900, 3), range(5, 2900, 3)[::-1]):
            rows = run_verify(ctx, sp, n_values=grid, **kw)
            assert len(rows) > 10
            assert repr(rows) == repr(run_verify(ctx, sp, n_max=2899, n_values=grid, **kw))
        seen.clear()
        as_list = run_verify(ctx, sp, n_values=list(range(5, 2900, 3)), **kw)
        assert seen and repr(as_list) == repr(rows)

    def test_reports_sorted_by_n(self):
        ctx = QContext(0.5, 0.0, 1.0)
        rows = run_verify(ctx, sp_rat(1, 0), n_values=[9, 5, 7])
        assert [r.n for r in rows] == [5, 7, 9]


class TestPrefactorsOncePerContext:
    @pytest.mark.parametrize("tau, theta_", [(1, 0), (0, F(1, 3)), (-1, F(1, 4))],
                             ids=["case1", "case2", "case4"])
    def test_multi_row_verify(self, monkeypatch, tau, theta_):
        import qpr.asymptotics as asy
        # a context no other test builds, so no earlier row has cached it
        ctx = QContext(0.61, 0.25, 1.3 + 0.2j)
        calls = Counter()

        def counted(name, fn, counts=lambda *a: True):
            def wrapper(*args, **kwargs):
                calls[name] += counts(*args)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(asy, "pochhammer", counted("pochhammer", asy.pochhammer))
        monkeypatch.setattr(asy, "b_function", counted("b_function", asy.b_function))
        # theta at base sqrt(q) is the prefactor; base q is the per-row main term
        monkeypatch.setattr(asy, "theta", counted(
            "theta", asy.theta, lambda z, q, *a: q == math.sqrt(ctx.q)))
        rows = run_verify(ctx, sp_rat(tau, theta_), n_values=list(range(8, 20)))
        assert len(rows) == 12
        assert max(calls.values(), default=0) <= 1, calls


def _bits(w: complex) -> tuple[str, str]:
    """Both components of w bit for bit, the sign of zero included."""
    return w.real.hex(), w.imag.hex()


def _clear_main_memos():
    import qpr.asymptotics as asy
    asy._aq_main.cache_clear()
    asy._theta_main.cache_clear()


class TestMainTermMemo:
    """The main term is evaluated once per context and residue, and the
    memo returns the bits a fresh evaluation gives."""

    # (case, tau, theta, run_verify keywords, most main-term evaluations):
    # d for theta = p/d, one A_q for a fixed witness target, and 2 lcm of the
    # denominators (chi(m) doubles the period of {-tau n}) for case 4
    COUNTS = [
        (2, RealValue.from_rational(0), RealValue.from_rational(F(2, 5)),
         {"n_values": list(range(8, 61))}, 5),
        (3, RealValue.from_rational(0), SQRT2, {"rho": 1.0, "n_max": 3000}, 1),
        (4, RealValue.from_rational(F(-3, 4)), RealValue.from_rational(F(1, 6)),
         {"n_values": list(range(8, 121))}, 24),
    ]

    @pytest.mark.parametrize("case_id, tau, theta_, kw, most", COUNTS,
                             ids=["case2", "case3", "case4"])
    def test_evaluations_per_verify(self, monkeypatch, case_id, tau, theta_, kw, most):
        import qpr.asymptotics as asy
        # a context no other test builds, so no earlier row has cached it
        ctx = QContext(0.63, 0.5, complex(0.9, -0.1 * case_id))
        calls = []
        monkeypatch.setattr(asy, "ramanujan_a",
                            lambda *a: calls.append(a) or ramanujan_a(*a))
        # theta at base q is the main term; base sqrt(q) is the prefactor
        monkeypatch.setattr(asy, "theta", lambda z, q, *a: (
            calls.append(z) if q == ctx.q else None) or theta(z, q, *a))
        rows = run_verify(ctx, ScalingParameter(tau, theta_), case_id=case_id, **kw)
        assert len(rows) > 2 * most
        assert 1 <= len(calls) <= most
        if case_id == 3:
            assert len(calls) == 1

    SCENARIOS = [
        (2, RealValue.from_rational(0), RealValue.from_rational(F(1, 3)),
         {"n_values": list(range(2, 40, 3))}),
        (3, RealValue.from_rational(0), SQRT2, {"rho": 1.0, "n_max": 3000}),
        (4, RealValue.from_rational(-1), RealValue.from_rational(F(1, 4)),
         {"n_values": list(range(8, 90, 9))}),
        (5, RealValue.from_rational(-1), SQRT2, {"rho": 0.5, "n_max": 1000}),
        (6, SQRT2.neg(), RealValue.from_rational(F(1, 2)), {"rho": 0.5, "n_max": 1000}),
        (7, SQRT2.neg(), SQRT3, {"rho": 0.4, "n_max": 300}),
    ]

    @pytest.mark.parametrize("case_id, tau, theta_, kw", SCENARIOS,
                             ids=[f"case{c}" for c, *_ in SCENARIOS])
    def test_memo_equals_fresh_evaluation(self, case_id, tau, theta_, kw):
        import qpr.asymptotics as asy
        ctx = QContext(0.71, 0.25, -0.6 + 1.1j)
        sp = ScalingParameter(tau, theta_)
        rows = run_verify(ctx, sp, case_id=case_id, **kw)
        assert len(rows) >= 5
        for r in rows:
            _clear_main_memos()
            fresh = asy._evaluate(ctx, sp, r.n, case_id,
                                  r.witness if case_id in (3, 5, 6, 7) else None)
            assert _bits(_main(fresh)) == _bits(_main(r)), r.n

    # (beta, z) runs: a -0.0 target, then 0.0 at the same z, then (for
    # theta) the -0.0 target at z = 2-0j
    SIGNED_RUNS = [(-0.0, complex(2.0, 0.0)), (0.0, complex(2.0, 0.0)),
                   (-0.0, complex(2.0, -0.0))]

    @pytest.mark.parametrize("case_id, tau, kw, runs", [
        (3, RealValue.from_rational(0), {"rho": 1.0, "n_max": 2000}, SIGNED_RUNS[:2]),
        (5, RealValue.from_rational(-1), {"rho": 0.5, "n_max": 400}, SIGNED_RUNS),
    ], ids=["case3", "case5"])
    def test_signed_zero_targets_agree(self, case_id, tau, kw, runs):
        # at a real z the main term's argument is real; its phase is taken in
        # (-pi, pi], so the sign of a zero target (and, for theta, of z's
        # zero imaginary part) reaches no bit of the main term, whether each
        # run starts from an empty memo or all share one
        sp = ScalingParameter(tau, SQRT2)

        def mains(beta, z):
            ctx = QContext(0.93, 0.0, z)
            rows = run_verify(ctx, sp, case_id=case_id, beta=beta, **kw)
            return [_bits(_main(r)) for r in rows]

        alone = []
        for beta, z in runs:
            _clear_main_memos()
            alone.append(mains(beta, z))
        assert alone[0] and all(other == alone[0] for other in alone[1:])
        _clear_main_memos()
        assert [mains(beta, z) for beta, z in runs] == alone


class TestOverflowRule:
    # (case, tau, theta, run_verify keywords); at these |z| the exact value
    # or the main term leaves double range, and no case 2-7 majorant has a
    # log form, so such rows can only be reported, never certified
    SCENARIOS = [
        (2, RealValue.from_rational(0), RealValue.from_rational(F(1, 3)),
         {"n_values": list(range(2, 40, 3))}),
        (3, RealValue.from_rational(0), SQRT2, {"rho": 1.0, "n_max": 3000}),
        (4, RealValue.from_rational(-1), RealValue.from_rational(F(1, 4)),
         {"n_values": list(range(8, 90, 9))}),
        (5, RealValue.from_rational(-1), SQRT2, {"rho": 1.0, "n_max": 1000}),
        (6, SQRT2.neg(), RealValue.from_rational(F(1, 2)), {"rho": 1.0, "n_max": 1000}),
        (7, SQRT2.neg(), SQRT3, {"rho": 0.4, "n_max": 300}),
    ]

    @pytest.mark.parametrize("z", [1e-200, 1e300])
    def test_no_out_of_range_row_is_eligible(self, z):
        ctx = QContext(0.5, 0.0, z)
        out_of_range = 0
        for case_id, tau, theta_, kw in self.SCENARIOS:
            rows = run_verify(ctx, ScalingParameter(tau, theta_), case_id=case_id, **kw)
            for r in rows:
                if math.isfinite(r.observed_error) and math.isfinite(r.bound):
                    continue
                out_of_range += 1
                assert not r.eligible, (case_id, r.n)
                assert "within double range: FAIL" in r.notes
        assert out_of_range > 50

    def test_case2_rows_fail_only_on_range(self):
        # every other condition holds, so the range rule alone decides
        rows = [eval_case_aq(QContext(0.5, 0.0, 1e-200), sp_rat(0, F(1, 3)), n, 2)
                for n in range(5, 9)]
        # exact and main both overflow; at n = 6 (A_q's argument real) and
        # n = 8 they share an infinite component, and inf - inf is nan
        assert [r.n for r in rows if r.observed_error != r.observed_error] == [6, 8]
        for r in rows:
            assert not r.eligible
            assert r.notes.count("FAIL") == 1


def _cells(r) -> list:
    """Every field of the row r and of its witness, floats by their hex."""
    w = r.witness
    witness = () if w is None else (w.n, w.m, w.m1, w.target_beta, w.residual, w.rho,
                                    w.trusted, w.target_beta2, w.residual2)
    return [v.hex() if isinstance(v, float) else v for v in (*r[:-1], *witness)]


class TestPerRunChecks:
    # run_verify checks the case once per run, and its own search's witnesses
    # are consistent by construction; its rows must equal those of the row
    # functions called one degree at a time
    CTX = QContext(0.71, 0.25, -0.6 + 1.1j)
    SCENARIOS = [
        (1, sp_rat(1, F(1, 3)), {"n_values": list(range(2, 40, 3))}),
        (2, sp_rat(0, F(1, 3)), {"n_values": list(range(2, 40, 3))}),
        (3, ScalingParameter(RealValue.from_rational(0), SQRT2), {"rho": 1.0, "n_max": 3000}),
        (4, sp_rat(-1, F(1, 4)), {"n_values": list(range(1, 90, 4))}),
        (5, ScalingParameter(RealValue.from_rational(F(-3, 4)), SQRT2),
         {"beta": 0.25, "rho": 0.5, "n_max": 2000}),
        (6, ScalingParameter(SQRT2.neg(), RealValue.from_rational(F(1, 2))),
         {"rho": 0.5, "n_max": 2000}),
        (7, ScalingParameter(SQRT2.neg(), SQRT3), {"rho": 0.4, "n_max": 300}),
    ]

    @staticmethod
    def public(ctx, sp, case_id, n, witness):
        if case_id == 1:
            return eval_case1(ctx, sp, n)
        if case_id in (2, 3):
            return eval_case_aq(ctx, sp, n, case_id, witness)
        return eval_case_theta(ctx, sp, n, case_id, witness)

    @pytest.mark.parametrize("case_id, sp, kw", SCENARIOS,
                             ids=[f"case{c}" for c, *_ in SCENARIOS])
    def test_rows_equal_the_public_evaluators(self, case_id, sp, kw):
        rows = run_verify(self.CTX, sp, case_id=case_id, **kw)
        assert len(rows) >= 5
        for r in rows:
            witness = r.witness if case_id in (3, 5, 6, 7) else None
            assert _cells(r) == _cells(self.public(self.CTX, sp, case_id, r.n, witness)), r.n
        if case_id == 6:
            # a witness m = floor(-tau n) + 1 moves the split point and chi(m)
            assert any("wraps past floor(-tau n)" in r.notes for r in rows)

    def test_checks_run_once_per_run(self, monkeypatch):
        import qpr.asymptotics as asy
        calls = []
        real = asy.classify_case
        monkeypatch.setattr(asy, "classify_case", lambda s: calls.append(s) or real(s))
        case_id, sp, kw = self.SCENARIOS[4]
        rows = run_verify(self.CTX, sp, case_id=case_id, **kw)
        assert len(rows) >= 5 and calls == [sp]

    @pytest.mark.parametrize("case_id, sp, kw", SCENARIOS,
                             ids=[f"case{c}" for c, *_ in SCENARIOS])
    def test_case_read_from_the_declarations_is_classified_once(self, monkeypatch,
                                                                case_id, sp, kw):
        import qpr.asymptotics as asy
        calls = []
        real = asy.classify_case
        monkeypatch.setattr(asy, "classify_case", lambda s: calls.append(s) or real(s))
        rows = run_verify(self.CTX, sp, **kw)
        assert rows and {r.case_id for r in rows} == {case_id} and calls == [sp]


class TestExportedGuards:
    # one line per guard of an exported regime function
    def test_no_prediction_for_an_unknown_case(self):
        with pytest.raises(DomainError, match="no prediction for case 8"):
            predicted_decay(8, QContext(0.5, 0.0, 1.0), sp_rat(1, 0), 1.0)

    def test_slope_needs_two_positive_errors(self):
        with pytest.raises(DomainError, match="at least two positive errors"):
            fit_decay_slope([1, 2, 3], [1e-3, 0.0, math.inf])

    def test_theta_prefactor_argument_underflowing_to_zero(self):
        # |z q^alpha| = 1.2e-324 rounds to 0, where Theta is undefined; z is not 0
        import qpr.asymptotics as asy
        with pytest.raises(DomainError, match=r"theta argument \|z q\^alpha\| underflows "
                                              r"to 0 at z = \(5e-324\+0j\)"):
            asy._theta_prefactor(QContext(0.5, 2.0, 5e-324), 30.0)

    def test_slope_needs_two_abscissae(self):
        with pytest.raises(DomainError, match="degenerate abscissa"):
            fit_decay_slope([5, 5], [1e-3, 1e-4])

"""The seven asymptotic regimes of the scaled q-Laguerre polynomials:
main-term evaluation, explicit error-bound evaluation, the cutoff nu_n, and
an operational version of every "n sufficiently large" side condition.

Regime map (sigma = tau + 2):

    tau > 0                      case 1    main term 1
    tau = 0, theta rational      case 2    main term A_q(e^(2 pi i lam)/(z q^a))
    tau = 0, theta irrational    case 3    main term A_q(e^(2 pi i beta)/(z q^a))
    -2 < tau < 0:
      tau, theta rational        case 4    main term Theta(-z q^(a+chi(m)+lam) e^(-2 pi i lam1) | q)
      tau rat, theta irr         case 5    ... e^(-2 pi i beta)
      tau irr, theta rat         case 6    ... q^(a+chi(m)+beta) e^(-2 pi i lam)
      tau, theta irrational      case 7    ... q^(a+chi(m)+beta1) e^(-2 pi i beta2)

Each evaluator returns a RegimeReport carrying the exact normalized value,
the main term, the observed error, the stated error majorant (constants
kept verbatim: 7, 48, 30, 96), and an eligibility flag.  Eligibility
operationalizes the side conditions reproducibly: every asymptotic "<<"
becomes "left <= right/4", nu_n >= 2 is always required, and rows whose
bound sits below the double-precision certification floor are excluded
rather than asserted.  Violations on eligible rows are exactly the failures
a certification run must report.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .diophantine import DiophantineWitness, RealValue, chi, decompose, default_rho, \
    joint_witness_search, witness_search
from .numerics import DomainError, LogPolarComplex, lp, lp_mul, sum_rescaled
from .qseries import QContext, aq_series_lp, b_function, euler_log, poch_table, \
    pochhammer, ramanujan_a, theta
from .qlaguerre import ScalingParameter, normalized_laguerre_lp, split_sums

_TWO_PI = 2.0 * math.pi

# Observed errors are differences of doubles; bounds below this cannot be
# certified in this arithmetic, so such rows are reported but not asserted.
NOISE_FLOOR = 1e-13

# Operational margin for every asymptotic "<<": left <= right / MARGIN.
MARGIN = 4.0


@dataclass
class RegimeReport:
    """One certified comparison at a single degree n."""

    case_id: int
    n: int
    exact: LogPolarComplex
    main: complex
    observed_error: float
    bound: float
    eligible: bool
    eligibility_notes: str
    bound_holds: bool
    witness: DiophantineWitness | None = None
    nu: int | None = None
    m: int | None = None
    m1: int | None = None
    meta: str = ""

    @property
    def exact_complex(self) -> complex:
        return self.exact.to_complex()


def nu_n(case_id: int, n: int, tau: float, q: float) -> int:
    """Series cutoff for the error analysis.

    Cases 3, 5, 6, 7: floor(q^4 log^2 n / (1 + log(1/q))), natural logs.
    Case 4: min(floor((2+tau)n/8), floor(-tau*n/8)), requiring -2 < tau < 0.
    """
    if n < 2:
        raise DomainError("nu_n needs n >= 2")
    if case_id == 4:
        if not (-2.0 < tau < 0.0):
            raise DomainError(f"case 4 cutoff needs -2 < tau < 0, got {tau}")
        return min(math.floor((2.0 + tau) * n / 8.0), math.floor(-tau * n / 8.0))
    if case_id in (3, 5, 6, 7):
        ln = math.log(n)
        return math.floor(q ** 4 * ln * ln / (1.0 + math.log(1.0 / q)))
    raise DomainError(f"no cutoff is defined for case {case_id}")


def scaling_range_advisory(tau: float) -> str | None:
    """Advisory for scaling exponents the regime map does not cover."""
    if tau <= -2.0:
        return (f"tau = {tau} lies at or below -2 (sigma <= 0): outside the "
                "asymptotic regimes; no main term or bound is defined")
    return None


def classify_case(sp: ScalingParameter) -> int:
    """Total dispatch on (tau, theta) given declared rationality."""
    tau = sp.tau.value
    if tau <= -2.0:
        raise DomainError(scaling_range_advisory(tau))
    if tau > 0.0:
        return 1
    if sp.tau.is_zero():
        return 2 if sp.theta.declared_rational() else 3
    if sp.tau.declared_rational():
        return 4 if sp.theta.declared_rational() else 5
    return 6 if sp.theta.declared_rational() else 7


# ---------------------------------------------------------------------------
# bound prefactors and pieces
# ---------------------------------------------------------------------------

# _exp caps its argument here, so a bound above e^_LOG_CAP is not its value.
_LOG_CAP = 700.0


def _exp(x: float) -> float:
    return math.exp(min(x, _LOG_CAP))


def _log_zqa(ctx: QContext) -> float:
    return math.log(ctx.abs_z) + ctx.alpha * ctx.log_q


# The prefactors depend on the context alone; verify rows share one context,
# so each is computed once per context rather than once per row.
@lru_cache(maxsize=16)
def _aq_prefactor(ctx: QContext, constant: float) -> float:
    c2 = pochhammer(-ctx.q ** 2, ctx.q, None, ctx.tol, ctx.max_terms).real ** 2
    big_b = b_function(ctx.q, _exp(-_log_zqa(ctx)), ctx.tol, ctx.max_terms).real
    return constant * c2 * big_b / ((1.0 - ctx.q) ** 3 * math.exp(euler_log(ctx.q, ctx.max_terms)))


@lru_cache(maxsize=16)
def _theta_prefactor(ctx: QContext, constant: float) -> float:
    c3 = pochhammer(-ctx.q ** 2, ctx.q, None, ctx.tol, ctx.max_terms).real ** 3
    big_t = theta(complex(_exp(_log_zqa(ctx))), math.sqrt(ctx.q), ctx.tol, ctx.max_terms).real
    return constant * c3 * big_t / ((1.0 - ctx.q) ** 4 * math.exp(euler_log(ctx.q, ctx.max_terms)))


@lru_cache(maxsize=16)
def _case1_log_b(ctx: QContext) -> float:
    """log B_q(q^(2-a)/|z|), the n-independent factor of the case-1 majorant;
    taken from the double value while B_q has one, so in-range bounds keep
    their last bits."""
    b = aq_series_lp(ctx.q, ctx.q ** (2.0 - ctx.alpha) / ctx.abs_z, False,
                     ctx.tol, ctx.max_terms)
    value = b.to_complex().real
    return math.log(value) if math.isfinite(value) else b.log_mag


def _conds_to_notes(conds: list[tuple[str, bool]]) -> tuple[bool, str]:
    ok = all(flag for _, flag in conds)
    return ok, "; ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in conds)


def _floor_cond(bound: float) -> tuple[str, bool]:
    return (f"bound {bound:.3e} >= certification floor {NOISE_FLOOR:.0e}",
            bound >= NOISE_FLOOR)


# ---------------------------------------------------------------------------
# case 1: tau > 0
# ---------------------------------------------------------------------------

def eval_case1(ctx: QContext, sp: ScalingParameter, n: int) -> RegimeReport:
    """Main term 1; error majorant q^(1-a) B_q(q^(2-a)/|z|) q^(tau n) / ((1-q)|z|).

    The normalization constant is the finite (q;q)_n, which makes the k = 0
    term of the reversed sum exactly 1 and is what the stated majorant
    provably dominates; with (q;q)_inf the k = 0 term deviates by
    (q^(n+1);q)_inf - 1, a q^n-sized error the majorant cannot absorb once
    tau >= 1 (numerically violated at q=1/2, z=1, tau=1).
    """
    tau = sp.tau.value
    if not tau > 0.0:
        raise DomainError(f"case 1 needs tau > 0, got {tau}")
    tq = poch_table(ctx.q, ctx.q, ctx.max_terms)
    exact_lp = lp_mul(normalized_laguerre_lp(ctx, sp, n), lp(tq.log(n), 0.0))
    exact = exact_lp.to_complex()
    observed = abs(exact - 1.0)
    log_bound = ((1.0 - ctx.alpha) * ctx.log_q + _case1_log_b(ctx)
                 - math.log(1.0 - ctx.q) - math.log(ctx.abs_z) + tau * n * ctx.log_q)
    bound = _exp(log_bound)
    holds = observed <= bound
    meta = "normalized with the finite constant (q;q)_n"
    if log_bound > _LOG_CAP or not math.isfinite(observed):
        # a side outside double range: compare logarithms, never the capped majorant
        log_observed = sum_rescaled([exact_lp, lp(0.0, math.pi)]).to_lp().log_mag
        holds = log_observed <= log_bound
        bound = lp(log_bound, 0.0).to_complex().real  # inf beyond double range
        meta += (f"; compared in log space: ln observed {log_observed:.6g}, "
                 f"ln bound {log_bound:.6g}")
    eligible, notes = _conds_to_notes([_floor_cond(bound)])
    return RegimeReport(case_id=1, n=n, exact=exact_lp, main=1.0 + 0j,
                        observed_error=observed, bound=bound, eligible=eligible,
                        eligibility_notes=notes or "eligible at every n",
                        bound_holds=holds, meta=meta)


# ---------------------------------------------------------------------------
# cases 2 and 3: tau = 0, main term A_q
# ---------------------------------------------------------------------------

def _require_zero_tau(sp: ScalingParameter) -> None:
    if not sp.tau.is_zero():
        raise DomainError(f"this regime needs tau = 0, got tau = {sp.tau.value}")


def _check_witness(th: RealValue, w: DiophantineWitness, n: int,
                   beta: float, m: int, residual: float) -> None:
    got_m, got_r = decompose(th, n, beta)
    if got_m != m or abs(got_r - residual) > 1e-9:
        raise DomainError(
            f"witness (n={n}, m={m}, residual={residual}) is inconsistent with "
            f"the declared angle: recomputed (m={got_m}, residual={got_r})")


def eval_case_aq(ctx: QContext, sp: ScalingParameter, n: int, case_id: int,
                 witness: DiophantineWitness | None = None) -> RegimeReport:
    """tau = 0 regimes: main term A_q at a root-of-unity-twisted argument.

    Case 2 (theta rational) uses the exact fractional part lam = {n theta}
    and carries no arithmetic error term; case 3 (theta irrational) needs a
    witness n*theta = m + beta + gamma_n with |gamma_n| <= n^-rho.
    """
    _require_zero_tau(sp)
    if case_id not in (2, 3):
        raise DomainError(f"eval_case_aq handles cases 2 and 3, got {case_id}")
    q, alpha = ctx.q, ctx.alpha
    lzqa = _log_zqa(ctx)

    if case_id == 2:
        if not sp.theta.declared_rational():
            raise DomainError("case 2 needs a rational theta")
        m_th, lam = sp.theta.mul_floor_frac(n)
        beta_star = lam
        witness = DiophantineWitness(n=n, m=m_th, m1=None, target_beta=lam,
                                     residual=0.0, rho=0.0)
        nu = None
    else:
        if sp.theta.declared_rational():
            raise DomainError("case 3 needs an irrational theta")
        if witness is None or witness.n != n:
            raise DomainError("case 3 needs a witness at this n")
        _check_witness(sp.theta, witness, n, witness.target_beta, witness.m,
                       witness.residual)
        beta_star = witness.target_beta
        nu = nu_n(3, n, 0.0, q) if n >= 2 else 0

    arg = cmath.exp(complex(0.0, _TWO_PI * beta_star)) / (ctx.z * q ** alpha)
    main = ramanujan_a(q, arg, ctx.tol, ctx.max_terms)

    exact_lp = lp_mul(normalized_laguerre_lp(ctx, sp, n),
                      lp(euler_log(q, ctx.max_terms), 0.0))
    exact = exact_lp.to_complex()
    observed = abs(exact - main)

    if case_id == 2:
        pref = _aq_prefactor(ctx, 7.0)
        bound = pref * (_exp(0.5 * n * ctx.log_q)
                        + _exp(0.25 * n * n * ctx.log_q - (n // 2) * lzqa))
        conds = [("n >= 2", n >= 2), _floor_cond(bound)]
    else:
        rho = witness.rho
        pref = _aq_prefactor(ctx, 48.0)
        logn = math.log(n)
        bound = pref * (logn * logn / n ** rho
                        + _exp(nu * nu * ctx.log_q - nu * lzqa))
        conds = [
            (f"nu = {nu} >= 2", nu >= 2),
            (f"nu <= n^min(1,rho)/(8*{MARGIN:.0f})",
             nu <= n ** min(1.0, rho) / (8.0 * MARGIN)),
            (f"q^(n/2) <= nu/({MARGIN:.0f} n^rho)",
             _exp(0.5 * n * ctx.log_q) <= nu / (MARGIN * n ** rho) if nu > 0 else False),
            ("witness trusted", witness.trusted),
            _floor_cond(bound),
        ]
    eligible, notes = _conds_to_notes(conds)
    return RegimeReport(case_id=case_id, n=n, exact=exact_lp, main=main,
                        observed_error=observed, bound=bound, eligible=eligible,
                        eligibility_notes=notes, bound_holds=observed <= bound,
                        witness=witness, nu=nu, m=witness.m)


# ---------------------------------------------------------------------------
# cases 4-7: -2 < tau < 0, main term Theta
# ---------------------------------------------------------------------------

_THETA_DECLS = {
    4: (True, True),
    5: (True, False),
    6: (False, True),
    7: (False, False),
}


def eval_case_theta(ctx: QContext, sp: ScalingParameter, n: int, case_id: int,
                    witness: DiophantineWitness | None = None) -> RegimeReport:
    """Theta-regime evaluation in the bilateral-theta normalization.

    The exact value is the split-sum total, i.e. L_n divided by the full
    prefactor (-z q^a)^n q^(n^2(1-s) + p(tau n + p)) / ((q;q)_inf^2
    (-z q^a e^(-2 n theta pi i))^p), carried in log-polar form throughout.
    The main term is Theta(-z q^(a + chi(m) + u) e^(-2 pi i v) | q) with
    (u, v) the case's pair of q-power and phase offsets.
    """
    if case_id not in (4, 5, 6, 7):
        raise DomainError(f"eval_case_theta handles cases 4-7, got {case_id}")
    tau = sp.tau.value
    if not (-2.0 < tau < 0.0):
        raise DomainError(f"theta regime needs -2 < tau < 0, got tau={tau}")
    want_tau_rat, want_theta_rat = _THETA_DECLS[case_id]
    if sp.tau.declared_rational() != want_tau_rat or \
            sp.theta.declared_rational() != want_theta_rat:
        raise DomainError(
            f"case {case_id} expects (tau rational={want_tau_rat}, "
            f"theta rational={want_theta_rat}); declarations disagree")

    q, alpha = ctx.q, ctx.alpha
    neg_tau = sp.tau.neg()
    m_exact, c_exact = neg_tau.mul_floor_frac(n)
    m1_exact, d_exact = sp.theta.mul_floor_frac(n)

    extra_conds: list[tuple[str, bool]] = []
    if case_id == 4:
        m, c = m_exact, c_exact
        u, v = c_exact, d_exact
        m1 = m1_exact
        witness = DiophantineWitness(n=n, m=m, m1=m1, target_beta=c_exact,
                                     residual=0.0, rho=0.0,
                                     target_beta2=d_exact, residual2=0.0)
        rho = None
    elif case_id == 5:
        if witness is None or witness.n != n:
            raise DomainError("case 5 needs a theta-side witness at this n")
        _check_witness(sp.theta, witness, n, witness.target_beta, witness.m,
                       witness.residual)
        m, c = m_exact, c_exact
        u, v = c_exact, witness.target_beta
        m1 = witness.m
        rho = witness.rho
    elif case_id == 6:
        if witness is None or witness.n != n:
            raise DomainError("case 6 needs a tau-side witness at this n")
        _check_witness(neg_tau, witness, n, witness.target_beta, witness.m,
                       witness.residual)
        # the witness decomposition -tau n = m + beta + a_n replaces the
        # default one; chi(m) and the split point follow the witness's m
        m = witness.m
        c = witness.target_beta + witness.residual
        u, v = witness.target_beta, d_exact
        m1 = m1_exact
        rho = witness.rho
        if m != m_exact:
            extra_conds.append(
                (f"witness m={m} wraps past floor(-tau n)={m_exact} (still exact)", True))
    else:
        if witness is None or witness.n != n or witness.m1 is None:
            raise DomainError("case 7 needs a joint witness at this n")
        _check_witness(neg_tau, witness, n, witness.target_beta, witness.m,
                       witness.residual)
        _check_witness(sp.theta, witness, n, witness.target_beta2, witness.m1,
                       witness.residual2)
        m = witness.m
        c = witness.target_beta + witness.residual
        u, v = witness.target_beta, witness.target_beta2
        m1 = witness.m1
        rho = witness.rho
        if m != m_exact:
            extra_conds.append(
                (f"witness m={m} wraps past floor(-tau n)={m_exact} (still exact)", True))

    split = split_sums(ctx, sp, n, decomposition=(m, c))
    exact_lp = split.total
    exact = exact_lp.to_complex()

    parity = chi(m)
    w_main = -ctx.z * q ** (alpha + parity + u) * cmath.exp(complex(0.0, -_TWO_PI * v))
    main = theta(w_main, q, ctx.tol, ctx.max_terms)
    observed = abs(exact - main)

    nu = nu_n(case_id, n, tau, q) if n >= 2 else 0
    lzqa = _log_zqa(ctx)
    lq = ctx.log_q
    if case_id == 4:
        pref = _theta_prefactor(ctx, 30.0)
        bound = pref * (_exp(0.5 * nu * lq)
                        + _exp(nu * lzqa + nu * nu * lq)
                        + _exp(0.5 * nu * nu * lq - nu * lzqa))
        meta = ("stated constant 30 retained for the majorant; the underlying "
                "derivation supports 15")
        conds = [
            (f"nu = {nu} >= 2*{MARGIN:.0f}", nu >= 2 * MARGIN),
            ("m >= 1", m >= 1),
            _floor_cond(bound),
        ]
    else:
        pref = _theta_prefactor(ctx, 96.0)
        logn = math.log(n)
        bound = pref * (_exp(nu * lzqa + nu * nu * lq)
                        + _exp(0.5 * nu * nu * lq - nu * lzqa)
                        + logn * logn / n ** rho)
        meta = ""
        conds = [
            (f"nu = {nu} >= 2*{MARGIN:.0f}", nu >= 2 * MARGIN),
            (f"nu <= n^rho/(8*{MARGIN:.0f})", nu <= n ** rho / (8.0 * MARGIN)),
            (f"q^nu <= nu/({MARGIN:.0f} n^rho)",
             q ** nu <= nu / (MARGIN * n ** rho) if nu > 0 else False),
            ("m >= 1", m >= 1),
            ("witness trusted", witness.trusted),
            _floor_cond(bound),
        ]
    conds.extend(extra_conds)
    eligible, notes = _conds_to_notes(conds)
    return RegimeReport(case_id=case_id, n=n, exact=exact_lp, main=main,
                        observed_error=observed, bound=bound, eligible=eligible,
                        eligibility_notes=notes, bound_holds=observed <= bound,
                        witness=witness, nu=nu, m=m, m1=m1, meta=meta)


# ---------------------------------------------------------------------------
# grid driver
# ---------------------------------------------------------------------------

def witness_plan(case_id: int, sp: ScalingParameter, beta: float,
                 rho: float | None = None) -> tuple[RealValue, float]:
    """The angle a witness-driven case searches (theta in cases 3 and 5,
    -tau in 6 and 7, where theta is the joint search's second angle) and
    its exponent: rho, or the default for that angle and target."""
    angle = sp.tau.neg() if case_id in (6, 7) else sp.theta
    if rho is None:
        rho = default_rho(angle, beta, joint=case_id == 7)
    return angle, rho


def run_verify(ctx: QContext, sp: ScalingParameter, *,
               case_id: int | None = None,
               n_values: list[int] | None = None,
               beta: float = 0.0, beta2: float = 0.0,
               rho: float | None = None,
               n_max: int | None = None) -> list[RegimeReport]:
    """Evaluate a regime over a degree grid or over searched witnesses.

    Cases 1, 2, 4 run at every requested n.  Cases 3, 5, 6, 7 run at the
    witnesses found up to n_max (default: top of the n grid, else 10^4),
    optionally intersected with an explicit n grid.
    """
    cid = case_id if case_id is not None else classify_case(sp)
    if cid != classify_case(sp):
        raise DomainError(
            f"requested case {cid} but (tau, theta) declarations give case "
            f"{classify_case(sp)}")

    if cid in (1, 2, 4):
        if not n_values:
            raise DomainError("this case needs an explicit n grid")
        if cid == 1:
            return [eval_case1(ctx, sp, n) for n in sorted(n_values)]
        if cid == 2:
            return [eval_case_aq(ctx, sp, n, 2) for n in sorted(n_values)]
        return [eval_case_theta(ctx, sp, n, 4) for n in sorted(n_values) if n >= 1]

    top = n_max or (max(n_values) if n_values else 10_000)
    keep = set(n_values) if n_values else None
    angle, r = witness_plan(cid, sp, beta, rho)
    if cid == 7:
        wits = joint_witness_search(angle, sp.theta, beta, beta2, r, top)
    else:
        wits = witness_search(angle, beta, r, top)

    out = []
    for w in wits:
        if keep is not None and w.n not in keep:
            continue
        if cid == 3:
            out.append(eval_case_aq(ctx, sp, w.n, 3, witness=w))
        else:
            out.append(eval_case_theta(ctx, sp, w.n, cid, witness=w))
    return out


def fit_decay_slope(ns: list[int], errors: list[float],
                    log_abscissa: bool = False) -> float:
    """Least-squares slope of log(error) against n (or log n)."""
    xs, ys = [], []
    for n, e in zip(ns, errors):
        if e > 0.0 and math.isfinite(e):
            xs.append(math.log(n) if log_abscissa else float(n))
            ys.append(math.log(e))
    if len(xs) < 2:
        raise DomainError("need at least two positive errors to fit a slope")
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0.0:
        raise DomainError("degenerate abscissa for slope fit")
    return sxy / sxx


def predicted_decay(case_id: int, ctx: QContext, sp: ScalingParameter,
                    rho: float) -> tuple[str, float]:
    """Predicted decay of the observed error for sweep reporting.

    Returns ("exp_n", s) for errors ~ e^(s n) (cases 1 and 4) or
    ("pow_n", s) for errors ~ n^s up to log^2 factors (cases 3, 5-7), where
    rho is the witness exponent of the search (see :func:`witness_plan`).
    """
    tau = sp.tau.value
    if case_id == 1:
        return "exp_n", tau * ctx.log_q
    if case_id == 4:
        rate = min((2.0 + tau) / 8.0, -tau / 8.0)
        return "exp_n", 0.5 * rate * ctx.log_q
    if case_id == 2:
        return "exp_n", 0.5 * ctx.log_q
    if case_id in (3, 5, 6, 7):
        return "pow_n", -rho
    raise DomainError(f"no prediction for case {case_id}")

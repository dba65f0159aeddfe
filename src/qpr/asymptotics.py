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

One function per regime row, eval_case1, eval_case_aq or eval_case_theta,
returns the row record of qpr.certify, a RegimeReport, from certify_row,
which holds the verdict and the eligibility rules; run_verify calls them.

The majorant prefactors are computed once per context.  The main terms are
memoized per context on the exact quantities their argument is built from
(lam = {n theta} or the witness target in cases 2 and 3; chi(m), u and v in
cases 4-7), which recur with period at most 2 lcm of the denominators.
The exact values of saturated case-4 and case-5 rows reuse their term logs
the same way, per context on chi(m) and c_n = {-tau n}, and saturated
tau = 0 rows their whole reversed sum, per context on {n theta}; the first
row of a residue whose own sum has the saturated terms fills
qlaguerre._saturated for the rows after it.  The
q-series take their phases from numerics.phase, in (-pi, pi], so the sign
of a zero (in z or in a residue) reaches no main term, the term logs do
not depend on it, and memo keys that compare 0.0 equal to -0.0 return the
right value.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Sequence

from .certify import MARGIN, RegimeReport, certify_row
from .diophantine import DiophantineWitness, check_search, default_rho, joint_witness_search, \
    witness_search
from .numerics import TWO_PI, DomainError, Majorant, exp_or_inf, lp, lp_mul, pow_or_inf
from .qseries import QContext, aq_series_lp, b_function, pochhammer, ramanujan_a, theta
from .qlaguerre import ScalingParameter, normalized_laguerre_lp, split_sums
from .reals import RealValue, chi

# Regimes certified at searched witness degrees (cases 1, 2, 4 take a dense grid).
WITNESS_CASES = (3, 5, 6, 7)

# The side-condition names, but for the row's own value of nu
_NU_FLOOR = f" >= 2*{MARGIN:.0f}"
_AQ_NU_CAP = f"nu <= n^min(1,rho)/(8*{MARGIN:.0f})"
_AQ_TAIL = f"q^(n/2) <= nu/({MARGIN:.0f} n^rho)"
_THETA_NU_CAP = f"nu <= n^rho/(8*{MARGIN:.0f})"
_THETA_TAIL = f"q^nu <= nu/({MARGIN:.0f} n^rho)"


def nu_n(case_id: int, n: int, tau: float, q: float) -> int:
    """Series cutoff for the error analysis.

    Cases 3, 5, 6, 7: floor(q^4 log^2 n / (1 + log(1/q))), natural logs.
    Case 4: min(floor((2+tau)n/8), floor(-tau*n/8)), requiring -2 < tau < 0.
    Both give 0 at n = 1.
    """
    if n < 1:
        raise DomainError("nu_n needs n >= 1")
    if case_id == 4:
        if not (-2.0 < tau < 0.0):
            raise DomainError(f"case 4 cutoff needs -2 < tau < 0, got {tau}")
        return min(math.floor((2.0 + tau) * n / 8.0), math.floor(-tau * n / 8.0))
    if case_id in WITNESS_CASES:
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

def _series_arg(ctx: QContext, name: str, w: complex, den: complex | None = None) -> complex:
    """w, or w / den, a q-series argument built from z, checked to lie in double range (den = 0
    is checked before dividing); a theta argument that underflowed to 0 is refused too."""
    w = w if den is None else w / den if den else math.inf
    if not cmath.isfinite(w):
        raise DomainError(f"{name} must be finite, got {w} at z = {ctx.z}")
    if w == 0 and name.startswith("theta"):
        raise DomainError(f"{name} underflows to 0 at z = {ctx.z}")
    return w


# The prefactors depend on the context alone; verify rows share one context,
# so each is computed once per context rather than once per row.
@lru_cache(maxsize=16)
def _aq_prefactor(ctx: QContext, constant: float) -> float:
    c2 = pochhammer(-ctx.q ** 2, ctx.q, None).real ** 2
    arg = _series_arg(ctx, "B_q argument 1/|z q^alpha|", exp_or_inf(-ctx.log_zqa))
    big_b = b_function(ctx.q, arg).real
    return constant * c2 * big_b / ((1.0 - ctx.q) ** 3 * math.exp(ctx.tq.log_inf))


@lru_cache(maxsize=16)
def _theta_prefactor(ctx: QContext, constant: float) -> float:
    c3 = pochhammer(-ctx.q ** 2, ctx.q, None).real ** 3
    arg = _series_arg(ctx, "theta argument |z q^alpha|", exp_or_inf(ctx.log_zqa))
    big_t = theta(complex(arg), math.sqrt(ctx.q)).real
    return constant * c3 * big_t / ((1.0 - ctx.q) ** 4 * math.exp(ctx.tq.log_inf))


@lru_cache(maxsize=16)
def _case1_log_prefactor(ctx: QContext) -> float:
    """log of q^(1-a) B_q(q^(2-a)/|z|) / ((1-q)|z|), the n-independent factor of the case-1
    majorant; log B_q is taken from its double where finite, so in-range bounds keep their bits."""
    arg = _series_arg(ctx, "B_q argument q^(2-alpha)/|z|", ctx.q ** (2.0 - ctx.alpha) / ctx.abs_z)
    b = aq_series_lp(ctx.q, arg, False)
    value = b.to_complex().real
    log_b = math.log(value) if math.isfinite(value) else b.log_mag
    return (1.0 - ctx.alpha) * ctx.log_q + log_b - math.log(1.0 - ctx.q) - math.log(ctx.abs_z)


# 256 entries hold a period of the residues for the grids in use; a longer
# period only misses
@lru_cache(maxsize=256)
def _aq_main(ctx: QContext, target: float) -> complex:
    """A_q(e^(2 pi i target)/(z q^a)), the main term of cases 2 and 3."""
    return ramanujan_a(ctx.q, _series_arg(ctx, "A_q argument e^(2 pi i lam)/(z q^alpha)",
                                          cmath.exp(complex(0.0, TWO_PI * target)),
                                          ctx.z * ctx.q ** ctx.alpha))


@lru_cache(maxsize=256)
def _theta_main(ctx: QContext, parity: int, u: float, v: float) -> complex:
    """Theta(-z q^(a + parity + u) e^(-2 pi i v) | q), the main term of cases
    4-7."""
    w = -ctx.z * ctx.q ** (ctx.alpha + parity + u) * cmath.exp(complex(0.0, -TWO_PI * v))
    return theta(_series_arg(ctx, "theta argument -z q^(alpha+chi+u) e^(-2 pi i v)", w), ctx.q)


# ---------------------------------------------------------------------------
# the shared row steps: case check, witness plan
# ---------------------------------------------------------------------------

def check_case(case_id: int) -> int:
    """case_id, checked to be one of the seven cases."""
    if case_id not in (1, 2, 3, 4, 5, 6, 7):
        raise DomainError(f"expected one of cases (1, 2, 3, 4, 5, 6, 7), got {case_id}")
    return case_id


def _require_case(sp: ScalingParameter, case_id: int) -> int:
    """case_id, checked to be one of the seven cases and the one the (tau, theta)
    declarations give, which covers every range and rationality condition."""
    check_case(case_id)
    declared = classify_case(sp)
    if case_id != declared:
        raise DomainError(f"requested case {case_id} but (tau, theta) declarations "
                          f"give case {declared}")
    return case_id


def witness_plan(case_id: int, sp: ScalingParameter, beta: float,
                 rho: float | None = None) -> tuple[RealValue, float]:
    """The angle a witness-driven case searches (theta in cases 3 and 5,
    -tau in 6 and 7, where theta is the joint search's second angle) and
    its exponent: rho, or the default for that angle and target."""
    angle = sp.neg_tau if case_id in (6, 7) else sp.theta
    if rho is None:
        rho = default_rho(angle, beta, joint=case_id == 7)
    return angle, rho


def _over(x: float, d: float) -> float:
    """x / d, read as inf where d, a power n^rho, underflowed to 0 (rho far
    below 0): the row's bound then leaves double range, as it does in exact
    arithmetic, instead of dividing by zero."""
    return x / d if d else math.inf


def _witness_powers(n: int, rho: float) -> tuple[float, float]:
    """n^rho (inf where it overflows) and the witness piece log^2 n / n^rho."""
    n_rho, logn = pow_or_inf(n, rho), math.log(n)
    return n_rho, _over(logn * logn, n_rho)


# ---------------------------------------------------------------------------
# case 1: tau > 0
# ---------------------------------------------------------------------------

# The three row functions' names are the spans perfbench/tracer.py reads.
def eval_case1(ctx: QContext, sp: ScalingParameter, n: int) -> RegimeReport:
    """The case-1 row at n, a case run_verify has checked: main term 1, error
    majorant q^(1-a) B_q(q^(2-a)/|z|) q^(tau n) / ((1-q)|z|).  The
    normalization constant is the finite (q;q)_n, which makes the k = 0
    term of the reversed sum exactly 1 and is what the stated majorant
    provably dominates; with (q;q)_inf the k = 0 term deviates by
    (q^(n+1);q)_inf - 1, a q^n-sized error the majorant cannot absorb once
    tau >= 1 (numerically violated at q=1/2, z=1, tau=1).
    """
    exact = lp_mul(normalized_laguerre_lp(ctx, sp, n), lp(ctx.tq.log(n), 0.0))
    majorant = Majorant(None, (sp.tau.value * n * ctx.log_q,),
                        log_prefactor=_case1_log_prefactor(ctx))
    return certify_row(1, n, exact, 1.0 + 0j, majorant, [],
                    meta="normalized with the finite constant (q;q)_n")


# ---------------------------------------------------------------------------
# cases 2 and 3: tau = 0, main term A_q
# ---------------------------------------------------------------------------

def eval_case_aq(ctx: QContext, sp: ScalingParameter, n: int, case_id: int,
                 witness: DiophantineWitness | None = None) -> RegimeReport:
    """The row at n of case 2 or 3 (tau = 0), a case run_verify has checked:
    main term A_q at a root-of-unity-twisted argument.  Case 2 (theta
    rational) uses the exact fractional part lam = {n theta} and carries no
    arithmetic error term; case 3 (theta irrational) runs at a witness
    n*theta = m + beta + gamma_n with |gamma_n| <= n^-rho that run_verify
    supplies from its own search.
    """
    lq, lzqa = ctx.log_q, ctx.log_zqa
    if case_id == 2:
        m_th, lam = sp.theta.mul_floor_frac(n)
        witness = DiophantineWitness(n=n, m=m_th, m1=None, target_beta=lam,
                                     residual=0.0, rho=0.0)

    main = _aq_main(ctx, witness.target_beta)
    exact = lp_mul(normalized_laguerre_lp(ctx, sp, n), lp(ctx.tq.log_inf, 0.0))

    if case_id == 2:
        nu = None
        majorant = Majorant(_aq_prefactor(ctx, 7.0), (
            0.5 * n * lq, 0.25 * n * n * lq - (n // 2) * lzqa))
        conds = [("n >= 2", n >= 2)]
    else:
        nu = nu_n(3, n, 0.0, ctx.q)
        n_rho, arithmetic = _witness_powers(n, witness.rho)
        majorant = Majorant(_aq_prefactor(ctx, 48.0), (nu * nu * lq - nu * lzqa,), arithmetic)
        conds = [
            (f"nu = {nu} >= 2", nu >= 2),
            (_AQ_NU_CAP, nu <= min(n_rho, n) / (8.0 * MARGIN)),  # = n^min(1,rho) at n >= 1
            (_AQ_TAIL, nu > 0 and math.exp(0.5 * n * lq) <= _over(nu, MARGIN * n_rho)),
            ("witness trusted", witness.trusted),
        ]
    return certify_row(case_id, n, exact, main, majorant, conds,
                    witness=witness, nu=nu, m=witness.m)


# ---------------------------------------------------------------------------
# cases 4-7: -2 < tau < 0, main term Theta
# ---------------------------------------------------------------------------

def eval_case_theta(ctx: QContext, sp: ScalingParameter, n: int, case_id: int,
                    witness: DiophantineWitness | None = None) -> RegimeReport:
    """The row at n of case 4, 5, 6 or 7 (-2 < tau < 0), a case run_verify
    has checked; cases 5-7 run at a witness it supplies from its own search.

    The exact value is the split-sum total, i.e. L_n divided by the full
    prefactor (-z q^a)^n q^(n^2(1-s) + p(tau n + p)) / ((q;q)_inf^2
    (-z q^a e^(-2 n theta pi i))^p), carried in log-polar form throughout
    (the bilateral-theta normalization).  The main term is
    Theta(-z q^(a + chi(m) + u) e^(-2 pi i v) | q) with (u, v) the case's
    pair of q-power and phase offsets.
    """
    q = ctx.q
    tail, decomposition = [], None
    if case_id in (6, 7):
        # the witness decomposition -tau n = m + beta + a_n replaces the
        # default one; chi(m) and the split point follow the witness's m
        decomposition = (witness.m, witness.target_beta + witness.residual)
        m_floor, _ = sp.neg_tau.mul_floor_frac(n)
        if witness.m != m_floor:
            tail.append((f"witness m={witness.m} wraps past floor(-tau n)={m_floor} "
                         "(still exact)", True))

    # split_sums owns -tau n = m + c and n theta = m1 + v; u = c outside cases 6-7
    split = split_sums(ctx, sp, n, decomposition=decomposition)
    exact, m, m1, v = split.total, split.m, split.m1, split.d_n
    u = witness.target_beta if case_id in (6, 7) else split.c_n
    if case_id == 4:
        witness = DiophantineWitness(n=n, m=m, m1=m1, target_beta=u, residual=0.0,
                                     rho=0.0, target_beta2=v, residual2=0.0)
    elif case_id == 5:
        m1, v = witness.m, witness.target_beta
    elif case_id == 7:
        m1, v = witness.m1, witness.target_beta2
    main = _theta_main(ctx, chi(m), u, v)

    nu = nu_n(case_id, n, sp.tau.value, q)
    lq, lzqa = ctx.log_q, ctx.log_zqa
    if case_id == 4:
        majorant = Majorant(_theta_prefactor(ctx, 30.0), (
            0.5 * nu * lq, nu * lzqa + nu * nu * lq, 0.5 * nu * nu * lq - nu * lzqa))
        meta = ("stated constant 30 retained for the majorant; the underlying "
                "derivation supports 15")
        conds = [
            (f"nu = {nu}{_NU_FLOOR}", nu >= 2 * MARGIN),
            ("m >= 1", m >= 1),
        ]
    else:
        n_rho, arithmetic = _witness_powers(n, witness.rho)
        majorant = Majorant(_theta_prefactor(ctx, 96.0), (
            nu * lzqa + nu * nu * lq, 0.5 * nu * nu * lq - nu * lzqa), arithmetic)
        meta = ""
        conds = [
            (f"nu = {nu}{_NU_FLOOR}", nu >= 2 * MARGIN),
            (_THETA_NU_CAP, nu <= n_rho / (8.0 * MARGIN)),
            (_THETA_TAIL, nu > 0 and q ** nu <= _over(nu, MARGIN * n_rho)),
            ("m >= 1", m >= 1),
            ("witness trusted", witness.trusted),
        ]
    return certify_row(case_id, n, exact, main, majorant, conds, tail=tail, meta=meta,
                    witness=witness, nu=nu, m=m, m1=m1)


# ---------------------------------------------------------------------------
# grid driver
# ---------------------------------------------------------------------------

def _evaluate(ctx: QContext, sp: ScalingParameter, n: int, case_id: int,
              witness: DiophantineWitness | None = None) -> RegimeReport:
    """The row of a case run_verify has checked, at a witness of its own
    search: _scan reports decompose's (m, residual) on witness_plan's angle
    at every hit, so the witness is consistent by construction."""
    if case_id == 1:
        return eval_case1(ctx, sp, n)
    if case_id in (2, 3):
        return eval_case_aq(ctx, sp, n, case_id, witness)
    return eval_case_theta(ctx, sp, n, case_id, witness)


def run_verify(ctx: QContext, sp: ScalingParameter, *,
               case_id: int | None = None,
               n_values: Sequence[int] | None = None,
               beta: float = 0.0, beta2: float = 0.0,
               rho: float | None = None,
               n_max: int | None = None) -> list[RegimeReport]:
    """Evaluate a regime over a degree grid or over searched witnesses.

    Cases 1, 2, 4 run at every requested n (case 4 from n = 1).  Cases 3,
    5, 6, 7 run at the witnesses found up to n_max (default: top of the n
    grid, else the search's default), optionally intersected with an
    explicit n grid.  The search settings are checked in every case.
    """
    cid = classify_case(sp) if case_id is None else _require_case(sp, case_id)
    check_search((beta, beta2), rho, n_max)

    if cid not in WITNESS_CASES:
        if not n_values:
            raise DomainError("this case needs an explicit n grid")
        return [_evaluate(ctx, sp, n, cid) for n in sorted(n_values) if cid != 4 or n >= 1]

    top = n_max
    if n_values and n_max is None:  # a range's top is an end point: max() walks it all
        top = (max(n_values[0], n_values[-1]) if isinstance(n_values, range)
               else max(n_values))
    angle, r = witness_plan(cid, sp, beta, rho)
    if cid == 7:
        wits = joint_witness_search(angle, sp.theta, beta, beta2, r, top)
    else:
        wits = witness_search(angle, beta, r, top)
    return [_evaluate(ctx, sp, w.n, cid, w) for w in wits
            if not n_values or w.n in n_values]


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
    if case_id in WITNESS_CASES:
        return "pow_n", -rho
    raise DomainError(f"no prediction for case {case_id}")

"""Scaled q-Laguerre polynomial evaluation.

Three routes to the same polynomial, each owning a regime:

* ``laguerre_direct`` - the defining degree-n sum at an explicit argument,
  range-guarded because its terms overflow doubles quickly;
* ``normalized_laguerre_lp`` - the reversed normalized sum
  L_n(x_n)/((-z q^a)^n q^(n^2(1-s))), whose terms stay tame for tau >= 0;
* ``split_sums`` - the two theta-normalized half sums used when
  -2 < tau < 0, where the reversed sum's terms span hundreds of decades and
  the natural normalization is the bilateral theta scale.

Every sum is generated termwise in log-polar form, with consecutive-term
Pochhammer updates served from saturating log tables, and reduced by
rescaled compensated summation.  Fractional parts of n*tau and n*theta come
from the exact RealValue reduction, so phases stay accurate at degrees
where n*theta itself has outgrown double resolution.

Once a strip row's Pochhammer indices pass the tables' saturation point,
its half sums' term logs depend on n only through chi(m) and c_n = {-tau*n},
which for an exact rational tau recur with period at most 2 den(tau).
split_sums then reads both halves' logs from a per-context memo, computes
only the row's phases (both halves' from one pass), and sums the same
terms, the memo's logs as they are: the bytes do not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

from .diophantine import RealValue, as_real_value, chi
from .numerics import (
    ConvergenceError,
    DomainError,
    LogPolarComplex,
    RangeGuardError,
    TWO_PI,
    abs_or_inf,
    certified_terms,
    exp_or_inf,
    mirrored_phases,
    phase,
    phase_mul_int,
    step_phases,
    sum_rescaled,
    wrap_phase,
)
from .qseries import QContext

# Natural-log headroom for direct evaluation; e^700 is close to the double max.
_DIRECT_GUARD = 700.0


@dataclass(frozen=True)
class ScalingParameter:
    """The scaling exponent s = tau + 2 + i*2*theta*pi/log q.

    tau and theta are declared RealValues (exact rational, quadratic surd,
    or assumption-tagged float); rationality drives regime dispatch and is
    never inferred from a double.
    """

    tau: RealValue
    theta: RealValue
    neg_tau: RealValue = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", as_real_value(self.tau))
        object.__setattr__(self, "theta", as_real_value(self.theta))
        object.__setattr__(self, "neg_tau", self.tau.neg())


def laguerre_direct(ctx: QContext, n: int, x: complex) -> complex:
    """The degree-n sum with prefactor (q^(a+1);q)_n/(q;q)_n at argument x.

    Raises RangeGuardError when the largest term would leave double range;
    callers should then switch to the normalized or split paths.
    """
    if n < 0:
        raise DomainError("degree n must be nonnegative")
    alpha, lq = ctx.alpha, ctx.log_q
    x = complex(x)
    abs_x = abs_or_inf(x)
    if not math.isfinite(abs_x):
        raise DomainError(f"x must be finite, got {x}")
    tq, ta = ctx.tq, ctx.ta
    log_abs_x = math.log(abs_x) if x != 0 else -math.inf
    ph = wrap_phase(math.pi + phase(x)) if x != 0 else 0.0

    def term_log(k: int) -> float:
        if k > 0 and x == 0:
            return -math.inf
        return (ta.log(n) - ta.log(k) - tq.log(k) - tq.log(n - k)
                + (k * k + alpha * k) * lq + (k * log_abs_x if k else 0.0))

    logs = [term_log(k) for k in range(n + 1)]
    peak = max(logs)
    if peak >= _DIRECT_GUARD:
        raise RangeGuardError(
            f"direct evaluation at degree {n} needs log-range {peak:.1f}; "
            "use the normalized or split evaluation paths"
        )
    phases = [phase_mul_int(ph, k) for k in range(n + 1)]
    return sum_rescaled(logs, phases).to_complex()


def normalized_laguerre_lp(ctx: QContext, sp: ScalingParameter, n: int) -> LogPolarComplex:
    """L_n(x_n(z,s);q) / ((-z q^a)^n q^(n^2 (1-s))) by the reversed sum, in
    log-polar form.

    Only for tau >= 0: in the strip -2 < tau < 0 the reversed sum's terms
    grow like q^(-(tau n)^2/4) and this path silently loses the
    normalization the theory wants, so it refuses and points at
    :func:`split_sums` instead.
    """
    if n < 0:
        raise DomainError("degree n must be nonnegative")
    if sp.tau.value < 0.0:
        raise RangeGuardError(
            "the plain reversed sum is refused for tau < 0; evaluate via "
            "split_sums, which carries the theta-regime normalization"
        )
    q, lq = ctx.q, ctx.log_q
    tq, ta = ctx.tq, ctx.ta
    tau_n = sp.tau.value * n
    _, d_n = sp.theta.mul_floor_frac(n)
    log_zqa = ctx.log_zqa
    log_1mq = math.log1p(-q)
    terms = certified_terms(
        term_log=lambda k: (ta.log(n) - tq.log(k) - tq.log(n - k) - ta.log(n - k)
                            + (k * k + tau_n * k) * lq - k * log_zqa),
        phase_step=wrap_phase(math.pi - phase(ctx.z) + TWO_PI * d_n),
        ratio_bound=lambda k: exp_or_inf((2 * k + 1 + tau_n) * lq - log_zqa - log_1mq),
        stop=n,
    )
    return sum_rescaled(*terms).to_lp()


class SplitSumResult(NamedTuple):
    """Both theta-normalized half sums plus the decomposition bookkeeping.

    total is the sum of both halves, the polynomial's value in the
    normalization N * (q;q)_inf^2 * (-z q^a e^(-2 pi i d_n))^p /
    q^(p*(tau*n + p)) with p = floor(m/2); m, c_n come from
    -tau*n = m + c_n and m1, d_n from n*theta = m1 + d_n.  total is summed
    once, over the terms of both halves together; terms1 and terms2 keep each
    half's (logs, phases).  The phases are lists of this result's own; the
    logs of a saturated row are the memo's tuples, which no result can change.
    """

    total: LogPolarComplex
    terms1: tuple[Sequence[float], list[float]]
    terms2: tuple[Sequence[float], list[float]]
    m: int
    floor_m_half: int
    c_n: float
    d_n: float
    m1: int


def _log_factor_e(tq, ta, log_euler2, log_an, p: int, n: int, k: int) -> float:
    return log_euler2 + log_an - tq.log(p - k) - tq.log(n - p + k) - ta.log(n - p + k)


def _log_factor_f(tq, ta, log_euler2, log_an, p: int, n: int, k: int) -> float:
    return log_euler2 + log_an - tq.log(p + k) - tq.log(n - p - k) - ta.log(n - p - k)


def _factor(ctx: QContext, name: str, log_factor, k: int, n: int, m: int) -> float:
    if not (0 <= m <= 2 * n):
        raise DomainError(f"{name} needs 0 <= m <= 2n, got m={m}, n={n}")
    return math.exp(log_factor(ctx.tq, ctx.ta, 2.0 * ctx.tq.log_inf, ctx.ta.log(n), m // 2, n, k))


def factor_e(ctx: QContext, k: int, n: int, m: int) -> float:
    """Pochhammer ratio attached to term k of the reversed lower half sum;
    lies in (0, 1] and tends to 1 as the indices grow."""
    if not (0 <= k <= m // 2):
        raise DomainError(f"factor_e needs 0 <= k <= floor(m/2), got k={k}, m={m}")
    return _factor(ctx, "factor_e", _log_factor_e, k, n, m)


def factor_f(ctx: QContext, k: int, n: int, m: int) -> float:
    """Pochhammer ratio attached to term k of the shifted upper half sum;
    lies in (0, 1] and tends to 1 as the indices grow."""
    if not (1 <= k <= n - m // 2):
        raise DomainError(f"factor_f needs 1 <= k <= n - floor(m/2), got k={k}")
    return _factor(ctx, "factor_f", _log_factor_f, k, n, m)


def _log_w1(ctx: QContext, parity: int, c_n: float) -> float:
    """log|w1| of w1 = -z q^(a + chi(m) + c_n) e^(-2 pi i d_n)."""
    return math.log(ctx.abs_z) + (ctx.alpha + parity + c_n) * ctx.log_q


def _half_terms(ctx: QContext, n: int, p: int, log_an: float, log_w1: float, ph_w1: float,
                windows: tuple, stops: tuple) -> tuple:
    """Both half sums' (logs, phases), each from certified_terms.  Term k of
    the lower (upper) half reads one float for its Pochhammer factors where
    windows' e_lo <= k <= e_hi (f_lo <= k <= f_hi), all its indices being
    saturated there, and the factor at indices from p and n elsewhere."""
    lq = ctx.log_q
    tq, ta = ctx.tq, ctx.ta
    log_euler2 = 2.0 * tq.log_inf
    # table.log(i) is logs[sat] for all i >= sat, so for the k whose indices are
    # all saturated each factor is this float, by the same expression
    sat_factor = log_euler2 + log_an - tq.log_inf - tq.log_inf - ta.log_inf
    e_lo, e_hi, f_lo, f_hi = windows

    # Pochhammer factors are <= 1, so q^(k^2) |w1|^(+-k) majorizes each tail.
    terms1 = certified_terms(
        term_log=lambda k: (k * k * lq + k * log_w1
                            + (sat_factor if e_lo <= k <= e_hi else
                               _log_factor_e(tq, ta, log_euler2, log_an, p, n, k))),
        phase_step=ph_w1,
        ratio_bound=lambda k: exp_or_inf((2 * k + 1) * lq + log_w1),
        stop=stops[0],
        tail_log=lambda k: k * k * lq + k * log_w1,
    )
    terms2 = certified_terms(
        term_log=lambda k: (k * k * lq - k * log_w1
                            + (sat_factor if f_lo <= k <= f_hi else
                               _log_factor_f(tq, ta, log_euler2, log_an, p, n, k))),
        phase_step=wrap_phase(-ph_w1),
        ratio_bound=lambda k: exp_or_inf((2 * k + 1) * lq - log_w1),
        start=1,
        stop=stops[1],
        tail_log=lambda k: k * k * lq - k * log_w1,
    )
    return terms1, terms2


# 256 entries hold a period of (chi(m), c_n), at most 2 den(tau), for the
# grids in use; a longer period only misses
@lru_cache(maxsize=256)
def _saturated_logs(ctx: QContext, parity: int, c_n: float) -> tuple | None:
    """Both halves' term logs, then the two joined, as tuples, when every
    factor is saturated: they
    depend on n only through (chi(m), c_n).  Summed to their certified end,
    with no stop, by split_sums' expressions at log (q^(a+1);q)_n =
    log (q^(a+1);q)_inf; None where that end lies past MAX_TERMS."""
    inf = math.inf
    try:
        # every k lies inside the windows, so the indices p = n = 0 are never read
        terms1, terms2 = _half_terms(ctx, 0, 0, ctx.ta.log_inf, _log_w1(ctx, parity, c_n),
                                     0.0, (-inf, inf, -inf, inf), (None, None))
    except ConvergenceError:
        return None
    logs1, logs2 = tuple(terms1[0]), tuple(terms2[0])
    return logs1, logs2, logs1 + logs2


def split_sums(ctx: QContext, sp: ScalingParameter, n: int,
               decomposition: tuple[int, float] | None = None) -> SplitSumResult:
    """Evaluate the two theta-normalized half sums for -2 < tau < 0.

    The lower half is reversed and the upper half shifted so that both read
    sum_k q^(k^2) w^(+-k) times a Pochhammer factor in (0,1]; their terms are
    bounded, so no further rescaling is needed to stay inside double range.

    ``decomposition`` overrides (m, c_n) with a witness decomposition
    -tau*n = m + c_n; by default m = floor(-tau*n) and c_n = {-tau*n}.  The
    identity behind the split holds for any integer m (only the
    normalization shifts with it), so the override is checked for
    consistency with tau*n rather than for a particular range.

    With the default decomposition of an exact rational tau, a row whose
    indices n - p and p are past the tables' saturation point takes its term
    logs from _saturated_logs, if both halves end inside their saturated
    windows, and computes only its phases, both halves' from one
    step_phases pass; the bits are those of the terms certified_terms would
    give it.
    """
    tau = sp.tau.value
    if not (-2.0 < tau < 0.0):
        raise DomainError(f"split evaluation needs -2 < tau < 0, got tau={tau}")
    if n < 1:
        raise DomainError("split evaluation needs n >= 1")

    if decomposition is None:
        m, c_n = sp.neg_tau.mul_floor_frac(n)
    else:
        m, c_n = decomposition
        slack = abs(-tau * n - (m + c_n))
        if slack > 1e-6 * max(1.0, abs(tau) * n) or abs(c_n) >= 2.0:
            raise DomainError(
                f"decomposition m={m}, c={c_n} is inconsistent with -tau*n={-tau * n}")
    if m < 0 or m > 2 * n:
        raise DomainError(f"decomposition integer m={m} incompatible with n={n}")
    m1, d_n = sp.theta.mul_floor_frac(n)
    p = m // 2
    parity = chi(m)
    tq, ta = ctx.tq, ctx.ta
    top = max(tq.sat, ta.sat)
    # w1 = -z q^(a + chi(m) + c_n) e^(-2 pi i d_n); w2 = 1/w1.
    ph_w1 = wrap_phase(math.pi + phase(ctx.z) - TWO_PI * d_n)

    halves = None
    if decomposition is None and sp.tau.kind == "rational" and n - p >= top and p >= tq.sat:
        halves = _saturated_logs(ctx, parity, c_n)
    if halves is not None and len(halves[0]) - 1 <= p - tq.sat and len(halves[1]) <= n - p - top:
        logs1, logs2, logs = halves
        k1, k2 = len(logs1) - 1, len(logs2)
        phases1 = step_phases(ph_w1, 0, max(k1, k2))
        phases2 = mirrored_phases(ph_w1, phases1, k2)
        del phases1[k1 + 1:]
        terms1, terms2 = (logs1, phases1), (logs2, phases2)
    else:
        terms1, terms2 = _half_terms(
            ctx, n, p, ta.log(n), _log_w1(ctx, parity, c_n), ph_w1,
            (top - n + p, p - tq.sat, tq.sat - p, n - p - top), (p, n - p))
        logs = terms1[0] + terms2[0]
    total = sum_rescaled(logs, terms1[1] + terms2[1])
    return SplitSumResult(total.to_lp(), terms1, terms2, m, p, c_n, d_n, m1)

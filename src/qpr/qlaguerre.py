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

Term k of a sum has the angle wrap_phase(k phi) of the sum's phase step phi,
which depends on n only through d_n = {n theta}.  certified_terms gives a
sum's logs, and _pairs the (cos, sin) pairs of those angles, once per sum.
For an exact rational theta the step recurs with period den(theta), so
_step_pairs keeps one list of pairs per step, shared by every row and
context with that step and extended as far as the longest sum has read: the
reversed sum (cases 1 and 2) and both split halves (cases 4 and 6) slice
their pairs from it.  Cases 3, 5 and 7 form their pairs per sum.  Either
way the pairs are those of step_phases.

Once a row's Pochhammer indices pass the tables' saturation point, its
terms depend on n only through a residue: d_n = {n theta} for the reversed
sum of a tau = 0 row, recurring with period den(theta) for a rational
theta, and (chi(m), c_n), c_n = {-tau*n}, for the half sums of a strip row,
recurring with period at most 2 den(tau) for an exact rational tau.
_saturated keeps one slot per context and residue.  The first row of the
residue whose own sum ends with every index it read saturated fills it; a
later row that would end there too reads it, the reversed sum's value or
both halves' logs with phases of the row's own, and the bytes do not change.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

from .numerics import (
    DomainError,
    LogPolarComplex,
    RangeGuardError,
    TWO_PI,
    abs_or_inf,
    certified_terms,
    exp_or_inf,
    phase,
    step_phases,
    sum_rescaled,
    wrap_phase,
)
from .qseries import QContext
from .reals import RealValue, as_real_value, chi

# Natural-log headroom for direct evaluation; e^700 is close to the double max.
_DIRECT_GUARD = 700.0


class ScalingParameter:
    """The scaling exponent s = tau + 2 + i*2*theta*pi/log q.

    tau and theta are declared RealValues (exact rational, quadratic surd,
    or assumption-tagged float); rationality drives regime dispatch and is
    never inferred from a double.  neg_tau is -tau, kept for the strip's
    split point.
    """

    def __init__(self, tau: RealValue, theta: RealValue) -> None:
        self.tau = as_real_value(tau)
        self.theta = as_real_value(theta)
        self.neg_tau = self.tau.neg()


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
    return sum_rescaled(logs, step_phases(ph, 0, n)).to_complex()


def normalized_laguerre_lp(ctx: QContext, sp: ScalingParameter, n: int) -> LogPolarComplex:
    """L_n(x_n(z,s);q) / ((-z q^a)^n q^(n^2 (1-s))) by the reversed sum, in
    log-polar form.

    Only for tau >= 0: in the strip -2 < tau < 0 the reversed sum's terms
    grow like q^(-(tau n)^2/4) and this path silently loses the
    normalization the theory wants, so it refuses them as outside its domain;
    :func:`split_sums` carries that strip.

    A tau = 0 row of an exact rational theta with n >= top =
    max(tq.sat, ta.sat) has a slot in _saturated for d_n = {n theta}.  The
    first such row whose own sum ends at a K with n - K >= top fills it with
    (value, K); a later row with n - K >= top reads the value, and every
    other row sums its own terms, to n at most.
    """
    if n < 0:
        raise DomainError("degree n must be nonnegative")
    if sp.tau.value < 0.0:
        raise DomainError("normalized_laguerre needs tau >= 0: for tau < 0 the reversed "
                          "sum loses the theta-regime normalization; use verify there")
    tau_n = sp.tau.value * n
    _, d_n = sp.theta.mul_floor_frac(n)
    lq, tq, ta = ctx.log_q, ctx.tq, ctx.ta
    top = max(tq.sat, ta.sat)
    shared = sp.theta.kind == "rational"
    slot = None
    if tau_n == 0.0 and shared and n >= top:
        slot = _saturated(ctx, d_n)
        if slot and n - slot[1] >= top:
            return slot[0]
    log_zqa = ctx.log_zqa
    log_1mq = math.log1p(-ctx.q)
    log_an = ta.log(n)
    tql, tqs, tal, tas = tq.logs, tq.sat, ta.logs, ta.sat

    def term_log(k: int) -> float:
        # the tables read by index, clamped at sat as _PochTable.log clamps
        j = n - k
        return (log_an - tql[k if k < tqs else tqs] - tql[j if j < tqs else tqs]
                - tal[j if j < tas else tas] + (k * k + tau_n * k) * lq - k * log_zqa)

    if tau_n == math.inf:
        # q^(tau n k) is exactly 0 at every k >= 1, so the sum is term 0,
        # where (k * k + tau_n * k) * lq would read inf * 0
        logs = [log_an - tq.log(n) - ta.log(n)]
    else:
        logs = certified_terms(
            term_log=term_log,
            ratio_bound=lambda k: exp_or_inf((2 * k + 1 + tau_n) * lq - log_zqa - log_1mq),
            stop=n,
        )
    step = wrap_phase(math.pi - phase(ctx.z) + TWO_PI * d_n)
    value = sum_rescaled(logs, _pairs(step, 0, len(logs), shared)).to_lp()
    # a sum that ran to its stop has K = n and fills nothing
    if slot is not None and n - len(logs) + 1 >= top:
        slot[:] = value, len(logs) - 1
    return value


# 256 entries hold the residues {n theta} and (chi(m), c_n) of the grids in
# use; a longer period only misses
@lru_cache(maxsize=256)
def _saturated(ctx: QContext, *residue: float) -> list:
    """The slot of one residue of saturated rows: d_n = {n theta} for a
    tau = 0 row, chi(m), c_n for a strip row.  Empty until the first row
    whose own sum has the saturated terms fills it; those terms depend on n
    only through the residue."""
    return []


# 256 entries hold the steps of the rational thetas in use, one or two per
# residue {n theta}; a longer period only misses
@lru_cache(maxsize=256)
def _step_pairs(step: float) -> list:
    """A holder of the (cos, sin) pairs of one recurring phase step for
    k = 0, 1, ...: step_phases(step, 0, len - 1), which _pairs replaces by a
    longer list as sums read further, so a list once read never changes."""
    return [[]]


def _pairs(step: float, start: int, count: int, shared: bool) -> list:
    """The pairs of terms start..start + count - 1 of a sum with this phase
    step, sliced from its list in _step_pairs where the step recurs (shared),
    else formed for this sum alone; a list of the caller's own either way."""
    if not shared:
        return step_phases(step, start, start + count - 1)
    held = _step_pairs(step)
    pairs = held[0]
    if len(pairs) < start + count:
        pairs = held[0] = pairs + step_phases(step, len(pairs), start + count - 1)
    return pairs[start:start + count]


class SplitSumResult(NamedTuple):
    """Both theta-normalized half sums plus the decomposition bookkeeping.

    total is the sum of both halves, the polynomial's value in the
    normalization N * (q;q)_inf^2 * (-z q^a e^(-2 pi i d_n))^p /
    q^(p*(tau*n + p)) with p = floor(m/2); m, c_n come from
    -tau*n = m + c_n and m1, d_n from n*theta = m1 + d_n.  total is summed
    once, over the terms of both halves together; terms1 and terms2 keep each
    half's (logs, cis), its logs and their (cos, sin) pairs.  The pair lists
    are this result's own; the logs of a row that read its slot in
    _saturated are the slot's tuples, which no result can change.
    """

    total: LogPolarComplex
    terms1: tuple[Sequence[float], list[tuple[float, float]]]
    terms2: tuple[Sequence[float], list[tuple[float, float]]]
    m: int
    floor_m_half: int
    c_n: float
    d_n: float
    m1: int


def _log_factor_e(tq, ta, log_euler2, log_an, p: int, n: int, k: int) -> float:
    return log_euler2 + log_an - tq.log(p - k) - tq.log(n - p + k) - ta.log(n - p + k)


def _log_factor_f(tq, ta, log_euler2, log_an, p: int, n: int, k: int) -> float:
    return log_euler2 + log_an - tq.log(p + k) - tq.log(n - p - k) - ta.log(n - p - k)


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
    indices n - p and p are past the tables' saturation point has a slot in
    _saturated for (chi(m), c_n).  The first such row whose halves both end
    inside their saturated windows fills it with both halves' term logs, and
    the two joined, as tuples; a later row whose halves end there reads them.
    Either way each half takes its pairs by _pairs, once, and the bits are
    those of the terms certified_terms would give the row.
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
    lq, tq, ta = ctx.log_q, ctx.tq, ctx.ta
    top = max(tq.sat, ta.sat)
    # term k of the lower (upper) half reads one float for its Pochhammer
    # factors where -f_hi <= k <= e_hi (-e_hi <= k <= f_hi), all its indices
    # being saturated there, and the factor at indices from p and n elsewhere
    e_hi, f_hi = p - tq.sat, n - p - top
    # w1 = -z q^(a + chi(m) + c_n) e^(-2 pi i d_n); w2 = 1/w1.
    ph_w1 = wrap_phase(math.pi + phase(ctx.z) - TWO_PI * d_n)
    ph_w2 = wrap_phase(-ph_w1)
    shared = sp.theta.kind == "rational"

    slot = None
    if decomposition is None and sp.tau.kind == "rational" and f_hi >= 0 and e_hi >= 0:
        slot = _saturated(ctx, parity, c_n)
    if slot and len(slot[0]) - 1 <= e_hi and len(slot[1]) <= f_hi:
        logs1, logs2, logs = slot
    else:
        e_lo, f_lo = -f_hi, -e_hi
        log_w1 = math.log(ctx.abs_z) + (ctx.alpha + parity + c_n) * lq
        log_an = ta.log(n)
        log_euler2 = 2.0 * tq.log_inf
        # table.log(i) is logs[sat] for all i >= sat, so inside the windows
        # each factor is this float, by the same expression
        sat_factor = log_euler2 + log_an - tq.log_inf - tq.log_inf - ta.log_inf
        # Pochhammer factors are <= 1, so q^(k^2) |w1|^(+-k) majorizes each tail.
        logs1 = certified_terms(
            term_log=lambda k: (k * k * lq + k * log_w1
                                + (sat_factor if e_lo <= k <= e_hi else
                                   _log_factor_e(tq, ta, log_euler2, log_an, p, n, k))),
            ratio_bound=lambda k: exp_or_inf((2 * k + 1) * lq + log_w1),
            stop=p,
            tail_log=lambda k: k * k * lq + k * log_w1,
        )
        logs2 = certified_terms(
            term_log=lambda k: (k * k * lq - k * log_w1
                                + (sat_factor if f_lo <= k <= f_hi else
                                   _log_factor_f(tq, ta, log_euler2, log_an, p, n, k))),
            ratio_bound=lambda k: exp_or_inf((2 * k + 1) * lq - log_w1),
            start=1,
            stop=n - p,
            tail_log=lambda k: k * k * lq - k * log_w1,
        )
        logs = logs1 + logs2
        # a half that ran to its stop overruns its window and fills nothing
        if slot is not None and len(logs1) - 1 <= e_hi and len(logs2) <= f_hi:
            slot[:] = tuple(logs1), tuple(logs2), tuple(logs)
    terms1 = logs1, _pairs(ph_w1, 0, len(logs1), shared)
    terms2 = logs2, _pairs(ph_w2, 1, len(logs2), shared)
    total = sum_rescaled(logs, terms1[1] + terms2[1])
    return SplitSumResult(total.to_lp(), terms1, terms2, m, p, c_n, d_n, m1)

"""Overflow-safe complex arithmetic and deterministic summation.

Everything downstream manipulates quantities like q**(n*n*(1-s)) whose
magnitudes leave IEEE double range long before the mathematics becomes
interesting.  The fix is structural rather than big-float: complex values
are carried as (log-magnitude, phase) pairs, and finite sums are evaluated
by factoring out the largest log-magnitude and compensated-summing the
rescaled residuals in a deterministic order.  The summation kernel works on
parallel lists of logs and (cos, sin) pairs, so it calls no trigonometry of
its own.  certified_terms, the one truncation loop, gives a series' term
logs alone; term k of a series with phase step phi has the angle
wrap_phase(k phi), and step_phases, the one function forming such pairs,
gives them for a run of k: looked up on the four axis values and taken from
cos and sin elsewhere, and from a table of four on a quarter step.  Walking
-k passes wrap_phase(-phi).
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

TWO_PI = 2.0 * math.pi
_NEG_INF = float("-inf")
_LN10 = math.log(10.0)
_first = itemgetter(0)

# The one truncation policy of every infinite series and product (certified_terms)
TOL = 1e-15
MAX_TERMS = 10_000
_LOG_TOL = math.log(TOL) - math.log(4.0)


class QprError(Exception):
    """Base class for errors raised by this package."""


class DomainError(QprError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(QprError, RuntimeError):
    """A certified truncation test was not met within the term cap."""


class RangeGuardError(QprError, OverflowError):
    """A direct evaluation would leave double range; use a normalized path."""


def phase(w: complex) -> float:
    """arg(w) in (-pi, pi]: atan2's -pi (a negative real with imaginary part
    -0.0) becomes pi, so the sign of a zero reaches no phase.  Unlike
    cmath.phase, never raises on a subnormal component
    (cmath.phase(2+5e-324j) reports an underflow as a range error)."""
    ph = math.atan2(w.imag, w.real)
    return math.pi if ph == -math.pi else ph


def exp_or_inf(x: float) -> float:
    """math.exp(x), but inf wherever the value overflows double range; the
    one overflow rule for exponentials of log-magnitudes."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def pow_or_inf(x: float, y: float) -> float:
    """x ** y, but inf wherever the value overflows; the overflow rule for powers."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


class Majorant(NamedTuple):
    """A regime's error majorant, prefactor * (e^pieces[0] + ... + witness); witness is
    log^2 n / n^rho in cases 3 and 5-7.  With log_prefactor, bound is exp_or_inf(log)."""

    prefactor: float | None
    pieces: tuple[float, ...]
    witness: float = 0.0
    log_prefactor: float | None = None

    @property
    def bound(self) -> float:
        """The double: pieces summed left to right by + (not sum(), compensated from 3.12)."""
        if self.log_prefactor is not None:
            return exp_or_inf(self.log)
        total = 0.0
        for x in self.pieces:
            total += exp_or_inf(x)
        return self.prefactor * (total + self.witness)

    @property
    def log(self) -> float:
        """log_prefactor plus the log-sum-exp of the nonzero pieces (one piece: exactly)."""
        logs = [*self.pieces, math.log(self.witness)] if self.witness > 0.0 else self.pieces
        lse = logs[0] if len(logs) == 1 else \
            sum_rescaled(logs, [(1.0, 0.0)] * len(logs)).to_lp().log_mag
        return self.log_prefactor + lse


def abs_or_inf(w: complex) -> float:
    """abs(w), but inf where |w| overflows double range.  abs() raises
    OverflowError there, and also on a nan component whenever the last libm
    call under- or overflowed (CPython reads a stale errno); that case gives
    nan, as abs() does otherwise."""
    try:
        return abs(w)
    except OverflowError:
        return math.nan if math.isnan(w.real) or math.isnan(w.imag) else math.inf


def wrap_phase(phi: float) -> float:
    """Reduce an angle into (-pi, pi]."""
    r = math.remainder(phi, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


_HALF_PI = 0.5 * math.pi

# Quarter-turn phases recur constantly here ((-x)^k, i^k, e^(+-pi i k/2));
# handling their integer multiples by parity instead of float k*phi keeps
# structurally real/imaginary quantities exactly on their axis.
_QUARTER_STEPS = {0.0: 0, _HALF_PI: 1, math.pi: 2, -_HALF_PI: 3}
_QUARTER_PAIRS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
_CARDINAL = {0.0: (1.0, 0.0), math.pi: (-1.0, 0.0), _HALF_PI: (0.0, 1.0),
             -_HALF_PI: (0.0, -1.0)}


def cis(phi: float) -> tuple[float, float]:
    """(cos phi, sin phi), exact on the four cardinal directions."""
    cs = _CARDINAL.get(phi)
    return cs if cs is not None else (math.cos(phi), math.sin(phi))


class LogPolarComplex(NamedTuple):
    """A complex number stored as log|w| and arg(w) in (-pi, pi], the range
    that lp, lp_from_complex and SummationResult.to_lp all keep.  A plain
    record: a NamedTuple is built without a per-field setattr.

    log_mag = -inf encodes zero (phase fixed at 0).  The representation is
    exact under multiplication and integer powers, which is what the huge
    prefactors here need; addition goes through :func:`sum_rescaled`, which
    takes the log-magnitudes and the phases' (cos, sin) pairs as two lists.
    """

    log_mag: float
    phase: float

    def to_complex(self) -> complex:
        """Ordinary complex value; overflows to inf beyond double range."""
        if self.log_mag == _NEG_INF:
            return 0j
        mag = exp_or_inf(self.log_mag)
        c, s = cis(self.phase)
        # an exact zero component stays zero even when mag overflows (inf*0 = nan)
        return complex(mag * c if c else c, mag * s if s else s)

    @property
    def is_zero(self) -> bool:
        return self.log_mag == _NEG_INF

    def log10_mag(self) -> float:
        return self.log_mag / _LN10


LP_ZERO = LogPolarComplex(_NEG_INF, 0.0)


def lp(log_mag: float, phase: float) -> LogPolarComplex:
    """Build a LogPolarComplex, normalizing the phase."""
    if log_mag == _NEG_INF:
        return LP_ZERO
    return LogPolarComplex(log_mag, wrap_phase(phase))


def lp_from_complex(w: complex) -> LogPolarComplex:
    w = complex(w)
    if w == 0:
        return LP_ZERO
    return LogPolarComplex(math.log(abs(w)), phase(w))


def lp_mul(a: LogPolarComplex, b: LogPolarComplex) -> LogPolarComplex:
    if a.is_zero or b.is_zero:
        return LP_ZERO
    return lp(a.log_mag + b.log_mag, a.phase + b.phase)


class SummationResult(NamedTuple):
    """Result of a rescaled compensated sum.

    The represented value is ``value * exp(rescale_log)``; ``value`` itself
    is always finite when every input term had finite log-magnitude.
    """

    value: complex
    rescale_log: float
    term_count: int

    def to_lp(self) -> LogPolarComplex:
        if self.value == 0:
            return LP_ZERO
        return LogPolarComplex(
            math.log(abs(self.value)) + self.rescale_log, phase(self.value)
        )

    def to_complex(self) -> complex:
        return self.to_lp().to_complex()


def sum_rescaled(logs: Sequence[float],
                 cis: Sequence[tuple[float, float]]) -> SummationResult:
    """Sum the terms e^(logs[i]) (cis[i][0] + i cis[i][1]) without overflow,
    deterministically; cis[i] is the (cos, sin) pair of term i's angle.

    Terms with log -inf are zeros: skipped, but counted in term_count.  The
    largest log-magnitude is factored out, and the rescaled terms are
    accumulated in descending-magnitude order (ties in index order) with
    Kahan-Babuska-Neumaier compensated summation on each axis.  For a fixed
    multiset of inputs the result is reproducible bit for bit.
    """
    # a stable descending sort keeps tied logs in index order; zeros sort last
    # unless a NaN log breaks the order, so only trailing ones are dropped
    terms = sorted(zip(logs, cis), key=_first, reverse=True)
    while terms and terms[-1][0] == _NEG_INF:
        terms.pop()
    if not terms:
        return SummationResult(0j, 0.0, len(logs))
    big = terms[0][0]
    exp = math.exp
    re = re_comp = im = im_comp = 0.0
    for lm, (c, s) in terms:
        w = exp(lm - big)
        x = w * c
        t = re + x
        if abs(re) >= abs(x):
            re_comp += (re - t) + x
        else:
            re_comp += (x - t) + re
        re = t
        x = w * s
        t = im + x
        if abs(im) >= abs(x):
            im_comp += (im - t) + x
        else:
            im_comp += (x - t) + im
        im = t
    return SummationResult(complex(re + re_comp, im + im_comp), big, len(logs))


def step_phases(phase_step: float, start: int, stop: int) -> list[tuple[float, float]]:
    """The (cos, sin) pairs of wrap_phase(k * phase_step) for k = start..stop, exact
    on quarter steps and on the four axis values: the pairs of a series' terms
    start..stop, whose logs certified_terms gives.  For phi in (-pi, pi] the
    step wrap_phase(-phi) gives the pairs of step_phases(phi, -k, -k) bit for
    bit at k >= 1."""
    quarter = _QUARTER_STEPS.get(phase_step)
    if quarter is not None:
        return [_QUARTER_PAIRS[(quarter * k) % 4] for k in range(start, stop + 1)]
    remainder, neg_pi, cardinal, cos, sin = math.remainder, -math.pi, _CARDINAL.get, \
        math.cos, math.sin
    return [cardinal(ph) or (cos(ph), sin(ph)) for k in range(start, stop + 1)
            for r in [remainder(k * phase_step, TWO_PI)]
            for ph in [r + TWO_PI if r <= neg_pi else r]]


def _ratio_threshold(ratio_bound: Callable[[int], float], k: int, last: int) -> int:
    """The first j in [k, last] with ratio_bound(j) <= 1/2, for a non-increasing
    ratio_bound, by doubling from k and then bisection; last + 1 where none is.
    A nan bound fails the test, so it never stops a series."""
    if ratio_bound(k) <= 0.5:
        return k
    lo, hi = k, k + 1  # ratio_bound(lo) fails; hi - k doubles until it holds
    while hi < last and not ratio_bound(hi) <= 0.5:
        lo, hi = hi, 2 * hi - k
    if hi >= last:
        if lo == last or not ratio_bound(last) <= 0.5:
            return last + 1
        hi = last
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ratio_bound(mid) <= 0.5:
            hi = mid
        else:
            lo = mid
    return hi


def certified_terms(term_log: Callable[[int], float], ratio_bound: Callable[[int], float],
                    *, start: int = 0, stop: int | None = None, max_log: float = _NEG_INF,
                    tail_log: Callable[[int], float] | None = None) -> list[float]:
    """The log-magnitudes of a series' terms, under a certified stopping rule.

    term_log(k) is term k's log-magnitude; a -inf log, a zero term, stays in
    place, so that term k is entry k - start, and step_phases gives the
    pairs to sum with the logs.  ratio_bound(k) must majorize |t_{k+1}/t_k|
    and be non-increasing in k.  Generation stops at the first k where the
    ratio bound is <= 1/2 and the tail majorant at k (tail_log(k), by default
    the term itself) sits TOL/4 below the largest term seen, so the discarded
    tail is at most 2|t_k| <= (TOL/2) * max-term.  The ratio bound is located
    once per sum, where the tail test first holds: the first index at which
    it is <= 1/2, found in O(log) calls; every later term pays the tail test
    and an index compare.  max_log seeds the peak with terms summed
    elsewhere.  A finite sum ends at the inclusive index stop; an infinite
    one raises ConvergenceError after MAX_TERMS + 1 terms.
    """
    logs: list[float] = []
    last = start + MAX_TERMS if stop is None else stop
    threshold = None  # the ratio bound's first index <= 1/2, once the tail test held
    for k in range(start, last + 1):
        tl = term_log(k)
        logs.append(tl)
        if tl > max_log:
            max_log = tl
        tail = tl if tail_log is None else tail_log(k)
        if tail == _NEG_INF or tail <= max_log + _LOG_TOL:
            if threshold is None:
                threshold = _ratio_threshold(ratio_bound, k, last)
            if k >= threshold:
                return logs
    if stop is not None:
        return logs
    raise ConvergenceError(f"series not certified within {MAX_TERMS} terms")

"""Overflow-safe complex arithmetic and deterministic summation.

Everything downstream manipulates quantities like q**(n*n*(1-s)) whose
magnitudes leave IEEE double range long before the mathematics becomes
interesting.  The fix is structural rather than big-float: complex values
are carried as (log-magnitude, phase) pairs, and finite sums are evaluated
by factoring out the largest log-magnitude and compensated-summing the
rescaled residuals in a deterministic order.  The summation kernel works on
parallel lists of logs and phases, as certified_terms produces them, so no
per-term object is built on the way.
certified_terms, the one truncation loop, gives term k the phase
phase_mul_int(phi, k) of one phase step phi; walking -k passes wrap_phase(-phi).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

TWO_PI = 2.0 * math.pi
_NEG_INF = float("-inf")

# The one truncation policy of every infinite series and product (certified_terms)
TOL = 1e-15
MAX_TERMS = 10_000


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
        lse = logs[0] if len(logs) == 1 else sum_rescaled(logs, [0.0] * len(logs)).to_lp().log_mag
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
_QUARTER_PHASES = (0.0, _HALF_PI, math.pi, -_HALF_PI)


def phase_mul_int(phi: float, k: int) -> float:
    """wrap_phase(k * phi), exact when phi is a multiple of pi/2."""
    step = _QUARTER_STEPS.get(phi)
    if step is not None:
        return _QUARTER_PHASES[(step * k) % 4]
    return wrap_phase(k * phi)


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
    takes the log-magnitudes and phases as two lists.
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
        return self.log_mag / math.log(10.0)


LP_ONE = LogPolarComplex(0.0, 0.0)
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


def lp_pow_int(b: LogPolarComplex, k: int) -> LogPolarComplex:
    """Integer power of a log-polar value.

    Integer exponents keep the result branch-unambiguous: the phase is
    k*phase reduced into (-pi, pi], with no branch cut to choose.
    """
    if not isinstance(k, int):
        raise DomainError("exponent must be an integer")
    if k == 0:
        return LP_ONE
    if b.is_zero:
        if k < 0:
            raise DomainError("zero base with negative integer exponent")
        return LP_ZERO
    return LogPolarComplex(k * b.log_mag, phase_mul_int(b.phase, k))


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


def sum_rescaled(logs: Sequence[float], phases: Sequence[float]) -> SummationResult:
    """Sum the terms e^(logs[i]) e^(i phases[i]) without overflow, deterministically.

    Terms with log -inf are zeros: skipped, but counted in term_count.  The
    largest log-magnitude is factored out, and the rescaled terms are
    accumulated in descending-magnitude order (ties in index order) with
    Kahan-Babuska-Neumaier compensated summation on each axis.  For a fixed
    multiset of inputs the result is reproducible bit for bit.
    """
    order = [i for i, lm in enumerate(logs) if lm != _NEG_INF]
    if not order:
        return SummationResult(0j, 0.0, len(logs))
    # a stable descending sort keeps tied logs in index order
    order.sort(key=logs.__getitem__, reverse=True)
    big = logs[order[0]]
    exp, cos, sin, cardinal = math.exp, math.cos, math.sin, _CARDINAL.get
    re = re_comp = im = im_comp = 0.0
    for i in order:
        w = exp(logs[i] - big)
        ph = phases[i]
        cs = cardinal(ph)
        c, s = cs if cs is not None else (cos(ph), sin(ph))
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


def step_phases(phase_step: float, start: int, stop: int) -> list[float]:
    """The phases certified_terms gives terms start..stop of the step
    phase_step, by its expressions, for terms whose logs were kept apart."""
    quarter = _QUARTER_STEPS.get(phase_step)
    if quarter is not None:
        return [_QUARTER_PHASES[(quarter * k) % 4] for k in range(start, stop + 1)]
    remainder, neg_pi = math.remainder, -math.pi
    return [r + TWO_PI if r <= neg_pi else r
            for r in [remainder(k * phase_step, TWO_PI) for k in range(start, stop + 1)]]


def mirrored_phases(phase_step: float, phases: list[float], stop: int) -> list[float]:
    """step_phases(wrap_phase(-phase_step), 1, stop) for phase_step in
    (-pi, pi], read from phases = step_phases(phase_step, 0, K), K >= stop.
    Outside the quarter steps wrap_phase(-phase_step) = -phase_step, and
    remainder is odd (remainder(-x, 2 pi) = -remainder(x, 2 pi) exactly), so
    each phase is the negated one, except that pi stays pi.  Quarter steps
    read their table."""
    if phase_step in _QUARTER_STEPS:
        return step_phases(wrap_phase(-phase_step), 1, stop)
    pi = math.pi
    return [ph if ph == pi else -ph for ph in phases[1:stop + 1]]


def certified_terms(term_log: Callable[[int], float], phase_step: float,
                    ratio_bound: Callable[[int], float], *, start: int = 0,
                    stop: int | None = None, max_log: float = _NEG_INF,
                    tail_log: Callable[[int], float] | None = None
                    ) -> tuple[list[float], list[float]]:
    """Collect series terms under a certified stopping rule, as parallel
    lists (logs, phases) ready for :func:`sum_rescaled`.

    term_log(k) is term k's log-magnitude (-inf terms are left out) and
    phase_mul_int(phase_step, k), computed inline, its phase; for phi in
    (-pi, pi] the step wrap_phase(-phi) gives phase_mul_int(phi, -k) bit for
    bit at k >= 1.  ratio_bound(k) must majorize |t_{k+1}/t_k|.  Generation
    stops once the ratio bound is <= 1/2 and the tail majorant at k
    (tail_log(k), by default the term itself) sits TOL/4 below the largest
    term seen, so the discarded tail is at most 2|t_k| <= (TOL/2) * max-term.
    max_log seeds that peak with terms summed elsewhere.  A finite sum ends
    at the inclusive index stop; an infinite one raises ConvergenceError
    after MAX_TERMS + 1 terms.
    """
    log_tol = math.log(TOL) - math.log(4.0)
    logs: list[float] = []
    phases: list[float] = []
    quarter, remainder, neg_pi = _QUARTER_STEPS.get(phase_step), math.remainder, -math.pi
    last = start + MAX_TERMS if stop is None else stop
    for k in range(start, last + 1):
        tl = term_log(k)
        if tl != _NEG_INF:
            logs.append(tl)
            r = remainder(k * phase_step, TWO_PI) if quarter is None else \
                _QUARTER_PHASES[(quarter * k) % 4]
            phases.append(r + TWO_PI if r <= neg_pi else r)
            if tl > max_log:
                max_log = tl
        tail = tl if tail_log is None else tail_log(k)
        if ratio_bound(k) <= 0.5 and (tail == _NEG_INF or tail <= max_log + log_tol):
            return logs, phases
    if stop is not None:
        return logs, phases
    raise ConvergenceError(f"series not certified within {MAX_TERMS} terms")

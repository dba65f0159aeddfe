"""Base-q special functions: Pochhammer symbols, the entire functions A_q
and B_q, the bilateral theta series, and the two tail remainders R1, R2
with their explicit majorants.

Conventions.  (a;q)_0 = 1 and (a;q)_n has n factors 1 - a*q^k, k = 0..n-1;
the n-factor convention is forced by the q-binomial/degree identities this
module is checked against.  Infinite products and series never truncate on
term count alone: each loop carries a geometric majorant for its tail and
stops only once that majorant clears numerics.TOL, with the fixed term cap
numerics.MAX_TERMS acting purely as a safety net that raises ConvergenceError.

All series are generated termwise by :func:`qpr.numerics.certified_terms`
as lists of log-magnitudes and (cos, sin) pairs, and summed with
:func:`qpr.numerics.sum_rescaled`, so arguments of extreme magnitude cannot
overflow intermediate arithmetic.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import accumulate, chain, islice, repeat
from operator import mul, sub

from .numerics import (
    MAX_TERMS,
    TOL,
    ConvergenceError,
    DomainError,
    LogPolarComplex,
    RangeGuardError,
    abs_or_inf,
    certified_terms,
    exp_or_inf,
    lp,
    phase,
    sum_rescaled,
    wrap_phase,
)

# Once a*q^k drops below this, further factors of (a;q)_k no longer move a
# double-precision log; the product is treated as converged.
_SATURATION = 1e-18


class QContext:
    """Fixed problem data shared by every evaluator, and the values that depend
    on it alone, each computed on first use: the tables tq = log (q;q)_k and
    ta = log (q^(alpha+1);q)_k stay lazy, since one for q near 1 raises.
    Contexts are equal when q, alpha and z are; the hash, hash((q, alpha,
    z)), is computed once: every per-context memo lookup reads it.

    q in (0,1), alpha > -1 and z != 0 are hard requirements of the whole theory.
    """

    def __init__(self, q: float, alpha: float, z: complex) -> None:
        if not (0.0 < q < 1.0):
            raise DomainError(f"q must lie in (0,1), got {q}")
        if not (alpha > -1.0):
            raise DomainError(f"alpha must exceed -1, got {alpha}")
        z = complex(z)
        if z == 0 or not math.isfinite(abs_or_inf(z)):
            raise DomainError(f"z must be finite and nonzero, got {z}")
        try:
            in_range = all(q ** e > 0.0 for e in (alpha, alpha + 1.0, 2.0 - alpha))
        except OverflowError:
            in_range = False
        if not in_range:
            raise DomainError(f"alpha = {alpha} puts q^alpha, q^(alpha+1) or "
                              f"q^(2-alpha) outside double range at q = {q}")
        self.q, self.alpha, self.z = q, alpha, z
        self._hash = hash((q, alpha, z))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.q, self.alpha, self.z) == (other.q, other.alpha, other.z)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def log_q(self) -> float:
        return math.log(self.q)

    @cached_property
    def abs_z(self) -> float:
        return abs(self.z)

    @cached_property
    def log_zqa(self) -> float:
        return math.log(self.abs_z) + self.alpha * self.log_q

    @cached_property
    def tq(self) -> "_PochTable":
        return poch_table(self.q, self.q)

    @cached_property
    def ta(self) -> "_PochTable":
        return poch_table(self.q ** (self.alpha + 1.0), self.q)


class _PochTable:
    """Cumulative log (a;q)_k for real a < 1, built once to saturation.

    All factors 1 - a*q^k are then positive, so the product is a positive
    real carried as a log.  The factors are taken until one leaves the sum
    unchanged, or a*q^k falls below _SATURATION; sat is then the first
    index whose entry equals the converged value, which equals
    log (a;q)_inf to double precision.  Indices past sat return that value:
    log(k) reads logs[k if k < sat else sat].  The reversed normalized sum
    reads logs by index with that same clamp, on indices it knows to be
    nonnegative; log(k) is the checked reader for every other caller.
    """

    __slots__ = ("logs", "sat")

    def __init__(self, a: float, q: float) -> None:
        if a >= 1.0:
            raise DomainError(f"log table requires a < 1, got a={a}")
        if not (0.0 < q < 1.0):
            raise DomainError(f"log table requires 0 < q < 1, got q={q}")
        logs = [0.0]
        acc = 0.0
        aqk = a
        log1p = math.log1p
        # every factor has the sign of a and no larger magnitude than the one
        # before it, so once one leaves acc unchanged, no later one moves it:
        # each entry kept moves acc, and the last is the converged value
        while abs(aqk) > _SATURATION:
            nxt = acc + log1p(-aqk)
            if nxt == acc:
                break
            if len(logs) > MAX_TERMS:
                raise ConvergenceError(
                    f"(a;q)_inf with a={a}, q={q} did not saturate within "
                    f"{MAX_TERMS} factors; q is too close to 1 for doubles"
                )
            acc = nxt
            logs.append(acc)
            aqk *= q
        self.logs = logs
        self.sat = len(logs) - 1

    def log(self, k: int) -> float:
        if k < 0:
            raise DomainError("Pochhammer index must be nonnegative")
        return self.logs[k] if k < self.sat else self.logs[self.sat]

    @property
    def log_inf(self) -> float:
        return self.logs[self.sat]


@lru_cache(maxsize=256)
def poch_table(a: float, q: float) -> _PochTable:
    """Cached saturating log table for (a;q)_k, real a < 1."""
    return _PochTable(a, q)


def pochhammer(a: complex, q: float, n: int | float | None) -> complex:
    """(a;q)_n for complex a; n may be a nonnegative integer or infinite.

    The factors 1 - a*q^k take a*q^k from repeated multiplication by q and
    are multiplied in order, from 1 + 0j.  The infinite case requires
    |q| < 1 and truncates once the remaining factors are within TOL of 1,
    certified by the geometric tail bound 2|a||q|^k/(1-|q|).  A finite
    order past MAX_TERMS ends two factors after the first that is exactly
    1 with every later one (a*q^k real and at most 2^-54 in size, at
    |q| <= 1 or a = 0): a factor 1 + 0j can flip the sign of a zero part,
    and two leave it where any more would.  Either stop must come within MAX_TERMS factors, else
    ConvergenceError.  A product that leaves double range raises
    RangeGuardError.
    """
    infinite = n is None or (isinstance(n, float) and math.isinf(n))
    if not infinite:
        if not isinstance(n, int) or isinstance(n, bool):
            if isinstance(n, float) and n.is_integer():
                n = int(n)
            else:
                raise DomainError(f"n must be an integer or infinity, got {n!r}")
        if n < 0:
            raise DomainError(f"negative Pochhammer order {n}")
    else:
        if not abs(q) < 1.0:
            raise DomainError(f"infinite product needs |q| < 1, got q={q}")

    a = complex(a)
    if not (cmath.isfinite(a) and math.isfinite(q)):
        raise DomainError(f"a and q must be finite, got a={a}, q={q}")
    if infinite and abs_or_inf(a) == math.inf:
        # |a q^k| only shrinks from |a|, so this is the one abs() that can
        # overflow, and the first factor 1 - a already leaves double range
        raise RangeGuardError(f"(a;q)_n with a={a}, q={q} leaves double range")
    # a*q^k for k = 0, 1, ...; CPython up to 3.13 widens a float operand of
    # a complex operation to (x, 0.0), so complex operands here and in the
    # product give the bits of aqk *= q and 1.0 - aqk, without the conversion
    factors = accumulate(repeat(complex(q)), mul, initial=a)
    if infinite or n > MAX_TERMS:
        # at |q| <= 1 neither part of a*q^k grows in magnitude, so each stop
        # test holds at every k from its first on, which bisection finds
        if infinite:
            r = 1.0 - abs(q)

            def stop(x: complex) -> bool:
                return abs(x) <= 0.5 and 2.0 * abs(x) / r <= TOL
        else:  # 1 - x and 1 + x are both exactly 1, and so at every later k
            # when |q| <= 1 or a = 0; at |q| > 1 the test never holds
            never = abs(q) > 1.0 and a != 0

            def stop(x: complex) -> bool:
                return not never and x.imag == 0.0 and 1.0 - abs(x.real) == 1.0
        # the list grows by a quarter until the test holds at its end or it
        # passes the cap
        aqk = list(islice(factors, 64))
        while not stop(aqk[-1]) and len(aqk) <= MAX_TERMS:
            aqk += islice(factors, 64 + len(aqk) // 4)
        k = bisect_left(aqk, True, key=stop)
        if k > MAX_TERMS:
            if infinite:
                raise ConvergenceError(f"(a;q)_inf with |a|={abs(a):.3g}, q={q} "
                                       f"not certified within {MAX_TERMS} factors")
            raise ConvergenceError(f"(a;q)_n with |a|={abs(a):.3g}, q={q}, n={n}: its "
                                   f"factors are not all exactly 1 within {MAX_TERMS}")
        # each later factor is 1 + 0j, which can still flip the sign of a
        # zero part of the product; two of them leave it where any more would
        n, factors = k if infinite else min(n, k + 2), chain(aqk, factors)
    prod = math.prod(map(sub, repeat(complex(1.0)), islice(factors, n)), start=complex(1.0))
    if not cmath.isfinite(prod):
        raise RangeGuardError(f"(a;q)_n with a={a}, q={q} leaves double range")
    return prod


def ramanujan_a(q: float, z: complex) -> complex:
    """The entire function sum_k q^(k^2) (-z)^k / (q;q)_k."""
    return aq_series_lp(q, z, negate=True).to_complex()


def b_function(q: float, z: complex) -> complex:
    """Companion series sum_k q^(k^2) z^k / (q;q)_k, majorant of |A_q|."""
    return aq_series_lp(q, z, negate=False).to_complex()


def aq_series_lp(q: float, z: complex, negate: bool) -> LogPolarComplex:
    """A_q(z) (negate) or B_q(z) in log-polar form, for 0 < q < 1."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"A_q/B_q series needs 0 < q < 1, got q={q}")
    z = complex(z)
    abs_z = abs_or_inf(z)
    if not math.isfinite(abs_z):  # it would only run the term cap
        raise DomainError(f"z must be finite, got {z}")
    if z == 0:
        return lp(0.0, 0.0)
    table = poch_table(q, q)
    lq = math.log(q)
    lz = math.log(abs_z)
    terms = certified_terms(
        term_log=lambda k: k * k * lq + k * lz - table.log(k),
        phase_step=phase(-z if negate else z),
        ratio_bound=lambda k: (q ** (2 * k + 1)) * abs_z / (1.0 - q),
    )
    return sum_rescaled(*terms).to_lp()


def ramanujan_a_deriv(q: float, z: complex) -> complex:
    """Termwise derivative of ramanujan_a: -sum_{k>=1} k q^(k^2) (-z)^(k-1) / (q;q)_k,
    summed over j = k - 1 and negated, for 0 < q < 1."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"A_q derivative series needs 0 < q < 1, got q={q}")
    z = complex(z)
    table = poch_table(q, q)
    lq = math.log(q)
    if z == 0:
        return -q / (1.0 - q) + 0j
    lz = math.log(abs(z))
    terms = certified_terms(
        term_log=lambda j: (j + 1) * (j + 1) * lq + j * lz + math.log(j + 1) - table.log(j + 1),
        phase_step=phase(-z),
        ratio_bound=lambda j: (q ** (2 * j + 3)) * abs(z) * (j + 2) / ((j + 1) * (1.0 - q)),
    )
    return -sum_rescaled(*terms).to_complex()


def theta_lp(z: complex, q: float) -> LogPolarComplex:
    """Bilateral theta sum_{n in Z} q^(n^2) z^n in log-polar form.

    Both tails are truncated symmetrically under their own geometric
    majorants 2 q^(J^2) |z|^(+-J) once the step ratio q^(2J+1)|z|^(+-1)
    falls below 1/2.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"theta needs 0 < q < 1, got q={q}")
    z = complex(z)
    abs_z = abs_or_inf(z)
    if not math.isfinite(abs_z):  # it would only run the term cap
        raise DomainError(f"z must be finite, got {z}")
    if z == 0:
        raise DomainError("theta is undefined at z = 0")
    lq = math.log(q)
    lz = math.log(abs_z)
    ph = phase(z)

    logs, pairs = [0.0], [(1.0, 0.0)]
    for sign, step in ((+1, ph), (-1, wrap_phase(-ph))):
        # each tail's peak includes the shared k = 0 term
        tail_logs, tail_pairs = certified_terms(
            term_log=lambda j: j * j * lq + sign * j * lz,
            phase_step=step,
            ratio_bound=lambda j: exp_or_inf((2 * j + 1) * lq + sign * lz),
            start=1,
            max_log=0.0,
        )
        logs += tail_logs
        pairs += tail_pairs
    return sum_rescaled(logs, pairs).to_lp()


def theta(z: complex, q: float) -> complex:
    return theta_lp(z, q).to_complex()


def theta_triple_product(z: complex, q: float) -> complex:
    """Theta via the triple product (q^2; q^2)_inf (-qz; q^2)_inf (-q/z; q^2)_inf."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"triple product needs 0 < q < 1, got q={q}")
    z = complex(z)
    if z == 0:
        raise DomainError("triple product is undefined at z = 0")
    q2 = q * q
    p1 = pochhammer(q2, q2, None)
    p2 = pochhammer(-q * z, q2, None)
    p3 = pochhammer(-q / z, q2, None)
    return p1 * p2 * p3


def remainder_r1(a: float, n: int, q: float) -> tuple[float, float]:
    """R1(a;n) = (a q^n; q)_inf - 1 together with its majorant
    (-a q^2; q)_inf * a q^n / (1-q); |R1| <= bound for a > 0."""
    if not a > 0:
        raise DomainError(f"R1 needs a > 0, got a={a}")
    if n < 0:
        raise DomainError(f"R1 needs n >= 0, got n={n}")
    if not (0.0 < q < 1.0):
        raise DomainError(f"R1 needs 0 < q < 1, got q={q}")
    value = pochhammer(a * q ** n, q, None).real - 1.0
    grow = pochhammer(-a * q * q, q, None).real
    bound = grow * a * q ** n / (1.0 - q)
    return value, bound


def remainder_r2(a: float, n: int, q: float) -> tuple[float, float]:
    """R2(a;n) = 1/(a q^n; q)_inf - 1 with majorant a q^n / ((1-q)(aq;q)_inf).

    Beyond the stated 0 < aq < 1 this also needs a q^n < 1, otherwise the
    product can vanish (division by zero) and the majorant's derivation
    breaks down; both are rejected here.
    """
    if n < 0:
        raise DomainError(f"R2 needs n >= 0, got n={n}")
    if not (0.0 < q < 1.0):
        raise DomainError(f"R2 needs 0 < q < 1, got q={q}")
    if not (0.0 < a * q < 1.0):
        raise DomainError(f"R2 needs 0 < a*q < 1, got a*q={a * q}")
    if not a * q ** n < 1.0:
        raise DomainError(f"R2 needs a*q^n < 1, got {a * q ** n}")
    value = 1.0 / pochhammer(a * q ** n, q, None).real - 1.0
    bound = a * q ** n / ((1.0 - q) * pochhammer(a * q, q, None).real)
    return value, bound

"""Number-theoretic support: exact floor/fractional decomposition of n*x,
the parity character chi, and the witness searches that certify the
arithmetic hypotheses of the irrational-parameter asymptotic regimes.

Scaling parameters are *declared*, never sniffed: a RealValue is either an
exact rational, an exact quadratic surd (a + b*sqrt(d))/c, or a bare float
whose rationality must be asserted by the caller.  The exact kinds support
integer-arithmetic reduction of n*x mod 1, so fractional parts stay
accurate to ~1e-16 no matter how large n gets; bare floats fall back to
double arithmetic and carry a trust threshold on accepted residuals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Generator, Iterator

from .numerics import DomainError

_EPS = sys.float_info.epsilon

# Accepted residuals from float-kind inputs below this many epsilons (scaled
# by n) cannot be distinguished from representation error of the input.
_TRUST_FACTOR = 1000.0


def floor_frac(x: float) -> tuple[int, float]:
    """x = floor + frac with frac in [0,1) and floor the greatest integer <= x."""
    f = math.floor(x)
    r = x - f
    if r >= 1.0:  # float rounding right below an integer
        f += 1
        r = 0.0
    return f, r


def chi(n: int) -> int:
    """Parity indicator n - 2*floor(n/2): 1 for odd n, 0 for even n."""
    return n - 2 * (n // 2)


@dataclass(frozen=True)
class RealValue:
    """A real parameter with declared arithmetic structure.

    kind "rational": exact Fraction.
    kind "surd":     (a + b*sqrt(d))/c with integers a, b != 0, c > 0 and
                     d > 0 not a perfect square.
    kind "float":    double only; assumed_rational records the caller's
                     declaration (None = undeclared).
    """

    kind: str
    fraction: Fraction | None = None
    surd: tuple[int, int, int, int] | None = None
    value: float = 0.0
    assumed_rational: bool | None = None
    label: str = ""

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(x: Fraction | int | str, label: str = "") -> "RealValue":
        f = Fraction(x)
        return RealValue(kind="rational", fraction=f, value=float(f),
                         label=label or str(f))

    @staticmethod
    def from_surd(a: int, b: int, c: int, d: int, label: str = "") -> "RealValue":
        if c == 0:
            raise DomainError("surd denominator must be nonzero")
        if d < 0:
            raise DomainError("surd radicand must be nonnegative")
        r = math.isqrt(d)
        if b == 0 or r * r == d:
            return RealValue.from_rational(Fraction(a + b * r, c), label=label)
        if c < 0:
            a, b, c = -a, -b, -c
        return RealValue(kind="surd", surd=(a, b, c, d), value=(a + b * math.sqrt(d)) / c,
                         label=label or f"({a}+{b}*sqrt({d}))/{c}")

    @staticmethod
    def from_float(x: float, assumed_rational: bool | None = None,
                   label: str = "") -> "RealValue":
        return RealValue(kind="float", value=float(x),
                         assumed_rational=assumed_rational, label=label or repr(float(x)))

    # -- basic queries -------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.kind in ("rational", "surd")

    def declared_rational(self) -> bool:
        if self.kind == "rational":
            return True
        if self.kind == "surd":
            return False
        if self.assumed_rational is None:
            raise DomainError(
                f"rationality of {self.label!r} is undeclared; pass an exact "
                "rational/surd or declare an assumption"
            )
        return self.assumed_rational

    def is_zero(self) -> bool:
        if self.kind == "rational":
            return self.fraction == 0
        if self.kind == "surd":
            return False
        return self.value == 0.0

    def neg(self) -> "RealValue":
        if self.kind == "rational":
            return RealValue.from_rational(-self.fraction, label=f"-({self.label})")
        if self.kind == "surd":
            a, b, c, d = self.surd
            return RealValue.from_surd(-a, -b, c, d, label=f"-({self.label})")
        return RealValue.from_float(-self.value, self.assumed_rational,
                                    label=f"-({self.label})")

    # -- exact reduction of n*x ----------------------------------------

    def mul_floor_frac(self, n: int) -> tuple[int, float]:
        """floor(n*x) and {n*x}, exactly for rational/surd kinds.

        For surds the integer part comes out of an exact isqrt, and the
        fractional part is assembled from an integer remainder plus a
        well-conditioned sqrt correction, so it is accurate to ~1e-16
        absolute even when n*x is enormous.
        """
        if self.kind == "rational":
            f, r = divmod(n * self.fraction.numerator, self.fraction.denominator)
            return f, r / self.fraction.denominator
        if self.kind == "surd":
            a, b, c, d = self.surd
            n1 = n * a
            bb = n * b
            if bb == 0:
                f, r = divmod(n1, c)
                return f, r / c
            s = bb * bb * d
            r = math.isqrt(s)
            delta = (s - r * r) / (math.sqrt(s) + r)  # sqrt(s) = r + delta, 0 < delta < 1
            if bb > 0:
                top = n1 + r
                f = top // c
                e = top - c * f
                frac = (e + delta) / c
            else:
                top = n1 - r - 1
                f = top // c
                e = top - c * f
                frac = (e + (1.0 - delta)) / c
            if frac >= 1.0:
                frac = math.nextafter(1.0, 0.0)
            return f, frac
        return floor_frac(n * self.value)


def as_real_value(x) -> RealValue:
    """Coerce ints, Fractions and RealValues; floats must be pre-declared."""
    if isinstance(x, RealValue):
        return x
    if isinstance(x, (int, Fraction)):
        return RealValue.from_rational(x)
    if isinstance(x, float):
        if x.is_integer():
            return RealValue.from_rational(int(x))
        raise DomainError(
            f"bare float {x!r} has undeclared rationality; use RealValue.from_float "
            "with an assumption, an exact Fraction, or a fixture name"
        )
    raise DomainError(f"cannot interpret {x!r} as a real parameter")


# The named reals, built once.  The quadratic surds have irrationality measure
# exactly 2; liouville is the rational truncation sum_{k=1}^{4} 10^(-k!) of
# Liouville's constant, whose infinite measure is that of the limit.
FIXTURES = {
    "sqrt2": RealValue.from_surd(0, 1, 1, 2, label="sqrt2"),
    "sqrt3": RealValue.from_surd(0, 1, 1, 3, label="sqrt3"),
    "golden": RealValue.from_surd(1, 1, 2, 5, label="golden"),
    "liouville": RealValue.from_rational(
        sum(Fraction(1, 10 ** math.factorial(k)) for k in range(1, 5)), label="liouville[4]"),
}


def parse_real(token: str, assume: str | None = None) -> RealValue:
    """Parse a CLI-style real token: a FIXTURES name (phi for golden, -name
    for its negation), 'a/b', integer, or decimal.

    Free decimals are only accepted when assume is 'rational' or
    'irrational'; rationality drives case dispatch and cannot be guessed
    from a double.  A token whose double is not finite, or is +-0 for a
    nonzero value, is refused.
    """
    t = token.strip().lower()
    neg = t[:1] == "-"
    name = t[1:] if neg else t
    fixture = FIXTURES.get("golden" if name == "phi" else name)
    if fixture is not None:
        return fixture.neg() if neg else fixture
    exact = None
    if "." not in t and "e" not in t:  # integer or a/b: exact by syntax
        try:
            exact = Fraction(t)
        except (ValueError, ZeroDivisionError):
            pass
    try:
        x = float(t if exact is None else exact)
    except ValueError as exc:
        raise DomainError(f"cannot parse real parameter {token!r}") from exc
    except OverflowError:  # exact, but past double range
        x = math.inf
    if not math.isfinite(x):  # nan, inf, or past double range
        raise DomainError(f"real parameter {token!r} must be finite")
    if x == 0.0 and Fraction(t):  # nonzero, but below double range
        raise DomainError(f"real parameter {token!r} underflows to 0 as a double")
    if exact is not None or assume == "rational":
        # integer or a/b; a decimal literal denotes one once declared rational
        return RealValue.from_rational(Fraction(t), label=token.strip())
    if assume == "irrational":
        return RealValue.from_float(x, assumed_rational=False, label=token.strip())
    return RealValue.from_float(x, assumed_rational=None, label=token.strip())


@dataclass(slots=True)
class DiophantineWitness:
    """A certificate n*theta = m + beta + residual with |residual| < n^-rho.

    m1/residual2/target_beta2 are filled by joint searches (the second angle's
    components); trusted is False when a float-kind input cannot support the
    claimed residual at this n.

    The record is plain, neither frozen nor hashable: a search builds one per
    witness, and a frozen dataclass sets each field through
    object.__setattr__, several times the cost of the slots assignments.
    Nothing mutates or hashes a witness once it is built.
    """

    n: int
    m: int
    m1: int | None
    target_beta: float
    residual: float
    rho: float
    trusted: bool = True
    target_beta2: float | None = None
    residual2: float | None = None

    @property
    def acceptance(self) -> float:
        r = abs(self.residual)
        if self.residual2 is not None:
            r = max(r, abs(self.residual2))
        return r


def decompose(th: RealValue, n: int, beta: float,
              beta_frac: Fraction | None = None) -> tuple[int, float]:
    """m and residual with n*theta = m + beta + residual, residual in [-1/2, 1/2].

    An exact rational theta with an exact target beta_frac is reduced in
    integer arithmetic (n*theta - beta = num/den, rounded half up); every
    other input through mul_floor_frac and beta.
    """
    if th.kind == "rational" and beta_frac is not None:
        p, d = th.fraction.numerator, th.fraction.denominator
        bp, bd = beta_frac.numerator, beta_frac.denominator
        num, den = n * p * bd - bp * d, d * bd
        m, r = divmod(2 * num + den, 2 * den)
        return m, (r - den) / (2 * den)
    fl, fr = th.mul_floor_frac(n)
    d = fr - beta
    shift = math.floor(d + 0.5)
    return fl + shift, d - shift


def _trusted(th: RealValue, residual: float, n: int) -> bool:
    if th.exact:
        return True
    return abs(residual) > _TRUST_FACTOR * _EPS * n


# Widening of every stepping window beyond (2^k)^-rho.  It is far above the
# ~1e-13 drift of a carried residual (see _CARRY), so a stepping decision
# that the drift gets wrong can only concern a degree within that drift of
# the widened window's edge, never a witness.
_SLACK = 1e-12

# Steps a carried residual takes between exact reductions.  Each step adds
# a change accurate to ~1e-16 and one rounding of a sum below 1/2 in
# magnitude, so the drift stays below 256 * 2^-52 < 1e-13.
_CARRY = 256


class _ThreeGapSteps:
    """Hit-to-hit steps of n*theta, theta a surd, through the windows
    |residual| < h_j with h_j = (2^j)^-rho + _SLACK.

    By Slater's three-gap theorem (N. B. Slater, "Gaps and steps for the
    sequence n theta mod 1", Proc. Camb. Phil. Soc. 63, 1967) the returns of
    n*theta mod 1 to an arc of length L are a, b or a + b apart, with
    a = min{n >= 1 : {n theta} < L} and b = min{n >= 1 : {n theta} > 1 - L}.
    Both are records of the Stern-Brocot walk towards theta (the
    intermediate fractions of its continued fraction): n_lo holds the
    latest record low x = {n_lo theta}, n_hi the latest record high
    y = 1 - {n_hi theta}, and the next record is n_lo + n_hi on the side of
    the larger of x and y.  Windows are requested in nonincreasing width, so
    the walk only moves forward.  The three steps move the residual by x,
    -y and x - y.
    """

    def __init__(self, th: RealValue, rho: float) -> None:
        self.th = th
        self.rho = rho
        self.n_lo = self.n_hi = 1
        self.x = th.mul_floor_frac(1)[1]
        self.y = 1.0 - self.x

    def half_width(self, j: int) -> float:
        return (2 ** j) ** -self.rho + _SLACK

    def window(self, j: int) -> tuple:
        """Window j as (h, width, x, y, (a, x), (b, -y), (a + b, x - y)):
        the half width, the width, x and y, and the (step, change) pair of
        each gap."""
        h = self.half_width(j)
        width = 2.0 * h
        while self.x >= width or self.y >= width:
            if self.x > self.y:
                self.n_lo += self.n_hi
                self.x = self.th.mul_floor_frac(self.n_lo)[1]
            else:
                self.n_hi += self.n_lo
                self.y = 1.0 - self.th.mul_floor_frac(self.n_hi)[1]
        a, x, b, y = self.n_lo, self.x, self.n_hi, self.y
        return h, width, x, y, (a, x), (b, -y), (a + b, x - y)


def _candidates(th: RealValue, beta: float, beta_frac: Fraction | None,
                rho: float, n_max: int,
                follow: Generator[float, int, None] | None = None
                ) -> Iterator[tuple[int, int, float]]:
    """Yield decompose(n) for increasing n in [1, n_max]: every n with
    |residual| < n^-rho among others.

    Rational and float angles, and rho <= 0, get every n (and follow is
    not used).  A surd angle is scanned linearly only until the first
    degree of a dyadic block [2^k, 2^(k+1)) that lies in the block's window
    |residual| < h_k while that window covers at most half the circle; from
    there it steps from hit to hit of the window in use, which contains the
    windows of every later block (they narrow with k).  The window in use
    narrows to that of a later block at the first of its hits there, so
    nothing is skipped.

    While it steps, a surd's residual is carried from hit to hit by the
    change of each step and comes from decompose again every _CARRY steps,
    so decompose runs only where the carried residual lies within
    n^-rho + _SLACK.  follow, the _carried residuals of a second angle, is
    sent every degree the surd's scan visits, and degrees where it lies
    beyond n^-rho + _SLACK are skipped as well.
    """
    if th.kind != "surd" or rho <= 0.0:
        for n in range(1, n_max + 1):
            yield n, *decompose(th, n, beta, beta_frac)
        return
    steps = _ThreeGapSteps(th, rho)
    j = None  # window in use; None while scanning linearly
    held = None  # the window whose tuple is unpacked in locals
    n, carried = 1, 0
    m, residual = decompose(th, 1, beta, beta_frac)
    while True:
        thr = n ** (-rho) + _SLACK
        if ((follow is None or abs(follow.send(n)) < thr)
                and (m is not None or abs(residual) < thr)):
            if m is None:
                m, residual = decompose(th, n, beta, beta_frac)
            yield n, m, residual
        k = n.bit_length() - 1
        if j is None:
            h = steps.half_width(k)
            if h > 0.25 or abs(residual) >= h:
                gap, change = 1, None  # the next degree is reduced exactly
            else:
                j, h_next = k, steps.half_width(k + 1)
        if j is not None:
            while j < k and abs(residual) < h_next:
                j += 1
                h_next = steps.half_width(j + 1)
            if j != held:
                held = j
                h, width, frac_a, gap_b, to_a, to_b, to_ab = steps.window(j)
            u = residual + h  # position in the window [0, width)
            if u + frac_a < width:
                gap, change = to_a
            elif u >= gap_b:
                gap, change = to_b
            else:
                gap, change = to_ab
        n += gap
        if n > n_max:
            return
        carried += 1
        if change is None or carried == _CARRY:
            carried = 0
            m, residual = decompose(th, n, beta, beta_frac)
        else:
            m, residual = None, residual + change


def _carried(th: RealValue, beta: float,
             beta_frac: Fraction | None) -> Generator[float, int, None]:
    """The residual of a surd angle at the increasing degrees sent to it
    (after a first next()): carried over each gap g by {g theta}, reduced
    once per distinct gap, and wrapped into [-1/2, 1/2); every _CARRY-th
    degree, the first included, comes from decompose."""
    changes: dict[int, float] = {}
    n, residual, carried = 0, 0.0, _CARRY - 1
    while True:
        n_next = yield residual
        gap, n = n_next - n, n_next
        carried += 1
        if carried == _CARRY:
            carried = 0
            residual = decompose(th, n, beta, beta_frac)[1]
            continue
        change = changes.get(gap)
        if change is None:
            change = changes[gap] = th.mul_floor_frac(gap)[1]
        residual += change
        if residual >= 0.5:
            residual -= 1.0


# n^-rho where it underflows to 0: an exact zero residual still passes
# |0| < n^-rho, and every nonzero double fails, as against the exact power.
_LEAST = math.ulp(0.0)


# Top degree of a witness search when none is given.
DEFAULT_NMAX = 10_000


def check_search(betas, rho: float | None,
                 n_max: int | None) -> list[tuple[float, Fraction | None]]:
    """The witness targets as (double, exact Fraction or None), once n_max
    is at least 1, rho finite (either may be None: not given) and every
    target in [0,1); DomainError otherwise."""
    if n_max is not None and n_max < 1:
        raise DomainError("n_max must be >= 1")
    if rho is not None and not math.isfinite(rho):
        raise DomainError(f"rho must be finite, got {rho}")
    targets = []
    for beta in betas:
        frac = Fraction(beta) if isinstance(beta, (int, Fraction)) else None
        b = float(beta if frac is None else frac)
        if not (0.0 <= b < 1.0):
            raise DomainError(f"beta must lie in [0,1), got {b}")
        targets.append((b, frac))
    return targets


def _scan(sides, rho: float, n_max: int | None) -> list[DiophantineWitness]:
    """All n in 1..n_max (None: DEFAULT_NMAX) where each of one or two sides
    (theta, beta) has |n*theta - beta - m| < n^-rho, m the nearest integer.

    The rule holds at every finite rho: an exact zero residual always
    passes, and rho <= 0 passes every degree (|residual| <= 1/2 < 1), the
    power being taken at exponent 0 so that it cannot overflow.  Degrees
    come from _candidates on the lead side, the second when it alone is a
    surd (so that the scan steps from hit to hit), else the first.  The
    other side is reduced only where the lead passes, and a second surd's
    residual is carried along the scan (_carried).  Witnesses come out in
    increasing n, with m/residual from the first side and m1/residual2
    from the second.
    """
    angles = [as_real_value(theta) for theta, _ in sides]
    targets = check_search([beta for _, beta in sides], rho, n_max)
    n_max = DEFAULT_NMAX if n_max is None else n_max
    # (angle, target, exact target or None) per side
    legs = [(th, *target) for th, target in zip(angles, targets)]
    th1, th2 = angles[0], angles[-1]
    swap = th2.kind == "surd" and th1.kind != "surd"
    lead, *rest = legs[::-1] if swap else legs
    other = rest[0] if rest else None
    b1, b2 = legs[0][1], (legs[1][1] if rest else None)
    follow = m1 = r2 = None
    if other and lead[0].kind == other[0].kind == "surd":
        follow = _carried(*other)
        next(follow)
    exact = all(th.exact for th in angles)  # exact angles are trusted at every n
    power = -max(rho, 0.0)
    out: list[DiophantineWitness] = []
    append = out.append
    for n, m, r in _candidates(*lead, rho, n_max, follow):
        thr = n ** power or _LEAST
        if abs(r) >= thr:
            continue
        if other is not None:
            m1, r2 = decompose(other[0], n, other[1], other[2])
            if abs(r2) >= thr:
                continue
            if swap:
                m, r, m1, r2 = m1, r2, m, r
        append(DiophantineWitness(
            n, m, m1, b1, r, rho,
            exact or (_trusted(th1, r, n) and (r2 is None or _trusted(th2, r2, n))),
            b2, r2))
    return out


def witness_search(theta: RealValue | Fraction | int, beta, rho: float,
                   n_max: int | None) -> list[DiophantineWitness]:
    """All n in 1..n_max with |n*theta - beta - m| < n^-rho (_scan of one side).

    For a surd theta the cost grows with the number of hits (three-gap
    stepping, see _candidates) and n*theta is reduced exactly only near a
    witness; rational and float angles are scanned linearly.  An empty
    result is a valid return (rho may simply be too ambitious for this
    range).
    """
    return _scan(((theta, beta),), rho, n_max)


def joint_witness_search(theta1, theta2, beta1, beta2, rho: float,
                         n_max: int | None) -> list[DiophantineWitness]:
    """Simultaneous acceptance: both residuals below n^-rho at the same n
    (_scan of two sides), with m/residual from theta1 and m1/residual2 from
    theta2."""
    return _scan(((theta1, beta1), (theta2, beta2)), rho, n_max)


def default_rho(theta: RealValue, beta: float, joint: bool = False) -> float:
    """Search exponent guaranteed to yield witnesses in practice: 1.0 for a
    quadratic surd aimed at beta = 0, 0.4 for joint searches, 0.5 otherwise."""
    if joint:
        return 0.4
    if theta.kind == "surd" and beta == 0.0:
        return 1.0
    return 0.5

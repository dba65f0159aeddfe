"""Exact-rational reference implementations used to freeze expected values.

Everything here works over Q or Q(i) (Gaussian rationals), summing and
multiplying exactly and converting to floats only at the comparison site.
Scope is deliberately desk-scale: degrees n <= ~12, rational q and z, and
angle parameters whose phases land on {1, i, -1, -i}.  The linear witness
scans, the split sums and the reversed sum as every row generated them,
the untrimmed Pochhammer log table, the Pochhammer product as a loop, the
summation kernel and series loop as they took phases, with the per-term
stop test, the kernel before that on log-polar terms, the row writer as
two library calls, and the error majorants as one expression per regime
are the references that rewrites must match exactly.  Three cross-checks built on qpr's own kernels
(q-binomials from the Pochhammer tables, Euler's product/series identity,
fractional-part orbits), the reconstruction of L_n at the scaled point from
qpr's normalized paths, the integer power of a log-polar value, the split
halves' Pochhammer ratios and the continued-fraction convergents close the
file: no row or command uses them, only the tests that check the kernels
through them.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from fractions import Fraction

from qpr.numerics import LP_ZERO, MAX_TERMS, TOL, TWO_PI, ConvergenceError, \
    DomainError, LogPolarComplex, RangeGuardError, abs_or_inf, certified_terms, exp_or_inf, \
    lp, lp_mul, phase, step_phases
from qpr.numerics import sum_rescaled as qpr_sum_rescaled
from qpr.qlaguerre import _log_factor_e, _log_factor_f, normalized_laguerre_lp, split_sums
from qpr.qseries import aq_series_lp, poch_table, pochhammer
from qpr.reals import RealValue, as_real_value


class QI:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        o = _qi(o)
        return QI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = _qi(o)
        return QI(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return _qi(o) - self

    def __mul__(self, o):
        o = _qi(o)
        return QI(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def inverse(self):
        d = self.re * self.re + self.im * self.im
        if d == 0:
            raise ZeroDivisionError("inverse of Gaussian-rational zero")
        return QI(self.re / d, -self.im / d)

    def __truediv__(self, o):
        return self * _qi(o).inverse()

    def __rtruediv__(self, o):
        return _qi(o) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = QI(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, o):
        o = _qi(o)
        return self.re == o.re and self.im == o.im

    def __repr__(self):
        return f"QI({self.re}, {self.im})"

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


def _qi(x) -> QI:
    return x if isinstance(x, QI) else QI(x)


def unit_phase(d: Fraction) -> QI:
    """e^(2 pi i d) for d with denominator 1, 2 or 4."""
    d = Fraction(d) % 1
    table = {Fraction(0): QI(1), Fraction(1, 2): QI(-1),
             Fraction(1, 4): QI(0, 1), Fraction(3, 4): QI(0, -1)}
    if d not in table:
        raise ValueError(f"phase {d} is not a fourth root of unity")
    return table[d]


def poch(a, q: Fraction, n: int):
    """(a;q)_n exactly (a rational or Gaussian rational)."""
    out = _qi(a) * 0 + 1 if isinstance(a, QI) else Fraction(1)
    qk = Fraction(1)
    for _ in range(n):
        out = out * (1 - _qi(a) * qk) if isinstance(a, QI) else out * (1 - a * qk)
        qk *= q
    return out


def poch_inf_float(a: Fraction, q: Fraction, terms: int = 300) -> float:
    """(a;q)_inf by an exact finite product long past double saturation."""
    return float(poch(Fraction(a), Fraction(q), terms))


def qbin(n: int, k: int, q: Fraction) -> Fraction:
    return poch(Fraction(q), q, n) / (poch(Fraction(q), q, k) * poch(Fraction(q), q, n - k))


def aq_partial(q: Fraction, z, terms: int = 50):
    """Exact partial sum of sum_k q^(k^2) (-z)^k / (q;q)_k."""
    q = Fraction(q)
    out = QI(0)
    for k in range(terms):
        out = out + QI(q ** (k * k)) * (-_qi(z)) ** k * QI(poch(q, q, k)).inverse()
    return out


def bq_partial(q: Fraction, z, terms: int = 50):
    q = Fraction(q)
    out = QI(0)
    for k in range(terms):
        out = out + QI(q ** (k * k)) * _qi(z) ** k * QI(poch(q, q, k)).inverse()
    return out


def theta_partial(z, q: Fraction, width: int = 40):
    """Exact symmetric partial sum of the bilateral theta series."""
    q = Fraction(q)
    zz = _qi(z)
    out = QI(1)
    for k in range(1, width + 1):
        out = out + QI(q ** (k * k)) * (zz ** k + zz.inverse() ** k)
    return out


def laguerre_direct(n: int, alpha: int, q: Fraction, x) -> QI:
    """The defining degree-n sum at exact argument x, alpha integer >= 0."""
    q = Fraction(q)
    a = q ** (alpha + 1)
    pref = poch(a, q, n) / poch(q, q, n)
    out = QI(0)
    for k in range(n + 1):
        t = (QI(q ** (k * k + alpha * k)) * (-_qi(x)) ** k
             * QI(poch(a, q, k)).inverse() * QI(qbin(n, k, q)))
        out = out + t
    return QI(pref) * out


def frac_part(x: Fraction) -> Fraction:
    return x - math.floor(x)


def scale_point(n: int, q: Fraction, z, tau: Fraction, theta: Fraction) -> QI:
    """x_n = z q^(-n(tau+2)) e^(-2 pi i n theta); needs n(tau+2) integral and
    {n theta} a quarter-integer."""
    e = n * (tau + 2)
    if e.denominator != 1:
        raise ValueError("n (tau+2) must be an integer for a rational scale point")
    return _qi(z) * QI(Fraction(q) ** (-e)) * unit_phase(-frac_part(n * theta))


def normalizer(n: int, alpha: int, q: Fraction, z, tau: Fraction, theta: Fraction) -> QI:
    """(-z q^alpha)^n q^(n^2 (1-s)) with the same integrality requirements."""
    e = n * n * (1 + tau)
    if e.denominator != 1:
        raise ValueError("n^2 (1+tau) must be an integer")
    return ((-_qi(z) * QI(Fraction(q) ** alpha)) ** n * QI(Fraction(q) ** (-e))
            * unit_phase(-frac_part(n * n * theta)))


def reversed_normalized(n: int, alpha: int, q: Fraction, z,
                        tau: Fraction, theta: Fraction) -> QI:
    """The reversed normalized sum, exactly; tau*n must be integral and
    {n theta} a quarter-integer."""
    q = Fraction(q)
    tn = tau * n
    if tn.denominator != 1:
        raise ValueError("tau*n must be an integer")
    a = q ** (alpha + 1)
    d_n = frac_part(n * theta)
    base = -QI(q ** tn) * (_qi(z) * QI(q ** alpha)).inverse() * unit_phase(d_n)
    out = QI(0)
    for k in range(n + 1):
        coef = poch(a, q, n) / (poch(q, q, k) * poch(q, q, n - k) * poch(a, q, n - k))
        out = out + QI(q ** (k * k)) * QI(coef) * base ** k
    return out


def split_partials(n: int, alpha: int, q: Fraction, z, tau: Fraction,
                   theta: Fraction) -> tuple[QI, QI, int]:
    """(s1, s2, m): the reversed normalized sum split at floor(m/2)."""
    q = Fraction(q)
    tn = tau * n
    if tn.denominator != 1:
        raise ValueError("tau*n must be an integer")
    m = int(-tn)
    p = m // 2
    a = q ** (alpha + 1)
    d_n = frac_part(n * theta)
    base = -QI(q ** tn) * (_qi(z) * QI(q ** alpha)).inverse() * unit_phase(d_n)
    s1 = QI(0)
    s2 = QI(0)
    for k in range(n + 1):
        coef = poch(a, q, n) / (poch(q, q, k) * poch(q, q, n - k) * poch(a, q, n - k))
        t = QI(q ** (k * k)) * QI(coef) * base ** k
        if k <= p:
            s1 = s1 + t
        else:
            s2 = s2 + t
    return s1, s2, m


def theta_half_sums(n: int, alpha: int, q: Fraction, z, tau: Fraction,
                    theta: Fraction) -> tuple[QI, QI, int]:
    """The reversed/shifted half sums in theta normalization, with the
    (q;q)_inf^2 factor cancelled so everything stays rational:

        S1~ = sum_{k=0}^{p} q^(k^2) w1^k  * (q^(a+1);q)_n /
              ((q;q)_{p-k} (q;q)_{n-p+k} (q^(a+1);q)_{n-p+k})
        S2~ = sum_{k=1}^{n-p} q^(k^2) w1^(-k) * (q^(a+1);q)_n /
              ((q;q)_{p+k} (q;q)_{n-p-k} (q^(a+1);q)_{n-p-k})

    They must satisfy  s_i * (-z q^a e^(-2 pi i d_n))^p / q^(p(tau n + p))
    = S_i~  against :func:`split_partials` (tau*n integral, so c_n = 0)."""
    q = Fraction(q)
    tn = tau * n
    if tn.denominator != 1:
        raise ValueError("tau*n must be an integer")
    m = int(-tn)
    p = m // 2
    parity = m - 2 * p
    a = q ** (alpha + 1)
    d_n = frac_part(n * theta)
    w1 = -_qi(z) * QI(q ** (alpha + parity)) * unit_phase(-d_n)
    s1t = QI(0)
    for k in range(p + 1):
        coef = poch(a, q, n) / (poch(q, q, p - k) * poch(q, q, n - p + k)
                                * poch(a, q, n - p + k))
        s1t = s1t + QI(q ** (k * k)) * QI(coef) * w1 ** k
    s2t = QI(0)
    for k in range(1, n - p + 1):
        coef = poch(a, q, n) / (poch(q, q, p + k) * poch(q, q, n - p - k)
                                * poch(a, q, n - p - k))
        s2t = s2t + QI(q ** (k * k)) * QI(coef) * w1 ** (-k)
    return s1t, s2t, m


def half_sum_normalizer(n: int, alpha: int, q: Fraction, z, tau: Fraction,
                        theta: Fraction) -> QI:
    """(-z q^a e^(-2 pi i d_n))^p / q^(p(tau n + p)) for the identity above."""
    q = Fraction(q)
    tn = tau * n
    m = int(-tn)
    p = m // 2
    d_n = frac_part(n * theta)
    base = -_qi(z) * QI(q ** alpha) * unit_phase(-d_n)
    e = p * (tn + p)
    return base ** p * QI(q ** (-e))


def linear_witness_search(theta, beta, rho: float, n_max: int, lo: int = 1) -> list:
    """Witnesses by testing every degree lo..n_max in turn: the reference that
    qpr.diophantine.witness_search must equal whatever it enumerates (on
    the window [lo, n_max] of its degrees).  A residual of exactly 0 passes
    |0| < n^-rho at every finite rho, also where n^-rho underflows to 0."""
    from qpr.diophantine import DiophantineWitness, decompose
    th = as_real_value(theta)
    beta_frac = Fraction(beta) if isinstance(beta, (int, Fraction)) else None
    beta_f = float(beta)
    out = []
    for n in range(lo, n_max + 1):
        m, residual = decompose(th, n, beta_f, beta_frac)
        if residual == 0.0 or abs(residual) < n ** (-rho):
            out.append(DiophantineWitness(n=n, m=m, m1=None, target_beta=beta_f,
                                          residual=residual, rho=rho,
                                          trusted=th.exact))
    return out


def linear_joint_witness_search(theta1, theta2, beta1, beta2, rho: float,
                                n_max: int, lo: int = 1) -> list:
    """Joint witnesses by testing every degree lo..n_max on both angles, each
    by linear_witness_search's rule; a float angle's residual is trusted by
    qpr's own rule (_trusted)."""
    from qpr.diophantine import DiophantineWitness, _trusted, decompose
    th1, th2 = as_real_value(theta1), as_real_value(theta2)
    pairs = [(Fraction(b) if isinstance(b, (int, Fraction)) else None, float(b))
             for b in (beta1, beta2)]
    out = []
    for n in range(lo, n_max + 1):
        thr = n ** (-rho)
        m, r1 = decompose(th1, n, pairs[0][1], pairs[0][0])
        m1, r2 = decompose(th2, n, pairs[1][1], pairs[1][0])
        if (r1 == 0.0 or abs(r1) < thr) and (r2 == 0.0 or abs(r2) < thr):
            out.append(DiophantineWitness(n=n, m=m, m1=m1, target_beta=pairs[0][1],
                                          residual=r1, rho=rho,
                                          trusted=_trusted(th1, r1, n) and _trusted(th2, r2, n),
                                          target_beta2=pairs[1][1], residual2=r2))
    return out


# ---------------------------------------------------------------------------
# the Pochhammer log table as it was built before it dropped the entries past
# its converged value, and the reversed sum as every row generated it before
# saturated tau = 0 rows reused it.  qpr.qseries._PochTable must read the same
# bits at every index, and qpr.qlaguerre.normalized_laguerre_lp give the same
# value.
# ---------------------------------------------------------------------------

def poch_table_untrimmed(a: float, q: float, max_terms: int = MAX_TERMS) -> list[float]:
    """log (a;q)_k for k = 0 up to the first k with |a q^k| <= 1e-18, whose
    entry is the converged value, factor by factor; ConvergenceError past
    max_terms factors (numerics.MAX_TERMS by default)."""
    logs, acc, aqk = [0.0], 0.0, a
    while abs(aqk) > 1e-18:
        acc += math.log1p(-aqk)
        logs.append(acc)
        aqk *= q
        if len(logs) > max_terms + 1:
            raise ConvergenceError(
                f"(a;q)_inf with a={a}, q={q} did not saturate within "
                f"{max_terms} factors; q is too close to 1 for doubles"
            )
    return logs


# ---------------------------------------------------------------------------
# the Pochhammer product as a Python loop, as it was before its factors were
# driven by C iterators: qpr.qseries.pochhammer must give the same bits and
# raise the same errors at every order up to the cap and at every infinite
# order.  max_terms stands in for numerics.MAX_TERMS.
# ---------------------------------------------------------------------------

def pochhammer_loop(a: complex, q: float, n: int | float | None,
                    max_terms: int = MAX_TERMS) -> complex:
    """(a;q)_n factor by factor, with the infinite product's tail test at
    every factor; ConvergenceError past max_terms factors, at any order."""
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
        raise RangeGuardError(f"(a;q)_n with a={a}, q={q} leaves double range")
    prod = complex(1.0)
    aqk = a
    k = 0
    while infinite or k < n:
        if infinite and abs(aqk) <= 0.5 and 2.0 * abs(aqk) / (1.0 - abs(q)) <= TOL:
            break
        prod *= 1.0 - aqk
        aqk *= q
        k += 1
        if k > max_terms:
            raise ConvergenceError(
                f"(a;q)_inf with |a|={abs(a):.3g}, q={q} not certified within {max_terms} factors"
            )
    if not cmath.isfinite(prod):
        raise RangeGuardError(f"(a;q)_n with a={a}, q={q} leaves double range")
    return prod


def normalized_laguerre_direct(ctx, sp, n: int):
    """The reversed sum at degree n, its terms generated with the row's own
    stop and every Pochhammer factor read by _PochTable.log, each term's
    phase by the series loop that gave it."""
    from qpr.numerics import wrap_phase
    lq, tq, ta = ctx.log_q, ctx.tq, ctx.ta
    tau_n = sp.tau.value * n
    _, d_n = sp.theta.mul_floor_frac(n)
    log_zqa, log_1mq, log_an = ctx.log_zqa, math.log1p(-ctx.q), ta.log(n)
    logs, phases = certified_terms_phases(
        term_log=lambda k: (log_an - tq.log(k) - tq.log(n - k) - ta.log(n - k)
                            + (k * k + tau_n * k) * lq - k * log_zqa),
        phase_step=wrap_phase(math.pi - phase(ctx.z) + TWO_PI * d_n),
        ratio_bound=lambda k: exp_or_inf((2 * k + 1 + tau_n) * lq - log_zqa - log_1mq),
        stop=n,
    )
    return qpr_sum_rescaled(logs, [cis(ph) for ph in phases]).to_lp()


# ---------------------------------------------------------------------------
# split_sums as it was before saturated rows reused their term logs: every
# row generates both halves through the series loop that gave each term its
# phase.  qpr.qlaguerre.split_sums must give the same bits.
# ---------------------------------------------------------------------------

def split_sums_direct(ctx, sp, n: int):
    """(total, terms1, terms2) of the default decomposition -tau*n = m + c_n,
    each half's terms generated with the row's own stops, as (logs, pairs)."""
    from qpr.reals import chi
    from qpr.numerics import wrap_phase
    m, c_n = sp.neg_tau.mul_floor_frac(n)
    _, d_n = sp.theta.mul_floor_frac(n)
    p = m // 2
    lq = ctx.log_q
    tq, ta = ctx.tq, ctx.ta
    log_euler2 = 2.0 * tq.log_inf
    log_an = ta.log(n)

    def log_factor_e(k):
        return log_euler2 + log_an - tq.log(p - k) - tq.log(n - p + k) - ta.log(n - p + k)

    def log_factor_f(k):
        return log_euler2 + log_an - tq.log(p + k) - tq.log(n - p - k) - ta.log(n - p - k)

    log_w1 = math.log(ctx.abs_z) + (ctx.alpha + chi(m) + c_n) * lq
    ph_w1 = wrap_phase(math.pi + phase(ctx.z) - TWO_PI * d_n)
    sat_factor = log_euler2 + log_an - tq.log_inf - tq.log_inf - ta.log_inf
    top = max(tq.sat, ta.sat)
    e_lo, e_hi, f_lo, f_hi = top - n + p, p - tq.sat, tq.sat - p, n - p - top
    terms1 = certified_terms_phases(
        term_log=lambda k: (k * k * lq + k * log_w1
                            + (sat_factor if e_lo <= k <= e_hi else log_factor_e(k))),
        phase_step=ph_w1,
        ratio_bound=lambda k: exp_or_inf((2 * k + 1) * lq + log_w1),
        stop=p,
        tail_log=lambda k: k * k * lq + k * log_w1,
    )
    terms2 = certified_terms_phases(
        term_log=lambda k: (k * k * lq - k * log_w1
                            + (sat_factor if f_lo <= k <= f_hi else log_factor_f(k))),
        phase_step=wrap_phase(-ph_w1),
        ratio_bound=lambda k: exp_or_inf((2 * k + 1) * lq - log_w1),
        start=1,
        stop=n - p,
        tail_log=lambda k: k * k * lq - k * log_w1,
    )
    terms1, terms2 = [(logs, [cis(ph) for ph in phases]) for logs, phases in (terms1, terms2)]
    total = qpr_sum_rescaled(terms1[0] + terms2[0], terms1[1] + terms2[1])
    return total.to_lp(), terms1, terms2


# ---------------------------------------------------------------------------
# the summation kernel and the series loop as they were before they took
# (cos, sin) pairs: each term carried its phase, and the kernel looked it up
# on the axes or called cos and sin; and the kernel as it was before that,
# on one LogPolarComplex per term.  qpr.numerics.sum_rescaled, given the
# pairs of those phases, must give the same bits; so must
# qpr.numerics.certified_terms, which keeps the -inf logs this loop left out,
# and qpr.numerics.step_phases, the pairs of the phases of the terms kept.
# certified_terms_phases also keeps, as per_term, the stop test as it
# was before the ratio bound was located once per sum: ratio_bound consulted
# at every k where the tail test holds.
# ---------------------------------------------------------------------------

_NEG_INF = float("-inf")
_HALF_PI = 0.5 * math.pi
_AXES = {0.0: (1.0, 0.0), math.pi: (-1.0, 0.0), _HALF_PI: (0.0, 1.0), -_HALF_PI: (0.0, -1.0)}
_QUARTER_STEPS = {0.0: 0, _HALF_PI: 1, math.pi: 2, -_HALF_PI: 3}
_QUARTER_PHASES = (0.0, _HALF_PI, math.pi, -_HALF_PI)


def cis(phi: float) -> tuple[float, float]:
    """(cos phi, sin phi), exact on the four cardinal directions."""
    if phi == 0.0:
        return 1.0, 0.0
    if phi == math.pi:
        return -1.0, 0.0
    if phi == _HALF_PI:
        return 0.0, 1.0
    if phi == -_HALF_PI:
        return 0.0, -1.0
    return math.cos(phi), math.sin(phi)


def step_phase(phase_step: float, k: int) -> float:
    """wrap_phase(k * phase_step), the quarter steps' multiples taken from the
    table of quarter turns: the phase the series loop gave term k."""
    quarter = _QUARTER_STEPS.get(phase_step)
    if quarter is not None:
        return _QUARTER_PHASES[(quarter * k) % 4]
    r = math.remainder(k * phase_step, TWO_PI)
    return r + TWO_PI if r <= -math.pi else r


class _Neumaier:
    """Kahan-Babuska-Neumaier compensated accumulator for one real axis."""

    __slots__ = ("total", "comp")

    def __init__(self) -> None:
        self.total = 0.0
        self.comp = 0.0

    def add(self, x: float) -> None:
        t = self.total + x
        if abs(self.total) >= abs(x):
            self.comp += (self.total - t) + x
        else:
            self.comp += (x - t) + self.total
        self.total = t

    def result(self) -> float:
        return self.total + self.comp


def sum_rescaled(terms):
    """The kernel as it was before it took parallel lists: one
    LogPolarComplex per term, tuples sorted by (-log, index), and a Neumaier
    accumulator object per axis.

    The maximum log-magnitude is factored out, the rescaled terms are
    converted to ordinary complex and accumulated in descending-magnitude
    order (ties broken by original index) with compensated summation.  For a
    fixed multiset of inputs the result is reproducible bit for bit.
    """
    from qpr.numerics import SummationResult
    items = [(t.log_mag, i, t.phase) for i, t in enumerate(terms)]
    finite = [(lm, i, ph) for lm, i, ph in items if lm != _NEG_INF]
    if not finite:
        return SummationResult(0j, 0.0, len(items))
    big = max(lm for lm, _, _ in finite)
    finite.sort(key=lambda t: (-t[0], t[1]))
    re = _Neumaier()
    im = _Neumaier()
    for lm, _, ph in finite:
        w = math.exp(lm - big)
        c, s = cis(ph)
        re.add(w * c)
        im.add(w * s)
    return SummationResult(complex(re.result(), im.result()), big, len(items))


def sum_rescaled_phases(logs, phases):
    """The kernel on parallel lists of logs and phases."""
    from qpr.numerics import SummationResult
    pairs = sorted(zip(logs, phases), key=lambda t: t[0], reverse=True)
    while pairs and pairs[-1][0] == _NEG_INF:
        pairs.pop()
    if not pairs:
        return SummationResult(0j, 0.0, len(logs))
    big = pairs[0][0]
    re = re_comp = im = im_comp = 0.0
    for lm, ph in pairs:
        w = math.exp(lm - big)
        cs = _AXES.get(ph)
        c, s = (math.cos(ph), math.sin(ph)) if cs is None else cs
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


def certified_terms_phases(term_log, phase_step, ratio_bound, *, start=0, stop=None,
                           max_log=_NEG_INF, tail_log=None, per_term=False):
    """(logs, phases) of the series loop, -inf terms left out; per_term tests
    ratio_bound(k) at every k whose tail test holds."""
    from qpr.numerics import _ratio_threshold
    log_tol = math.log(TOL) - math.log(4.0)
    logs, phases = [], []
    last = start + MAX_TERMS if stop is None else stop
    threshold = None
    for k in range(start, last + 1):
        tl = term_log(k)
        if tl != _NEG_INF:
            logs.append(tl)
            phases.append(step_phase(phase_step, k))
            if tl > max_log:
                max_log = tl
        tail = tl if tail_log is None else tail_log(k)
        if tail == _NEG_INF or tail <= max_log + log_tol:
            if per_term:
                if ratio_bound(k) <= 0.5:
                    return logs, phases
                continue
            if threshold is None:
                threshold = _ratio_threshold(ratio_bound, k, last)
            if k >= threshold:
                return logs, phases
    if stop is not None:
        return logs, phases
    raise ConvergenceError(f"series not certified within {MAX_TERMS} terms")


# ---------------------------------------------------------------------------
# the row writer as the csv and json modules give it: the output contract
# that qpr.cli._write_rows, and its witness lines, keep byte for byte
# ---------------------------------------------------------------------------

def write_rows(columns: list[str] | tuple[str, ...], rows: list[tuple], fmt: str) -> str:
    """The text of ``qpr.cli._write_rows``: csv.writer with "\\n" line ends
    (None as an empty cell, bools as true/false, a float as its repr), or
    json.dumps(rows, indent=2) and a newline.  A row holds its cells in
    column order; what follows the last column is not a cell."""
    rows = [row[:len(columns)] for row in rows]
    if fmt == "json":
        return json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow(["true" if v is True else "false" if v is False else v for v in row])
    return buf.getvalue()


def witness_row(w) -> tuple:
    """A witness as a row of the ``witness`` subcommand; a joint search
    reports the larger |residual| of its two angles."""
    residual = w.residual if w.residual2 is None else max(abs(w.residual), abs(w.residual2))
    return w.n, w.m, w.m1, w.target_beta, residual, w.rho


# ---------------------------------------------------------------------------
# the error majorants as the evaluators wrote them inline, one expression per
# regime: the bits that qpr.numerics.Majorant keeps
# ---------------------------------------------------------------------------

def _over(x: float, d: float) -> float:
    return x / d if d else math.inf


def _case1_log_b(ctx) -> float:
    """log B_q(q^(2-a)/|z|), from the double value while B_q has one."""
    b = aq_series_lp(ctx.q, ctx.q ** (2.0 - ctx.alpha) / ctx.abs_z, False)
    value = b.to_complex().real
    return math.log(value) if math.isfinite(value) else b.log_mag


def stated_bound(ctx, sp, r) -> tuple[float, float | None]:
    """(bound, ln bound) of the report r of context ctx and scaling sp, by
    the expression its case used; ln bound is case 1's only (else None).
    n ** rho raises OverflowError at a large rho, as it did there."""
    from qpr.asymptotics import _aq_prefactor, _theta_prefactor

    n, nu, lzqa, lq = r.n, r.nu, ctx.log_zqa, ctx.log_q
    if r.case_id == 1:
        log_bound = ((1.0 - ctx.alpha) * ctx.log_q + _case1_log_b(ctx) - math.log(1.0 - ctx.q)
                     - math.log(ctx.abs_z) + sp.tau.value * n * ctx.log_q)
        return exp_or_inf(log_bound), log_bound
    if r.case_id == 2:
        return _aq_prefactor(ctx, 7.0) * (
            exp_or_inf(0.5 * n * ctx.log_q)
            + exp_or_inf(0.25 * n * n * ctx.log_q - (n // 2) * lzqa)), None
    if r.case_id == 4:
        return _theta_prefactor(ctx, 30.0) * (exp_or_inf(0.5 * nu * lq)
                                              + exp_or_inf(nu * lzqa + nu * nu * lq)
                                              + exp_or_inf(0.5 * nu * nu * lq - nu * lzqa)), None
    rho = r.witness.rho
    logn = math.log(n)
    if r.case_id == 3:
        return _aq_prefactor(ctx, 48.0) * (_over(logn * logn, n ** rho)
                                           + exp_or_inf(nu * nu * ctx.log_q - nu * lzqa)), None
    return _theta_prefactor(ctx, 96.0) * (exp_or_inf(nu * lzqa + nu * nu * lq)
                                          + exp_or_inf(0.5 * nu * nu * lq - nu * lzqa)
                                          + _over(logn * logn, n ** rho)), None


# ---------------------------------------------------------------------------
# cross-checks built on qpr's kernels: the Pochhammer log tables, the
# certified series kernel and the exact reduction of n*theta
# ---------------------------------------------------------------------------

def q_binomial(n: int, k: int, q: float) -> float:
    """Gaussian binomial coefficient (q;q)_n / ((q;q)_k (q;q)_{n-k}); positive."""
    if not (0 <= k <= n):
        raise DomainError(f"q_binomial needs 0 <= k <= n, got n={n}, k={k}")
    if not (0.0 < q < 1.0):
        raise DomainError(f"q_binomial needs 0 < q < 1, got q={q}")
    t = poch_table(q, q)
    return math.exp(t.log(n) - t.log(k) - t.log(n - k))


def euler_product_series_check(z: complex, q: float) -> tuple[complex, complex]:
    """(z;q)_inf two ways: infinite product, and the q-exponential series
    sum_k q^(k(k-1)/2) (-z)^k / (q;q)_k.  Returned as a cross-check pair."""
    if not abs(q) < 1.0:
        raise DomainError(f"identity needs |q| < 1, got q={q}")
    lhs = pochhammer(z, q, None)
    z = complex(z)
    if z == 0:
        return lhs, 1.0 + 0j
    table = poch_table(q, q)
    lq = math.log(q)
    lz = math.log(abs(z))
    logs = certified_terms(
        term_log=lambda k: 0.5 * k * (k - 1) * lq + k * lz - table.log(k),
        ratio_bound=lambda k: (q ** k) * abs(z) / (1.0 - q),
    )
    rhs = qpr_sum_rescaled(logs, step_phases(phase(-z), 0, len(logs) - 1)).to_complex()
    return lhs, rhs


def orbit(theta, n_max: int) -> list[tuple[int, float]]:
    """[(n, {n*theta}) for n = 1..n_max]."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    th = as_real_value(theta)
    return [(n, th.mul_floor_frac(n)[1]) for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# reconstruction of L_n at the scaled point from qpr's normalized paths:
# the scaling exponent, the scaled point, both normalizers, the reassembled
# value and each split half summed on its own.  No row or command reads them,
# only the tests that check qpr.qlaguerre's paths against laguerre_direct and
# the exact oracles.
# ---------------------------------------------------------------------------

def s_complex(sp, q: float) -> complex:
    """The scaling exponent s = sigma + i t, sigma = tau + 2 and
    t = 2 theta pi / log q."""
    return complex(sp.tau.value + 2.0, 2.0 * sp.theta.value * math.pi / math.log(q))


def scale_point_lp(ctx, sp, n: int):
    """x_n(z,s) = z*q^(-n*s) in log-polar form.

    log|x_n| = log|z| - n*sigma*log q and arg x_n = arg z - 2*pi*{n*theta};
    the fractional-part reduction keeps the phase exact for large n.
    """
    if n < 0:
        raise DomainError("degree n must be nonnegative")
    log_mag = math.log(ctx.abs_z) - n * (sp.tau.value + 2.0) * ctx.log_q
    _, frac = sp.theta.mul_floor_frac(n)
    return lp(log_mag, phase(ctx.z) - TWO_PI * frac)


def normalized_laguerre(ctx, sp, n: int) -> complex:
    """L_n(x_n(z,s);q) / ((-z q^a)^n q^(n^2 (1-s))) by the reversed sum, as a
    complex number; qpr.qlaguerre.normalized_laguerre_lp gives it in
    log-polar form, and refuses tau < 0."""
    return normalized_laguerre_lp(ctx, sp, n).to_complex()


def normalizer_lp(ctx, sp, n: int):
    """(-z q^a)^n * q^(n^2 (1-s)) in log-polar form, phases reduced exactly."""
    lq = ctx.log_q
    base = lp(ctx.log_zqa, math.pi + phase(ctx.z))
    first = lp_pow_int(base, n)
    # q^(n^2 (1-s)) = q^(-n^2 (1+tau)) * e^(-2 pi i theta n^2)
    _, frac = sp.theta.mul_floor_frac(n * n)
    second = lp(-(1.0 + sp.tau.value) * n * n * lq, -TWO_PI * frac)
    return lp_mul(first, second)


def split_normalizer_lp(ctx, sp, n: int, m: int, c_n: float, d_n: float):
    """(q;q)_inf^2 (-z q^a e^(-2 pi i d_n))^p / q^(p(tau n + p)), p = floor(m/2).

    split_sums().total equals normalized_laguerre times this factor."""
    p = m // 2
    lq = ctx.log_q
    base = lp(ctx.log_zqa, math.pi + phase(ctx.z) - TWO_PI * d_n)
    num = lp_mul(lp(2.0 * ctx.tq.log_inf, 0.0), lp_pow_int(base, p))
    # p(tau n + p) = p(p - m) - p*c_n with the integer part exact
    expo = (p * (p - m) - p * c_n) * lq
    return lp_mul(num, lp(-expo, 0.0))


LP_ONE = LogPolarComplex(0.0, 0.0)


def lp_pow_int(b, k: int):
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
    return LogPolarComplex(k * b.log_mag, step_phase(b.phase, k))


def _factor(ctx, name: str, log_factor, k: int, n: int, m: int) -> float:
    if not (0 <= m <= 2 * n):
        raise DomainError(f"{name} needs 0 <= m <= 2n, got m={m}, n={n}")
    return math.exp(log_factor(ctx.tq, ctx.ta, 2.0 * ctx.tq.log_inf, ctx.ta.log(n), m // 2, n, k))


def factor_e(ctx, k: int, n: int, m: int) -> float:
    """Pochhammer ratio attached to term k of the reversed lower half sum;
    lies in (0, 1] and tends to 1 as the indices grow."""
    if not (0 <= k <= m // 2):
        raise DomainError(f"factor_e needs 0 <= k <= floor(m/2), got k={k}, m={m}")
    return _factor(ctx, "factor_e", _log_factor_e, k, n, m)


def factor_f(ctx, k: int, n: int, m: int) -> float:
    """Pochhammer ratio attached to term k of the shifted upper half sum;
    lies in (0, 1] and tends to 1 as the indices grow."""
    if not (1 <= k <= n - m // 2):
        raise DomainError(f"factor_f needs 1 <= k <= n - floor(m/2), got k={k}")
    return _factor(ctx, "factor_f", _log_factor_f, k, n, m)


def lp_div(a, b):
    """a / b of two log-polar values."""
    if b.is_zero:
        raise DomainError("division by log-polar zero")
    if a.is_zero:
        return LP_ZERO
    return lp(a.log_mag - b.log_mag, a.phase - b.phase)


def laguerre_scaled_lp(ctx, sp, n: int):
    """L_n at the scaled point x_n(z,s), reconstructed in log-polar form."""
    tau = sp.tau.value
    if tau >= 0.0:
        norm = normalized_laguerre_lp(ctx, sp, n)
    elif tau > -2.0 and n >= 1:
        res = split_sums(ctx, sp, n)
        norm = lp_div(res.total,
                      split_normalizer_lp(ctx, sp, n, res.m, res.c_n, res.d_n))
    else:
        raise RangeGuardError(
            "no overflow-safe path at tau <= -2; only direct evaluation at "
            "small degree applies there"
        )
    return lp_mul(norm, normalizer_lp(ctx, sp, n))


def half_sum(terms):
    """One split half, (logs, cis) from SplitSumResult.terms1 or .terms2,
    summed on its own."""
    return qpr_sum_rescaled(*terms).to_lp()


# ---------------------------------------------------------------------------
# continued-fraction convergents p/q, each kind of number by its own
# recurrence: rationals by Euclid's algorithm, quadratic surds by the exact
# integer recurrence of (P + sqrt(D))/Q, doubles until double precision runs
# out.  No row or command reads them, only the tests that find the convergent
# denominators among the witnesses.
# ---------------------------------------------------------------------------

_CF_SEED = [0, 1, 1, 0]  # p_{-2}, q_{-2}, p_{-1}, q_{-1}


def _push(conv: list[tuple[int, int]], state: list[int], a: int) -> None:
    p0, q0, p1, q1 = state
    p, q = a * p1 + p0, a * q1 + q0
    state[:] = [p1, q1, p, q]
    conv.append((p, q))


def convergents_rational(x: Fraction, count: int) -> list[tuple[int, int]]:
    conv: list[tuple[int, int]] = []
    state = list(_CF_SEED)
    num, den = x.numerator, x.denominator
    while den != 0 and len(conv) < count:
        a, rem = divmod(num, den)
        _push(conv, state, a)
        num, den = den, rem
    return conv


def convergents_surd(surd: tuple[int, int, int, int], count: int) -> list[tuple[int, int]]:
    a0, b0, c0, d = surd
    # Normalize to (P + sqrt(D))/Q with Q | D - P^2 so the recurrence stays integral.
    if b0 > 0:
        p, dd, qq = a0, b0 * b0 * d, c0
    else:
        p, dd, qq = -a0, b0 * b0 * d, -c0
    scale = abs(qq)
    p, dd, qq = p * scale, dd * scale * scale, qq * scale

    conv: list[tuple[int, int]] = []
    state = list(_CF_SEED)
    r_all = math.isqrt(dd)
    while len(conv) < count:
        if qq > 0:
            a = (p + r_all) // qq
        else:
            a = -((p + r_all) // (-qq)) - 1
        _push(conv, state, a)
        p = a * qq - p
        qq = (dd - p * p) // qq
    return conv


def convergents_float(x: float, count: int) -> list[tuple[int, int]]:
    conv: list[tuple[int, int]] = []
    state = list(_CF_SEED)
    y = x
    for _ in range(count):
        a = math.floor(y)
        _push(conv, state, a)
        rem = y - a
        q = state[3]
        if rem < 1e-12 or q > 1e15:  # double fidelity exhausted
            break
        y = 1.0 / rem
    return conv


def convergents(theta, count: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents p/q with |theta - p/q| < 1/q^2.

    Rational inputs terminate at the exact value; surds iterate with exact
    integer state; bare floats run Euclid until double precision runs out.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    th = RealValue.from_float(theta) if isinstance(theta, float) else as_real_value(theta)
    if th.kind == "rational":
        return convergents_rational(th.fraction, count)
    if th.kind == "surd":
        return convergents_surd(th.surd, count)
    return convergents_float(th.value, count)

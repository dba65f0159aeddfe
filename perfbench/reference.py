"""Reference values computed apart from qpr, with mpmath at 45 digits.

Every function here starts from the definitions in the paper's notation,
not from qpr's code paths:

* q-Laguerre:  L_n(x) = sum_k (q^(a+1);q)_n / ((q^(a+1);q)_k (q;q)_k (q;q)_(n-k))
                          * q^(k^2 + a k) (-x)^k,
  evaluated at x_n = z q^(-n s), s = tau + 2 + i 2 theta pi / log q, and
  divided by (-z q^a)^n q^(n^2 (1-s));
* A_q(w) = 0phi1(-; 0; q; -q w), through mpmath's ``qhyper``;
* Theta(w|q) = sum_(n in Z) q^(n^2) w^n = jtheta(3, -i log(w)/2, q).

Each value comes with a *scale*: the same sum taken over the absolute values
of its terms.  A double-precision evaluation of a sum can only be asked to
be accurate relative to that scale, so the checks compare against it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 45

# Terms whose log-magnitude sits this far (natural log) below the largest
# term are dropped from the Laguerre sum; each is below 1e-60 of it.
_DROP = 140.0

_FIXTURES = {
    "sqrt2": lambda: mp.sqrt(2),
    "sqrt3": lambda: mp.sqrt(3),
    "golden": lambda: (1 + mp.sqrt(5)) / 2,
}


def real_token(token: str):
    """An exact parameter token ('3/4', '-1', 'sqrt2', '-golden') as mpf."""
    t = token.strip().lower()
    neg = t.startswith("-") and t[1:] in _FIXTURES
    name = t[1:] if neg else t
    if name in _FIXTURES:
        v = _FIXTURES[name]()
        return -v if neg else v
    f = Fraction(t)
    return mp.mpf(f.numerator) / f.denominator


def frac(x):
    return x - mp.floor(x)


_TABLES: dict = {}


def poch(a, q, n=None):
    """(a;q)_n by the plain product, n = None for the infinite product.

    Cumulative products are cached per (a, q) and stop growing once
    |a q^k| < 10^-(dps+10), where further factors no longer change the value
    at working precision.
    """
    key = (a, q)
    if key not in _TABLES and len(_TABLES) >= 16:
        _TABLES.clear()   # each operation has its own q; keep memory flat
    table = _TABLES.setdefault(key, [[mp.mpf(1)], mp.mpmathify(a), False])
    cum, aqk, done = table
    eps = mp.mpf(10) ** (-(mp.mp.dps + 10))
    while not done and (n is None or len(cum) <= n):
        if abs(aqk) <= eps:
            done = True
            break
        cum.append(cum[-1] * (1 - aqk))
        aqk *= q
    table[1], table[2] = aqk, done
    if n is None or n >= len(cum):
        return cum[-1]
    return cum[n]


def euler(q):
    """(q;q)_inf by Euler's pentagonal number theorem,
    sum_k (-1)^k q^(k(3k-1)/2) over all integers k.

    The terms are O(1) and the value can be tiny (2e-70 at q = 0.99), so the
    sum runs with that many extra digits."""
    lost = int(-_log_poch_float(float(q), float(q)) / math.log(10.0)) + 10
    with mp.extradps(lost):
        q = mp.mpf(q)
        eps = mp.mpf(10) ** (-(mp.mp.dps + 10))
        total = mp.mpf(1)
        k = 1
        while True:
            t = q ** (k * (3 * k - 1) // 2)
            total += (-1) ** k * (t + t * q ** k)   # k and -k
            if t < eps:
                return +total
            k += 1


def _log_poch_float(a: float, q: float) -> float:
    """log (a;q)_inf in double precision, for sizing the summation window."""
    acc, aqk = 0.0, a
    while aqk > 1e-20:
        acc += math.log1p(-aqk)
        aqk *= q
    return acc


def ramanujan_a(q, w):
    """(A_q(w), sum of |terms|)."""
    q = mp.mpf(q)
    w = mp.mpc(w)
    return (mp.qhyper([], [0], q, -q * w),
            mp.re(mp.qhyper([], [0], q, q * abs(w))))


def theta(w, q):
    """(Theta(w|q), sum of |terms|)."""
    q = mp.mpf(q)
    w = mp.mpc(w)
    return (mp.jtheta(3, -1j * mp.log(w) / 2, q),
            mp.re(mp.jtheta(3, -1j * mp.log(abs(w)) / 2, q)))


def _window(lq: float, lin: float, n: int, width: float) -> tuple[int, int]:
    """Integer k in [0, n] where lq k^2 + lin k is within width of its max."""
    k0 = -lin / (2.0 * lq)
    cands = {min(n, max(0, math.floor(k0))), min(n, max(0, math.ceil(k0)))}
    top = max(lq * k * k + lin * k for k in cands)
    # lq k^2 + lin k = top - width  <=>  k = k0 -+ sqrt((top - width - c)/lq)
    disc = k0 * k0 + (top - width) / lq
    half = math.sqrt(max(disc, 0.0))
    return max(0, math.floor(k0 - half) - 1), min(n, math.ceil(k0 + half) + 1)


def laguerre_sum(q, alpha, x, n, divisor=1):
    """(L_n(x)/divisor, sum_k |term_k|/|divisor|) at 45 digits.

    Terms far below the largest one are skipped: the k-dependence of the
    log-magnitude is the concave quadratic (k^2 + a k) log q + k log|x| plus
    a Pochhammer part confined to an interval of width W, so every k outside
    the window below has |term_k| < e^-140 * max |term|.
    """
    q = mp.mpf(q)
    alpha = mp.mpf(alpha)
    x = mp.mpc(x)
    a = q ** (alpha + 1)
    lq = float(mp.log(q))
    lx = float(mp.log(abs(x))) if x != 0 else -math.inf
    if x == 0:
        lo = hi = 0
    else:
        width = (-2.0 * _log_poch_float(float(q), float(q))
                 - _log_poch_float(float(a), float(q)) + 1.0 + _DROP)
        lo, hi = _window(lq, float(alpha) * lq + lx, n, width)
    c = poch(a, q, n) / (poch(a, q, lo) * poch(q, q, lo) * poch(q, q, n - lo))
    term = c * q ** (lo * lo + alpha * lo) * (-x) ** lo / divisor
    total = term
    scale = abs(term)
    for k in range(lo, hi):
        # term_(k+1)/term_k from the Pochhammer recurrences
        term *= ((1 - q ** (n - k)) / ((1 - a * q ** k) * (1 - q ** (k + 1)))
                 * q ** (2 * k + 1 + alpha) * (-x))
        total += term
        scale += abs(term)
    return total, scale


def normalized_laguerre(q, alpha, z, tau, theta_v, n):
    """(L_n(x_n)/((-z q^a)^n q^(n^2(1-s))), scale), where
    x_n = z q^(-n s) = z q^(-n (tau + 2)) e^(-2 pi i n theta)."""
    q = mp.mpf(q)
    z = mp.mpc(z)
    x = z * mp.power(q, -n * (tau + 2)) * mp.expjpi(-2 * frac(n * theta_v))
    norm = ((-z * q ** alpha) ** n * mp.power(q, n * n * (1 - (tau + 2)))
            * mp.expjpi(-2 * frac(theta_v * n * n)))
    return laguerre_sum(q, alpha, x, n, divisor=norm)


def case_values(case_id, q, alpha, z, tau, theta_v, n, m, beta, beta2):
    """(exact, exact_scale, main, main_scale) in the verify normalization.

    m is the decomposition integer reported by the row (cases 4-7); beta and
    beta2 are the witness targets (cases 3, 5-7).
    """
    q = mp.mpf(q)
    alpha = mp.mpf(alpha)
    z = mp.mpc(z)
    s, sc = normalized_laguerre(q, alpha, z, tau, theta_v, n)
    if case_id == 1:
        f = poch(q, q, n)
        return s * f, sc * abs(f), mp.mpf(1), mp.mpf(1)
    if case_id in (2, 3):
        f = euler(q)
        lam = frac(n * theta_v) if case_id == 2 else beta
        main, msc = ramanujan_a(q, mp.expjpi(2 * lam) / (z * q ** alpha))
        return s * f, sc * abs(f), main, msc
    # theta regime: total of the split sums, i.e. the normalized value times
    # (q;q)_inf^2 (-z q^a e^(-2 pi i d_n))^p / q^(p (tau n + p)), p = floor(m/2)
    p = m // 2
    d = frac(n * theta_v)
    f = (euler(q) ** 2 * (-z * q ** alpha * mp.expjpi(-2 * d)) ** p
         / mp.power(q, p * (tau * n + p)))
    c = frac(-tau * n)
    u, v = {4: (c, d), 5: (c, beta), 6: (beta, d), 7: (beta, beta2)}[case_id]
    w = -z * q ** (alpha + (m % 2) + u) * mp.expjpi(-2 * v)
    main, msc = theta(w, q)
    return s * f, sc * abs(f), main, msc

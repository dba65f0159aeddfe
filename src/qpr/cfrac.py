"""Continued-fraction convergents p/q, each kind of number by its own
recurrence: rationals by Euclid's algorithm, quadratic surds by the exact
integer recurrence of (P + sqrt(D))/Q, doubles until double precision
runs out.  qpr.diophantine.convergents picks one by the kind of its
argument.
"""

from __future__ import annotations

import math
from fractions import Fraction

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

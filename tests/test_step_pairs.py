"""Rows of a recurring phase step share one list of (cos, sin) pairs.

For an exact rational theta the phase step of the reversed sum (cases 1 and
2) and of both split halves (cases 4 and 6) depends on n only through
d_n = {n theta}, so it recurs with period den(theta).  qpr.qlaguerre keeps
one list of pairs per step in the store _step_pairs, shared by every row and
context with that step, and extended as far as the longest sum has read.
These tests hold rows to the direct paths kept in oracles, whose sums form
their pairs term by term, bit for bit, whatever order the rows come in and
whether the store starts cold or warm; check that two contexts with one
step share one list; and check that cases 3, 5 and 7 leave the store alone.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from fractions import Fraction as F

import pytest

import qpr.asymptotics as asy
from qpr.diophantine import RealValue
from qpr.numerics import phase, wrap_phase
from qpr.qlaguerre import ScalingParameter, _saturated, _step_pairs, normalized_laguerre_lp, \
    split_sums
from qpr.qseries import QContext

import oracles


def sp_rat(tau, theta) -> ScalingParameter:
    return ScalingParameter(RealValue.from_rational(F(tau)), RealValue.from_rational(F(theta)))


def _clear() -> None:
    for memo in (_saturated, _step_pairs, asy._aq_main, asy._theta_main):
        memo.cache_clear()


def _hexes(values) -> list:
    return [v.hex() for v in values]


def reversed_row(ctx, sp, n) -> tuple:
    v = normalized_laguerre_lp(ctx, sp, n)
    return v.log_mag.hex(), v.phase.hex()


def split_row(ctx, sp, n) -> tuple:
    res = split_sums(ctx, sp, n)
    return (res.total.log_mag.hex(), res.total.phase.hex(),
            *(_hexes(logs) + _hexes(c for c, _ in cis) + _hexes(s for _, s in cis)
              for logs, cis in (res.terms1, res.terms2)))


def direct_reversed_row(ctx, sp, n) -> tuple:
    v = oracles.normalized_laguerre_direct(ctx, sp, n)
    return v.log_mag.hex(), v.phase.hex()


def direct_split_row(ctx, sp, n) -> tuple:
    total, *halves = oracles.split_sums_direct(ctx, sp, n)
    return (total.log_mag.hex(), total.phase.hex(),
            *(_hexes(logs) + _hexes(c for c, _ in cis) + _hexes(s for _, s in cis)
              for logs, cis in halves))


# q = 0.5 tables saturate at index 53 (alpha 0): the degrees cross it, so
# rows read both the saturated slots and their own sums; a real z gives
# axis steps only, the others general ones
PATHS = {
    "reversed-tau-0": (reversed_row, direct_reversed_row, 0, range(1, 200, 3)),
    "reversed-tau-1/2": (reversed_row, direct_reversed_row, F(1, 2), range(1, 120, 5)),
    "split-tau-3/5": (split_row, direct_split_row, F(-3, 5), range(1, 330, 7)),
    "split-tau-1": (split_row, direct_split_row, -1, range(1, 260, 5)),
}


class TestAnyRowOrder:
    @pytest.mark.parametrize("z", [0.9 + 0.3j, 1.0, -2.0], ids=["general", "one", "minus-two"])
    @pytest.mark.parametrize("theta", [F(1, 3), F(1, 4), F(5, 7)], ids=str)
    @pytest.mark.parametrize("path", list(PATHS))
    def test_rows_match_direct_path_in_any_order(self, path, theta, z):
        row, direct, tau, degrees = PATHS[path]
        ctx, sp = QContext(0.5, 0.0, z), sp_rat(tau, theta)
        want = {n: direct(ctx, sp, n) for n in degrees}
        shuffled = list(degrees)
        random.Random(f"{path}/{theta}/{z}").shuffle(shuffled)
        for order in (list(degrees), list(reversed(degrees)), shuffled):
            for cold in (True, False):
                if cold:
                    _clear()
                got = {n: row(ctx, sp, n) for n in order}
                assert got == want
        assert _step_pairs.cache_info().currsize > 0

    def test_pairs_of_a_result_are_its_own(self):
        ctx, sp = QContext(0.5, 0.0, 0.9 + 0.3j), sp_rat(F(-3, 5), F(1, 3))
        _clear()
        for n in (300, 315):
            res = split_sums(ctx, sp, n)
            for _, cis in (res.terms1, res.terms2):
                cis[0] = (1e300, 0.0)
                cis.append((0.0, 1.0))
        for n in (300, 315, 330):
            assert split_row(ctx, sp, n) == direct_split_row(ctx, sp, n)


class TestSharing:
    def test_two_contexts_with_one_step_share_one_list(self):
        # the step of the reversed sum is wrap(pi - arg z + 2 pi d_n): it
        # depends on z and d_n alone, not on q or alpha
        sp = sp_rat(0, F(1, 3))
        first, second = QContext(0.5, 0.0, 0.9 + 0.3j), QContext(0.7, 0.5, 0.9 + 0.3j)
        _clear()
        normalized_laguerre_lp(first, sp, 3)
        assert _step_pairs.cache_info().currsize == 1
        held = _step_pairs(wrap_phase(math.pi - phase(first.z)))  # d_3 = 0
        assert _step_pairs.cache_info().currsize == 1
        length = len(held[0])
        hits = _step_pairs.cache_info().hits
        normalized_laguerre_lp(second, sp, 300)
        info = _step_pairs.cache_info()
        assert info.currsize == 1 and info.hits > hits
        assert len(held[0]) > length  # the longer sum extended the one list
        assert reversed_row(second, sp, 300) == direct_reversed_row(second, sp, 300)
        assert reversed_row(first, sp, 3) == direct_reversed_row(first, sp, 3)


def _cli(argv: list[str]) -> int:
    from qpr.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestWhichCasesShare:
    @pytest.mark.parametrize("case, argv, shares", [
        (1, ["--tau=1/2", "--theta", "1/3", "--n", "5..40"], True),
        (2, ["--tau", "0", "--theta", "2/5", "--n", "5..40"], True),
        (3, ["--tau", "0", "--theta", "sqrt2", "--rho", "1", "--nmax", "1000"], False),
        (4, ["--tau=-1/2", "--theta", "1/3", "--n", "8..64"], True),
        (5, ["--tau=-3/4", "--theta", "golden", "--beta", "1/3", "--rho", "0.5",
             "--nmax", "2000"], False),
        (6, ["--tau=-sqrt2", "--theta", "1/4", "--rho", "0.5", "--nmax", "2000"], True),
        (7, ["--tau=-sqrt3", "--theta", "sqrt2", "--rho", "0.4", "--nmax", "2000"], False),
    ], ids=lambda v: str(v) if isinstance(v, int) else None)
    def test_only_exact_rational_theta_fills_the_store(self, case, argv, shares):
        _clear()
        code = _cli(["verify", "--case", str(case), "--q", "0.5", "--z=0.9+0.3j", *argv])
        assert code in (0, 3)
        assert (_step_pairs.cache_info().currsize > 0) == shares

"""Saturated strip rows reuse their term logs, byte for byte.

Once a row's split indices n - p and p pass the Pochhammer tables'
saturation point, both half sums' term logs depend on n only through
(chi(m), c_n).  qpr.qlaguerre.split_sums keeps one slot per context and
residue in the store _saturated: the first row whose halves both end inside
their saturated windows fills it with their logs, and later rows whose
halves end there read them and take only their (cos, sin) pairs.  These tests hold
the reuse path to the direct path kept in oracles.split_sums_direct, bit
for bit, at the degrees where each side condition of the reuse flips; check
which rows may make and fill slots; and count the term generation that a
residue class of -tau n costs.
"""

from __future__ import annotations

import contextlib
import io
import math
from fractions import Fraction as F

import pytest

import qpr.asymptotics as asy
import qpr.qlaguerre as ql
from qpr.asymptotics import eval_case_theta, run_verify
from qpr.diophantine import FIXTURES, DiophantineWitness, RealValue, chi, decompose
from qpr.numerics import MAX_TERMS
from qpr.qlaguerre import ScalingParameter, _saturated, split_sums
from qpr.qseries import QContext

import oracles

SQRT2 = FIXTURES["sqrt2"]
SQRT3 = FIXTURES["sqrt3"]


def rational(x) -> RealValue:
    return RealValue.from_rational(F(x))


def assert_same_bits(res, n, ctx, sp):
    """split_sums' result at n equals the direct path's, every float by hex."""
    total, terms1, terms2 = oracles.split_sums_direct(ctx, sp, n)
    assert (res.total.log_mag.hex(), res.total.phase.hex()) == \
        (total.log_mag.hex(), total.phase.hex()), n
    for got, want in ((res.terms1, terms1), (res.terms2, terms2)):
        assert [x.hex() for x in got[0]] == [x.hex() for x in want[0]], n
        assert [(c.hex(), s.hex()) for c, s in got[1]] == \
            [(c.hex(), s.hex()) for c, s in want[1]], n


def residue(sp: ScalingParameter, n: int) -> tuple[int, float]:
    m, c_n = sp.neg_tau.mul_floor_frac(n)
    return chi(m), c_n


def saturated_ends(ctx: QContext, sp: ScalingParameter, n: int) -> tuple[int, int]:
    """The last indices K1, K2 of the saturated halves of n's residue, read
    from the slot a row 10^6 periods on fills; the store is left empty."""
    far = n + 2 * sp.tau.fraction.denominator * 10 ** 6
    split_sums(ctx, sp, far)
    logs1, logs2, _ = _saturated(ctx, *residue(sp, far))
    _saturated.cache_clear()
    return len(logs1) - 1, len(logs2)


def reuse_state(ctx: QContext, sp: ScalingParameter, n: int, ends: dict) -> dict:
    """The quantities whose comparisons decide whether row n reuses its logs;
    ends caches saturated_ends by residue."""
    tq, ta = ctx.tq, ctx.ta
    p = sp.neg_tau.mul_floor_frac(n)[0] // 2
    key = residue(sp, n)
    if key not in ends:
        ends[key] = saturated_ends(ctx, sp, n)
    return {"p": p, "upper": n - p - max(tq.sat, ta.sat), "lower": p - tq.sat,
            "k1": ends[key][0], "k2": ends[key][1]}


def threshold_degrees(ctx: QContext, sp: ScalingParameter) -> tuple[list[int], dict]:
    """Every n where n - p = top, p = tq.sat, K1 = p - tq.sat or
    K2 = n - p - top, with n - 1 and n + 1; and the saturated halves' ends
    by residue."""
    hits, n, ends = set(), 1, {}
    while True:
        s = reuse_state(ctx, sp, n, ends)
        if s["lower"] >= 60 and s["upper"] >= 60:
            break
        assert s["k1"] < 58 and s["k2"] < 58     # so the scan crossed both K thresholds
        if 0 in (s["upper"], s["lower"], s["lower"] - s["k1"], s["upper"] - s["k2"]):
            hits.update((n - 1, n, n + 1))
        n += 1
    return sorted(k for k in hits if k >= 1), ends


TAUS = [F(-1, 4), F(-3, 5), F(-1), F(-7, 4)]


class TestReuseIsBitIdentical:
    # z off the axis with a surd angle gives general phases; z = 2 with
    # theta = 1/4 gives quarter-turn phase steps
    @pytest.mark.parametrize("z, theta", [(0.9 + 0.3j, SQRT2), (2.0, rational(F(1, 4)))],
                             ids=["general", "quarter"])
    @pytest.mark.parametrize("tau", TAUS, ids=str)
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
    def test_threshold_degrees_match_direct_path(self, q, alpha, tau, z, theta):
        ctx = QContext(q, alpha, z)
        sp = ScalingParameter(rational(tau), theta)
        degrees, ends = threshold_degrees(ctx, sp)
        rows = degrees + [10 ** 12, 10 ** 12 + 1]
        # read before any row runs: saturated_ends empties the store
        states = {n: reuse_state(ctx, sp, n, ends) for n in rows}
        assert 0 < sum(states[n]["upper"] >= states[n]["k2"] and
                       states[n]["lower"] >= states[n]["k1"] for n in degrees) < len(degrees)
        filled = set()
        # the second pass reads every slot that the first filled
        for n in rows + rows:
            assert_same_bits(split_sums(ctx, sp, n), n, ctx, sp)
            s, key = states[n], residue(sp, n)
            if s["upper"] >= 0 and s["lower"] >= 0:
                # the first row whose halves end inside their windows fills
                # the slot
                if s["upper"] >= s["k2"] and s["lower"] >= s["k1"]:
                    filled.add(key)
                assert bool(_saturated(ctx, *key)) == (key in filled), n


class TestGating:
    CTX = QContext(0.5, 0.0, 0.9 + 0.3j)

    def test_only_exact_rational_default_decompositions_make_slots(self):
        _saturated.cache_clear()
        # cases 6 and 7 pass a witness decomposition; their degrees reach
        # past 1000, where both split indices are saturated
        for case_id, sp in ((6, ScalingParameter(SQRT2.neg(), rational(F(1, 3)))),
                            (7, ScalingParameter(SQRT3.neg(), SQRT2))):
            rows = run_verify(self.CTX, sp, case_id=case_id, rho=0.4, n_max=2000)
            assert max(r.n for r in rows) > 1000
        # an irrational tau, and a float tau declared rational, with no decomposition
        for tau in (SQRT2.neg(), RealValue.from_float(-0.75, assumed_rational=True)):
            sp = ScalingParameter(tau, rational(F(1, 3)))
            for n in (500, 1001, 10 ** 6):
                oracles.laguerre_scaled_lp(self.CTX, sp, n)
        # exact rational tau, rows not saturated: p = floor(n/4) < sat through
        # n = 4 sat - 1 at tau = -1/2, and n - p = ceil(n/8) < sat through
        # n = 8 (sat - 1) at tau = -7/4 (alpha = 0, so both tables are one)
        sat = self.CTX.tq.sat
        assert self.CTX.ta.sat == sat
        for tau, top_n in ((F(-1, 2), 4 * sat - 1), (F(-7, 4), 8 * (sat - 1))):
            sp = ScalingParameter(rational(tau), rational(F(1, 3)))
            for n in range(1, top_n + 1):
                split_sums(self.CTX, sp, n)
            # the last of these rows misses the threshold by one index
            p = sp.neg_tau.mul_floor_frac(top_n)[0] // 2
            assert min(p, top_n - p) == sat - 1
        info = _saturated.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        # the next degree of tau = -1/2 is saturated and makes the first
        # slot; its lower half overruns its window, which ends at 0, so the
        # slot stays empty
        sp = ScalingParameter(rational(F(-1, 2)), rational(F(1, 3)))
        split_sums(self.CTX, sp, 4 * sat)
        assert _saturated.cache_info().currsize == 1
        assert _saturated(self.CTX, *residue(sp, 4 * sat)) == []

    def test_halves_longer_than_max_terms_fill_their_slot_when_they_fit(self, monkeypatch):
        # at |z| = 1e300 and q = 0.97 the lower half's terms peak near
        # k = 11 300: the rows saturated from n = 2720 sum their halves up to
        # p and leave their slot empty, and the first row whose lower half
        # ends by p - sat fills it, with more than MAX_TERMS logs
        ctx = QContext(0.97, 0.0, 1e300)
        sp = ScalingParameter(rational(-1), rational(F(1, 3)))
        calls = []
        real = ql.certified_terms
        monkeypatch.setattr(ql, "certified_terms",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        _saturated.cache_clear()
        for n in (2800, 2801):
            res = split_sums(ctx, sp, n)
            assert _saturated(ctx, *residue(sp, n)) == []
            assert len(res.terms1[0]) == res.floor_m_half + 1
            assert_same_bits(res, n, ctx, sp)
        for n, summed in ((30000, 2), (30002, 0), (30004, 0)):
            before = len(calls)
            assert_same_bits(split_sums(ctx, sp, n), n, ctx, sp)
            assert len(calls) - before == summed
        assert len(_saturated(ctx, *residue(sp, 30000))[0]) > MAX_TERMS

    def test_cached_logs_cannot_be_changed_through_a_result(self):
        sp = ScalingParameter(rational(F(-3, 5)), SQRT2)
        n, period = 1000, 10
        split_sums(self.CTX, sp, n - period)  # fills the slot if it is empty
        hits = _saturated.cache_info().hits
        first = split_sums(self.CTX, sp, n)
        entry = _saturated(self.CTX, *residue(sp, n))
        assert _saturated.cache_info().hits >= hits + 2
        assert type(entry) is list and all(type(logs) is tuple for logs in entry)
        # the result holds the slot's logs, which are tuples; its (cos, sin)
        # pairs are lists of its own
        assert (first.terms1[0], first.terms2[0]) == tuple(entry[:2])
        for logs in (first.terms1[0], first.terms2[0]):
            with pytest.raises(TypeError):
                logs[0] = 1e300
        for pairs in (first.terms1[1], first.terms2[1]):
            assert type(pairs) is list
            pairs[0] = (1e300, 0.0)
            pairs.append((0.0, 1.0))
        for k in (n, n + period, n + 7 * period):
            assert_same_bits(split_sums(self.CTX, sp, k), k, self.CTX, sp)


def _cli(argv: list[str]) -> tuple[int, str]:
    from qpr.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _clear_memos() -> None:
    for memo in (_saturated, asy._theta_main, asy._theta_prefactor):
        memo.cache_clear()


class TestSignedZeroContexts:
    # QContext compares z = x + 0.0j and x - 0.0j, and alpha = 0.0 and -0.0,
    # as equal, so these runs share memo keys
    SIGNS = [["--z=0.9+0j", "--alpha=0.0"], ["--z=0.9-0j", "--alpha=-0.0"],
             ["--z=0.9-0j", "--alpha=0.0"], ["--z=0.9+0j", "--alpha=-0.0"]]

    @pytest.mark.parametrize("argv", [
        ["verify", "--case", "4", "--q", "0.5", "--tau=-3/5", "--theta", "1/3",
         "--n", "190..400", "--n-step", "3"],
        ["verify", "--case", "5", "--q", "0.5", "--tau=-3/4", "--theta", "sqrt2",
         "--beta", "1/3", "--rho", "0.5", "--nmax", "3000"],
    ], ids=["case4", "case5"])
    def test_rows_are_byte_identical(self, argv):
        alone = []
        for signs in self.SIGNS:
            _clear_memos()
            alone.append(_cli(argv + signs))
        assert alone[0][1].count("\n") > 40
        assert all(other == alone[0] for other in alone[1:])
        _clear_memos()
        assert [_cli(argv + signs) for signs in self.SIGNS] == alone


def test_residue_class_generates_terms_once(monkeypatch):
    # case-5 rows of one residue class of -tau n (n = 0 mod 8 at tau = -3/4),
    # near 10^4 and near 10^12: only the first row generates terms
    calls = []
    real = ql.certified_terms
    monkeypatch.setattr(ql, "certified_terms",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    ctx = QContext(0.55, 0.25, 0.8 - 0.4j)
    sp = ScalingParameter(rational(F(-3, 4)), SQRT2)
    _saturated.cache_clear()
    counts = []
    for n in [10 ** 4 + 8 * j for j in range(6)] + [10 ** 12 + 8 * j for j in range(6)]:
        m, residual = decompose(SQRT2, n, 0.25)
        witness = DiophantineWitness(n=n, m=m, m1=None, target_beta=0.25,
                                     residual=residual, rho=0.0)
        before = len(calls)
        row = eval_case_theta(ctx, sp, n, 5, witness=witness)
        assert math.isfinite(row.observed_error)
        counts.append(len(calls) - before)
    assert counts == [2] + [0] * 11

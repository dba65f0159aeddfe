"""Output checks, made apart from qpr and never timed.

``quick`` runs right after an operation's timed interval.  It uses exact
integer arithmetic and the documented contracts only (no mpmath), and picks
the sample rows that ``deferred`` later compares with 45-digit mpmath values.
mpmath is imported only once the timed section and its memory reading are
over.

Tolerances.  A double-precision sum can only be asked to be accurate
relative to the sum of the absolute values of its terms (its *scale*).  qpr
agrees with mpmath to about 1e-15 of that scale on these workloads; the
checks allow 1e-9 of it, far below any error of a wrong term, phase or
normalization, which is of the order of a term.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

TOL = 1e-9

EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_NO_ELIGIBLE = 0, 1, 2, 3

# (a, b, c, d) for (a + b sqrt(d)) / c
_SURDS = {"sqrt2": (0, 1, 1, 2), "sqrt3": (0, 1, 1, 3), "golden": (1, 1, 2, 5)}

_BOOL = {"true": True, "false": False}
_INT_COLS = {"case_id", "n", "nu", "m", "m1", "points", "n_lo", "n_hi"}
_STR_COLS = {"notes", "predicted_kind"}


def parse_rows(text: str, fmt: str) -> list[dict]:
    """CSV or JSON output as dicts of Python values (empty CSV cells -> None)."""
    if fmt == "json":
        return json.loads(text)
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = {}
        for k, v in raw.items():
            if v == "":
                row[k] = None
            elif k in _STR_COLS:
                row[k] = v
            elif v in _BOOL:
                row[k] = _BOOL[v]
            elif k in _INT_COLS:
                row[k] = int(v)
            else:
                row[k] = float(v)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# exact witness arithmetic
# ---------------------------------------------------------------------------

_K = 80  # bits of the integer bracket of b*sqrt(d)


def _surd(token: str) -> tuple[int, int, int, int]:
    t = token.strip().lower()
    if t.startswith("-"):
        a, b, c, d = _SURDS[t[1:]]
        return -a, -b, c, d
    return _SURDS[t]


def _sign(x: int, y: int, d: int) -> int:
    """Sign of x + y sqrt(d), exactly."""
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0)
    if sx == sy or sy == 0:
        return sx
    if sx == 0:
        return sy
    return sx if x * x > y * y * d else sy


class Angle:
    """theta = (a + b sqrt d)/c, target beta = P/Q and exponent rho = u/v,
    all exact; decides |n theta - beta - m| < n^-rho in integer arithmetic."""

    def __init__(self, token: str, beta: str, rho: str) -> None:
        self.a, self.b, self.c, self.d = _surd(token)
        bf = Fraction(beta)
        self.P, self.Q = bf.numerator, bf.denominator
        rf = Fraction(rho)
        self.u, self.v = rf.numerator, rf.denominator
        self.approx = (self.a + self.b * math.sqrt(self.d)) / self.c
        self.beta = float(bf)

    def _parts(self, n: int, m: int) -> tuple[int, int, int]:
        """r = n theta - beta - m = (A + B sqrt d) / D."""
        D = self.c * self.Q
        return self.Q * n * self.a - self.c * self.P - D * m, self.Q * n * self.b, D

    def nearest(self, n: int) -> int:
        """The integer m nearest to n theta - beta."""
        A, B, D = self._parts(n, 0)
        s = math.isqrt(B * B * self.d << (2 * _K))  # |B| sqrt(d) 2^K in [s, s+1)
        num = (A << _K) + (s if B >= 0 else -s - 1) + (D << (_K - 1))
        m = num // (D << _K)
        # the bracket can straddle an integer only at an exact tie, which an
        # irrational theta never has; settle it exactly anyway
        A2, B2, _ = self._parts(n, m)
        if _sign(2 * A2 + D, 2 * B2, self.d) < 0:
            m -= 1
        elif _sign(2 * A2 - D, 2 * B2, self.d) >= 0:
            m += 1
        return m

    def residual(self, n: int, m: int) -> float:
        A, B, D = self._parts(n, m)
        s = math.isqrt(B * B * self.d << (2 * _K))
        return float(Fraction((A << _K) + (s if B >= 0 else -s), D << _K))

    def accepts(self, n: int, m: int) -> bool:
        """|n theta - beta - m| < n^-rho, decided exactly."""
        A, B, D = self._parts(n, m)
        u, v, d = self.u, self.v, self.d
        s = math.isqrt(B * B * d << (2 * _K))
        lo = (A << _K) + (s if B >= 0 else -s - 1)
        hi = lo + 1
        mag_lo = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
        mag_hi = max(abs(lo), abs(hi))
        rhs = (D << _K) ** v
        if mag_hi ** v * n ** u < rhs:
            return True
        if mag_lo ** v * n ** u >= rhs:
            return False
        # undecided by the bracket: compare |(A + B sqrt d)^v| n^u with D^v
        x, y = 1, 0
        for _ in range(v):
            x, y = x * A + y * B * d, x * B + y * A
        if _sign(x, y, d) < 0:
            x, y = -x, -y
        return _sign(D ** v - n ** u * x, -(n ** u) * y, d) > 0

    def scan(self, lo: int, hi: int) -> set[int]:
        """All witnesses n in [lo, hi]: a double-precision prefilter with a
        margin far above its rounding error (< 1e-9 here), then exact tests."""
        out = set()
        th, beta, rho = self.approx, self.beta, self.u / self.v
        for n in range(lo, hi + 1):
            y = n * th - beta
            r = abs(y - math.floor(y + 0.5))
            if r < n ** -rho + 1e-8:
                m = self.nearest(n)
                if self.accepts(n, m):
                    out.add(n)
        return out


def _check_witness_rows(rows, sides, window_rng, nmax, result) -> None:
    """sides: [(Angle, m column, residual column or None)]."""
    for row in rows:
        n = row["n"]
        for ang, mcol, rcol in sides:
            m = row[mcol]
            if m != ang.nearest(n) or not ang.accepts(n, m):
                result.fail(f"n={n}: {mcol}={m} is not a witness")
                return
            if rcol and abs(row[rcol] - ang.residual(n, m)) > 1e-12:
                result.fail(f"n={n}: {rcol}={row[rcol]!r}, exact {ang.residual(n, m)!r}")
                return
    lo = window_rng.randint(1, max(1, nmax - 4000))
    hi = min(nmax, lo + 4000)
    found = {row["n"] for row in rows if lo <= row["n"] <= hi}
    want = sides[0][0].scan(lo, hi)
    for ang, _, _ in sides[1:]:
        want = {n for n in want if ang.accepts(n, ang.nearest(n))}
    if found != want:
        result.fail(f"witnesses in [{lo}, {hi}] differ: missing {sorted(want - found)[:5]}, "
                    f"extra {sorted(found - want)[:5]}")


# ---------------------------------------------------------------------------
# per-operation checks
# ---------------------------------------------------------------------------

class Result:
    """Verdict for one operation plus the samples left for mpmath."""

    def __init__(self) -> None:
        self.reasons: list[str] = []
        self.samples: list[dict] = []

    def fail(self, reason: str) -> None:
        self.reasons.append(reason)


def quick(op: dict, code, out: str) -> Result:
    res = Result()
    rng = random.Random(" ".join(op["argv"]))
    if "fault" in op:
        _fault(op, code, out, res)
    elif not isinstance(code, int):
        res.fail(f"raised {code!r}")
    elif op["kind"] == "verify":
        _verify(op, code, out, rng, res)
    elif op["kind"] == "witness":
        _witness(op, code, out, rng, res)
    elif op["kind"] == "eval":
        _eval(op, code, out, res)
    else:
        _sweep(op, code, out, res)
    return res


def _fault(op, code, out, res) -> None:
    p = op["params"]
    if op["kind"] == "eval":
        if code != EXIT_OK:
            res.fail(f"exit {code!r}, want 0 with a finite value")
        else:
            _eval(op, code, out, res)
    elif p["z"] == "1e-200":
        rows = parse_rows(out, op["fmt"]) if code in (EXIT_OK, EXIT_VIOLATION, EXIT_NO_ELIGIBLE) else []
        if code not in (EXIT_OK, EXIT_NO_ELIGIBLE) or any(
                r["eligible"] and not r["bound_holds"] for r in rows):
            res.fail(f"exit {code!r}: a BOUND VIOLATION verdict where the bound holds")
    elif code != EXIT_USAGE:
        res.fail(f"exit {code!r}, want 2 (usage error)")


def _verify(op, code, out, rng, res) -> None:
    p = op["params"]
    case = p["case"]
    rows = parse_rows(out, op["fmt"])
    if any(r["case_id"] != case for r in rows):
        res.fail("rows of another case")
        return
    ns = [r["n"] for r in rows]
    if p["grid"]:
        lo, hi, step = p["grid"]
        want = [n for n in range(lo, hi + 1, step) if case != 4 or n >= 1]
        if ns != want:
            res.fail(f"degrees {ns[:5]}... differ from the grid")
            return
    else:
        if ns != sorted(set(ns)) or (ns and ns[-1] > p["nmax"]):
            res.fail("witness degrees not increasing within nmax")
            return
        if case == 3:
            sides = [(Angle(p["theta"], p["beta"], p["rho"]), "m", "residual")]
        elif case == 5:
            sides = [(Angle(p["theta"], p["beta"], p["rho"]), "m1", "residual")]
        elif case == 6:
            sides = [(Angle(p["tau"][1:], p["beta"], p["rho"]), "m", "residual")]
        else:
            sides = [(Angle(p["tau"][1:], p["beta"], p["rho"]), "m", "residual"),
                     (Angle(p["theta"], p["beta2"], p["rho"]), "m1", "residual2")]
        _check_witness_rows(rows, sides, rng, p["nmax"], res)
    # the theorem's inequality: every eligible row, and in cases 5-7 every
    # row with nu >= 2 (where the content lives at desk scale)
    for r in rows:
        if r["eligible"] or (case >= 5 and r["nu"] >= 2):
            if not r["observed_error"] <= r["bound"]:
                res.fail(f"n={r['n']}: observed {r['observed_error']!r} > bound {r['bound']!r}")
                return
    eligible = [r for r in rows if r["eligible"]]
    want_code = EXIT_NO_ELIGIBLE if not eligible else (
        EXIT_VIOLATION if any(not r["bound_holds"] for r in eligible) else EXIT_OK)
    if code != want_code or code == EXIT_VIOLATION:
        res.fail(f"exit {code}, rows call for {want_code}")
        return
    if case in (3, 5, 6, 7) and not rows:
        return
    for r in rng.sample(rows, min(len(rows), 1 + (len(rows) > 100))):
        res.samples.append({"what": "row", "params": p, "row": r})


def _witness(op, code, out, rng, res) -> None:
    p = op["params"]
    rows = parse_rows(out, op["fmt"])
    if code != (EXIT_OK if rows else EXIT_NO_ELIGIBLE):
        res.fail(f"exit {code} with {len(rows)} witnesses")
        return
    if p["theta2"] is None:
        sides = [(Angle(p["theta"], p["beta"], p["rho"]), "m", "residual")]
    else:
        a1 = Angle(p["theta"], p["beta"], p["rho"])
        a2 = Angle(p["theta2"], p["beta2"], p["rho"])
        sides = [(a1, "m", None), (a2, "m1", None)]
        for r in rows:
            acc = max(abs(a1.residual(r["n"], r["m"])), abs(a2.residual(r["n"], r["m1"])))
            if abs(r["residual"] - acc) > 1e-12:
                res.fail(f"n={r['n']}: joint residual {r['residual']!r}, exact {acc!r}")
                return
    _check_witness_rows(rows, sides, rng, p["nmax"], res)


def _eval(op, code, out, res) -> None:
    if code != EXIT_OK:
        res.fail(f"exit {code}")
        return
    first = out.splitlines()[0]
    value = complex(first.rsplit(" = ", 1)[1])
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        res.fail(f"non-finite value {value!r}")
        return
    res.samples.append({"what": "eval", "params": op["params"], "value": value})


def _sweep(op, code, out, res) -> None:
    argv = op["argv"]
    rows = parse_rows(out, op["fmt"])
    taus = argv[argv.index("--tau-grid") + 1].split(",")
    lo, hi = (int(t) for t in argv[argv.index("--n") + 1].split(".."))
    lq = math.log(op["params"]["q"])
    if code != EXIT_OK or len(rows) != len(taus):
        res.fail(f"exit {code} with {len(rows)} rows for {len(taus)} tau values")
        return
    for tau, r in zip(taus, rows):
        slope = float(Fraction(tau)) * lq
        if (r["case_id"] != 1 or r["points"] != hi - lo + 1 or r["predicted_kind"] != "exp_n"
                or abs(r["predicted_slope"] - slope) > 1e-12 * abs(slope)
                or (r["fitted_slope"] is None) != (r["ratio"] is None)
                or (r["ratio"] is not None and abs(r["ratio"] - r["fitted_slope"] / slope)
                    > 1e-12 * abs(r["ratio"]))):
            res.fail(f"sweep row for tau={tau} is inconsistent: {r}")
            return


# ---------------------------------------------------------------------------
# mpmath comparisons, after the timed section
# ---------------------------------------------------------------------------

def deferred(sample: dict) -> str | None:
    """Compare one sample with mpmath; the failure reason, or None."""
    import mpmath as mp

    import reference as ref

    p = sample["params"]
    if sample["what"] == "eval":
        fn, q = p["function"], p["q"]
        if fn == "pochhammer":
            n = None if p["n"] == "inf" else int(p["n"])
            want = ref.poch(mp.mpf(float(p["a"])), mp.mpf(q), n)
            scale = abs(want)
        elif fn == "theta":
            want, scale = ref.theta(complex(p["z"]), q)
        elif fn == "ramanujan_a":
            want, scale = ref.ramanujan_a(q, complex(p["z"]))
        elif fn == "b_function":
            want, scale = ref.ramanujan_a(q, -complex(p["z"]))
        elif fn == "laguerre":
            want, scale = ref.laguerre_sum(q, float(p["alpha"]), complex(p["x"]), p["n"])
        else:
            want, scale = ref.normalized_laguerre(
                q, float(p["alpha"]), complex(p["z"]), ref.real_token(p["tau"]),
                ref.real_token(p["theta"]), p["n"])
        err = abs(sample["value"] - complex(want))
        if not err <= TOL * float(scale):
            return f"eval {fn}: {sample['value']!r} vs mpmath {complex(want)!r} (scale {float(scale):.3g})"
        return None

    r = sample["row"]
    beta = ref.real_token(p["beta"])
    beta2 = ref.real_token(p["beta2"])
    exact, exact_scale, main, main_scale = ref.case_values(
        p["case"], p["q"], float(p["alpha"]), complex(p["z"]), ref.real_token(p["tau"]),
        ref.real_token(p["theta"]), r["n"], r["m"] or 0, beta, beta2)
    got_main = complex(r["main_re"], r["main_im"])
    if not abs(got_main - complex(main)) <= TOL * float(main_scale):
        return f"n={r['n']}: main {got_main!r} vs mpmath {complex(main)!r}"
    if r["exact_re"] is not None:
        got = complex(r["exact_re"], r["exact_im"])
        if not abs(got - complex(exact)) <= TOL * float(exact_scale):
            return f"n={r['n']}: exact {got!r} vs mpmath {complex(exact)!r}"
    elif abs(r["exact_log10_mag"] - float(mp.log10(abs(exact)))) > 1e-9 * max(
            1.0, abs(r["exact_log10_mag"])):
        return f"n={r['n']}: log10|exact| {r['exact_log10_mag']!r} vs mpmath"
    if r["eligible"] and not float(abs(exact - main)) <= r["bound"]:
        return f"n={r['n']}: mpmath observed error {float(abs(exact - main)):.3g} > bound"
    return None

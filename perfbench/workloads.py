"""Seeded workload generation.

A workload is a list of rounds; round r of seed s is drawn from its own
random stream, so every configuration in a run is new to the process (a cache
keyed by the full configuration only hits inside one job, as it would for a
user running the CLI once per job).  Costly parameters (q, degree ranges,
scan lengths) are drawn stratified, so every round carries about the same
work whatever the seed.

Each operation is one ``qpr.cli.main(argv)`` call, described by a dict:

    argv    the argument list;
    kind    "verify", "witness", "eval" or "sweep";
    fmt     "csv" or "json";
    params  the parsed parameters the checks need;
    fault   for the known faults only: what the correct outcome is.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

SURDS = ("sqrt2", "sqrt3", "golden")


def _rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{rnd}")


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k values, one uniform draw in each of k equal sub-intervals, shuffled."""
    vals = [lo + (i + rng.random()) * (hi - lo) / k for i in range(k)]
    rng.shuffle(vals)
    return vals


def _z(rng: random.Random, rmin: float, rmax: float) -> str:
    r = rng.uniform(rmin, rmax)
    ph = rng.uniform(-math.pi, math.pi)
    return f"{r * math.cos(ph):.6f}{r * math.sin(ph):+.6f}j"


def _ratio(rng: random.Random, dmax: int = 12) -> str:
    d = rng.randint(2, dmax)
    return str(Fraction(rng.randint(1, d - 1), d))


def _op(kind: str, argv: list[str], **params) -> dict:
    fmt = "json" if "--format" in argv and argv[argv.index("--format") + 1] == "json" else "csv"
    return {"argv": argv, "kind": kind, "fmt": fmt, "params": params}


def _verify(case: int, q: float, z: str, tau: str, theta: str, *, alpha: str = "0",
            grid: tuple[int, int, int] | None = None, beta: str = "0",
            beta2: str = "0", rho: str | None = None, nmax: int | None = None,
            fmt: str = "csv") -> dict:
    qs = f"{q:.6f}"
    argv = ["verify", "--case", str(case), "--q", qs, "--alpha", alpha, f"--z={z}",
            f"--tau={tau}", "--theta", theta]
    if grid:
        argv += ["--n", f"{grid[0]}..{grid[1]}", "--n-step", str(grid[2])]
    if case in (3, 5, 6, 7):
        argv += ["--beta", beta, "--beta2", beta2, "--nmax", str(nmax)]
        if rho is not None:
            argv += ["--rho", rho]
    if fmt == "json":
        argv += ["--format", "json"]
    return _op("verify", argv, case=case, q=float(qs), alpha=alpha, z=z, tau=tau,
               theta=theta, grid=grid, beta=beta, beta2=beta2, rho=rho, nmax=nmax)


def _witness(theta: str, beta: str, rho: str, nmax: int, theta2: str | None = None,
             beta2: str = "0", fmt: str = "csv") -> dict:
    argv = ["witness", "--theta", theta, "--beta", beta, "--rho", rho,
            "--nmax", str(nmax)]
    if theta2 is not None:
        argv += ["--theta2", theta2, "--beta2", beta2]
    if fmt == "json":
        argv += ["--format", "json"]
    return _op("witness", argv, theta=theta, theta2=theta2, beta=beta,
               beta2=beta2, rho=rho, nmax=nmax)


def _witness_target(rng: random.Random) -> tuple[str, str]:
    """(beta, rho): sparse targets (beta = 0, rho near 1) or dense ones."""
    if rng.random() < 0.5:
        return "0", rng.choice(("0.9", "1"))
    return _ratio(rng, 10), rng.choice(("0.5", "0.6"))


# ---------------------------------------------------------------------------
# aq-line: tau = 0, q from 0.95 to 0.99
# ---------------------------------------------------------------------------

def aq_line(rng: random.Random) -> list[dict]:
    ops = []
    for q in _strata(rng, 6, 0.95, 0.99):
        lo = rng.randint(1, 40)
        ops.append(_verify(2, q, _z(rng, 0.8, 3.0), "0", _ratio(rng),
                           alpha=rng.choice(("0", "0.5")),
                           grid=(lo, rng.randint(1900, 2000), 30)))
    for q in _strata(rng, 2, 0.95, 0.99):
        ops.append(_verify(3, q, _z(rng, 0.8, 3.0), "0", rng.choice(SURDS),
                           rho="1", nmax=rng.randint(2500, 3500)))
    q = rng.uniform(0.95, 0.99)
    ops.append(_verify(1, q, _z(rng, 0.8, 3.0), rng.choice(("1/4", "1/2", "1")),
                       _ratio(rng), grid=(rng.randint(1, 40), 2000, 80)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# theta-strip: -2 < tau < 0
# ---------------------------------------------------------------------------

_STRIP_TAUS = ("-1/4", "-1/2", "-3/4", "-1", "-5/4", "-3/2", "-7/4")


def theta_strip(rng: random.Random) -> list[dict]:
    ops = []
    for q in _strata(rng, 4, 0.7, 0.9):
        ops.append(_verify(4, q, _z(rng, 0.5, 2.0), rng.choice(_STRIP_TAUS),
                           _ratio(rng), grid=(rng.randint(8, 60), rng.randint(3800, 4000), 100)))
    for case, nmax in zip((5, 6, 7), _strata(rng, 3, 40_000, 60_000)):
        z = _z(rng, 0.5, 2.0)
        if case == 5:
            ops.append(_verify(5, 0.5, z, rng.choice(_STRIP_TAUS), rng.choice(SURDS),
                               beta=_ratio(rng, 10), rho="0.5", nmax=int(nmax)))
        elif case == 6:
            ops.append(_verify(6, 0.5, z, "-" + rng.choice(SURDS), _ratio(rng),
                               beta=_ratio(rng, 10), rho="0.5", nmax=int(nmax)))
        else:
            tau, theta = rng.sample(SURDS, 2)
            ops.append(_verify(7, 0.5, z, "-" + tau, theta, rho="0.4",
                               nmax=int(nmax)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# witness-scan: 10^6 scanned degrees per round
# ---------------------------------------------------------------------------

WITNESS_DEGREES = 1_000_000


def witness_scan(rng: random.Random) -> list[dict]:
    shares = _strata(rng, 8, 0.8, 1.2)
    total = sum(shares)
    nmaxes = [int(WITNESS_DEGREES * s / total) for s in shares]
    nmaxes[-1] += WITNESS_DEGREES - sum(nmaxes)
    ops = []
    for i, nmax in enumerate(nmaxes):
        beta, rho = _witness_target(rng)
        if i < 2:  # joint scans cost more per degree; keep their number fixed
            th1, th2 = rng.sample(SURDS, 2)
            ops.append(_witness(th1, beta, "0.4" if beta != "0" else "0.5", nmax,
                                theta2=th2, beta2=_ratio(rng, 10)))
        else:
            ops.append(_witness(rng.choice(SURDS), beta, rho, nmax,
                                fmt="json" if i == 7 else "csv"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# desk-mix: README-scale jobs of every subcommand
# ---------------------------------------------------------------------------

# Faults in qpr that these fixed inputs hit on every run; the checks expect
# the documented correct outcome, so each counts as failed until mended.
KNOWN_FAULTS = [
    _verify(1, 0.5, "1e-200", "1", "0", grid=(5, 10, 1)),
    _verify(1, 0.5, "nan", "1", "0", grid=(5, 10, 1)),
    _verify(1, 0.5, "1", "1", "0", alpha="1e6", grid=(5, 10, 1)),
    _op("eval", ["eval", "theta", "--z=2+5e-324j", "--q", "0.5"],
        function="theta", z="2+5e-324j", q=0.5),
]
KNOWN_FAULTS[0]["fault"] = "no BOUND VIOLATION verdict (exit 0 or 3)"
KNOWN_FAULTS[1]["fault"] = "usage error, exit 2"
KNOWN_FAULTS[2]["fault"] = "usage error, exit 2"
KNOWN_FAULTS[3]["fault"] = "exit 0 with a finite value"


def _eval(rng: random.Random, fn: str, q: float) -> dict:
    qs = f"{q:.6f}"
    argv = ["eval", fn, "--q", qs]
    params = {"function": fn, "q": float(qs)}
    if fn == "pochhammer":
        a = f"{rng.uniform(-2.0, 0.95):.6f}"
        n = rng.choice(("inf", str(rng.randint(0, 40))))
        argv += [f"--a={a}", "--n", n]
        params.update(a=a, n=n)
    elif fn in ("theta", "ramanujan_a", "b_function"):
        z = _z(rng, 0.2, 5.0)
        argv += [f"--z={z}"]
        params.update(z=z)
    elif fn == "laguerre":
        x = _z(rng, 0.1, 20.0)
        n = rng.randint(1, 30)
        alpha = rng.choice(("0", "0.5", "2"))
        argv += ["--n", str(n), f"--x={x}", "--alpha", alpha]
        params.update(x=x, n=n, alpha=alpha)
    else:  # normalized_laguerre
        z = _z(rng, 0.5, 3.0)
        n = rng.randint(1, 30)
        tau = rng.choice(("0", "1/2", "1", "3/2"))
        theta = _ratio(rng)
        argv += [f"--z={z}", "--n", str(n), f"--tau={tau}", "--theta", theta]
        params.update(z=z, n=n, tau=tau, theta=theta, alpha="0")
    return _op("eval", argv, **params)


EVAL_FUNCTIONS = ("pochhammer", "theta", "ramanujan_a", "b_function", "laguerre",
                  "normalized_laguerre")


def desk_mix(rng: random.Random) -> list[dict]:
    ops = list(KNOWN_FAULTS)
    qs = iter(_strata(rng, 64, 0.2, 0.8))
    for fn in EVAL_FUNCTIONS * 4:
        ops.append(_eval(rng, fn, next(qs)))
    fmt = lambda: rng.choice(("csv", "json"))  # noqa: E731
    for _ in range(3):
        ops.append(_verify(1, next(qs), _z(rng, 0.5, 3.0), rng.choice(("1/2", "1", "2")),
                           _ratio(rng), grid=(5, 40, 1), fmt=fmt()))
        ops.append(_verify(2, next(qs), _z(rng, 0.5, 3.0), "0", _ratio(rng),
                           grid=(5, 40, 1), fmt=fmt()))
        ops.append(_verify(3, next(qs), _z(rng, 1.0, 3.0), "0", rng.choice(SURDS),
                           rho="1", nmax=rng.randint(2000, 10_000), fmt=fmt()))
        ops.append(_verify(4, next(qs), _z(rng, 0.5, 2.0), rng.choice(_STRIP_TAUS),
                           _ratio(rng), grid=(8, 64, 1), fmt=fmt()))
        ops.append(_verify(5, next(qs), _z(rng, 0.5, 2.0), rng.choice(_STRIP_TAUS),
                           rng.choice(SURDS), rho="1", nmax=rng.randint(2000, 10_000),
                           fmt=fmt()))
        ops.append(_verify(6, next(qs), _z(rng, 0.5, 2.0), "-" + rng.choice(SURDS),
                           _ratio(rng), rho="1", nmax=rng.randint(2000, 10_000), fmt=fmt()))
        tau, theta = rng.sample(SURDS, 2)
        ops.append(_verify(7, next(qs), _z(rng, 0.5, 2.0), "-" + tau, theta, rho="0.4",
                           nmax=rng.randint(2000, 10_000), fmt=fmt()))
    for _ in range(8):
        beta, rho = _witness_target(rng)
        if rng.random() < 0.25:
            th1, th2 = rng.sample(SURDS, 2)
            ops.append(_witness(th1, "0", "0.4", rng.randint(100, 10_000), theta2=th2,
                                fmt=fmt()))
        else:
            ops.append(_witness(rng.choice(SURDS), beta, rho, rng.randint(100, 10_000),
                                fmt=fmt()))
    for _ in range(2):
        q = next(qs)
        argv = ["sweep", "--q", f"{q:.6f}", f"--z={_z(rng, 0.5, 2.0)}",
                "--tau-grid", ",".join(rng.sample(("1/4", "1/2", "3/4", "1", "3/2"), 3)),
                "--theta", _ratio(rng), "--n", f"{rng.randint(5, 10)}..40"]
        ops.append(_op("sweep", argv, q=float(argv[2])))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "aq-line": aq_line,
    "theta-strip": theta_strip,
    "witness-scan": witness_scan,
    "desk-mix": desk_mix,
}


def round_ops(workload: str, seed: int, rnd: int) -> list[dict]:
    """The operations of round rnd of a workload for a seed."""
    return WORKLOADS[workload](_rng(workload, seed, rnd))

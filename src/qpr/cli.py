"""Command-line harness: evaluate the special functions, certify asymptotic
regimes over degree grids, run Diophantine witness searches, and map error
decay across the scaling strip.

Subcommands and exit codes
--------------------------
eval      print one function value (ordinary + log-polar form)
verify    one report row per degree; exit 0 iff every eligible row satisfies
          observed_error <= bound, 1 on an eligible violation, 3 when no
          eligible row exists (including out-of-range tau advisories)
witness   CSV of witnesses (columns n,m,m1,beta,residual,rho); exit 3 if none
sweep     per-tau fitted vs predicted error-decay exponents

Exit code 2 flags usage errors (unknown function, undeclared rationality,
arguments outside mathematical domains).  Scaling parameters take exact
syntax: integers, fractions like -3/4, or the fixture names sqrt2, sqrt3,
golden, liouville (optionally negated).  Free decimals are accepted only
together with --assume-rational or --assume-irrational.  CSV columns are
fixed; JSON output mirrors them 1:1.  No option sets series truncation (see
numerics.TOL, MAX_TERMS); the argument parser is built once per process.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Sequence

from .asymptotics import (
    WITNESS_CASES,
    classify_case,
    predicted_decay,
    run_verify,
    scaling_range_advisory,
    witness_plan,
)
from .certify import RegimeReport, fit_decay_slope
from .diophantine import (
    DiophantineWitness,
    check_search,
    default_rho,
    joint_witness_search,
    parse_real,
    witness_search,
)
from .numerics import ConvergenceError, DomainError, LogPolarComplex, phase
from .qlaguerre import ScalingParameter, laguerre_direct, normalized_laguerre_lp
from .qseries import QContext, aq_series_lp, pochhammer, theta_lp

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NO_ELIGIBLE = 3

VERIFY_COLUMNS = RegimeReport._fields[:-1]  # the last field, the witness, is no column

WITNESS_COLUMNS = ["n", "m", "m1", "beta", "residual", "rho"]


class SweepRow(NamedTuple):
    """One sweep row: a tau of the grid, its fit and the predicted decay.
    The defaults are the row of a tau outside the regimes."""

    tau: float
    theta: float
    case_id: int | None = None
    points: int = 0
    n_lo: int | None = None
    n_hi: int | None = None
    fitted_slope: float | None = None
    predicted_kind: str = "out-of-range"
    predicted_slope: float | None = None
    ratio: float | None = None
    first_observed_error: float | None = None
    first_bound: float | None = None


SWEEP_COLUMNS = SweepRow._fields


def _csv_line(cells: list[str]) -> str:
    """One line as csv.writer writes it (without the line end); the cells are
    joined unless one of them may need quoting, when the csv module decides."""
    line = ",".join(cells)
    if '"' in line or "\r" in line or "\n" in line or line.count(",") >= len(cells):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(cells)
        line = buf.getvalue()[:-1]
    return line


def _write_rows(columns: Sequence[str], rows: Sequence[tuple], fmt: str,
                output: str | None) -> None:
    """The bytes of csv.writer(lineterminator="\\n") and of json.dumps(rows,
    indent=2) + "\\n", built by the C encoder and str.join, for the two or
    more columns every subcommand has.  A row holds its cells in column
    order; what follows the last column is not a cell."""
    if fmt == "json":
        # indent=2 would select the pure-Python encoder; without indent the C
        # one runs, and its item separator lays out a row's keys as indent=2
        # does, so only the braces and the list around them are placed here
        encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
        items = [encode(dict(zip(columns, row)))[1:-1] for row in rows]
        text = ("[\n  {\n    " + "\n  },\n  {\n    ".join(items) + "\n  }\n]\n"
                if items else "[]\n")
    else:
        lines = [_csv_line(columns)]
        for row in rows:
            # the cells csv.writer is given: None as "", bools as words, and
            # str() of a number, which for a float is csv's repr
            lines.append(_csv_line(["" if v is None else "true" if v is True else "false"
                                    if v is False else str(v) for v in row[:len(columns)]]))
        lines.append("")
        text = "\n".join(lines)
    _emit(text, output)


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --output {output!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _witness_text(wits: list[DiophantineWitness], fmt: str) -> str:
    """The text _write_rows gives for the witness rows (n, m, m1, beta,
    residual or a joint search's acceptance, rho), one formatted line per
    witness.  Every cell is an int, the None of a single search's m1, or a
    finite float, so a CSV line is the plain join of the cells' str() and a
    JSON item is their repr in the C encoder's layout; beta and rho, the
    same on every row, are formatted once."""
    if not wits:
        return "[]\n" if fmt == "json" else ",".join(WITNESS_COLUMNS) + "\n"
    w0 = wits[0]
    # a row's text starts at n's value, and each piece leads to the next value
    if fmt == "json":
        head, sep, tail = '[\n  {\n    "n": ', '\n  },\n  {\n    "n": ', "\n  }\n]\n"
        to_m, to_m1, none = ',\n    "m": ', ',\n    "m1": ', "null"
        to_residual = f',\n    "beta": {w0.target_beta!r},\n    "residual": '
        end = f',\n    "rho": {w0.rho!r}'
    else:
        head, sep, tail = ",".join(WITNESS_COLUMNS) + "\n", "\n", "\n"
        to_m, to_m1, none = ",", ",", ""
        to_residual, end = f",{w0.target_beta!r},", f",{w0.rho!r}"
    if w0.residual2 is None:
        to_residual = to_m1 + none + to_residual
        rows = [f"{w.n}{to_m}{w.m}{to_residual}{w.residual!r}{end}" for w in wits]
    else:
        rows = [f"{w.n}{to_m}{w.m}{to_m1}{w.m1}{to_residual}{w.acceptance!r}{end}"
                for w in wits]
    return head + sep.join(rows) + tail


def _beta_value(token: str):
    """Witness targets accept exact 'a/b' syntax or plain decimals; others are usage errors."""
    s = str(token).strip()
    try:
        if "/" in s or ("." not in s and "e" not in s.lower()):
            return Fraction(s)
        return float(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse beta {token!r}") from exc


def _degree(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise DomainError(f"cannot parse degree {token!r}") from None


def _parse_n_range(text: str, step: int) -> range:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = _degree(lo_s), _degree(hi_s)
    else:
        lo = hi = _degree(text)
    if lo < 0 or hi < lo:
        raise DomainError(f"bad degree range {text!r} (need 0 <= lo <= hi)")
    if step < 1:
        raise DomainError(f"bad degree step {step} (need --n-step >= 1)")
    return range(lo, hi + 1, step)


def _scaling(args) -> ScalingParameter:
    return ScalingParameter(parse_real(args.tau, assume=args.assume),
                            parse_real(args.theta, assume=args.assume))


def _context(args) -> QContext:
    return QContext(q=args.q, alpha=args.alpha, z=complex(args.z))


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _print_value(label: str, value: complex | LogPolarComplex) -> None:
    v = value.to_complex() if isinstance(value, LogPolarComplex) else value
    if v.imag == 0.0:
        print(f"{label} = {v.real!r}")
    else:
        print(f"{label} = {v!r}")
    mag = abs(v)
    if mag > 0 and math.isfinite(mag):
        print(f"  log10|value| = {math.log10(mag)!r}   "
              f"phase = {math.degrees(phase(v))!r} deg")
    elif isinstance(value, LogPolarComplex) and math.isfinite(value.log_mag):
        # outside double range the log-polar form is the only faithful one
        print(f"  log10|value| = {value.log10_mag()!r}   "
              f"phase = {math.degrees(value.phase)!r} deg")


def cmd_eval(args) -> int:
    fn = args.function
    if fn in ("laguerre", "normalized_laguerre") and args.n is None:
        raise DomainError(f"{fn} needs a degree: pass --n")
    if fn == "pochhammer":
        n = None if args.n in (None, "inf") else _degree(args.n)
        v = pochhammer(complex(args.a), args.q, n)
        _print_value(f"pochhammer(a={args.a}, q={args.q}, n={args.n})", v)
    elif fn == "theta":
        v = theta_lp(complex(args.z), args.q)
        _print_value(f"theta(z={args.z}, q={args.q})", v)
    elif fn in ("ramanujan_a", "b_function"):
        v = aq_series_lp(args.q, complex(args.z), fn == "ramanujan_a")
        _print_value(f"{fn}(q={args.q}, z={args.z})", v)
    elif fn == "laguerre":
        v = laguerre_direct(_context(args), _degree(args.n), complex(args.x))
        _print_value(f"laguerre(n={args.n}, alpha={args.alpha}, x={args.x}, q={args.q})", v)
    elif fn == "normalized_laguerre":
        v = normalized_laguerre_lp(_context(args), _scaling(args), _degree(args.n))
        _print_value(
            f"normalized_laguerre(n={args.n}, tau={args.tau}, theta={args.theta})", v)
    return EXIT_OK


def cmd_verify(args) -> int:
    # every context and scaling invariant is checked before any row runs
    sp = _scaling(args)
    ctx = _context(args)
    case_id = None if args.case == "auto" else int(args.case)
    n_values = _parse_n_range(args.n, args.n_step) if args.n else None
    check_search((args.beta, args.beta2), args.rho, args.nmax)
    advisory = scaling_range_advisory(sp.tau.value)
    if advisory is not None:
        print(f"advisory: {advisory}", file=sys.stderr)
        _write_rows(VERIFY_COLUMNS, [], args.format, args.output)
        return EXIT_NO_ELIGIBLE
    reports = run_verify(ctx, sp, case_id=case_id, n_values=n_values,
                         beta=args.beta, beta2=args.beta2, rho=args.rho, n_max=args.nmax)
    _write_rows(VERIFY_COLUMNS, reports, args.format, args.output)
    eligible = [r for r in reports if r.eligible]
    if not eligible:
        print("no eligible degree in this run", file=sys.stderr)
        return EXIT_NO_ELIGIBLE
    bad = [r for r in eligible if not r.bound_holds]
    if bad:
        worst = max(bad, key=lambda r: r.observed_error / r.bound if r.bound else math.inf)
        print(f"BOUND VIOLATION at n={worst.n}: observed {worst.observed_error!r} "
              f"> bound {worst.bound!r}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_witness(args) -> int:
    # an undeclared free decimal is a usage error, as in verify: the
    # declaration decides whether the residuals are exact
    th1 = parse_real(args.theta, assume=args.assume)
    th1.declared_rational()
    check_search((args.beta, args.beta2), args.rho, args.nmax)
    joint = args.theta2 is not None
    rho = args.rho if args.rho is not None else default_rho(th1, args.beta, joint=joint)
    if joint:
        th2 = parse_real(args.theta2, assume=args.assume)
        th2.declared_rational()
        wits = joint_witness_search(th1, th2, args.beta, args.beta2, rho, args.nmax)
    else:
        wits = witness_search(th1, args.beta, rho, args.nmax)
    _emit(_witness_text(wits, args.format), args.output)
    return EXIT_OK if wits else EXIT_NO_ELIGIBLE


def cmd_sweep(args) -> int:
    theta_v = parse_real(args.theta, assume=args.assume)
    ctx = _context(args)
    check_search((args.beta,), args.rho, args.nmax)
    rows = []
    for tok in args.tau_grid.split(","):
        tau = parse_real(tok.strip(), assume=args.assume)
        sp = ScalingParameter(tau, theta_v)
        advisory = scaling_range_advisory(tau.value)
        if advisory is not None:
            rows.append(SweepRow(tau.value, theta_v.value))
            continue
        case_id = classify_case(sp)
        # dense cases need a grid (default 5..40); witness-driven cases scan
        # all witnesses up to --nmax unless a grid is given explicitly
        n_spec = args.n if args.n is not None else (
            "5..40" if case_id not in WITNESS_CASES else None)
        n_values = _parse_n_range(n_spec, args.n_step) if n_spec else None
        # resolve the witness exponent once so the fit and the prediction
        # describe the same search
        _, rho_eff = witness_plan(case_id, sp, args.beta, args.rho)
        reports = run_verify(ctx, sp, case_id=case_id, n_values=n_values,
                             beta=args.beta, rho=rho_eff, n_max=args.nmax)
        kind, predicted = predicted_decay(case_id, ctx, sp, rho_eff)
        ns = [r.n for r in reports]
        errs = [r.observed_error for r in reports]
        usable = sum(1 for e in errs if e > 0 and math.isfinite(e))
        fitted = fit_decay_slope(ns, errs, log_abscissa=kind == "pow_n") if usable >= 2 else None
        ratio = fitted / predicted if fitted is not None and predicted != 0 else None
        rows.append(SweepRow(
            tau.value, theta_v.value, case_id, len(reports),
            ns[0] if ns else None, ns[-1] if ns else None, fitted, kind, predicted, ratio,
            errs[0] if errs else None, reports[0].bound if reports else None))
    _write_rows(SWEEP_COLUMNS, rows, args.format, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_context_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=float, required=True, help="base q in (0,1)")
    p.add_argument("--alpha", type=float, default=0.0, help="exponent alpha > -1")
    p.add_argument("--z", type=str, default="1",
                   help="nonzero complex z ('2', '0.7+0.2j')")


def _add_scaling_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=str, default="0",
                   help="tau: integer, fraction, or fixture name; negatives need "
                        "the --tau=-3/4 form")
    p.add_argument("--theta", type=str, default="0",
                   help="theta: integer, fraction, or fixture name")
    _add_assume_args(p)


def _add_assume_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()  # contradictory declarations exit 2
    group.add_argument("--assume-rational", dest="assume", action="store_const",
                       const="rational", help="treat free-decimal tau/theta as exact rationals")
    group.add_argument("--assume-irrational", dest="assume", action="store_const",
                       const="irrational", help="treat free-decimal tau/theta as irrational")


def _add_search_args(p: argparse.ArgumentParser, joint: bool) -> None:
    p.add_argument("--beta", type=_beta_value, default=Fraction(0),
                   help="witness target in [0,1); accepts a/b or decimal")
    if joint:
        p.add_argument("--beta2", type=_beta_value, default=Fraction(0),
                       help="second witness target (joint search, case 7)")
    p.add_argument("--rho", type=float, default=None,
                   help="witness exponent (default: by angle and target)")
    p.add_argument("--nmax", type=int, default=None,
                   help="witness search limit >= 1 (default: top of --n, else the search default)")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", type=str, default=None, help="write to file instead of stdout")


@cache  # no input, so built on the first call and reused; parses share nothing
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qpr",
        description="q-series special functions and asymptotic-regime certification",
    )
    sub = top.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one special function")
    pe.add_argument("function", choices=(
        "pochhammer", "theta", "ramanujan_a", "b_function", "laguerre",
        "normalized_laguerre"))
    _add_context_args(pe)
    _add_scaling_args(pe)
    pe.add_argument("--a", type=str, default="0", help="Pochhammer argument a")
    pe.add_argument("--x", type=str, default="1", help="polynomial argument x")
    pe.add_argument("--n", type=str, default=None,
                    help="order/degree n (integer, or 'inf' for products)")
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser(
        "verify", help="certify a regime over a degree grid",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="CSV columns (JSON mirrors them 1:1):\n  "
               + ", ".join(VERIFY_COLUMNS))
    _add_context_args(pv)
    _add_scaling_args(pv)
    pv.add_argument("--case", type=str, default="auto",
                    help="regime 1..7, or auto to dispatch from declarations")
    pv.add_argument("--n", type=str, default=None, help="degree grid 'lo..hi'")
    pv.add_argument("--n-step", type=int, default=1, help="stride through the grid")
    _add_search_args(pv, joint=True)
    _add_output_args(pv)
    pv.set_defaults(func=cmd_verify)

    pw = sub.add_parser(
        "witness", help="Diophantine witness search",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="CSV columns (JSON mirrors them 1:1):\n  "
               + ", ".join(WITNESS_COLUMNS)
               + "\nJoint searches fill m1 and report the larger |residual|.")
    pw.add_argument("--theta", type=str, required=True)
    pw.add_argument("--theta2", type=str, default=None,
                    help="second angle for a joint search")
    _add_search_args(pw, joint=True)
    _add_assume_args(pw)
    _add_output_args(pw)
    pw.set_defaults(func=cmd_witness)

    ps = sub.add_parser(
        "sweep", help="map error decay across tau values",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="CSV columns (JSON mirrors them 1:1):\n  "
               + ", ".join(SWEEP_COLUMNS))
    _add_context_args(ps)
    ps.add_argument("--tau-grid", type=str, required=True,
                    help="comma-separated tau tokens, e.g. '0.25,0.5,1' with --assume-rational")
    ps.add_argument("--theta", type=str, default="0")
    _add_assume_args(ps)
    ps.add_argument("--n", type=str, default=None,
                    help="degree grid; defaults to 5..40 for dense regimes")
    ps.add_argument("--n-step", type=int, default=1)
    _add_search_args(ps, joint=False)
    _add_output_args(ps)
    ps.set_defaults(func=cmd_sweep)
    return top


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, OverflowError) as exc:
        # range guards and uncertified truncations are runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


def entrypoint() -> None:
    # the console script's entry: tests reach main() in-process, never this call
    sys.exit(main())


if __name__ == "__main__":  # python -m qpr.cli, run by the tests in a subprocess only
    entrypoint()

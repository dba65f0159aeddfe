"""Byte stability of the CLI: small runs whose stdout and exit code must not
change by a single byte.

One ``verify`` per regime (cases 1-7, q from 0.5 to 0.9, CSV and JSON), a
case-4 run whose split-sum indices cross the Pochhammer tables' saturation
index (where the half sums read one factor for all saturated terms), a
case-4 run at tau = -3/5 and a case-5 witness run whose rows cross from
there into the degrees where both halves reuse their residue's term logs, a
case-1 and a case-2 run at z = 1 whose reversed sums' indices cross the
saturation index with every term on the real axis, four runs at a real z
and a rational theta (cases 1, 2, 4 and 6) whose phase steps are all axis
values, three
runs that carry a negative zero (beta = -0.0 at a real z, then also z = 2-0j),
whose main terms are real and must not depend on that sign, ``eval`` of every
function (``pochhammer`` also at a complex a with a finite order, at a
negative q, with a zero factor and at q = 0.99), a single and a joint
``witness`` scan, and ``sweep`` as CSV, as JSON and over a witness case (the README's case-3 example).  Two scans of
a rational angle take an exact and a decimal target, and two direct
Laguerre sums at degree 80 stay within and pass the range guard.  Near the end a parse fails (exit 2) after reading ``--format json`` and
``--assume-irrational``, and the next run passes neither.  Last, an advisory
``verify`` (tau = -2) writes no rows, as CSV (the header alone) and as JSON
(``[]``).  The runs share one process in this order, as they would in a
long-lived caller, so a per-context cache that returned one run's value to
another, or an argument parser that carried a setting from one call into the
next, would show here.  A change
that alters output on purpose regenerates the files with

    python tests/test_golden.py --regen

and says which runs changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EXIT_CODES = os.path.join(GOLDEN, "exit_codes.json")

RUNS = {
    "verify_case1": ["verify", "--case", "1", "--q", "0.5", "--alpha", "0.5",
                     "--z=1.3+0.4j", "--tau=1/2", "--theta", "1/3", "--n", "5..14"],
    "verify_case2": ["verify", "--case", "2", "--q", "0.6", "--z=0.9-0.7j", "--tau", "0",
                     "--theta", "2/5", "--n", "4..40", "--n-step", "4", "--format", "json"],
    "verify_case3": ["verify", "--case", "3", "--q", "0.7", "--z=1.1+0.5j", "--tau", "0",
                     "--theta", "sqrt2", "--rho", "1", "--nmax", "1000"],
    "verify_case4": ["verify", "--case", "4", "--q", "0.8", "--alpha", "0.5",
                     "--z=0.8+0.9j", "--tau=-1", "--theta", "1/3", "--n", "64..200",
                     "--n-step", "15", "--format", "json"],
    "verify_case5": ["verify", "--case", "5", "--q", "0.9", "--z=1.2-0.3j", "--tau=-3/4",
                     "--theta", "golden", "--beta", "1/3", "--rho", "1", "--nmax", "1500"],
    "verify_case6": ["verify", "--case", "6", "--q", "0.5", "--z=0.7+0.7j", "--tau=-sqrt2",
                     "--theta", "1/4", "--rho", "1", "--nmax", "1000", "--format", "json"],
    "verify_case7": ["verify", "--case", "7", "--q", "0.9", "--z=1.0+0.2j", "--tau=-sqrt3",
                     "--theta", "sqrt2", "--rho", "0.6", "--nmax", "3000"],
    # q = 0.5 tables saturate at index 59: n - floor(m/2) crosses it near
    # n = 80, floor(m/2) near n = 236, floor(m/2) - 8 near n = 268
    "verify_case4_saturation": ["verify", "--case", "4", "--q", "0.5", "--z=0.9+0.3j",
                                "--tau=-1/2", "--theta", "1/3", "--n", "76..284",
                                "--n-step", "4"],
    # tau = -3/5 from n = 110 (near 2 sat): floor(m/2) reaches 59 at n = 197, and
    # from n = 221 both half sums end inside their saturated windows
    "verify_case4_tau_3_5_saturation": ["verify", "--case", "4", "--q", "0.5",
                                        "--z=0.9+0.3j", "--tau=-3/5", "--theta", "1/3",
                                        "--n", "110..290", "--n-step", "3"],
    # witnesses from n = 1 to 2992: the split indices cross saturation near n = 160
    "verify_case5_saturation": ["verify", "--case", "5", "--q", "0.5", "--z=0.9+0.3j",
                                "--tau=-3/4", "--theta", "sqrt2", "--beta", "1/3",
                                "--rho", "0.5", "--nmax", "3000"],
    # reversed sums at a real z, every term on an axis, whose indices k, n - k
    # cross the q = 0.5 tables' saturation index 59
    "verify_case2_real_z_saturation": ["verify", "--case", "2", "--q", "0.5", "--alpha",
                                       "0.5", "--z=1", "--theta", "0", "--n", "40..120",
                                       "--n-step", "8"],
    "verify_case1_real_z_saturation": ["verify", "--case", "1", "--q", "0.5", "--z=1",
                                       "--tau=1/4", "--theta", "0", "--n", "40..120",
                                       "--n-step", "20"],
    # a real z and a rational theta whose d_n are multiples of 1/4 (1/2 in case
    # 1): every phase step is an axis value, shared by all rows of its residue;
    # case 2 (q = 0.6) and case 4 (q = 0.5) cross the saturation index as well
    "verify_case2_real_z_axis_steps": ["verify", "--case", "2", "--q", "0.6", "--z=1",
                                       "--tau", "0", "--theta", "1/4", "--n", "1..260",
                                       "--n-step", "3"],
    "verify_case1_real_z_axis_steps": ["verify", "--case", "1", "--q", "0.5", "--alpha",
                                       "0.5", "--z=1", "--tau=1/2", "--theta", "1/2",
                                       "--n", "1..120", "--n-step", "7"],
    "verify_case4_real_z_axis_steps": ["verify", "--case", "4", "--q", "0.5", "--z=-1.5",
                                       "--tau=-1/2", "--theta", "1/4", "--n", "2..300",
                                       "--n-step", "9", "--format", "json"],
    "verify_case6_real_z_axis_steps": ["verify", "--case", "6", "--q", "0.5", "--z=1",
                                       "--tau=-sqrt2", "--theta", "1/4", "--rho", "0.5",
                                       "--nmax", "3000"],
    "verify_case3_beta_neg_zero": ["verify", "--case", "3", "--q", "0.9", "--z=2", "--tau",
                                   "0", "--theta", "sqrt2", "--beta", "-0.0", "--rho", "1",
                                   "--nmax", "1000"],
    "verify_case5_beta_neg_zero": ["verify", "--case", "5", "--q", "0.9", "--z=2",
                                   "--tau=-1", "--theta", "sqrt2", "--beta", "-0.0",
                                   "--rho", "1", "--nmax", "1000"],
    "verify_case5_beta_neg_zero_z_neg_zero": ["verify", "--case", "5", "--q", "0.9",
                                              "--z=2-0j", "--tau=-1", "--theta", "sqrt2",
                                              "--beta", "-0.0", "--rho", "1", "--nmax",
                                              "1000", "--format", "json"],
    "eval_theta": ["eval", "theta", "--q", "0.7", "--z=0.6-1.3j"],
    "eval_ramanujan_a": ["eval", "ramanujan_a", "--q", "0.8", "--z=2.5+0.5j"],
    "eval_b_function": ["eval", "b_function", "--q", "0.5", "--z=-1.5+2j"],
    "witness_single": ["witness", "--theta", "sqrt2", "--beta", "1/3", "--rho", "1",
                       "--nmax", "2000"],
    "witness_joint": ["witness", "--theta", "sqrt2", "--theta2", "sqrt3", "--beta2", "1/5",
                      "--rho", "0.4", "--nmax", "3000", "--format", "json"],
    "sweep_csv": ["sweep", "--q", "0.5", "--z", "1", "--tau-grid", "1/4,1/2,1", "--theta",
                  "0", "--n", "10..20"],
    "sweep_json": ["sweep", "--q", "0.6", "--z=0.8+0.3j", "--tau-grid", "0,-1,-3",
                   "--theta", "1/3", "--n", "8..40", "--n-step", "4", "--format", "json"],
    # the README's example: case 3 over its witness degrees, predicted n^-1
    "sweep_witness": ["sweep", "--q", "0.5", "--z", "2", "--tau-grid", "0", "--theta",
                      "sqrt2", "--rho", "1", "--nmax", "8000"],
    "eval_pochhammer": ["eval", "pochhammer", "--a=-0.25+0.5j", "--q", "0.6", "--n", "inf"],
    # products no benchmark workload draws: a complex a at a finite order, a
    # negative q, a zero factor (it prints -0.0) and 3962 factors at q = 0.99
    "eval_pochhammer_complex_finite": ["eval", "pochhammer", "--a=0.3-0.7j", "--q", "0.8",
                                       "--n", "25"],
    "eval_pochhammer_negative_q": ["eval", "pochhammer", "--a=0.6+0.2j", "--q=-0.7", "--n",
                                   "inf"],
    "eval_pochhammer_zero_factor": ["eval", "pochhammer", "--a", "2", "--q", "0.5", "--n",
                                    "6"],
    "eval_pochhammer_q099_inf": ["eval", "pochhammer", "--a=0.5+0.5j", "--q", "0.99", "--n",
                                 "inf"],
    "eval_laguerre": ["eval", "laguerre", "--q", "0.5", "--alpha", "0.5", "--n", "6",
                      "--x=1.5-0.5j"],
    "eval_normalized_laguerre": ["eval", "normalized_laguerre", "--q", "0.7",
                                 "--z=0.9+0.4j", "--tau=1/2", "--theta", "1/3", "--n", "25"],
    # a rational angle reduced against an exact and against a decimal target
    "witness_rational_exact_beta": ["witness", "--theta", "5/13", "--beta", "2/7", "--rho",
                                    "0.5", "--nmax", "400"],
    "witness_rational_float_beta": ["witness", "--theta", "5/13", "--beta", "0.3", "--rho",
                                    "0.5", "--nmax", "400"],
    # direct sums past degree 64: one within the range guard, one past it (exit 1)
    "eval_laguerre_n80": ["eval", "laguerre", "--q", "0.5", "--alpha", "0.5", "--n", "80",
                          "--x=1e10+3e9j"],
    "eval_laguerre_n80_guard": ["eval", "laguerre", "--q", "0.5", "--n", "80",
                                "--x=1e30-2e29j"],
    "verify_bad_n_step": ["verify", "--case", "1", "--q", "0.5", "--z=1", "--tau", "1",
                          "--n", "5..6", "--format", "json", "--assume-irrational",
                          "--n-step", "ten"],
    "verify_after_failed_parse": ["verify", "--case", "1", "--q", "0.5", "--z=1", "--tau",
                                  "1", "--n", "5..6"],
    # tau = -2 is outside every regime: an advisory, no rows, exit 3
    "verify_empty_csv": ["verify", "--q", "0.5", "--tau=-2"],
    "verify_empty_json": ["verify", "--q", "0.5", "--tau=-2", "--format", "json"],
}


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process ``qpr`` call; a failed parse
    exits through SystemExit, as it does on the command line."""
    from qpr.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _path(name: str) -> str:
    return os.path.join(GOLDEN, f"{name}.out")


@pytest.mark.parametrize("name", list(RUNS))
def test_output_is_byte_identical(name):
    with open(EXIT_CODES, encoding="utf-8") as fh:
        want_code = json.load(fh)[name]
    with open(_path(name), encoding="utf-8", newline="") as fh:
        want_out = fh.read()
    code, out = run(RUNS[name])
    assert code == want_code
    assert out.encode() == want_out.encode()


def regen() -> None:
    codes = {}
    for name, argv in RUNS.items():
        codes[name], out = run(argv)
        with open(_path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    with open(EXIT_CODES, "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen")
    sys.path.insert(0, os.path.join(os.path.dirname(GOLDEN), os.pardir, "src"))
    regen()

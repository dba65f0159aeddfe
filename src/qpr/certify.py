"""The certified row: its record and its verdict, and the decay fit over rows.

Each regime evaluator of qpr.asymptotics returns a RegimeReport, whose
fields are the verify columns: the exact normalized value and the main term
in parts, the observed error, the stated error majorant (a
numerics.Majorant; constants kept verbatim: 7, 48, 30, 96), an eligibility
flag and the notes behind it.  Eligibility operationalizes the side
conditions reproducibly: every asymptotic "<<" becomes "left <= right/4",
nu_n >= 2 is always required, and rows whose bound sits below the
double-precision certification floor are excluded rather than asserted, as
are rows outside double range whose majorant has no log form (see
certify_row).  Violations on eligible rows are exactly the failures a
certification run must report.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

from .diophantine import DiophantineWitness
from .numerics import DomainError, LogPolarComplex, Majorant, abs_or_inf, cis, \
    lp_from_complex, sum_rescaled

# Observed errors are differences of doubles; bounds below this cannot be
# certified in this arithmetic, so such rows are reported but not asserted.
NOISE_FLOOR = 1e-13

# Operational margin for every asymptotic "<<": left <= right / MARGIN.
MARGIN = 4.0

_CERT_FLOOR = f" >= certification floor {NOISE_FLOOR:.0e}"


class RegimeReport(NamedTuple):
    """One certified row at a single degree n: the verify columns in order
    (the exact value's parts are None outside double range), then the
    witness the row was certified at, which is not a column."""

    case_id: int
    n: int
    eligible: bool
    bound_holds: bool
    observed_error: float
    bound: float
    main_re: float
    main_im: float
    exact_re: float | None
    exact_im: float | None
    exact_log10_mag: float
    exact_phase_rad: float
    nu: int | None
    m: int | None
    m1: int | None
    beta: float | None
    residual: float | None
    beta2: float | None
    residual2: float | None
    rho: float | None
    notes: str
    witness: DiophantineWitness | None


_make = RegimeReport._make


def certify_row(case_id: int, n: int, exact: LogPolarComplex, main: complex,
                majorant: Majorant, conds: list[tuple[str, bool]], *,
                tail: Sequence[tuple[str, bool]] = (), meta: str = "",
                witness: DiophantineWitness | None = None, nu: int | None = None,
                m: int | None = None, m1: int | None = None) -> RegimeReport:
    """The record of one row: its observed error, verdict, eligibility and
    notes, beside the exact value, the main term and the witness cells.

    A row whose observed error and bound are finite doubles compares them
    as doubles.  Otherwise a majorant with a log form (a log_prefactor)
    compares logarithms, and any other row is ineligible: its comparison
    would only set inf against inf or nan.  conds are the case's side
    conditions; the certification floor follows them, then the
    informational tail.  The notes are the conditions, then meta.
    """
    bound = majorant.bound
    value = exact.to_complex()
    observed = abs_or_inf(value - main)
    holds = observed <= bound
    if not (math.isfinite(observed) and math.isfinite(bound)):
        if majorant.log_prefactor is None:
            conds.append(("observed error and bound within double range", False))
        else:
            log_bound = majorant.log
            neg_main = lp_from_complex(-main)
            log_observed = sum_rescaled([exact.log_mag, neg_main.log_mag],
                                        [cis(exact.phase), cis(neg_main.phase)]
                                        ).to_lp().log_mag
            holds = log_observed <= log_bound
            note = (f"compared in log space: ln observed {log_observed:.6g}, "
                    f"ln bound {log_bound:.6g}")
            meta = f"{meta}; {note}" if meta else note
    conds.append((f"bound {bound:.3e}{_CERT_FLOOR}", bound >= NOISE_FLOOR))
    conds.extend(tail)
    eligible, parts = True, []
    for name, flag in conds:
        if not flag:
            eligible = False
        parts.append(name + (": ok" if flag else ": FAIL"))
    notes = "; ".join(parts)
    finite = cmath.isfinite(value)
    w = witness
    return _make((
        case_id, n, eligible, holds, observed, bound, main.real, main.imag,
        value.real if finite else None, value.imag if finite else None,
        exact.log10_mag(), exact.phase, nu, m, m1,
        None if w is None else w.target_beta, None if w is None else w.residual,
        None if w is None else w.target_beta2, None if w is None else w.residual2,
        None if w is None else w.rho, f"{notes}; {meta}" if meta else notes, witness))


def fit_decay_slope(ns: list[int], errors: list[float],
                    log_abscissa: bool = False) -> float:
    """Least-squares slope of log(error) against n (or log n)."""
    xs, ys = [], []
    for n, e in zip(ns, errors):
        if e > 0.0 and math.isfinite(e):
            xs.append(math.log(n) if log_abscissa else float(n))
            ys.append(math.log(e))
    if len(xs) < 2:
        raise DomainError("need at least two positive errors to fit a slope")
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0.0:
        raise DomainError("degenerate abscissa for slope fit")
    return sxy / sxx

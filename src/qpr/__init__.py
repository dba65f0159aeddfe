"""qpr: overflow-safe q-series special functions and numerical certification
of the asymptotic regimes of complex-scaled q-Laguerre polynomials."""

from .numerics import (
    ConvergenceError,
    DomainError,
    LogPolarComplex,
    QprError,
    RangeGuardError,
    SummationResult,
    lp_from_complex,
    sum_rescaled,
)
from .qseries import (
    QContext,
    b_function,
    pochhammer,
    ramanujan_a,
    ramanujan_a_deriv,
    remainder_r1,
    remainder_r2,
    theta,
    theta_triple_product,
)
from .diophantine import (
    FIXTURES,
    DiophantineWitness,
    RealValue,
    chi,
    floor_frac,
    joint_witness_search,
    parse_real,
    witness_search,
)
from .qlaguerre import (
    ScalingParameter,
    SplitSumResult,
    laguerre_direct,
    split_sums,
)
from .asymptotics import classify_case, nu_n, run_verify, scaling_range_advisory
from .certify import RegimeReport, fit_decay_slope

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DomainError", "LogPolarComplex", "QprError",
    "RangeGuardError", "SummationResult", "lp_from_complex", "sum_rescaled",
    "QContext", "b_function", "pochhammer", "ramanujan_a",
    "ramanujan_a_deriv", "remainder_r1", "remainder_r2", "theta",
    "theta_triple_product",
    "FIXTURES", "DiophantineWitness", "RealValue", "chi", "floor_frac",
    "joint_witness_search", "parse_real", "witness_search",
    "ScalingParameter", "SplitSumResult", "laguerre_direct", "split_sums",
    "RegimeReport", "classify_case", "fit_decay_slope", "nu_n", "run_verify",
    "scaling_range_advisory",
]

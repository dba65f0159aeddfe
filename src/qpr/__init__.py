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
    lp_pow_int,
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
    convergents,
    floor_frac,
    joint_witness_search,
    parse_real,
    witness_search,
)
from .qlaguerre import (
    ScalingParameter,
    SplitSumResult,
    factor_e,
    factor_f,
    laguerre_direct,
    split_sums,
)
from .asymptotics import (
    RegimeReport,
    classify_case,
    eval_case1,
    eval_case_aq,
    eval_case_theta,
    fit_decay_slope,
    nu_n,
    run_verify,
    scaling_range_advisory,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DomainError", "LogPolarComplex", "QprError",
    "RangeGuardError", "SummationResult", "lp_from_complex", "lp_pow_int",
    "sum_rescaled",
    "QContext", "b_function", "pochhammer", "ramanujan_a",
    "ramanujan_a_deriv", "remainder_r1", "remainder_r2", "theta",
    "theta_triple_product",
    "FIXTURES", "DiophantineWitness", "RealValue", "chi", "convergents",
    "floor_frac", "joint_witness_search",
    "parse_real", "witness_search",
    "ScalingParameter", "SplitSumResult", "factor_e", "factor_f",
    "laguerre_direct", "split_sums",
    "RegimeReport", "classify_case", "eval_case1", "eval_case_aq",
    "eval_case_theta", "fit_decay_slope", "nu_n", "run_verify",
    "scaling_range_advisory",
]

"""Every log-polar evaluation path over |z| from subnormal to 1e300: it either
refuses with a QprError or returns a finite log-polar value."""

import cmath
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qpr.numerics import LogPolarComplex, QprError
from qpr.qlaguerre import ScalingParameter, laguerre_direct, normalized_laguerre_lp, split_sums
from qpr.qseries import QContext, aq_series_lp, theta_lp
from qpr.reals import RealValue

SP_CASE1 = ScalingParameter(RealValue.from_rational(1), RealValue.from_rational(F(1, 3)))
SP_STRIP = ScalingParameter(RealValue.from_rational(F(-3, 4)), RealValue.from_rational(F(1, 3)))

PATHS = {
    "theta_lp": lambda q, z, n: theta_lp(z, q),
    "aq_series_lp": lambda q, z, n: aq_series_lp(q, z, True),
    "normalized_laguerre_lp": lambda q, z, n: normalized_laguerre_lp(
        QContext(q, 0.0, z), SP_CASE1, n),
    "split_sums": lambda q, z, n: split_sums(QContext(q, 0.0, z), SP_STRIP, n).total,
    "laguerre_direct": lambda q, z, n: laguerre_direct(QContext(q, 0.0, 1.0), n, z),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@given(log10_r=st.floats(min_value=-323.5, max_value=300.0),
       phi=st.floats(min_value=-math.pi, max_value=math.pi),
       q=st.sampled_from([0.1, 0.5, 0.9]),
       n=st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_finite_log_polar_or_qpr_error(path, log10_r, phi, q, n):
    z = cmath.rect(10.0 ** log10_r, phi)
    try:
        value = PATHS[path](q, z, n)
    except QprError:
        return
    if isinstance(value, LogPolarComplex):
        assert value.log_mag < math.inf and not math.isnan(value.log_mag)
        assert math.isfinite(value.phase)
    else:
        assert cmath.isfinite(value)

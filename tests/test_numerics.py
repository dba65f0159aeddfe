import cmath
import math
import random
import sys

import oracles
import pytest
from hypothesis import example, given, settings, strategies as st

from qpr.numerics import (
    ConvergenceError,
    DomainError,
    LogPolarComplex,
    abs_or_inf,
    certified_terms,
    exp_or_inf,
    lp,
    lp_from_complex,
    lp_mul,
    lp_pow_int,
    mirrored_phases,
    phase,
    phase_mul_int,
    step_phases,
    sum_rescaled,
    wrap_phase,
)


def test_from_complex_identity():
    v = lp_from_complex(1 + 0j)
    assert v.log_mag == 0.0 and v.phase == 0.0


def test_from_complex_negative_real_is_phase_pi():
    v = lp_from_complex(-2 + 0j)
    assert math.isclose(v.log_mag, math.log(2))
    assert v.phase == math.pi


def test_from_complex_negative_real_with_negative_zero_is_phase_pi():
    assert lp_from_complex(complex(-2.0, -0.0)).phase == math.pi


_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, math.inf, -math.inf]),
    st.floats(allow_nan=False))


@given(_EDGE_FLOATS, _EDGE_FLOATS)
@example(-2.0, -0.0)
@example(-math.inf, -0.0)
@example(-1.0, -5e-324)  # atan2 rounds to -pi here too
@example(2.0, 5e-324)
def test_phase_is_atan2_in_half_open_range(re, im):
    got = phase(complex(re, im))
    assert -math.pi < got <= math.pi
    want = math.atan2(im, re)
    assert got == (math.pi if want == -math.pi else want)


def test_from_complex_zero_convention():
    v = lp_from_complex(0)
    assert v.log_mag == -math.inf and v.phase == 0.0
    assert v.to_complex() == 0


@given(st.floats(min_value=-690, max_value=690),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_roundtrip_preserves_log_mag(log_mag, phase):
    w = lp(log_mag, phase).to_complex()
    back = lp_from_complex(w)
    assert math.isclose(back.log_mag, log_mag, rel_tol=1e-13, abs_tol=1e-13)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_wrap_phase_range(phi):
    r = wrap_phase(phi)
    assert -math.pi < r <= math.pi


def test_pow_int_square_of_minus_one():
    assert lp_pow_int(lp(0.0, math.pi), 2) == lp(0.0, 0.0)


def test_pow_int_reciprocal_cube():
    v = lp_pow_int(lp(math.log(2), 0.0), -3)
    assert math.isclose(v.log_mag, -3 * math.log(2))
    assert v.phase == 0.0


def test_pow_int_cube_root_of_unity():
    # (e^(2 pi i/3))^3 = 1, checked against the direct complex cube
    b = lp(0.0, 2 * math.pi / 3)
    v = lp_pow_int(b, 3)
    direct = b.to_complex() ** 3
    assert abs(v.to_complex() - direct) < 1e-14
    assert abs(v.to_complex() - 1.0) < 1e-14


def test_log_polar_zero_from_log_minus_inf():
    assert lp(-math.inf, 1.0) == lp_from_complex(0)


def test_mul_by_log_polar_zero():
    zero, two = lp_from_complex(0), lp(math.log(2.0), 0.5)
    assert lp_mul(zero, two).is_zero and lp_mul(two, zero).is_zero


def test_pow_int_rejects_a_float_exponent():
    with pytest.raises(DomainError, match="exponent must be an integer"):
        lp_pow_int(lp(0.0, 1.0), 2.0)


def test_pow_int_zero_base():
    zero = lp_from_complex(0)
    assert lp_pow_int(zero, 3).is_zero
    assert lp_pow_int(zero, 0) == lp(0.0, 0.0)
    with pytest.raises(DomainError):
        lp_pow_int(zero, -1)


@given(st.integers(min_value=-64, max_value=64),
       st.floats(min_value=-5, max_value=5),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_pow_int_matches_repeated_multiplication(k, log_mag, phase):
    b = lp(log_mag, phase)
    single = lp_pow_int(b, k)
    acc = lp(0.0, 0.0)
    step = b if k >= 0 else lp_pow_int(b, -1)
    for _ in range(abs(k)):
        acc = lp_mul(acc, step)
    assert math.isclose(single.log_mag, acc.log_mag, rel_tol=1e-12, abs_tol=1e-12)
    diff = wrap_phase(single.phase - acc.phase)
    assert min(abs(diff), abs(abs(diff) - 2 * math.pi)) < 1e-12


def _sum(terms):
    """sum_rescaled over LogPolarComplex terms, unpacked into its two lists."""
    return sum_rescaled([t.log_mag for t in terms], [t.phase for t in terms])


def test_sum_cancellation():
    r = _sum([lp_from_complex(1), lp_from_complex(-1)])
    assert r.value == 0
    assert r.rescale_log == 0.0
    assert r.term_count == 2


def test_sum_huge_cancellation_no_overflow():
    big = math.log(1e200)
    r = _sum([lp(big, 0.0), lp(big, math.pi)])
    assert r.value == 0
    assert math.isfinite(r.rescale_log)


def test_sum_exact_rational():
    r = _sum([lp_from_complex(1), lp_from_complex(0.5), lp_from_complex(0.25)])
    assert r.to_complex() == 1.75


def test_sum_empty_and_all_zero():
    r = sum_rescaled([], [])
    assert r.value == 0 and r.term_count == 0
    r = _sum([lp_from_complex(0), lp_from_complex(0)])
    assert r.value == 0 and r.term_count == 2


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_sum_permutation_invariance(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 400)
    terms = [lp_from_complex(cmath.rect(math.exp(rng.uniform(-3, 3)),
                                        rng.uniform(-math.pi, math.pi)))
             for _ in range(n)]
    base = _sum(terms).to_complex()
    shuffled = terms[:]
    rng.shuffle(shuffled)
    again = _sum(shuffled).to_complex()
    scale = max(abs(base), 1e-30)
    assert abs(base - again) <= 1e-12 * scale


_CARDINAL_PHASES = [0.0, -0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi]
# a small pool of log-magnitudes makes ties (and exact cancellations) common
_TIED_LOGS = [0.0, -0.0, 1.5, -2.25, 700.0]
_LOGS = st.one_of(st.just(-math.inf), st.sampled_from(_TIED_LOGS),
                  st.floats(-1e5, 1e5))
_PHASES = st.one_of(st.sampled_from(_CARDINAL_PHASES),
                    st.floats(-math.pi, math.pi))


@settings(max_examples=300)
@given(st.lists(st.tuples(_LOGS, _PHASES), max_size=60))
@example([(-math.inf, 0.0), (-math.inf, 1.0)])
@example([(1e5, 0.0), (0.0, math.pi), (-1e5, 0.5 * math.pi), (1e5, math.pi)])
@example([(2.0, 0.5 * math.pi), (2.0, -0.5 * math.pi), (2.0, math.pi), (2.0, 0.0)])
def test_sum_rescaled_bit_identical_to_reference(pairs):
    logs = [lm for lm, _ in pairs]
    phases = [ph for _, ph in pairs]
    got = sum_rescaled(logs, phases)
    want = oracles.sum_rescaled([LogPolarComplex(lm, ph) for lm, ph in pairs])
    assert got.value == want.value
    assert (got.value.real.hex(), got.value.imag.hex()) == \
        (want.value.real.hex(), want.value.imag.hex())
    assert got.rescale_log == want.rescale_log
    assert math.copysign(1.0, got.rescale_log) == math.copysign(1.0, want.rescale_log)
    assert got.term_count == want.term_count == len(pairs)


def test_sum_value_finite_for_finite_inputs():
    terms = [lp(600.0, 0.1 * k) for k in range(50)]
    r = _sum(terms)
    assert math.isfinite(r.value.real) and math.isfinite(r.value.imag)


def test_exp_or_inf_is_exp_until_it_overflows():
    top = math.log(sys.float_info.max)
    assert exp_or_inf(top) == math.exp(top)
    assert exp_or_inf(math.nextafter(top, math.inf)) == math.inf
    assert exp_or_inf(1e6) == math.inf
    assert math.isnan(exp_or_inf(math.nan))
    # to_complex stays finite up to the largest double
    assert lp(709.5, 0.0).to_complex() == complex(math.exp(709.5), 0.0)


def test_abs_or_inf_never_raises():
    assert abs_or_inf(3 + 4j) == 5.0
    assert abs_or_inf(complex(1.5e308, 1.5e308)) == math.inf
    assert abs_or_inf(complex(math.inf, math.nan)) == math.inf
    math.exp(-1000.0)  # an underflow leaves errno set; abs(nan+0j) then raises
    assert math.isnan(abs_or_inf(complex(math.nan, 0.0)))


def test_to_complex_keeps_exact_zero_component_past_overflow():
    assert lp(1e4, 0.0).to_complex() == complex(math.inf, 0.0)
    assert lp(1e4, math.pi / 2).to_complex() == complex(0.0, math.inf)


def _geometric(ratio):
    return dict(term_log=lambda k: k * math.log(ratio), phase_step=0.0,
                ratio_bound=lambda k: ratio)


def test_certified_terms_stops_on_tail_bound():
    logs, phases = certified_terms(**_geometric(0.25))
    assert len(logs) == len(phases) == 27 and set(phases) == {0.0}
    # the last kept term is the first below (tol/4) * peak
    assert logs[-1] <= math.log(1e-15 / 4) < logs[-2]


def test_certified_terms_finite_sum_ends_at_stop():
    # ratio 2 never certifies: an infinite series raises, a finite one ends
    with pytest.raises(ConvergenceError):
        certified_terms(**_geometric(2.0))
    logs, phases = certified_terms(**_geometric(2.0), start=3, stop=7)
    assert [round(lm / math.log(2.0)) for lm in logs] == [3, 4, 5, 6, 7]
    assert len(phases) == 5
    assert certified_terms(**_geometric(2.0), start=1, stop=0) == ([], [])


def test_certified_terms_starting_peak():
    alone, _ = certified_terms(**_geometric(0.25))
    # a peak of e^10 summed elsewhere lets the series stop 10 nats earlier
    seeded, phases = certified_terms(**_geometric(0.25), max_log=10.0)
    assert len(seeded) == len(phases) < len(alone)
    assert seeded[-1] <= 10.0 + math.log(1e-15 / 4) < seeded[-2]


@pytest.mark.parametrize("ph", [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi,
                                math.nextafter(math.pi, 0.0),
                                math.nextafter(-math.pi, 0.0), 1.234])
def test_certified_terms_phase_steps(ph):
    # term k's phase is phase_mul_int(ph, k), and with the step wrap_phase(-ph)
    # it is phase_mul_int(ph, -k), bit for bit, sign of zero included
    kw = dict(term_log=lambda k: 0.0, ratio_bound=lambda k: 1.0, stop=500)
    _, up = certified_terms(phase_step=ph, **kw)
    assert [p.hex() for p in up] == [phase_mul_int(ph, k).hex() for k in range(501)]
    _, down = certified_terms(phase_step=wrap_phase(-ph), start=1, **kw)
    assert [p.hex() for p in down] == [phase_mul_int(ph, -k).hex() for k in range(1, 501)]
    # step_phases gives the phases of terms whose logs were kept apart: the
    # loop's bits, for a run of terms starting anywhere
    assert [p.hex() for p in step_phases(ph, 0, 500)] == [p.hex() for p in up]
    assert [p.hex() for p in step_phases(wrap_phase(-ph), 1, 500)] == [p.hex() for p in down]
    assert [p.hex() for p in step_phases(ph, 7, 40)] == [p.hex() for p in up[7:41]]
    assert step_phases(ph, 1, 0) == []
    # and the -k phases read from the +k ones, to any shorter stop
    assert [p.hex() for p in mirrored_phases(ph, up, 500)] == [p.hex() for p in down]
    assert [p.hex() for p in mirrored_phases(ph, up, 9)] == [p.hex() for p in down[:9]]


# steps pi/3, -pi/4 and 3 pi/4, whose multiples k = 3, 4, 4 land on pi
# exactly (the phase that stays pi), the step of the rational angle 1/3 at
# z = 1, and the edges of (-pi, pi]
@given(st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True))
@example(math.pi / 3.0)
@example(-math.pi / 4.0)
@example(3.0 * math.pi / 4.0)
@example(wrap_phase(math.pi - 2.0 * math.pi / 3.0))
@example(math.nextafter(-math.pi, 0.0))
@example(math.nextafter(math.pi, 0.0))
def test_mirrored_phases_are_the_negated_step(ph):
    want = step_phases(wrap_phase(-ph), 1, 200)
    got = mirrored_phases(ph, step_phases(ph, 0, 200), 200)
    assert [p.hex() for p in got] == [p.hex() for p in want]


def test_certified_terms_tail_majorant():
    # terms vanish at k >= 1, but the majorant 0.25^k must still clear tol
    logs, phases = certified_terms(term_log=lambda k: 0.0 if k == 0 else -math.inf,
                                   phase_step=0.0, ratio_bound=lambda k: 0.25,
                                   tail_log=lambda k: k * math.log(0.25))
    assert logs == [0.0] and phases == [0.0]
    # without it the first vanishing term stops the series
    steps = []
    certified_terms(term_log=lambda k: 0.0 if k == 0 else -math.inf,
                    phase_step=0.0,
                    ratio_bound=lambda k: steps.append(k) or 0.25)
    assert steps == [0, 1]

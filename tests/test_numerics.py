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
    phase,
    step_phases,
    sum_rescaled,
    wrap_phase,
)
from oracles import lp_pow_int


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
    return sum_rescaled([t.log_mag for t in terms], [oracles.cis(t.phase) for t in terms])


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
@example([])
@example([(-math.inf, 0.0), (-math.inf, 1.0)])
@example([(1e5, 0.0), (0.0, math.pi), (-1e5, 0.5 * math.pi), (1e5, math.pi)])
@example([(2.0, 0.5 * math.pi), (2.0, -0.5 * math.pi), (2.0, math.pi), (2.0, 0.0)])
@example([(-math.inf, 0.0), (-math.inf, math.pi)])
@example([(1.5, -0.0), (1.5, 0.0), (-math.inf, -0.0), (0.0, 1.0), (1.5, -2.0)])
@example([(2.0, math.pi), (-math.inf, 0.5 * math.pi), (2.0, -0.0), (700.0, 0.25)])
def test_sum_rescaled_bit_identical_to_reference(pairs):
    # the kernel on the (cos, sin) pairs of the phases, against the kernel
    # that took the phases themselves and the one before it, on log-polar terms
    logs = [lm for lm, _ in pairs]
    phases = [ph for _, ph in pairs]
    got = sum_rescaled(logs, [oracles.cis(ph) for ph in phases])
    for want in (oracles.sum_rescaled_phases(logs, phases),
                 oracles.sum_rescaled([LogPolarComplex(lm, ph) for lm, ph in pairs])):
        assert got.value == want.value
        assert (got.value.real.hex(), got.value.imag.hex()) == \
            (want.value.real.hex(), want.value.imag.hex())
        assert got.rescale_log == want.rescale_log
        assert math.copysign(1.0, got.rescale_log) == math.copysign(1.0, want.rescale_log)
        assert got.term_count == want.term_count == len(pairs)


def _hexes(values):
    return [v.hex() for v in values]


def _pair_hexes(pairs):
    return [(c.hex(), s.hex()) for c, s in pairs]


@pytest.mark.parametrize("logs", [[1.0, -math.inf, math.nan], [-math.inf, math.nan],
                                  [math.nan, -math.inf, 1.0]])
def test_sum_rescaled_nan_log_is_kept(logs):
    # a NaN log leaves the sort without a total order, so a -inf log can sort
    # before it; only trailing -inf logs are dropped, and the NaN stays in
    got = sum_rescaled(logs, [(1.0, 0.0)] * len(logs))
    want = oracles.sum_rescaled_phases(logs, [0.0] * len(logs))
    assert cmath.isnan(got.value) and cmath.isnan(want.value)
    assert cmath.isnan(oracles.sum_rescaled([LogPolarComplex(lm, 0.0) for lm in logs]).value)
    assert (got.rescale_log.hex(), got.term_count) == (want.rescale_log.hex(), want.term_count)


# the tails include the stop threshold itself below a peak of 0.0
_SERIES_LOGS = st.one_of(st.just(-math.inf), st.floats(-60.0, 60.0),
                         st.sampled_from([*_TIED_LOGS[:4], math.log(1e-15) - math.log(4.0),
                                          math.nan]))


_RATIOS = [math.inf, 3.0, 1.0, math.nextafter(0.5, 1.0), 0.5, 0.25, 0.0]


def _same_as_per_term(phase_step, **kw):
    """certified_terms, with the threshold located once, and the
    phase-emitting references, with the per-term stop test and without, give
    the same bits, or the same ConvergenceError.  certified_terms gives every
    generated term's log in place, -inf ones included; with those dropped,
    its logs are the references', and step_phases over the same run of k
    gives the (cos, sin) pairs of the references' phases, both parts and
    signed zeros included.  sum_rescaled gives the same sum from both, and
    the same factored-out log unless a log is NaN."""
    generated = []
    term_log = kw["term_log"]
    reference = dict(kw, term_log=lambda k: generated.append(k) or term_log(k))
    try:
        want = oracles.certified_terms_phases(**reference, phase_step=phase_step,
                                              per_term=True)
    except ConvergenceError as exc:
        for per_term in (False, True):
            with pytest.raises(ConvergenceError) as old:
                oracles.certified_terms_phases(**kw, phase_step=phase_step, per_term=per_term)
            assert str(old.value) == str(exc)
        with pytest.raises(ConvergenceError) as got:
            certified_terms(**kw)
        assert str(got.value) == str(exc)
        return
    old = oracles.certified_terms_phases(**kw, phase_step=phase_step)
    assert [_hexes(old[0]), _hexes(old[1])] == [_hexes(want[0]), _hexes(want[1])]
    logs = certified_terms(**kw)
    start = kw.get("start", 0)
    assert _hexes(logs) == [term_log(k).hex() for k in generated]
    assert generated == list(range(start, start + len(logs)))
    pairs = step_phases(phase_step, start, start + len(logs) - 1)
    assert len(pairs) == len(logs)
    kept = [i for i, lm in enumerate(logs) if lm != -math.inf]
    assert _hexes(logs[i] for i in kept) == _hexes(want[0])
    assert _pair_hexes(pairs[i] for i in kept) == _pair_hexes(map(oracles.cis, want[1]))
    got = sum_rescaled(logs, pairs)
    ref = oracles.sum_rescaled_phases(*want)
    assert (got.value.real.hex(), got.value.imag.hex(), *_hexes(got.to_lp())) == \
        (ref.value.real.hex(), ref.value.imag.hex(), *_hexes(ref.to_lp()))
    assert (got.term_count, ref.term_count) == (len(logs), len(want[0]))
    # a NaN log makes both sums NaN; it leaves the sort without a total order,
    # so a -inf log kept in place can move which log is factored out
    if not any(map(math.isnan, logs)):
        assert got.rescale_log.hex() == ref.rescale_log.hex()


# steps whose multiples land on the axis values without being quarter steps
_AXIS_STEPS = [math.pi / 4, -math.pi / 4, 3 * math.pi / 4, math.pi / 3, 2 * math.pi / 3,
               -2 * math.pi / 3, math.pi / 6, math.nextafter(math.pi, 0.0),
               math.nextafter(-math.pi, 0.0)]


@settings(max_examples=400)
@given(st.lists(_SERIES_LOGS, min_size=1, max_size=30),
       st.none() | st.lists(_SERIES_LOGS, min_size=1, max_size=30),
       st.lists(st.sampled_from(_RATIOS), min_size=1, max_size=30), st.integers(0, 5),
       st.one_of(_PHASES, st.sampled_from(_AXIS_STEPS)), st.integers(0, 1),
       st.none() | st.integers(-1, 40), st.sampled_from([-math.inf, 0.0, 30.0]))
# a -inf log before a NaN one: the sum's factored-out log differs, not its value
@example([-math.inf, math.nan], None, [math.inf], 0, 0.0, 0, None, -math.inf)
@example([1.0, -math.inf, -2.0, math.nan], [0.0], [0.25], 1, math.pi / 4, 1, 3, 0.0)
def test_certified_terms_identical_to_per_term_stop(tls, tails, ratios, nans, step, start,
                                                    stop, max_log):
    # a non-increasing bound, after up to five nan ones that never stop a
    # series; past the drawn lists every term vanishes and the ratio is at
    # most 1/4, so each series stops; quarter, axis-landing and random steps
    ratios = [math.nan] * nans + sorted(ratios, reverse=True)

    def drawn(values, past):
        return lambda k: values[k - start] if k - start < len(values) else past
    _same_as_per_term(term_log=drawn(tls, -math.inf), phase_step=step,
                      ratio_bound=drawn(ratios, min(ratios[-1], 0.25)), start=start,
                      stop=None if stop is None else start + stop, max_log=max_log,
                      tail_log=None if tails is None else drawn(tails, -math.inf))


def _bound_from(threshold, above=1.0):
    """A non-increasing ratio bound: above before the index threshold, 1/4 from it."""
    return lambda k: above if k < threshold else 0.25


@pytest.mark.parametrize("term_log, ratio_bound, kw", [
    # the threshold at start, where the seeded peak lets the tail test hold
    (lambda k: 0.0, _bound_from(0), dict(max_log=40.0)),
    (lambda k: 0.0, _bound_from(3), dict(start=3, max_log=40.0)),
    # the tail test first holds at k = 36: the threshold there, one and two
    # past it, and far past it
    (lambda k: -1.0 * k, _bound_from(36), {}),
    (lambda k: -1.0 * k, _bound_from(37), {}),
    (lambda k: -1.0 * k, _bound_from(38), {}),
    (lambda k: -1.0 * k, _bound_from(1000), {}),
    # the threshold at, and one past, a finite stop: the sum ends there either way
    (lambda k: -1.0 * k, _bound_from(60), dict(stop=60)),
    (lambda k: -1.0 * k, _bound_from(61), dict(stop=60)),
    (lambda k: -1.0 * k, _bound_from(10**6), dict(stop=60)),
    # the threshold at the term cap, where the last term stops the sum, and
    # past it, where both raise the same ConvergenceError
    (lambda k: -1.0 * k, _bound_from(10_000), {}),
    (lambda k: -1.0 * k, _bound_from(10_001), {}),
    (lambda k: -1.0 * k, _bound_from(10_002), dict(start=1)),
    # infinite bounds before the threshold, and nan ones that never stop a sum
    (lambda k: -1.0 * k, _bound_from(500, math.inf), {}),
    (lambda k: -1.0 * k, _bound_from(500, math.nan), {}),
    (lambda k: -1.0 * k, lambda k: math.nan, dict(stop=80)),
    (lambda k: -1.0 * k, lambda k: math.nan, {}),
    # -inf terms: the tail test holds at once, and the terms kept are few
    (lambda k: -math.inf, _bound_from(20), {}),
    (lambda k: 0.0 if k % 7 == 0 else -math.inf, _bound_from(45), {}),
    (lambda k: 0.0 if k < 3 else -math.inf, _bound_from(45),
     dict(tail_log=lambda k: -1.0 * k)),
], ids=["at-start", "at-start-3", "at-tail-pass", "next", "next-but-one", "far", "at-stop",
        "past-stop", "far-past-stop", "at-cap", "past-cap", "past-cap-start-1",
        "inf-bound", "nan-prefix", "nan-finite", "nan-infinite", "neg-inf-terms",
        "sparse-terms", "neg-inf-with-tail"])
def test_certified_terms_threshold_like_per_term_stop(term_log, ratio_bound, kw):
    _same_as_per_term(term_log=term_log, phase_step=0.5, ratio_bound=ratio_bound, **kw)


def test_certified_terms_locates_ratio_threshold_in_log_calls():
    # the tail test holds from k = 36; the bound reaches 1/2 at k = 5000
    calls = []
    logs = certified_terms(term_log=lambda k: -1.0 * k,
                           ratio_bound=lambda k: calls.append(k) or (1.0 if k < 5000 else 0.25))
    assert len(logs) == 5001
    assert calls[0] == 36 and len(calls) <= 2 * math.ceil(math.log2(5000)) + 2


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
    return dict(term_log=lambda k: k * math.log(ratio), ratio_bound=lambda k: ratio)


def test_certified_terms_stops_on_tail_bound():
    logs = certified_terms(**_geometric(0.25))
    assert type(logs) is list and len(logs) == 27
    assert set(step_phases(0.0, 0, len(logs) - 1)) == {(1.0, 0.0)}
    # the last kept term is the first below (tol/4) * peak
    assert logs[-1] <= math.log(1e-15 / 4) < logs[-2]


def test_certified_terms_finite_sum_ends_at_stop():
    # ratio 2 never certifies: an infinite series raises, a finite one ends
    with pytest.raises(ConvergenceError):
        certified_terms(**_geometric(2.0))
    logs = certified_terms(**_geometric(2.0), start=3, stop=7)
    assert [round(lm / math.log(2.0)) for lm in logs] == [3, 4, 5, 6, 7]
    assert len(step_phases(0.0, 3, 7)) == 5
    assert certified_terms(**_geometric(2.0), start=1, stop=0) == []
    assert step_phases(0.0, 1, 0) == []


def test_certified_terms_starting_peak():
    alone = certified_terms(**_geometric(0.25))
    # a peak of e^10 summed elsewhere lets the series stop 10 nats earlier
    seeded = certified_terms(**_geometric(0.25), max_log=10.0)
    assert len(seeded) < len(alone)
    assert seeded[-1] <= 10.0 + math.log(1e-15 / 4) < seeded[-2]


def _phase_of_step(ph, k):
    """The rule, stated apart from the package: the k-th multiple of a quarter
    step from the table of quarter turns, of any other step wrap_phase(k * ph)."""
    quarter = {0.0: 0, math.pi / 2: 1, math.pi: 2, -math.pi / 2: 3}.get(ph)
    if quarter is not None:
        return (0.0, math.pi / 2, math.pi, -math.pi / 2)[(quarter * k) % 4]
    return wrap_phase(k * ph)


_AXIS_PAIRS = {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}


@pytest.mark.parametrize("ph", [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi,
                                math.nextafter(math.pi, 0.0),
                                math.nextafter(-math.pi, 0.0), 1.234,
                                math.pi / 3, 2 * math.pi / 3, math.pi / 6])
def test_step_phases_of_phase_steps(ph):
    # term k's pair is (cos, sin) of the rule's phase, looked up on the axes,
    # and with the step wrap_phase(-ph) that of the rule's phase at -k, bit
    # for bit, signs of zeros included: the pairs of the phases the series
    # loop gave its terms
    up = step_phases(ph, 0, 500)
    assert _pair_hexes(up) == _pair_hexes(oracles.cis(_phase_of_step(ph, k))
                                          for k in range(501))
    kw = dict(term_log=lambda k: 0.0, ratio_bound=lambda k: 1.0, stop=500)
    _, phases = oracles.certified_terms_phases(phase_step=ph, **kw)
    assert _pair_hexes(up) == _pair_hexes(map(oracles.cis, phases))
    down = step_phases(wrap_phase(-ph), 1, 500)
    assert _pair_hexes(down) == _pair_hexes(oracles.cis(_phase_of_step(ph, -k))
                                            for k in range(1, 501))
    _, phases = oracles.certified_terms_phases(phase_step=wrap_phase(-ph), start=1, **kw)
    assert _pair_hexes(down) == _pair_hexes(map(oracles.cis, phases))
    if ph in (0.0, math.pi / 2, -math.pi / 2, math.pi):
        assert set(up) <= _AXIS_PAIRS and set(down) <= _AXIS_PAIRS
    # a run of terms starting anywhere, negative k included
    assert _pair_hexes(step_phases(ph, 7, 40)) == _pair_hexes(up[7:41])
    assert _pair_hexes(step_phases(ph, -500, -1)) == _pair_hexes(down[::-1])
    assert step_phases(ph, 1, 0) == []


def test_certified_terms_tail_majorant():
    # terms vanish at k >= 1, but the majorant 0.25^k must still clear tol:
    # the vanishing terms stay in place, up to the first k where it does
    logs = certified_terms(term_log=lambda k: 0.0 if k == 0 else -math.inf,
                           ratio_bound=lambda k: 0.25, tail_log=lambda k: k * math.log(0.25))
    assert logs == [0.0] + [-math.inf] * 26
    # without it the first vanishing term stops the series; ratio_bound is
    # consulted only where the tail test passed, at k = 1, not at k = 0
    steps = []
    logs = certified_terms(term_log=lambda k: 0.0 if k == 0 else -math.inf,
                           ratio_bound=lambda k: steps.append(k) or 0.25)
    assert logs == [0.0, -math.inf]
    assert steps == [1]

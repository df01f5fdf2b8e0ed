"""Tests for the clock ensemble filter and Allan deviation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from adev import allan_deviation, analytic_adev
from timeguard.ensemble import (
    PSD_RTOL,
    ClockKfState,
    FilterDomainError,
    MeasurementError,
    OscillatorSpec,
    _check_psd,
    kf_predict,
    kf_update,
    min_eigenvalue,
    process_noise,
)

OSC = OscillatorSpec()  # q_b = 1e-21, q_d = 1e-24


def make_state(b=0.0, d=0.0, p=(1e-12, 1e-18)):
    return ClockKfState(b, d, p[0], 0.0, p[1])


def vec(s):
    """The state's [bias, drift]."""
    return np.array([s.bias, s.drift])


def cov(s):
    """The state's 2x2 covariance."""
    return np.array([[s.p00, s.p01], [s.p01, s.p11]])


def process_noise_matrix(q_b, q_d, tau):
    q00, q01, q11 = process_noise(q_b, q_d, tau)
    return np.array([[q00, q01], [q01, q11]])


# -- matrix oracle: the textbook filter in numpy 2x2 algebra ------------------

H = np.array([[1.0, 0.0]])


def oracle_predict(x, P, q_b, q_d, tau):
    F = np.array([[1.0, tau], [0.0, 1.0]])
    P = F @ P @ F.T + process_noise_matrix(q_b, q_d, tau)
    return F @ x, 0.5 * (P + P.T)


def oracle_update(x, P, z, r, gate_k):
    """(x, P, accepted): gated update with the Joseph-form covariance."""
    R = np.array([[r]])
    innovation = np.array([z]) - H @ x
    S = H @ P @ H.T + R
    if not abs(innovation[0]) <= gate_k * math.sqrt(max(S[0, 0], 0.0)):
        return x, P, False
    K = np.linalg.solve(S.T, (P @ H.T).T).T
    A = np.eye(2) - K @ H
    P = A @ P @ A.T + K @ R @ K.T
    return x + K @ innovation, 0.5 * (P + P.T), True


# -- predict ----------------------------------------------------------------


def test_predict_zero_tau_identity():
    s = make_state(1e-9, 2e-12)
    assert kf_predict(s, OSC, 0.0) is s


def test_predict_integrates_drift():
    s = make_state(0.0, 1e-9)
    s2 = kf_predict(s, OSC, 10.0)
    assert s2.bias == pytest.approx(1e-8, rel=1e-15)
    assert s2.drift == 1e-9


def test_predict_rejects_negative_tau():
    with pytest.raises(FilterDomainError):
        kf_predict(make_state(), OSC, -1.0)


def test_process_noise_matches_quadrature():
    # oracle: Q(tau) = integral of exp(A s) W exp(A s)^T over [0, tau]
    q_b, q_d, tau = 3e-21, 7e-24, 17.0

    def integrand(s, i, j):
        phi = np.array([[1.0, s], [0.0, 1.0]])
        W = np.diag([q_b, q_d])
        return (phi @ W @ phi.T)[i, j]

    Q = process_noise_matrix(q_b, q_d, tau)
    for i in range(2):
        for j in range(2):
            val, _ = integrate.quad(integrand, 0, tau, args=(i, j), epsrel=1e-13)
            assert Q[i, j] == pytest.approx(val, rel=1e-12)


# -- update -----------------------------------------------------------------


def test_update_at_prediction_accepts():
    s = make_state(5e-9, 0.0)
    res = kf_update(s, OSC, 5e-9, 1e-16)
    assert res.accepted
    assert res.innovation == 0.0
    assert res.state.p00 < s.p00


def test_update_outside_gate_rejects():
    s = make_state(0.0, 0.0)
    S = s.p00 + 1e-16
    res = kf_update(s, OSC, 10.0 * math.sqrt(S), 1e-16, gate_k=3.0)
    assert not res.accepted
    assert res.state is s


def test_update_rejects_nonfinite():
    with pytest.raises(MeasurementError):
        kf_update(make_state(), OSC, float("nan"), 1e-16)
    with pytest.raises(MeasurementError):
        kf_update(make_state(), OSC, 0.0, float("inf"))


def test_update_with_no_variance_at_all_is_refused():
    # p00 = 0 and r = 0 leave the gain undefined; the gate lets only z == bias through
    s = ClockKfState(1e-9, 0.0, 0.0, 0.0, 1e-18)
    assert not kf_update(s, OSC, 2e-9, 0.0).accepted
    with pytest.raises(FilterDomainError):
        kf_update(s, OSC, 1e-9, 0.0)


def test_update_takes_one_bias_only():
    # the filter observes the bias; a (bias, drift) pair is refused, not guessed at
    with pytest.raises(MeasurementError):
        kf_update(make_state(), OSC, np.array([1e-9, 1e-10]), 1e-16)
    with pytest.raises(MeasurementError):
        kf_update(make_state(), OSC, 1e-9, np.array([1e-16, 1e-18]))


def _bits(update):
    s = update.state
    return (update.accepted, update.innovation.hex(), update.S.hex(),
            *(v.hex() for v in (s.bias, s.drift, s.p00, s.p01, s.p11)))


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=0.0, max_value=1e6),
)
@settings(max_examples=200)
def test_update_int_float_and_float64_agree_bit_for_bit(z_int, r_int, z, r):
    s = make_state(b=0.5, p=(1e6, 1e-6))
    as_int = _bits(kf_update(s, OSC, z_int, r_int, gate_k=1e6))
    assert _bits(kf_update(s, OSC, float(z_int), float(r_int), gate_k=1e6)) == as_int
    assert _bits(kf_update(s, OSC, np.float64(z_int), np.float64(r_int), gate_k=1e6)) == as_int
    as_float = _bits(kf_update(s, OSC, z, r, gate_k=1e6))
    assert _bits(kf_update(s, OSC, np.float64(z), np.float64(r), gate_k=1e6)) == as_float
    state = kf_update(s, OSC, np.float64(z), np.float64(r), gate_k=1e6).state
    assert all(type(v) is float for v in (state.bias, state.drift, state.p00, state.p01, state.p11))


@given(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100)
def test_update_refuses_all_but_one_finite_number(z, r):
    s = make_state()
    bad = [
        (np.array([z]), r), (z, np.array([r])),
        (np.array([z, z]), r), (z, np.array([r, r])),
        (math.nan, r), (math.inf, r), (-math.inf, r), (np.float64(math.nan), r),
        (z, math.nan), (z, math.inf), (z, -math.inf), (z, -r - 1e-300),
        (10**400, r), (z, 10**400),
    ]
    for bad_z, bad_r in bad:
        with pytest.raises(MeasurementError):
            kf_update(s, OSC, bad_z, bad_r)
    for bad_k in (math.nan, math.inf, -1.0, 10**400):
        with pytest.raises(MeasurementError):
            kf_update(s, OSC, z, r, gate_k=bad_k)
    kf_update(s, OSC, z, r)


def test_reference_filter_agreement():
    # oracle: independently coded scalar-algebra filter (standard update form)
    q_b, q_d, r = 1e-21, 1e-23, (10e-9) ** 2
    rng = np.random.default_rng(42)
    zs = 1e-9 * rng.standard_normal(100)

    osc = OscillatorSpec(q_b, q_d)
    s = ClockKfState(0.0, 0.0, 1e-12, 0.0, 1e-18)
    for z in zs:
        s = kf_predict(s, osc, 1.0)
        s = kf_update(s, osc, z, r, gate_k=1e6).state

    b, d = 0.0, 0.0
    p00, p01, p11 = 1e-12, 0.0, 1e-18
    tau = 1.0
    for z in zs:
        b = b + d * tau
        p00n = p00 + 2 * tau * p01 + tau * tau * p11 + q_b * tau + q_d * tau**3 / 3
        p01n = p01 + tau * p11 + q_d * tau * tau / 2
        p11n = p11 + q_d * tau
        p00, p01, p11 = p00n, p01n, p11n
        sv = p00 + r
        k0, k1 = p00 / sv, p01 / sv
        innov = z - b
        b, d = b + k0 * innov, d + k1 * innov
        # standard form: P' = (I - K H) P
        p00, p01, p11 = (1 - k0) * p00, (1 - k0) * p01, p11 - k1 * p01
    assert s.bias == pytest.approx(b, rel=1e-12)
    assert s.drift == pytest.approx(d, rel=1e-12)
    assert s.p00 == pytest.approx(p00, rel=1e-12)
    assert s.p01 == pytest.approx(p01, rel=1e-12)


def test_nees_within_chi_square_band():
    # self-consistency against self-generated truth with matched Q and R
    q_b, q_d, r, tau, n = 1e-21, 1e-24, (10e-9) ** 2, 1.0, 1000
    rng = np.random.default_rng(7)
    P0 = np.diag([1e-16, 1e-22])
    x_true = np.linalg.cholesky(P0) @ rng.standard_normal(2)
    osc = OscillatorSpec(q_b, q_d)
    s = ClockKfState(0.0, 0.0, 1e-16, 0.0, 1e-22)
    F = np.array([[1.0, tau], [0.0, 1.0]])
    Lq = np.linalg.cholesky(process_noise_matrix(q_b, q_d, tau))
    nees = []
    for _ in range(n):
        x_true = F @ x_true + Lq @ rng.standard_normal(2)
        s = kf_predict(s, osc, tau)
        z = x_true[0] + math.sqrt(r) * rng.standard_normal()
        s = kf_update(s, osc, z, r, gate_k=1e6).state
        e = x_true - vec(s)
        nees.append(float(e @ np.linalg.solve(cov(s), e)))
    mean_nees = float(np.mean(nees))
    lo = stats.chi2.ppf(0.025, 2 * n) / n
    hi = stats.chi2.ppf(0.975, 2 * n) / n
    assert lo <= mean_nees <= hi, f"mean NEES {mean_nees} outside [{lo}, {hi}]"


# -- invariants -------------------------------------------------------------


# random (tau, z, r) step sequences
OPS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=-1e-6, max_value=1e-6),
        st.floats(min_value=1e-20, max_value=1e-12),
    ),
    min_size=1,
    max_size=20,
)


@given(OPS)
@settings(max_examples=100, deadline=None)
def test_psd_preserved_by_random_sequences(ops):
    osc = OscillatorSpec(q_b=1e-21, q_d=1e-23)
    s = make_state(p=(1e-12, 1e-16))
    for tau, z, r in ops:
        s = kf_predict(s, osc, tau)
        s = kf_update(s, osc, z, r).state
    P = cov(s)
    assert abs(P[0, 1] - P[1, 0]) <= 1e-12 * max(1.0, float(np.max(np.abs(P))))
    assert np.min(np.linalg.eigvalsh(P)) >= -1e-12 * max(1.0, float(np.max(np.abs(P))))


def close(a, b, scale):
    return abs(a - b) <= 1e-12 * scale


@given(OPS)
@settings(max_examples=200, deadline=None)
def test_closed_form_matches_matrix_oracle(ops):
    # every step of the closed form against the matrix form, from the same state.
    # Joseph's p01 cancels to p01 r / S, so both forms round at the scale of the
    # entries they combine: that scale, not the result's, bounds the agreement.
    q_b, q_d = 1e-21, 1e-23
    osc = OscillatorSpec(q_b, q_d)
    s = make_state(p=(1e-12, 1e-16))
    for tau, z, r in ops:
        x, P = oracle_predict(vec(s), cov(s), q_b, q_d, tau)
        s = kf_predict(s, osc, tau)
        assert s.bias == pytest.approx(x[0], rel=1e-12, abs=0.0)
        assert s.drift == x[1]
        np.testing.assert_allclose(cov(s), P, rtol=1e-12, atol=0.0)

        x_prior, p_prior = vec(s), cov(s)
        p_scale = float(np.max(np.abs(p_prior)))
        x, P, accepted = oracle_update(x_prior, p_prior, z, r, 3.0)
        update = kf_update(s, osc, z, r, gate_k=3.0)
        s = update.state
        assert update.accepted == accepted
        assert update.innovation == z - x_prior[0]
        assert update.S == p_prior[0, 0] + r
        step = np.abs(x - x_prior)
        assert close(s.bias, x[0], abs(x_prior[0]) + step[0])
        assert close(s.drift, x[1], abs(x_prior[1]) + step[1])
        for i in range(2):
            for j in range(2):
                assert close(cov(s)[i, j], P[i, j], p_scale)


@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=-30, max_value=6),
)
@settings(max_examples=300)
def test_min_eigenvalue_matches_eigvalsh(a, b, c, exponent):
    scale = 10.0**exponent
    p00, p01, p11 = a * scale, b * scale, c * scale
    expected = np.linalg.eigvalsh(np.array([[p00, p01], [p01, p11]]))[0]
    assert abs(min_eigenvalue(p00, p01, p11) - expected) <= 1e-15 * scale


def test_state_rejects_nonfinite_covariance():
    with pytest.raises(FilterDomainError):
        ClockKfState(0.0, 0.0, float("nan"), 0.0, 1.0)
    with pytest.raises(FilterDomainError):
        ClockKfState(0.0, 0.0, 1.0, 0.0, np.inf)


def nudged(x: float, ulps: int) -> float:
    """x moved by `ulps` representable floats, up for positive ulps."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


@st.composite
def near_psd_tolerance(draw, top: float) -> tuple:
    """[[a, b], [b, c]] with its smallest eigenvalue at or a few ulps from
    _check_psd's tolerance, -PSD_RTOL * max(1, |a|, |b|, |c|)."""
    a = draw(st.floats(min_value=0.0, max_value=top))
    c = draw(st.floats(min_value=0.0, max_value=top))
    if draw(st.booleans()):
        # diagonal: the eigenvalue is an entry, so the tolerance is hit exactly
        lam = nudged(-PSD_RTOL * max(1.0, c), draw(st.integers(-4, 4)))
        return (lam, 0.0, c) if draw(st.booleans()) else (c, 0.0, lam)
    lam = -PSD_RTOL * max(1.0, a, c)
    # lam is an eigenvalue of the matrix when b^2 = (a - lam)(c - lam)
    b = nudged(math.sqrt((a - lam) * (c - lam)), draw(st.integers(-4, 4)))
    return a, draw(st.sampled_from([b, -b])), c


SPECIAL_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
                   math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0), PSD_RTOL, -PSD_RTOL,
                   nudged(-PSD_RTOL, 1), nudged(-PSD_RTOL, -1), 1e300, math.nan, math.inf,
                   -math.inf]
COVARIANCE_ENTRY = st.one_of(st.floats(), st.sampled_from(SPECIAL_ENTRIES),
                             st.floats(min_value=-2.0, max_value=2.0))


@given(st.one_of(st.tuples(COVARIANCE_ENTRY, COVARIANCE_ENTRY, COVARIANCE_ENTRY),
                 near_psd_tolerance(0.99), near_psd_tolerance(1e6)))
@settings(max_examples=1000)
def test_state_check_rejects_what_check_psd_rejects(p):
    # the constructor accepts the common case inline and defers the rest
    def rejected(check) -> bool:
        try:
            check(*p)
        except FilterDomainError:
            return True
        return False

    assert rejected(lambda *p: ClockKfState(0.0, 0.0, *p)) == rejected(_check_psd)


@given(
    st.floats(min_value=-1e-6, max_value=1e-6),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=100)
def test_gate_monotone_in_k(z, k_small, extra):
    s = make_state(p=(1e-14, 1e-18))
    small = kf_update(s, OSC, z, 1e-16, gate_k=k_small)
    large = kf_update(s, OSC, z, 1e-16, gate_k=k_small + extra)
    if small.accepted:
        assert large.accepted


# -- the fused predict-and-update step ----------------------------------------


def outcome(step) -> tuple:
    """step()'s KfUpdate with every float as its exact bits, or the exception
    it raised, as type and message."""
    try:
        u = step()
    except (FilterDomainError, MeasurementError) as e:
        return type(e), str(e)
    s = u.state
    return (tuple(float.hex(v) for v in s),
            u.accepted, float.hex(u.innovation), float.hex(u.S))


@st.composite
def psd_states(draw) -> ClockKfState:
    """A state with a PSD covariance at the filter's scales and a correlation
    anywhere in [-1, 1]."""
    p00 = draw(st.floats(0.0, 1.0)) * 10.0 ** draw(st.integers(-24, -6))
    p11 = draw(st.floats(0.0, 1.0)) * 10.0 ** draw(st.integers(-30, -12))
    p01 = draw(st.floats(-1.0, 1.0)) * math.sqrt(p00 * p11)
    return ClockKfState(draw(st.floats(-1e-3, 1e-3)), draw(st.floats(-1e-6, 1e-6)),
                        p00, p01, p11)


# process noise from none to white-FM heavy
OSCILLATORS = st.builds(OscillatorSpec, st.sampled_from([0.0, 1e-21, 1e-18]),
                        st.sampled_from([0.0, 1e-24, 1e-21]))


@given(
    psd_states(),
    OSCILLATORS,
    st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    st.one_of(st.just(0.0), st.floats(-1e-5, 1e-5)),
    st.one_of(st.just(0.0), st.floats(0.0, 1e-10)),
    st.sampled_from([0.0, 1.0, 3.0, 1e6]),
)
@settings(max_examples=1000)
def test_fused_update_equals_predict_then_update_bit_for_bit(s, osc, tau, dz, r, gate_k):
    # dz is the measurement's distance from the predicted bias, so the gate
    # both accepts and rejects; r == 0 with a zero p00 reaches the S == 0 refusal
    z = s.bias + tau * s.drift + dz
    assert outcome(lambda: kf_update(s, osc, z, r, gate_k, tau)) == outcome(
        lambda: kf_update(kf_predict(s, osc, tau), osc, z, r, gate_k))


@pytest.mark.parametrize("tau", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
def test_fused_update_refuses_tau_as_predict_does(tau):
    s = make_state()
    with pytest.raises(FilterDomainError) as predicted:
        kf_predict(s, OSC, tau)
    with pytest.raises(FilterDomainError) as fused:
        kf_update(s, OSC, 0.0, 1e-16, 3.0, tau)
    assert str(fused.value) == str(predicted.value)


def test_fused_update_refuses_a_prediction_that_is_not_psd():
    # p11 = -1e-12 sits on the state's tolerance, but ten seconds ahead
    # p00 = -1e-10 lies far outside it.  An exact measurement with no
    # readout noise passes the gate, and its update would land back on a
    # PSD covariance, so only the check of the prediction refuses this.
    s, quiet = ClockKfState(0.0, 0.0, 0.0, 0.0, -1e-12), OscillatorSpec(0.0, 0.0)
    with pytest.raises(FilterDomainError) as predicted:
        kf_predict(s, quiet, 10.0)
    with pytest.raises(FilterDomainError) as fused:
        kf_update(s, quiet, 0.0, 0.0, 3.0, 10.0)
    assert str(fused.value) == str(predicted.value)


def test_variance_approaches_r_over_n():
    s, quiet = ClockKfState(0.0, 0.0, 1e6, 0.0, 1e-6), OscillatorSpec(q_b=0.0, q_d=0.0)
    r, n = 1.0, 200
    last = s.p00
    for _ in range(n):
        s = kf_update(s, quiet, 0.0, r, gate_k=1e6).state
        assert s.p00 <= last * (1 + 1e-12)
        last = s.p00
    assert s.p00 == pytest.approx(r / n, rel=1e-5)


# -- Allan deviation --------------------------------------------------------


def test_adev_constant_series_zero():
    assert np.all(allan_deviation([5.0] * 100, 1.0, [1.0, 2.0]) == 0.0)


def test_adev_white_fm_slope():
    rng = np.random.default_rng(11)
    q_b, tau0, n = 1e-21, 1.0, 20000
    x = np.cumsum(math.sqrt(q_b * tau0) * rng.standard_normal(n))
    taus = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    adev = allan_deviation(x, tau0, taus)
    slope = np.polyfit(np.log(taus), np.log(adev), 1)[0]
    assert abs(slope - (-0.5)) <= 0.05
    assert np.allclose(adev, analytic_adev(q_b, 0.0, taus), rtol=0.15)


def test_adev_random_walk_fm_slope():
    rng = np.random.default_rng(12)
    q_d, tau0, n = 1e-24, 1.0, 20000
    d = np.cumsum(math.sqrt(q_d * tau0) * rng.standard_normal(n))
    x = np.cumsum(d) * tau0
    taus = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    adev = allan_deviation(x, tau0, taus)
    slope = np.polyfit(np.log(taus), np.log(adev), 1)[0]
    assert abs(slope - 0.5) <= 0.05


def test_adev_insufficient_data_rejected():
    with pytest.raises(ValueError):
        allan_deviation([0.0, 1.0, 2.0], 1.0, [2.0])


def test_adev_non_multiple_tau_rejected():
    with pytest.raises(ValueError):
        allan_deviation([0.0] * 100, 1.0, [1.5])


# -- construction guards ----------------------------------------------------


def test_state_rejects_negative_eigenvalue():
    with pytest.raises(FilterDomainError):
        ClockKfState(0.0, 0.0, 1.0, 2.0, 1.0)


def test_spec_rejects_negative_noise():
    with pytest.raises(FilterDomainError):
        OscillatorSpec(q_b=-1e-21)

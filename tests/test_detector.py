"""Tests for the radius, threshold, and log-likelihood detectors."""

import json
import math
import statistics
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeguard.detector import (
    ConfigError,
    DetectorConfig,
    Hypothesis,
    LlConfig,
    LlDetectorState,
    Verdict,
    calibrate_ll,
    calibrate_ll_threshold,
    density_terms,
    ll_advance,
    ll_step,
    nts_test,
    roughtime_test,
    verdict_to_json,
    window_log_stat,
)
from timeguard.provider_nts import NtsMeasurement
from timeguard.provider_roughtime import RoughtimeMeasurement
from timeguard.timebase import MonotonicInstant, SignedDuration, Timestamp, ts_add

T_GNSS = Timestamp.from_unix_s(1_689_120_000)
MONO0 = MonotonicInstant(0)
DEFAULTS = DetectorConfig()


def rt_meas(midpoint, radius_s, t_mono=MONO0):
    return RoughtimeMeasurement(midpoint, SignedDuration.from_s(radius_s), "rt", t_mono)


def nts_meas(offset_s, t_mono=MONO0):
    return NtsMeasurement(
        SignedDuration.from_s(offset_s), SignedDuration.from_s(0.01), t_mono, "nts"
    )


# -- Roughtime radius test --------------------------------------------------


def test_rt_within_radius():
    v = roughtime_test(ts_add(T_GNSS, SignedDuration.from_s(0.5)), rt_meas(T_GNSS, 1.0), DEFAULTS)
    assert v.hypothesis is Hypothesis.H0
    assert v.statistic == pytest.approx(0.5)
    assert v.threshold == pytest.approx(1.0)
    assert v.test == "rt"


def test_rt_large_offset_flagged():
    v = roughtime_test(ts_add(T_GNSS, SignedDuration.from_s(4.0)), rt_meas(T_GNSS, 1.0), DEFAULTS)
    assert v.hypothesis is Hypothesis.H1
    assert v.statistic == pytest.approx(4.0)


def test_rt_boundary_is_h1():
    radius = SignedDuration.from_s(1.0)
    t = ts_add(T_GNSS, SignedDuration(radius.units))
    meas = RoughtimeMeasurement(T_GNSS, radius, "rt", MONO0)
    assert roughtime_test(t, meas, DEFAULTS).hypothesis is Hypothesis.H1


def test_rt_declared_radius_capped():
    # declared 30 s, default cap 10 s: a 20 s offset must alarm
    v = roughtime_test(ts_add(T_GNSS, SignedDuration.from_s(20.0)), rt_meas(T_GNSS, 30.0), DEFAULTS)
    assert v.hypothesis is Hypothesis.H1
    assert v.threshold == pytest.approx(10.0)


def test_rt_small_declared_radius_used():
    v = roughtime_test(ts_add(T_GNSS, SignedDuration.from_s(0.7)), rt_meas(T_GNSS, 0.5), DEFAULTS)
    assert v.hypothesis is Hypothesis.H1
    assert v.threshold == pytest.approx(0.5)


@given(
    st.integers(min_value=0, max_value=1 << 66),
    st.integers(min_value=0, max_value=1 << 66),
)
@settings(max_examples=200)
def test_rt_monotone_in_offset(units_a, units_b):
    small, large = sorted([units_a, units_b])
    meas = rt_meas(T_GNSS, 1.5)
    v_small = roughtime_test(ts_add(T_GNSS, SignedDuration(small)), meas, DEFAULTS)
    v_large = roughtime_test(ts_add(T_GNSS, SignedDuration(large)), meas, DEFAULTS)
    if v_small.hypothesis is Hypothesis.H1:
        assert v_large.hypothesis is Hypothesis.H1


def test_rt_pure():
    meas = rt_meas(T_GNSS, 1.0)
    assert roughtime_test(T_GNSS, meas, DEFAULTS) == roughtime_test(T_GNSS, meas, DEFAULTS)


# -- NTS threshold test -----------------------------------------------------

# lambda_T at 3 sigma of a 50 us server
NTS_150US = DetectorConfig(nts_lambda=SignedDuration.from_s(3.0 * 50e-6))


def test_nts_zero_offset():
    v = nts_test(nts_meas(0.0), NTS_150US)
    assert v.hypothesis is Hypothesis.H0
    assert v.statistic == 0.0


def test_nts_offset_below_lambda():
    v = nts_test(nts_meas(100e-6), NTS_150US)
    assert v.hypothesis is Hypothesis.H0
    assert v.statistic == pytest.approx(100e-6)
    assert v.threshold == pytest.approx(150e-6)


def test_nts_accumulated_offset_flagged():
    # 100 increments of 2 us each
    v = nts_test(nts_meas(200e-6), NTS_150US)
    assert v.hypothesis is Hypothesis.H1


def test_nts_statistic_is_abs_offset():
    v = nts_test(nts_meas(-200e-6), NTS_150US)
    assert v.statistic == pytest.approx(200e-6)
    assert v.hypothesis is Hypothesis.H1


def test_nts_boundary_is_h1():
    offset = SignedDuration.from_s(1e-4)
    meas = NtsMeasurement(offset, SignedDuration(0), MONO0, "nts")
    v = nts_test(meas, DetectorConfig(nts_lambda=SignedDuration(offset.units)))
    assert v.hypothesis is Hypothesis.H1


def test_nts_uncalibrated_lambda():
    with pytest.raises(ConfigError):
        DetectorConfig(nts_lambda=None)
    with pytest.raises(ConfigError):
        DetectorConfig(nts_lambda=SignedDuration(-5))


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=0, max_value=10**12))
@settings(max_examples=200)
def test_nts_monotone_in_offset(ns_a, ns_b):
    small, large = sorted([ns_a, ns_b])
    v_small = nts_test(nts_meas(small * 1e-9), NTS_150US)
    v_large = nts_test(nts_meas(large * 1e-9), NTS_150US)
    if v_small.hypothesis is Hypothesis.H1:
        assert v_large.hypothesis is Hypothesis.H1


# -- window density ---------------------------------------------------------

LOG_INV_SQRT_2PI = -0.5 * math.log(2.0 * math.pi)
# ln of the largest finite float and of the smallest positive one: exp()
# of a log density outside this range overflows to inf or underflows to 0
LOG_MAX = math.log(sys.float_info.max)
LOG_MIN = math.log(math.ulp(0.0))


def oracle_log_p(window, mu0, s2):
    mean = statistics.fmean(window)
    return -0.5 * math.log(2.0 * math.pi * s2) - (mean - mu0) ** 2 / (2.0 * s2)


def test_window_stat_gaussian_zero_exponent():
    # mean 0 at mu0 0: ln p is the density's constant
    log_p = window_log_stat([-1.0, 0.0, 1.0], 0.0, *density_terms(1.0))
    assert log_p == pytest.approx(LOG_INV_SQRT_2PI, rel=1e-12)


def test_window_stat_matches_scalar_oracle():
    rng = np.random.default_rng(21)
    benign = rng.normal(0.0, 10e-9, 30).tolist()
    shifted = [x + 2e-6 for x in benign]
    for window in (benign, shifted):
        for mu0, s2 in ((0.0, 1e-16), (3e-9, 1e-18), (-1e-8, 4e-16)):
            got = window_log_stat(window, mu0, *density_terms(s2))
            assert got == pytest.approx(oracle_log_p(window, mu0, s2), rel=1e-9)


def test_window_shift_ratio_matches_oracle():
    rng = np.random.default_rng(22)
    benign = rng.normal(0.0, 10e-9, 30).tolist()
    shifted = [x + 2e-6 for x in benign]
    terms = density_terms(1e-16)
    got_ratio = window_log_stat(benign, 0.0, *terms) - window_log_stat(shifted, 0.0, *terms)
    want_ratio = oracle_log_p(benign, 0.0, 1e-16) - oracle_log_p(shifted, 0.0, 1e-16)
    assert got_ratio == pytest.approx(want_ratio, rel=1e-9)
    # the density itself would underflow under attack; its log stays finite
    assert LOG_MIN < window_log_stat(benign, 0.0, *terms) < LOG_MAX
    assert window_log_stat(shifted, 0.0, *terms) < LOG_MIN
    assert math.isfinite(window_log_stat(shifted, 0.0, *terms))


@given(
    st.lists(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=2, max_size=40
    ),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
@settings(max_examples=200)
def test_window_gaussian_shift_invariant(window, shift, mu0):
    base = window_log_stat(window, mu0, *density_terms(1e-6))
    moved = window_log_stat([x + shift for x in window], mu0 + shift, *density_terms(1e-6))
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-6)


def test_window_warmup_signals():
    state = LlDetectorState(params=LlConfig(m=5, sigma0_sq=1.0))
    assert [ll_advance(state, x) for x in (1.0, 2.0, 3.0, 4.0)] == [None] * 4


def test_window_variance_floor():
    # a noiseless fit's variance is floored to (1 ns)^2; alpha 0 makes Z = ln p
    state = LlDetectorState(params=LlConfig(alpha=0.0, m=10, mu0=5e-9, sigma0_sq=1e-21))
    z = [ll_advance(state, 5e-9) for _ in range(10)][-1]
    assert z == pytest.approx(LOG_INV_SQRT_2PI - math.log(1e-9), rel=1e-12)


# -- smoothing and threshold ------------------------------------------------


def advance_once(z_prev, window, alpha):
    """Z after the ll_advance whose sample completes window, from Z = z_prev."""
    state = LlDetectorState(params=LlConfig(alpha=alpha, m=len(window), sigma0_sq=1.0))
    state.window.extend(window[:-1])
    state.z = z_prev
    return ll_advance(state, window[-1])


WINDOW = [-1.0, 0.0, 1.0]


def test_smooth_alpha_one_keeps_z():
    assert advance_once(-3.7, WINDOW, 1.0) == -3.7


def test_smooth_alpha_zero_is_ln_p():
    assert advance_once(123.0, WINDOW, 0.0) == window_log_stat(WINDOW, 0.0, *density_terms(1.0))


def test_smooth_example():
    want = 0.9 * -1.0 + 0.1 * LOG_INV_SQRT_2PI
    assert advance_once(-1.0, WINDOW, 0.9) == pytest.approx(want, rel=1e-12)


@given(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=200)
def test_smooth_contraction(z0, sample, alpha, n):
    # a constant sample keeps ln p constant, so Z contracts onto it
    state = LlDetectorState(params=LlConfig(alpha=alpha, m=2, sigma0_sq=1.0))
    state.window.append(sample)
    state.z = z0
    for _ in range(n):
        z = ll_advance(state, sample)
    log_p = window_log_stat([sample, sample], 0.0, *density_terms(1.0))
    bound = alpha**n * abs(z0 - log_p) + 1e-8 * (1.0 + abs(z0) + abs(log_p))
    assert abs(z - log_p) <= bound


def test_ll_step_thresholds_the_negated_statistic():
    # alpha = 1 holds Z where it is set: the verdict is -Z against lambda_T
    def verdict(z):
        state = LlDetectorState(LlConfig(alpha=1.0, m=2, lambda_T=3.0, sigma0_sq=1.0))
        state.window.append(0.0)
        state.z = z
        return ll_step(state, 0.0, MONO0)

    v = verdict(-5.0)
    assert v == Verdict("ll", Hypothesis.H1, 5.0, 3.0, "ensemble", MONO0)
    assert verdict(-1.0).hypothesis is Hypothesis.H0
    assert verdict(-3.0).hypothesis is Hypothesis.H1  # -Z >= lambda_T, inclusive


@given(
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=3, max_size=10
    ),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=150)
def test_smooth_consistent_with_log_domain(window, z_prev, alpha):
    via_state = advance_once(z_prev, window, alpha)
    via_log = alpha * z_prev + (1.0 - alpha) * window_log_stat(window, 0.0, *density_terms(1.0))
    assert via_state == pytest.approx(via_log, rel=1e-9, abs=1e-12)


# -- detector state driver --------------------------------------------------


def test_ll_step_warmup_then_verdicts():
    state = LlDetectorState(params=LlConfig(m=5, lambda_T=100.0, sigma0_sq=1e-16))
    outs = [ll_step(state, 1e-9, MonotonicInstant(i)) for i in range(6)]
    assert outs[:4] == [None] * 4
    assert isinstance(outs[4], Verdict)
    assert outs[4].test == "ll"
    assert state.z is not None


def test_ll_step_requires_threshold():
    state = LlDetectorState(params=LlConfig(m=2, sigma0_sq=1.0))
    ll_advance(state, 0.0)
    with pytest.raises(ConfigError):
        ll_step(state, 1e-9, MONO0)


def test_ll_state_requires_a_fitted_variance():
    # without sigma0_sq there is no density: refused here, not at the m-th sample
    with pytest.raises(ConfigError, match="sigma0_sq"):
        LlDetectorState(LlConfig(m=2))


def test_ll_window_bounded():
    state = LlDetectorState(params=LlConfig(m=3, lambda_T=100.0, sigma0_sq=1e-16))
    for i in range(10):
        ll_step(state, float(i), MonotonicInstant(i))
    assert len(state.window) == 3


def test_calibrate_threshold_quantile():
    zs = [-float(i) for i in range(1, 2001)]  # statistics -Z are 1..2000
    lam = calibrate_ll_threshold(zs, far=1e-3)
    assert lam == 1999.0  # smallest statistic with at most 0.1% above it
    with pytest.raises(ConfigError):
        calibrate_ll_threshold(zs[:500], far=1e-3)
    with pytest.raises(ConfigError):
        calibrate_ll_threshold(zs, far=1.5)


def test_calibrated_benign_false_alarm_rate():
    rng = np.random.default_rng(31)
    params = calibrate_ll(LlConfig(), rng.normal(0.0, 10e-9, 6000), far=1e-3)
    assert params.lambda_T is not None
    assert params.sigma0_sq == pytest.approx(1e-16, rel=0.2)
    state = LlDetectorState(params=params)
    verdicts = [
        v
        for i, b in enumerate(rng.normal(0.0, 10e-9, 6000))
        if (v := ll_step(state, b, MonotonicInstant(i))) is not None
    ]
    far = sum(v.hypothesis is Hypothesis.H1 for v in verdicts) / len(verdicts)
    assert far <= 0.01


def test_smooth_pull_detected_before_completion():
    rng = np.random.default_rng(3)
    params = calibrate_ll(LlConfig(), rng.normal(0.0, 10e-9, 3000), far=1e-3)
    onset, complete = 200, 800
    biases = rng.normal(0.0, 10e-9, 1200)
    for i in range(len(biases)):
        if i >= complete:
            biases[i] += 2e-6
        elif i >= onset:
            biases[i] += 2e-6 * (i - onset) / (complete - onset)
    state = LlDetectorState(params=params)
    first_h1 = None
    for i, b in enumerate(biases):
        v = ll_step(state, b, MonotonicInstant(i))
        if v is not None and v.hypothesis is Hypothesis.H1:
            first_h1 = i
            break
    assert first_h1 is not None
    assert onset < first_h1 < complete


def test_ll_config_validation():
    with pytest.raises(ConfigError):
        LlConfig(alpha=1.5)
    with pytest.raises(ConfigError):
        LlConfig(m=1)
    with pytest.raises(ConfigError):
        LlConfig(sigma0_sq=0.0)
    with pytest.raises(ConfigError):
        LlConfig(lambda_T=1.0)  # a threshold fitted under no variance
    with pytest.raises(ConfigError):
        DetectorConfig(rt_radius_max=SignedDuration(0))
    with pytest.raises(ConfigError):
        DetectorConfig(nts_sigma_k=0.0)


# -- serialization ----------------------------------------------------------


def test_verdict_json_roundtrip():
    v = Verdict(
        test="nts",
        hypothesis=Hypothesis.H1,
        statistic=2.5e-4,
        threshold=1.5e-4,
        source_id="nts-1",
        t_mono=MonotonicInstant(123_456_789),
    )
    assert json.loads(verdict_to_json(v)) == {
        "t_mono_ns": 123_456_789, "test": "nts", "statistic": 2.5e-4, "threshold": 1.5e-4,
        "hypothesis": "H1", "source_id": "nts-1",
    }

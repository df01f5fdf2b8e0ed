"""Hypothesis tests that compare GNSS time against independent references.

Three tests, each emitting a Verdict (null hypothesis H0: the GNSS time
scale is genuine; H1: it is not):

  * Roughtime radius test: H0 iff |t_gnss - midpoint| < radius, strict.
  * NTS threshold test: H0 iff |offset| < lambda_T, strict, where offset
    is the server's time minus the clock that stamped the query.
  * Windowed smoothed log-likelihood test on oscillator-ensemble bias
    estimates: the Gaussian log density of the window mean at the
    fitted benign moments is smoothed into Z, and H1 iff -Z >= lambda_T,
    a calibrated threshold.

All tests are pure functions of their inputs; only LlDetectorState
carries mutable history and it is single-owner by construction.
"""

import math
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .receiver_feed import NtsMeasurement, json_string
from .timebase import MonotonicInstant, SignedDuration, Timestamp, ts_diff


class ConfigError(Exception):
    """Threshold missing or parameters out of range."""


class CalibrationError(Exception):
    """Not enough history to estimate the server noise."""


class Hypothesis(Enum):
    H0 = "H0"
    H1 = "H1"


DEFAULT_RT_RADIUS_MAX = SignedDuration.from_s(10)
DEFAULT_NTS_LAMBDA = SignedDuration.from_s(150e-6)  # 3 sigma at the 50 us server class
# (1 ns)^2, below the benign noise floor: a noiseless calibration run fits
# a variance near q_b * tau, about 1e-21, which would make ln p explode
SIGMA2_FLOOR = 1e-18


class _VerdictFields(NamedTuple):
    test: str  # "rt" | "nts" | "ll"
    hypothesis: Hypothesis
    statistic: float
    threshold: float
    source_id: str
    t_mono: MonotonicInstant


class Verdict(_VerdictFields):
    """Outcome of one hypothesis test at one epoch.

    An immutable tuple, since every tested epoch builds one; the
    constructor checks the test kind before it builds the tuple.
    """

    __slots__ = ()

    def __new__(cls, test: str, hypothesis: Hypothesis, statistic: float, threshold: float,
                source_id: str, t_mono: MonotonicInstant) -> "Verdict":
        if test not in ("rt", "nts", "ll"):
            raise ConfigError(f"unknown test kind {test!r}")
        return tuple.__new__(cls, (test, hypothesis, statistic, threshold, source_id, t_mono))


@dataclass(frozen=True)
class LlConfig:
    """Parameters of the windowed log-likelihood detector.

    The density is Gaussian at the benign reference moments mu0 and
    sigma0_sq, and the test alarms when -Z >= lambda_T.  calibrate_ll
    fits all three, so a pinned lambda_T needs the sigma0_sq it was
    fitted with; a blank lambda_T means "calibrate".
    """

    alpha: float = 0.9
    m: int = 30
    lambda_T: Optional[float] = None
    mu0: float = 0.0
    sigma0_sq: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"smoothing factor {self.alpha} outside [0, 1]")
        if self.m < 2:
            raise ConfigError(f"window length {self.m} below 2")
        if self.sigma0_sq is not None and not self.sigma0_sq > 0.0:
            raise ConfigError("reference variance must be positive when set")
        if self.lambda_T is not None and self.sigma0_sq is None:
            raise ConfigError("a pinned lambda_T needs the sigma0_sq it was fitted with")


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds for the two network tests plus log-likelihood params.

    The log-likelihood threshold lives on the statistic scale and may be
    negative; duration thresholds must be positive.
    """

    rt_radius_max: SignedDuration = DEFAULT_RT_RADIUS_MAX
    nts_lambda: SignedDuration = DEFAULT_NTS_LAMBDA
    nts_sigma_k: float = 3.0
    ll: LlConfig = field(default_factory=LlConfig)

    def __post_init__(self) -> None:
        if self.rt_radius_max.units <= 0:
            raise ConfigError("rt_radius_max must be positive")
        if not isinstance(self.nts_lambda, SignedDuration) or self.nts_lambda.units <= 0:
            raise ConfigError("nts_lambda must be a positive duration")
        if not self.nts_sigma_k > 0.0:
            raise ConfigError("nts_sigma_k must be positive")


def roughtime_test(t_gnss: Timestamp, meas, config: DetectorConfig) -> Verdict:
    """Coarse radius test: H0 iff |t_gnss - midpoint| < effective radius.

    The effective radius is the declared server radius capped at the
    configured maximum.  Comparison is strict and bit-exact in 2^-64 s
    units; equality at the boundary is H1.
    """
    diff = ts_diff(t_gnss, meas.midpoint)
    radius_units = min(meas.radius.units, config.rt_radius_max.units)
    hypothesis = Hypothesis.H0 if abs(diff.units) < radius_units else Hypothesis.H1
    return Verdict(
        test="rt",
        hypothesis=hypothesis,
        statistic=abs(diff.to_s()),
        threshold=SignedDuration(radius_units).to_s(),
        source_id=meas.server_id,
        t_mono=meas.t_mono_rx,
    )


def nts_test(meas, config: DetectorConfig) -> Verdict:
    """Fine threshold test: H0 iff |offset| < config.nts_lambda, strict.

    The offset is the server's time minus the clock that stamped the
    query's T1 and T4; GNSS time enters the test only through that clock.
    """
    lambda_T = config.nts_lambda
    hypothesis = Hypothesis.H0 if abs(meas.offset.units) < lambda_T.units else Hypothesis.H1
    return Verdict(
        test="nts",
        hypothesis=hypothesis,
        statistic=abs(meas.offset.to_s()),
        threshold=lambda_T.to_s(),
        source_id=meas.server_id,
        t_mono=meas.t_mono_rx,
    )


def estimate_server_sigma(history: Sequence[NtsMeasurement]) -> float:
    """Sample standard deviation of at least 30 observed offsets, in seconds."""
    import statistics  # only calibration runs this; live starts without it

    if len(history) < 30:
        raise CalibrationError(f"need >= 30 measurements, have {len(history)}")
    return statistics.stdev(m.offset.to_s() for m in history)


# -- windowed smoothed log-likelihood ---------------------------------------


def density_terms(s2: float) -> tuple[float, float]:
    """(-0.5 ln(2 pi s2), 2 s2): the terms of ln p that depend only on the variance."""
    return -0.5 * math.log(2.0 * math.pi * s2), 2.0 * s2


def window_log_stat(window: Sequence[float], mu0: float, log_norm: float, two_s2: float) -> float:
    """ln p, p = (2 pi s2)^(-1/2) exp(-(mean - mu0)^2 / (2 s2)) for the window mean,
    with (log_norm, two_s2) = density_terms(s2).

    The log domain keeps ln p finite where p would underflow to 0 under attack.
    """
    mean = sum(window) / len(window)
    return log_norm - (mean - mu0) ** 2 / two_s2


@dataclass
class LlDetectorState:
    """Single-owner history of the log-likelihood detector.

    Z is seeded at the stationary mean of ln p under the fitted null, so
    a fresh start carries no transient in either direction.  The density
    terms are fixed by the parameters, at sigma0_sq floored at
    SIGMA2_FLOOR, and are computed once; ConfigError for parameters
    without a fitted sigma0_sq, which have no density to advance.
    """

    params: LlConfig
    z: Optional[float] = field(init=False, default=None)
    window: deque = field(init=False)
    terms: tuple[float, float] = field(init=False)

    def __post_init__(self) -> None:
        if self.params.sigma0_sq is None:
            raise ConfigError("the ll window needs a fitted sigma0_sq")
        self.window = deque(maxlen=self.params.m)
        self.terms = density_terms(max(self.params.sigma0_sq, SIGMA2_FLOOR))


def ll_advance(state: LlDetectorState, bias_s: float) -> Optional[float]:
    """Push one bias estimate; returns updated Z, or None while warming.

    Z = alpha * Z_prev + (1 - alpha) * ln p, with ln p from window_log_stat
    at the fitted mu0 and the state's density terms.
    """
    window, p = state.window, state.params
    window.append(float(bias_s))
    if len(window) < p.m:
        return None
    log_norm, two_s2 = state.terms
    log_p = window_log_stat(window, p.mu0, log_norm, two_s2)
    z = state.z
    if z is None:
        # E[ln p] under the fitted null: log_norm - E[(mean-mu0)^2]/(2 s2)
        z = log_norm - 1.0 / (2.0 * p.m)
    state.z = z = p.alpha * z + (1.0 - p.alpha) * log_p
    return z


def ll_step(state: LlDetectorState, bias_s: float, t_mono: MonotonicInstant) -> Optional[Verdict]:
    """One detector epoch; None during warm-up, else its verdict: the
    statistic is -Z, H1 iff -Z >= lambda_T."""
    lambda_T = state.params.lambda_T
    if lambda_T is None:
        raise ConfigError("ll lambda_T not calibrated")
    z = ll_advance(state, bias_s)
    if z is None:
        return None
    return Verdict("ll", Hypothesis.H0 if -z < lambda_T else Hypothesis.H1, -z, lambda_T,
                   "ensemble", t_mono)


def calibrate_ll_threshold(z_values: Sequence[float], far: float = 1e-3) -> float:
    """Empirical (1 - far) quantile of the statistic -Z over a benign run."""
    import numpy as np

    if not 0.0 < far < 1.0:
        raise ConfigError(f"false-alarm rate {far} outside (0, 1)")
    if len(z_values) * far < 1.0:
        raise ConfigError(f"need at least {math.ceil(1 / far)} benign epochs")
    return float(np.quantile([-z for z in z_values], 1.0 - far, method="higher"))


def calibrate_ll(params: LlConfig, benign_biases: Sequence[float], far: float = 1e-3) -> LlConfig:
    """Fit mu0, sigma0^2, and lambda_T from a benign bias stream.

    Two passes: reference moments first, then the statistic quantile
    under those moments.
    """
    import numpy as np

    arr = np.asarray(benign_biases, dtype=np.float64)
    if arr.size < params.m:
        raise ConfigError(f"need at least m={params.m} benign samples")
    fitted = replace(params, mu0=float(arr.mean()), sigma0_sq=float(arr.var(ddof=1)))
    state = LlDetectorState(params=fitted)
    zs = [z for b in arr if (z := ll_advance(state, float(b))) is not None]
    lam = calibrate_ll_threshold(zs, far)
    return replace(fitted, lambda_T=lam)


# -- serialization ----------------------------------------------------------


# A test gives each of its verdicts the same threshold, and spelling a float
# costs about six cache lookups.  A zero is spelled each time: 0.0 and -0.0
# are one key to a cache and two spellings to float.__repr__.  Typed, so
# that an int threshold still raises as float.__repr__ does.
_spelled = lru_cache(maxsize=64, typed=True)(float.__repr__)


def verdict_to_json(verdict: Verdict) -> str:
    """One verdicts.jsonl line, encoded as receiver_feed.epoch_to_json is."""
    threshold = verdict.threshold
    return (
        f'{{"t_mono_ns":{int.__repr__(verdict.t_mono.nanoseconds)},"test":"{verdict.test}",'
        f'"statistic":{float.__repr__(verdict.statistic)},'
        f'"threshold":{_spelled(threshold) if threshold else float.__repr__(threshold)},'
        f'"hypothesis":"{verdict.hypothesis._value_}",'
        f'"source_id":{json_string(verdict.source_id)}}}'
    )

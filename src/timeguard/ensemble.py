"""Two-state clock filter over a local oscillator ensemble.

Tracks the offset between the GNSS-disciplined timescale and one or more
local precision oscillators.  The state is [bias (s), drift (s/s)] driven
by white-FM and random-walk-FM process noise; innovation gating rejects
measurements outside the predicted confidence band so a pulled GNSS
solution cannot quietly steer the local estimate.  Also provides an
overlapping Allan deviation for calibrating the noise densities.

The filter observes the bias only (H = [1, 0]), so prediction and the
Joseph-form update are written out in closed form on the three distinct
covariance entries p00, p01, p11: the covariance is symmetric by
construction, and every state is checked to be positive semi-definite
through the closed-form smallest eigenvalue of the 2x2 matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .timebase import MonotonicInstant

DEFAULT_GATE_K = 3.0
# relative tolerance for the symmetric-PSD state invariant
PSD_RTOL = 1e-12


class EnsembleError(Exception):
    """Base class for filter and calibration failures."""


class FilterDomainError(EnsembleError):
    """Invalid filter input (negative tau, bad noise densities)."""


class MeasurementError(EnsembleError):
    """Non-finite or wrongly shaped measurement input."""


class CalibrationError(EnsembleError):
    """Not enough data for the requested Allan deviation points."""


@dataclass(frozen=True)
class OscillatorSpec:
    """Noise model of one oscillator: process densities plus readout noise.

    q_b is the white-FM spectral density (s²/s), q_d the random-walk-FM
    density ((s/s)²/s), sigma_meas the 1-sigma bias readout noise (s).
    Defaults describe an OCXO-class reference.
    """

    label: str = "ocxo"
    q_b: float = 1e-21
    q_d: float = 1e-24
    sigma_meas: float = 10e-9

    def __post_init__(self) -> None:
        for name in ("q_b", "q_d", "sigma_meas"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise FilterDomainError(f"{name} must be finite and >= 0, got {v}")


DEFAULT_OSCILLATOR = OscillatorSpec()


def _process_noise(q_b: float, q_d: float, tau: float) -> tuple[float, float, float]:
    """(q00, q01, q11): exact discretization of white-FM + RW-FM over tau."""
    return q_b * tau + q_d * tau**3 / 3.0, q_d * tau**2 / 2.0, q_d * tau


def process_noise_cov(q_b: float, q_d: float, tau: float) -> np.ndarray:
    """Exact discretization of the continuous white-FM + RW-FM model over tau."""
    q00, q01, q11 = _process_noise(q_b, q_d, tau)
    return np.array([[q00, q01], [q01, q11]])


def min_eigenvalue(p00: float, p01: float, p11: float) -> float:
    """Smallest eigenvalue of the symmetric matrix [[p00, p01], [p01, p11]]."""
    return 0.5 * (p00 + p11) - math.hypot(0.5 * (p00 - p11), p01)


def _check_psd(p00: float, p01: float, p11: float) -> None:
    if not (math.isfinite(p00) and math.isfinite(p01) and math.isfinite(p11)):
        raise FilterDomainError("covariance has non-finite entries")
    lam = min_eigenvalue(p00, p01, p11)
    if lam < -PSD_RTOL * max(1.0, abs(p00), abs(p01), abs(p11)):
        raise FilterDomainError(f"covariance not PSD: min eigenvalue {lam}")


@dataclass(frozen=True, slots=True)
class ClockKfState:
    """Filter state: x = [bias (s), drift (s/s)], P = [[p00, p01], [p01, p11]].

    Built with scalars by the filter; `from_arrays` builds one from an
    x vector and a full P matrix.
    """

    bias: float
    drift: float
    p00: float
    p01: float
    p11: float
    q_b: float = DEFAULT_OSCILLATOR.q_b
    q_d: float = DEFAULT_OSCILLATOR.q_d
    last_update: MonotonicInstant = field(default_factory=lambda: MonotonicInstant(0))

    def __post_init__(self) -> None:
        if not (self.q_b >= 0 and self.q_d >= 0):
            raise FilterDomainError("process noise densities must be >= 0")
        _check_psd(self.p00, self.p01, self.p11)

    @classmethod
    def from_arrays(
        cls,
        x,
        P,
        q_b: float = DEFAULT_OSCILLATOR.q_b,
        q_d: float = DEFAULT_OSCILLATOR.q_d,
        last_update: MonotonicInstant | None = None,
    ) -> ClockKfState:
        """State from x = [bias, drift] and a symmetric 2x2 covariance P."""
        x = np.array(x, dtype=float).reshape(2)
        P = np.array(P, dtype=float).reshape(2, 2)
        if not np.all(np.isfinite(P)):
            raise FilterDomainError("covariance has non-finite entries")
        if abs(P[0, 1] - P[1, 0]) > PSD_RTOL * max(1.0, float(np.max(np.abs(P)))):
            raise FilterDomainError("covariance not symmetric")
        return cls(
            float(x[0]), float(x[1]),
            float(P[0, 0]), float(0.5 * (P[0, 1] + P[1, 0])), float(P[1, 1]),
            q_b, q_d,
            last_update if last_update is not None else MonotonicInstant(0),
        )

    @property
    def x(self) -> np.ndarray:
        """[bias, drift], read-only."""
        x = np.array([self.bias, self.drift])
        x.setflags(write=False)
        return x

    @property
    def P(self) -> np.ndarray:
        """The 2x2 covariance, read-only."""
        P = np.array([[self.p00, self.p01], [self.p01, self.p11]])
        P.setflags(write=False)
        return P


def kf_init(
    spec: OscillatorSpec = DEFAULT_OSCILLATOR,
    bias: float = 0.0,
    drift: float = 0.0,
    bias_sigma: float = 1e-6,
    drift_sigma: float = 1e-9,
    at: MonotonicInstant | None = None,
) -> ClockKfState:
    """Fresh state with a diagonal prior; used after coarse validation."""
    return ClockKfState(
        float(bias), float(drift), float(bias_sigma**2), 0.0, float(drift_sigma**2),
        spec.q_b, spec.q_d,
        at if at is not None else MonotonicInstant(0),
    )


def kf_predict(state: ClockKfState, tau: float) -> ClockKfState:
    """Propagate the state tau seconds forward: x = F x, P = F P F^T + Q(tau)."""
    if not (math.isfinite(tau) and tau >= 0):
        raise FilterDomainError(f"tau must be finite and >= 0, got {tau}")
    if tau == 0:
        return state
    q00, q01, q11 = _process_noise(state.q_b, state.q_d, tau)
    # F = [[1, tau], [0, 1]]; a and b are the first row of F P
    a = state.p00 + tau * state.p01
    b = state.p01 + tau * state.p11
    advanced = MonotonicInstant(state.last_update.nanoseconds + round(tau * 1e9))
    return ClockKfState(
        state.bias + tau * state.drift, state.drift,
        a + b * tau + q00, b + q01, state.p11 + q11,
        state.q_b, state.q_d, advanced,
    )


class KfUpdate(NamedTuple):
    state: ClockKfState
    accepted: bool
    innovation: float
    S: float


def _one_number(v) -> float | None:
    if isinstance(v, (float, int)):
        return float(v)
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    return float(arr[0]) if arr.shape == (1,) else None


def _measurement_model(z, r_meas) -> tuple[float, float]:
    z_f, r_f = _one_number(z), _one_number(r_meas)
    if z_f is None or r_f is None:
        raise MeasurementError(f"need one bias and its variance, got {z!r} and {r_meas!r}")
    if not math.isfinite(z_f):
        raise MeasurementError(f"non-finite measurement {z!r}")
    if not (math.isfinite(r_f) and r_f >= 0):
        raise MeasurementError(f"bad measurement variance {r_meas!r}")
    return z_f, r_f


def kf_update(
    state: ClockKfState,
    z: float,
    r_meas: float,
    gate_k: float = DEFAULT_GATE_K,
) -> KfUpdate:
    """Gated measurement update.

    z is a measured bias (s) and r_meas its variance.  The update is
    applied only if the innovation z - bias lies within gate_k standard
    deviations of its predicted spread, sqrt(S) with S = p00 + r_meas;
    otherwise the state is returned unchanged with accepted=False.

    With H = [1, 0] the gain is K = [p00, p01] / S, and the Joseph form
    P = (I - K H) P (I - K H)^T + K r K^T is written out entry by entry;
    it keeps P symmetric and PSD even when K is off its optimum by
    rounding.
    """
    if not (math.isfinite(gate_k) and gate_k >= 0):
        raise MeasurementError(f"gate_k must be finite and >= 0, got {gate_k}")
    z, r = _measurement_model(z, r_meas)
    p00, p01 = state.p00, state.p01
    innovation = z - state.bias
    S = p00 + r
    if not abs(innovation) <= gate_k * math.sqrt(max(S, 0.0)):
        return KfUpdate(state, False, innovation, S)
    if S == 0.0:
        raise FilterDomainError("innovation variance is zero: no prior and no readout noise")
    s_inv = 1.0 / S
    k0, k1 = p00 * s_inv, p01 * s_inv
    a = 1.0 - k0
    c = p01 - k1 * p00  # second row of (I - K H) P, first column
    return KfUpdate(
        ClockKfState(
            state.bias + k0 * innovation, state.drift + k1 * innovation,
            a * p00 * a + k0 * r * k0,
            c * a + k1 * r * k0,
            state.p11 - k1 * p01 - c * k1 + k1 * r * k1,
            state.q_b, state.q_d, state.last_update,
        ),
        True, innovation, S,
    )


def allan_deviation(
    bias_series: Sequence[float],
    sample_period: float,
    taus: Sequence[float],
) -> np.ndarray:
    """Overlapping Allan deviation of a phase (bias) series at given taus.

    Each tau must be a whole multiple of sample_period and small enough
    that at least one second difference exists.
    """
    x = np.asarray(bias_series, dtype=float)
    tau0 = float(sample_period)
    if tau0 <= 0:
        raise CalibrationError(f"sample period must be > 0, got {tau0}")
    n = x.shape[0]
    out = np.empty(len(taus))
    for i, tau in enumerate(taus):
        m = int(round(tau / tau0))
        if m < 1 or abs(m * tau0 - tau) > 1e-9 * max(tau, tau0):
            raise CalibrationError(f"tau {tau} is not a positive multiple of {tau0}")
        if n - 2 * m < 1:
            raise CalibrationError(f"series of {n} samples too short for tau {tau}")
        d2 = x[2 * m :] - 2.0 * x[m : n - m] + x[: n - 2 * m]
        out[i] = math.sqrt(float(np.sum(d2 * d2)) / (2.0 * m * m * tau0 * tau0 * (n - 2 * m)))
    return out


def analytic_adev(q_b: float, q_d: float, taus) -> np.ndarray:
    """Model Allan deviation for the white-FM + RW-FM pair used by the filter."""
    t = np.asarray(taus, dtype=float)
    return np.sqrt(q_b / t + q_d * t / 3.0)

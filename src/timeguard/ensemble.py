"""Two-state clock filter over a local oscillator ensemble.

Tracks the offset between the GNSS-disciplined timescale and one or more
local precision oscillators.  The state is [bias (s), drift (s/s)] driven
by white-FM and random-walk-FM process noise; innovation gating rejects
measurements outside the predicted confidence band so a pulled GNSS
solution cannot quietly steer the local estimate.  Also provides an
overlapping Allan deviation for calibrating the noise densities.
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


def process_noise_cov(q_b: float, q_d: float, tau: float) -> np.ndarray:
    """Exact discretization of the continuous white-FM + RW-FM model over tau."""
    return np.array(
        [
            [q_b * tau + q_d * tau**3 / 3.0, q_d * tau**2 / 2.0],
            [q_d * tau**2 / 2.0, q_d * tau],
        ]
    )


def _check_psd(P: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(P))))
    if not np.all(np.isfinite(P)):
        raise FilterDomainError("covariance has non-finite entries")
    if abs(P[0, 1] - P[1, 0]) > PSD_RTOL * scale:
        raise FilterDomainError("covariance not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (P + P.T))
    if np.min(eigs) < -PSD_RTOL * scale:
        raise FilterDomainError(f"covariance not PSD: min eigenvalue {np.min(eigs)}")


@dataclass(frozen=True)
class ClockKfState:
    """Filter state: x = [bias (s), drift (s/s)] with covariance P."""

    x: np.ndarray
    P: np.ndarray
    q_b: float = DEFAULT_OSCILLATOR.q_b
    q_d: float = DEFAULT_OSCILLATOR.q_d
    last_update: MonotonicInstant = field(default_factory=lambda: MonotonicInstant(0))

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=float).reshape(2)
        P = np.array(self.P, dtype=float).reshape(2, 2)
        if not (self.q_b >= 0 and self.q_d >= 0):
            raise FilterDomainError("process noise densities must be >= 0")
        _check_psd(P)
        x.setflags(write=False)
        P.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "P", P)

    @property
    def bias(self) -> float:
        return float(self.x[0])

    @property
    def drift(self) -> float:
        return float(self.x[1])


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
        x=np.array([bias, drift]),
        P=np.diag([bias_sigma**2, drift_sigma**2]),
        q_b=spec.q_b,
        q_d=spec.q_d,
        last_update=at if at is not None else MonotonicInstant(0),
    )


def kf_predict(state: ClockKfState, tau: float) -> ClockKfState:
    """Propagate the state tau seconds forward."""
    if not (math.isfinite(tau) and tau >= 0):
        raise FilterDomainError(f"tau must be finite and >= 0, got {tau}")
    if tau == 0:
        return state
    F = np.array([[1.0, tau], [0.0, 1.0]])
    x = F @ state.x
    P = F @ state.P @ F.T + process_noise_cov(state.q_b, state.q_d, tau)
    P = 0.5 * (P + P.T)
    advanced = MonotonicInstant(state.last_update.nanoseconds + round(tau * 1e9))
    return ClockKfState(x, P, state.q_b, state.q_d, advanced)


class KfUpdate(NamedTuple):
    state: ClockKfState
    accepted: bool
    innovation: np.ndarray
    S: np.ndarray


_H = np.array([[1.0, 0.0]])  # the filter observes the bias


def _measurement_model(z, r_meas) -> tuple[np.ndarray, np.ndarray]:
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    R = np.atleast_1d(np.asarray(r_meas, dtype=float))
    if z_arr.shape != (1,) or R.shape != (1,):
        raise MeasurementError(f"need one bias and its variance, got {z!r} and {r_meas!r}")
    if not np.isfinite(z_arr[0]):
        raise MeasurementError(f"non-finite measurement {z_arr}")
    if not (np.isfinite(R[0]) and R[0] >= 0):
        raise MeasurementError(f"bad measurement variance {r_meas!r}")
    return z_arr, R.reshape(1, 1)


def kf_update(
    state: ClockKfState,
    z: float,
    r_meas: float,
    gate_k: float = DEFAULT_GATE_K,
) -> KfUpdate:
    """Gated measurement update.

    z is a measured bias (s) and r_meas its variance.  The update is
    applied only if the innovation lies within gate_k standard deviations
    of its predicted spread; otherwise the state is returned unchanged
    with accepted=False.  Joseph-form covariance update keeps P symmetric.
    """
    if not (math.isfinite(gate_k) and gate_k >= 0):
        raise MeasurementError(f"gate_k must be finite and >= 0, got {gate_k}")
    z_arr, R = _measurement_model(z, r_meas)
    H = _H
    innovation = z_arr - H @ state.x
    S = H @ state.P @ H.T + R
    band = gate_k * np.sqrt(np.maximum(np.diag(S), 0.0))
    if not np.all(np.abs(innovation) <= band):
        return KfUpdate(state, False, innovation, S)
    K = np.linalg.solve(S.T, (state.P @ H.T).T).T
    x = state.x + K @ innovation
    A = np.eye(2) - K @ H
    P = A @ state.P @ A.T + K @ R @ K.T
    P = 0.5 * (P + P.T)
    return KfUpdate(ClockKfState(x, P, state.q_b, state.q_d, state.last_update), True, innovation, S)


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

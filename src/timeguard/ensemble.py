"""Two-state clock filter over a local oscillator ensemble.

Tracks the offset between the GNSS-disciplined timescale and one or more
local precision oscillators.  The state is [bias (s), drift (s/s)] driven
by white-FM and random-walk-FM process noise; innovation gating rejects
measurements outside the predicted confidence band so a pulled GNSS
solution cannot quietly steer the local estimate.

The filter observes the bias only (H = [1, 0]), so prediction and the
Joseph-form update are written out in closed form on the three distinct
covariance entries p00, p01, p11: the covariance is symmetric by
construction, and every state is checked to be positive semi-definite
through the closed-form smallest eigenvalue of the 2x2 matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

# relative tolerance for the symmetric-PSD state invariant
PSD_RTOL = 1e-12
_INF = math.inf  # for the one-comparison checks of a plain float


class FilterDomainError(Exception):
    """Invalid filter input (negative tau, bad noise densities)."""


class MeasurementError(Exception):
    """A measurement that is not one finite number, or a negative variance."""


@dataclass(frozen=True)
class OscillatorSpec:
    """Process noise model of one oscillator.

    q_b is the white-FM spectral density (s²/s), q_d the random-walk-FM
    density ((s/s)²/s).  Defaults describe an OCXO-class reference.
    """

    q_b: float = 1e-21
    q_d: float = 1e-24

    def __post_init__(self) -> None:
        for name in ("q_b", "q_d"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise FilterDomainError(f"{name} must be finite and >= 0, got {v}")


DEFAULT_OSCILLATOR = OscillatorSpec()


def process_noise(q_b: float, q_d: float, tau: float) -> tuple[float, float, float]:
    """(q00, q01, q11): exact discretization of white-FM + RW-FM over tau."""
    return q_b * tau + q_d * tau**3 / 3.0, q_d * tau**2 / 2.0, q_d * tau


def min_eigenvalue(p00: float, p01: float, p11: float) -> float:
    """Smallest eigenvalue of the symmetric matrix [[p00, p01], [p01, p11]]."""
    return 0.5 * (p00 + p11) - math.hypot(0.5 * (p00 - p11), p01)


def _check_psd(p00: float, p01: float, p11: float) -> None:
    if not (math.isfinite(p00) and math.isfinite(p01) and math.isfinite(p11)):
        raise FilterDomainError("covariance has non-finite entries")
    lam = min_eigenvalue(p00, p01, p11)
    if lam < -PSD_RTOL * max(1.0, abs(p00), abs(p01), abs(p11)):
        raise FilterDomainError(f"covariance not PSD: min eigenvalue {lam}")


class _ClockKfFields(NamedTuple):
    bias: float
    drift: float
    p00: float
    p01: float
    p11: float


class ClockKfState(_ClockKfFields):
    """Filter estimate: x = [bias (s), drift (s/s)], P = [[p00, p01], [p01, p11]].

    An immutable tuple, since every filtered epoch builds one; the
    constructor checks the covariance before it builds the tuple.  The
    oscillator model, checked once when built, is kf_predict's argument.
    """

    __slots__ = ()

    def __new__(cls, bias: float, drift: float, p00: float, p01: float,
                p11: float) -> ClockKfState:
        # min_eigenvalue written out, against the tightest tolerance
        # _check_psd applies: what passes here passes there.  A NaN or
        # infinite entry makes the eigenvalue NaN or -inf and falls through,
        # so _check_psd rejects it, or judges entries past 1 by their size.
        if not 0.5 * (p00 + p11) - math.hypot(0.5 * (p00 - p11), p01) >= -PSD_RTOL:
            _check_psd(p00, p01, p11)
        return tuple.__new__(cls, (bias, drift, p00, p01, p11))


def kf_init(bias: float = 0.0, drift: float = 0.0) -> ClockKfState:
    """Fresh state with a diagonal prior of 1 us in bias and 1 ns/s in drift;
    used after coarse validation."""
    return ClockKfState(float(bias), float(drift), 1e-6**2, 0.0, 1e-9**2)


def _check_tau(tau: float) -> None:
    if not (math.isfinite(tau) and tau >= 0):
        raise FilterDomainError(f"tau must be finite and >= 0, got {tau}")


def _predicted(state: ClockKfState, osc: OscillatorSpec, tau: float) -> tuple[float, ...]:
    """The state's fields tau seconds ahead: x = F x, P = F P F^T + Q(tau)."""
    # one unpacking: a tuple field read by name costs several times as much
    bias, drift, p00, p01, p11 = state
    q00, q01, q11 = process_noise(osc.q_b, osc.q_d, tau)
    # F = [[1, tau], [0, 1]]; a and b are the first row of F P
    a = p00 + tau * p01
    b = p01 + tau * p11
    return bias + tau * drift, drift, a + b * tau + q00, b + q01, p11 + q11


def kf_predict(state: ClockKfState, osc: OscillatorSpec, tau: float) -> ClockKfState:
    """Propagate the state tau seconds forward under osc: x = F x, P = F P F^T + Q(tau)."""
    _check_tau(tau)
    if tau == 0:
        return state
    return ClockKfState(*_predicted(state, osc, tau))


# kf_update's checks of its gate, its bias and its variance, in that order
def _check_inputs(gate_k, z, r_meas) -> None:
    try:
        ok = math.isfinite(gate_k) and gate_k >= 0
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise MeasurementError(f"gate_k must be finite and >= 0, got {gate_k}")
    try:
        ok = (isinstance(z, (int, float)) and math.isfinite(z)
              and isinstance(r_meas, (int, float)) and math.isfinite(r_meas) and r_meas >= 0)
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise MeasurementError(
            f"need one finite bias and one finite variance >= 0, got {z!r} and {r_meas!r}"
        )


class KfUpdate(NamedTuple):
    state: ClockKfState
    accepted: bool
    innovation: float
    S: float


def kf_update(
    state: ClockKfState,
    osc: OscillatorSpec,
    z: float,
    r_meas: float,
    gate_k: float = 3.0,
    tau: float = 0.0,
) -> KfUpdate:
    """Predict tau seconds forward under osc, as kf_predict does, then a gated update.

    The prediction makes the same checks as kf_predict, in the same
    order, and the same floats, but builds no state of its own: the one
    state built is the updated one, or the predicted one when the gate
    rejects.

    z is a measured bias (s) and r_meas its variance, each an int or a
    float (numpy.float64 is one); anything else, a non-finite value or a
    negative variance raises MeasurementError.  The update is applied
    only if the innovation z - bias lies within gate_k standard
    deviations of its predicted spread, sqrt(S) with S = p00 + r_meas;
    otherwise the predicted state is returned with accepted=False.

    With H = [1, 0] the gain is K = [p00, p01] / S, and the Joseph form
    P = (I - K H) P (I - K H)^T + K r K^T is written out entry by entry;
    it keeps P symmetric and PSD even when K is off its optimum by
    rounding.
    """
    if not (type(tau) is float and 0.0 <= tau < _INF):  # one comparison for a plain float
        _check_tau(tau)
    if tau == 0:
        bias, drift, p00, p01, p11 = state
    else:
        bias, drift, p00, p01, p11 = _predicted(state, osc, tau)
        # ClockKfState's constructor check, written out as it is there, on
        # the predicted covariance that an accepted update never builds
        if not 0.5 * (p00 + p11) - math.hypot(0.5 * (p00 - p11), p01) >= -PSD_RTOL:
            _check_psd(p00, p01, p11)
    # the checks of _check_inputs, as one comparison each for plain floats
    if not (type(gate_k) is float and 0.0 <= gate_k < _INF and type(r_meas) is float
            and 0.0 <= r_meas < _INF and type(z) is float and -_INF < z < _INF):
        _check_inputs(gate_k, z, r_meas)
    z, r = float(z), float(r_meas)
    innovation = z - bias
    S = p00 + r
    if not abs(innovation) <= gate_k * math.sqrt(max(S, 0.0)):
        if tau != 0:
            state = ClockKfState(bias, drift, p00, p01, p11)
        return KfUpdate(state, False, innovation, S)
    if S == 0.0:
        raise FilterDomainError("innovation variance is zero: no prior and no readout noise")
    s_inv = 1.0 / S
    k0, k1 = p00 * s_inv, p01 * s_inv
    a = 1.0 - k0
    c = p01 - k1 * p00  # second row of (I - K H) P, first column
    return KfUpdate(
        ClockKfState(
            bias + k0 * innovation, drift + k1 * innovation,
            a * p00 * a + k0 * r * k0,
            c * a + k1 * r * k0,
            p11 - k1 * p01 - c * k1 + k1 * r * k1,
        ),
        True, innovation, S,
    )

"""Allan-deviation oracles the filter and simulator tests check against.

The overlapping Allan deviation of a phase (bias) series, and the model
deviation of the white-FM + random-walk-FM pair the clock filter uses.
The monitor itself never computes either, so they live with the tests.
"""

import math
from typing import Sequence

import numpy as np


def allan_deviation(
    bias_series: Sequence[float],
    sample_period: float,
    taus: Sequence[float],
) -> np.ndarray:
    """Overlapping Allan deviation of a phase (bias) series at given taus.

    Each tau must be a whole multiple of sample_period and small enough
    that at least one second difference exists; otherwise ValueError.
    """
    x = np.asarray(bias_series, dtype=float)
    tau0 = float(sample_period)
    if tau0 <= 0:
        raise ValueError(f"sample period must be > 0, got {tau0}")
    n = x.shape[0]
    out = np.empty(len(taus))
    for i, tau in enumerate(taus):
        m = int(round(tau / tau0))
        if m < 1 or abs(m * tau0 - tau) > 1e-9 * max(tau, tau0):
            raise ValueError(f"tau {tau} is not a positive multiple of {tau0}")
        if n - 2 * m < 1:
            raise ValueError(f"series of {n} samples too short for tau {tau}")
        d2 = x[2 * m :] - 2.0 * x[m : n - m] + x[: n - 2 * m]
        out[i] = math.sqrt(float(np.sum(d2 * d2)) / (2.0 * m * m * tau0 * tau0 * (n - 2 * m)))
    return out


def analytic_adev(q_b: float, q_d: float, taus) -> np.ndarray:
    """Model Allan deviation for the white-FM + RW-FM pair used by the filter."""
    t = np.asarray(taus, dtype=float)
    return np.sqrt(q_b / t + q_d * t / 3.0)

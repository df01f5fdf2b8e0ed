"""Deterministic scenario generator for time-spoofing experiments.

Produces benign GNSS epochs, free-running oscillator noise, scripted
remote-provider measurements, and additive attack profiles (step,
incremental, smooth pull, meaconing delay) with exact ground truth.
Every stream derives from a counter-based PRNG keyed by the scenario
seed plus a per-component index, so identical specs yield byte-identical
outputs; the algorithm identifier travels in the output headers.  The
specs import no numpy; generation loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, TextIO

from .ensemble import DEFAULT_OSCILLATOR, OscillatorSpec, process_noise
from .receiver_feed import EpochRecord, NtsMeasurement, RoughtimeMeasurement, epoch_to_json
from .timebase import (FRAC_UNIT, MonotonicInstant, SignedDuration, Timestamp, shown,
                       units_from_s)

if TYPE_CHECKING:
    import numpy as np

PRNG_ID = "numpy-philox4x64-10"

_STREAM_JITTER = 0
_STREAM_OSCILLATOR = 1
_STREAM_NETWORK = 2

ATTACK_KINDS = ("none", "step", "incremental", "smooth_pull", "meacon_delay")
NETWORK_MODES = ("always_on", "down", "provider_compromise")


# the longest run (s) and the largest attack offset (s) a spec may ask for
MAX_RUN_S = 4e9
MAX_OFFSET_S = 1e9


class SpecValidationError(ValueError):
    """Scenario parameters out of range; message lists the fields."""


@dataclass(frozen=True)
class AttackSpec:
    """Additive time-offset profile applied to the GNSS solution.

    offset_s is the step height, the increment size, the total pull, or
    the meaconing delay d depending on kind.
    """

    kind: str = "none"
    offset_s: float = 0.0
    onset_epoch: int = 0
    every_k: int = 30
    span_epochs: int = 600


@dataclass(frozen=True)
class NetworkSpec:
    mode: str = "always_on"
    down_from_epoch: int = 0
    down_to_epoch: int = 0
    provider_bias_s: float = 0.0
    nts_sigma_s: float = 50e-6
    rtt_min_s: float = 1e-3
    rtt_max_s: float = 20e-3


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    duration_epochs: int
    epoch_period_s: float = 1.0
    benign_jitter_sigma_s: float = 10e-9
    start_unix_s: int = 1_689_120_000
    attack: AttackSpec = field(default_factory=AttackSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    oscillator: OscillatorSpec = DEFAULT_OSCILLATOR
    rt_radius_s: float = 1.0
    rt_poll_epochs: int = 10
    nts_poll_epochs: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        problems = []
        if self.duration_epochs < 1:
            problems.append("duration_epochs must be >= 1")
        if self.epoch_period_s <= 0:
            problems.append("epoch_period_s must be positive")
        # these keep every clock term in int64 ns and every offset finite; NaN fails each
        span_s = self.duration_epochs * self.epoch_period_s
        if not span_s <= MAX_RUN_S:
            problems.append("duration_epochs * epoch_period_s must be <= 4e9 s, "
                            f"got {shown(span_s)}")
        reach_s = abs(self.attack.offset_s)
        if self.attack.kind == "incremental":
            reach_s *= self.duration_epochs
        if not reach_s <= MAX_OFFSET_S:
            problems.append(f"attack.offset_s must keep the offset within 1e9 s, "
                            f"got {shown(self.attack.offset_s)}")
        if not 0 <= self.benign_jitter_sigma_s < 1:
            problems.append("benign_jitter_sigma_s must lie in [0, 1) s")
        if self.attack.kind not in ATTACK_KINDS:
            problems.append(f"attack.kind {self.attack.kind!r} unknown")
        if self.attack.kind != "none" and not 0 <= self.attack.onset_epoch < self.duration_epochs:
            problems.append("attack.onset_epoch must lie inside the run")
        if self.attack.every_k < 1:
            problems.append("attack.every_k must be >= 1")
        if self.attack.span_epochs < 1:
            problems.append("attack.span_epochs must be >= 1")
        if self.network.mode not in NETWORK_MODES:
            problems.append(f"network.mode {self.network.mode!r} unknown")
        if self.network.mode == "down" and not (
            0 <= self.network.down_from_epoch <= self.network.down_to_epoch
        ):
            problems.append("network down window must satisfy 0 <= from <= to")
        if self.network.nts_sigma_s < 0 or self.network.rtt_min_s < 0:
            problems.append("network noise parameters must be non-negative")
        if self.network.rtt_max_s < self.network.rtt_min_s:
            problems.append("rtt_max_s must be >= rtt_min_s")
        if self.rt_radius_s <= 0:
            problems.append("rt_radius_s must be positive")
        if self.rt_poll_epochs < 1 or self.nts_poll_epochs < 1:
            problems.append("poll cadences must be >= 1 epoch")
        # Philox keys an int64 seed exactly; numpy casts one past it through
        # a float, so that two seeds could draw one stream
        if not -(1 << 63) <= self.seed < 1 << 63:
            problems.append(f"seed must lie in [-2^63, 2^63), got {shown(self.seed)}")
        if problems:
            raise SpecValidationError("; ".join(problems))


def attack_offset(attack: AttackSpec, epoch: int) -> float:
    """Injected time offset (s) at one epoch; closed form, noise-free."""
    n = epoch - attack.onset_epoch
    if attack.kind == "none" or n < 0:
        return 0.0
    if attack.kind == "step":
        return attack.offset_s
    if attack.kind == "incremental":
        return attack.offset_s * (n // attack.every_k)
    if attack.kind == "smooth_pull":
        u = min(n / attack.span_epochs, 1.0)
        return attack.offset_s * 0.5 * (1.0 - math.cos(math.pi * u))
    if attack.kind == "meacon_delay":
        # replayed signals arrive late, dragging the solution backward
        return -attack.offset_s
    raise SpecValidationError(f"attack.kind {attack.kind!r} unknown")


def _chol2(a: float, b: float, c: float) -> np.ndarray:
    """Lower-triangular square root of the PSD matrix [[a, b], [b, c]], zeros allowed."""
    import numpy as np

    if a <= 0.0:
        return np.array([[0.0, 0.0], [0.0, math.sqrt(max(c, 0.0))]])
    l00 = math.sqrt(a)
    l10 = b / l00
    return np.array([[l00, 0.0], [l10, math.sqrt(max(c - l10 * l10, 0.0))]])


def simulate_oscillator(
    spec: OscillatorSpec,
    n: int,
    period_s: float,
    seed,
    bias0: float = 0.0,
    drift0: float = 0.0,
) -> np.ndarray:
    """Free-running clock bias series (s) from the two-state noise model.

    Uses the same discrete Q(tau) as the tracking filter, so simulated
    truth and filter assumptions agree exactly.  Each series is one
    np.add.accumulate, which adds one term at a time in order, as the
    recursion b += d * period + w_b, d += w_d does.
    """
    import numpy as np

    if n < 1:
        raise SpecValidationError("need at least one epoch")
    rng = seed if isinstance(seed, np.random.Generator) else _stream(seed, _STREAM_OSCILLATOR)
    chol = _chol2(*process_noise(spec.q_b, spec.q_d, period_s))
    noise = rng.standard_normal((n - 1, 2)) @ chol.T
    drift = np.add.accumulate(np.concatenate(([drift0], noise[:, 1])))
    return np.add.accumulate(np.concatenate(([bias0], drift[:-1] * period_s + noise[:, 0])))


def _stream(seed: int, component: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.Philox(key=[seed, component]))


@dataclass
class SimOutputs:
    """Everything one scenario produces; ground truth is attack_offset's."""

    spec: ScenarioSpec
    epochs: list
    rt_responses: dict
    nts_responses: dict


def network_available(spec: ScenarioSpec, epoch: int) -> bool:
    net = spec.network
    if net.mode == "down":
        return not net.down_from_epoch <= epoch < net.down_to_epoch
    return True


def gen_scenario(spec: ScenarioSpec) -> SimOutputs:
    """Expand a spec into epoch records and scripted provider responses."""
    import numpy as np

    n = spec.duration_epochs
    period = spec.epoch_period_s
    start_units = int(spec.start_unix_s) * FRAC_UNIT

    jitter = _stream(spec.seed, _STREAM_JITTER).normal(0.0, spec.benign_jitter_sigma_s, n)
    osc_bias = simulate_oscillator(
        spec.oscillator, n, period, _stream(spec.seed, _STREAM_OSCILLATOR)
    )
    net_rng = _stream(spec.seed, _STREAM_NETWORK)

    # the GNSS solution's offset from true time, each sum the same double
    # that truth[e] + jitter[e] gives
    gnss_offset = np.array([attack_offset(spec.attack, e) for e in range(n)])
    gnss_offset += jitter
    del jitter
    # The local monotonic clock runs on the simulated oscillator: each epoch
    # reads round(e * period * 1e9) + round(bias_s * 1e9) ns, np.rint rounding
    # half-even as round() does.  The spec bounds the first term by 4e18 ns and
    # the oscillator, set only in code, is bounded here: the int64 sum cannot wrap.
    if not np.abs(osc_bias).max() <= MAX_RUN_S:
        raise SpecValidationError("oscillator drives the simulated clock bias past 4e9 s")
    mono_ns = np.rint(np.arange(n, dtype=np.float64) * period * 1e9).astype(np.int64)
    mono_ns += np.rint(osc_bias * 1e9).astype(np.int64)
    del osc_bias
    # The loop converts each sum to an int as it reaches it, so the ints the
    # epochs keep are allocated among the epochs' other objects: a list of
    # them all, made before the loop, raised simulate's peak RSS by 0.3 MiB.
    mono_ns = map(int, mono_ns)
    nts_poll = spec.nts_poll_epochs
    nts_offsets = gnss_offset[::nts_poll].tolist()
    # Each offset in units as units_from_s converts it, the product rounded
    # half-even.  A benign run's go to ints through int64; a 4 s step's pass
    # 2^63 units, so they go through a list of floats.
    units = np.rint(gnss_offset * 2.0**64)
    del gnss_offset
    if np.abs(units).max() < 2.0**63:
        offset_units = units.astype(np.int64).tolist()
    else:
        offset_units = list(map(int, units.tolist()))
    rt_radius = SignedDuration.from_s(spec.rt_radius_s)
    epochs = []
    rt_responses = {}
    nts_responses = {}
    for e, (ns, units) in enumerate(zip(mono_ns, offset_units)):
        # true and GNSS instants as integer units: one Timestamp per epoch,
        # plus the Roughtime midpoint at a poll
        true_units = start_units + units_from_s(e * period)
        t_mono = MonotonicInstant(ns)
        t_gnss = Timestamp(true_units + units)
        epochs.append(
            EpochRecord(t_mono=t_mono, t_gnss=t_gnss, fix_valid=True, source_id="gnss-sim")
        )
        online = network_available(spec, e)
        if e % spec.rt_poll_epochs == 0 and online:
            rt_responses[e] = RoughtimeMeasurement(
                midpoint=Timestamp(true_units),
                radius=rt_radius,
                server_id="rt-sim",
                t_mono_rx=t_mono,
            )
        if e % nts_poll == 0 and online:
            # offset of true time vs the (possibly attacked) local scale
            theta = -nts_offsets[e // nts_poll] + net_rng.normal(0.0, spec.network.nts_sigma_s)
            if spec.network.mode == "provider_compromise":
                theta += spec.network.provider_bias_s
            delay = net_rng.uniform(spec.network.rtt_min_s, spec.network.rtt_max_s)
            nts_responses[e] = NtsMeasurement(
                offset=SignedDuration.from_s(theta),
                delay=SignedDuration.from_s(delay),
                t_mono_rx=t_mono,
                server_id="nts-sim",
            )
    return SimOutputs(spec, epochs, rt_responses, nts_responses)


# -- output files -----------------------------------------------------------


def write_epochs_jsonl(fh: TextIO, outputs: SimOutputs) -> None:
    for epoch in outputs.epochs:
        fh.write(epoch_to_json(epoch) + "\n")


def write_truth_csv(fh: TextIO, spec: ScenarioSpec) -> None:
    """truth.csv: each epoch's injected offset in ns, from attack_offset."""
    fh.write(f"# prng={PRNG_ID} seed={spec.seed} scenario={spec.name}\n")
    fh.write("epoch,injected_offset_ns\n")
    for e in range(spec.duration_epochs):
        fh.write(f"{e},{attack_offset(spec.attack, e) * 1e9:.6f}\n")


# -- bundled scenarios ------------------------------------------------------


def builtin_scenarios() -> dict:
    """Bundled experiment definitions; seeds pin every random stream."""
    return {
        "benign_cal": ScenarioSpec(name="benign_cal", duration_epochs=10_000, seed=1005),
        "benign10k": ScenarioSpec(name="benign10k", duration_epochs=10_000, seed=1001),
        "step4s": ScenarioSpec(
            name="step4s",
            duration_epochs=200,
            attack=AttackSpec(kind="step", offset_s=4.0, onset_epoch=100),
            rt_poll_epochs=10,
            rt_radius_s=1.0,
            seed=1002,
        ),
        "incr2us": ScenarioSpec(
            name="incr2us",
            duration_epochs=2700,
            attack=AttackSpec(kind="incremental", offset_s=2e-6, onset_epoch=100, every_k=30),
            nts_poll_epochs=30,
            seed=1003,
        ),
        "pull2us": ScenarioSpec(
            name="pull2us",
            duration_epochs=1200,
            attack=AttackSpec(
                kind="smooth_pull", offset_s=2e-6, onset_epoch=200, span_epochs=600
            ),
            seed=1004,
        ),
    }

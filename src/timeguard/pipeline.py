"""End-to-end validation pipeline.

Joins the pieces in fixed per-epoch order: receiver epoch in, Kalman
tracking of the GNSS-vs-local-clock bias, the log-likelihood detector
on the filter innovations, remote-provider verdicts, then the
orchestrator.  The same engine replays simulator output, drives the live
monitor and tracks the benign run the ll threshold is fitted on;
everything it emits is deterministic for a given scenario and
configuration.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator, Optional, TextIO

from .attack_sim import (ScenarioSpec, SimOutputs, attack_offset, builtin_scenarios, gen_scenario,
                         network_available)
from .config import AppConfig, ConfigFileError, config_sha256, load_scenario
from .detector import (
    ConfigError,
    Hypothesis,
    LlConfig,
    LlDetectorState,
    Verdict,
    calibrate_ll,
    ll_step,
    nts_test,
    roughtime_test,
    verdict_to_json,
)
from .ensemble import kf_init, kf_update
from .orchestrator import (
    RESET_FILTER,
    Event,
    EventKind,
    OrchestratorState,
    OrderingError,
    TransitionRecord,
    advance,
    initial_state,
    only_time_moves,
    transition_to_json,
)
from .receiver_feed import EpochRecord, NtsMeasurement, RoughtimeMeasurement
from .timebase import NS_PER_S, MonotonicInstant, Timestamp

if TYPE_CHECKING:
    import numpy as np


def local_bias_s(rec: EpochRecord, utc0: Timestamp, mono0: MonotonicInstant) -> float:
    """Observed GNSS-minus-local-clock offset for one epoch.

    The local clock is anchored at the first fix (utc0, mono0) and
    advances with the monotonic counter.  Integer arithmetic first, so
    the float rounding applies only to the small residual.
    """
    # exact to the 2^-64 s unit: floor once on the full product
    elapsed_units = ((rec.t_mono.nanoseconds - mono0.nanoseconds) << 64) // 10**9
    return (rec.t_gnss.units - utc0.units - elapsed_units) / 2.0**64


# -- the per-epoch engine ----------------------------------------------------


class Monitor:
    """The per-epoch engine that simulate, live and calibrate share.

    Tracks each fix's bias, GNSS time minus the local clock's projection,
    with the gated two-state filter under the ensemble's oscillator model:
    its estimate kf, the instant of the last fix it tracked (tracked_at) and
    the readout variance r_meas.  The innovations, white at the readout-noise
    scale when benign, go to the ll window of the fitted ll it is given
    (ConfigError for one with no lambda_T); with ll None it tracks with no
    test, as calibration does.  Also owns the orchestrator state, the
    instant of the last event applied (t_last), the last fix, the local
    clock's anchor and the connectivity, but no fix flag: a fix is held
    while there is a last fix and the state has no outage open.  It reads
    nothing but the config, its ll and its inputs, so a run written out as
    a feed replays to the same output.  Each input method checks the order
    against t_last, applies the input, and only then hands on what it applied:
    `on_verdict(verdict)` for every verdict, and `on_transition(event,
    record)` for every event that goes through the transition rule.  An
    event that changes nothing (orchestrator.only_time_moves: a quiet TICK,
    an H0 in a settled phase, a repeated H1 in ALARM) only moves t_last, with
    no Event, step, state or record built; its record would be a self-loop
    with no action, so replaying the events on_transition saw still
    reproduces its records.  Every epoch moves t_last.
    """

    def __init__(
        self,
        config: AppConfig,
        ll: Optional[LlConfig],
        on_verdict: Optional[Callable[[Verdict], None]] = None,
        on_transition: Optional[Callable[[Event, TransitionRecord], None]] = None,
    ) -> None:
        if ll is not None and ll.lambda_T is None:
            raise ConfigError("the ll test has no lambda_t: pin the [ll] lines "
                              "`timeguard calibrate` prints, or pass resolve_ll's fit")
        self.config = config
        # read once, not per epoch
        self.ensemble, self.gate_k = config.ensemble, config.ensemble.gate_k
        self.kf = kf_init()
        self.tracked_at: Optional[MonotonicInstant] = None
        self.r_meas = max(config.ensemble.sigma_meas_s, 1e-12) ** 2
        self.ll = None if ll is None else LlDetectorState(ll)
        self.state = initial_state()
        self.t_last: Optional[MonotonicInstant] = None
        self.on_verdict = on_verdict
        self.on_transition = on_transition
        self.online = True
        self.anchor: Optional[tuple[Timestamp, MonotonicInstant]] = None
        self.last_fix: Optional[EpochRecord] = None

    def _apply(self, kind: EventKind, t: MonotonicInstant,
               verdict: Optional[Verdict] = None) -> None:
        """Apply one event of this kind at t, already checked for order."""
        if not only_time_moves(self.state, kind, verdict):
            self._advance(Event(kind, t, verdict))
        self.t_last = t
        if verdict is not None and self.on_verdict is not None:
            self.on_verdict(verdict)

    def _advance(self, event: Event) -> None:
        """Send event through the rule; RESET_FILTER restarts tracker and ll
        window together, on the local clock re-anchored at the last fix."""
        self.state, actions = advance(self.state, event, self.config.orchestrator,
                                      self.on_transition)
        if RESET_FILTER in actions:
            self.kf, self.tracked_at = kf_init(), None
            if self.ll is not None:
                self.ll = LlDetectorState(self.ll.params)
            self.anchor = (self.last_fix.t_gnss, self.last_fix.t_mono)

    def _reference(self) -> Timestamp:
        if self.last_fix is None:
            raise OrderingError("measurement before the first GNSS fix")
        return self.last_fix.t_gnss

    def _check_order(self, t: MonotonicInstant) -> None:
        """Refuse an input stamped before the last one applied."""
        last = self.t_last
        if last is not None and t.nanoseconds < last.nanoseconds:
            raise OrderingError(f"input at {t.nanoseconds} ns precedes {last.nanoseconds} ns")

    def epoch(self, rec: EpochRecord) -> Optional[tuple[float, float]]:
        """One receiver epoch: its fix change, then its ll verdict if there is
        an ll test, each at its instant; an epoch that applies neither
        applies a TICK instead.
        Returns (filtered bias, innovation) for a fix, and None otherwise.
        A fix is valid and has leap_applied: GPS-scale time, before the UTC
        parameters are decoded, is never anchored, tracked or tested against.

        After either event a TICK would change nothing: a fix has no outage
        open, and a FixLost opens its outage at this instant.  An epoch
        without a fix applies the TICK that notices an outage past the
        ephemeris validity."""
        t = rec.t_mono
        ns = t.nanoseconds
        last = self.t_last  # _check_order, written out
        if last is not None and ns < last.nanoseconds:
            raise OrderingError(f"input at {ns} ns precedes {last.nanoseconds} ns")
        tracked = None
        applied = False
        fix = rec.fix_valid and rec.leap_applied
        if fix != (self.last_fix is not None and self.state.outage_started is None):
            if self.anchor is None:  # the first change is an acquisition
                self.anchor = (rec.t_gnss, t)
            self._apply(EventKind.FIX_ACQUIRED if fix else EventKind.FIX_LOST, t)
            applied = True
        if fix:
            self.last_fix = rec
            tracked_at = self.tracked_at  # and t.elapsed_s(tracked_at), written out
            tau = 0.0 if tracked_at is None else (ns - tracked_at.nanoseconds) / NS_PER_S
            kf, _, innovation, _ = kf_update(self.kf, self.ensemble,
                                             local_bias_s(rec, *self.anchor), self.r_meas,
                                             self.gate_k, tau)
            self.kf, self.tracked_at = kf, t
            tracked = kf.bias, innovation
            if self.ll is not None:
                verdict = ll_step(self.ll, innovation, t)
                if verdict is not None:
                    self._apply(EventKind.LL_VERDICT, t, verdict)
                    applied = True
        if not applied:
            self._apply(EventKind.TICK, t)
        return tracked

    def roughtime(self, meas: RoughtimeMeasurement) -> None:
        """A Roughtime reply at its t_mono_rx, tested against the last fix's GNSS time.

        OrderingError before the first fix: there is no GNSS time to test.
        """
        reference = self._reference()
        self._check_order(meas.t_mono_rx)
        verdict = roughtime_test(reference, meas, self.config.detector)
        self._apply(EventKind.RT_VERDICT, meas.t_mono_rx, verdict)

    def nts(self, meas: NtsMeasurement) -> None:
        """An NTS reply at its t_mono_rx.  Its offset is the server's time minus the clock
        that stamped the query, so the test reads the offset alone.

        OrderingError before the first fix, as for Roughtime.
        """
        self._reference()  # refuses a reply that comes before any fix
        self._check_order(meas.t_mono_rx)
        verdict = nts_test(meas, self.config.detector)
        self._apply(EventKind.NTS_VERDICT, meas.t_mono_rx, verdict)

    def network(self, up: bool, t: MonotonicInstant, repeat: bool = False) -> None:
        """Connectivity at t, applied when it differs from self.online, the
        last one applied: the state machine keeps none.  A failed poll
        repeats NETWORK_DOWN: the machine may have reached FINE_MONITORING
        since."""
        self._check_order(t)
        if repeat or up != self.online:
            self._apply(EventKind.NETWORK_UP if up else EventKind.NETWORK_DOWN, t)
            self.online = up

    def finish(self) -> None:
        """End of input: a fix still held counts as lost."""
        if self.last_fix is not None and self.state.outage_started is None:
            self._apply(EventKind.FIX_LOST, self.t_last)


# -- ll threshold calibration ------------------------------------------------


def training_residuals(outputs: SimOutputs, config: AppConfig) -> np.ndarray:
    """The innovation of each epoch of a generated benign run, in order, as
    a Monitor with no ll test tracks it, for threshold fitting.  Only the
    epochs are applied, so no network check resets the filter."""
    import numpy as np

    epoch = Monitor(config, None).epoch
    return np.array([epoch(rec)[1] for rec in outputs.epochs])


def calibration_spec(name_or_path: str) -> ScenarioSpec:
    """The calibration scenario, a bundled name or a scenario INI path.

    ConfigFileError if it carries an attack, before any epoch is generated:
    a pull fitted as benign would widen the threshold past the attack itself.
    """
    spec = load_scenario(name_or_path)
    if spec.attack.kind != "none":
        raise ConfigFileError(f"calibration scenario {spec.name!r} carries a "
                              f"{spec.attack.kind} attack; it must be benign")
    return spec


def fit_ll(outputs: SimOutputs, config: AppConfig) -> tuple[LlConfig, LlConfig]:
    """Fit the ll parameters on a generated benign scenario, one that
    calibration_spec accepted.

    Returns the fit, whose threshold is the benign quantile at the
    configured false-alarm rate, and the operational parameters, whose
    threshold adds the safety margin so that routine operation stays
    quiet while the quantile itself remains available for analysis.
    """
    residuals = training_residuals(outputs, config)
    fitted = calibrate_ll(config.detector.ll, residuals, far=config.calibration.far)
    return fitted, replace(fitted, lambda_T=fitted.lambda_T + config.calibration.margin)


def resolve_ll(config: AppConfig) -> LlConfig:
    """The ll parameters to run with, which a command resolves once and hands
    to its Monitor; calibrates lambda_T if unset, on the configured
    calibration scenario, a bundled name or a scenario INI path.

    ConfigFileError for a pinned mu0 or sigma0_sq without lambda_T: the
    fit would replace them without a word.
    """
    ll = config.detector.ll
    if ll.lambda_T is not None:
        return ll
    if ll.sigma0_sq is not None or ll.mu0 != 0.0:
        raise ConfigFileError("[ll] mu0 or sigma0_sq is pinned but lambda_t is blank, and "
                              "calibration would replace them; pin all three as "
                              "`timeguard calibrate` prints them, or leave all three blank")
    return fit_ll(gen_scenario(calibration_spec(config.calibration.scenario)), config)[1]


# -- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class DetectorOutcome:
    """Did one test fire during the attack, and how fast."""

    detected: bool
    latency_epochs: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.detected and self.latency_epochs is not None:
            raise ValueError("latency is reported only when detected")


@dataclass(frozen=True)
class RunReport:
    scenario: str
    outcomes: dict
    false_alarms: int
    final_phase: str
    config_sha256: str

    @property
    def any_h1(self) -> bool:
        return self.false_alarms > 0 or any(o.detected for o in self.outcomes.values())


def report_to_json(report: RunReport) -> str:
    return json.dumps(asdict(report), separators=(",", ":"), sort_keys=True)


# -- scenario replay ---------------------------------------------------------


@dataclass
class PipelineResult:
    verdicts: list
    state: OrchestratorState
    report: RunReport


def _epoch_of(v: Verdict, period_s: float) -> int:
    return round(v.t_mono.nanoseconds / (period_s * 1e9))


def build_report(spec: ScenarioSpec, verdicts: list, state: OrchestratorState,
                 config_hash: str) -> RunReport:
    """Score a run's verdicts against exact ground truth, the spec's
    attack_offset.

    An H1 at an epoch whose injected offset is zero counts as a false
    alarm; the first H1 at a nonzero offset is the detection, with
    latency measured from attack onset.
    """
    outcomes = {}
    false_alarms = 0
    for test in ("rt", "nts", "ll"):
        hits = sorted(
            _epoch_of(v, spec.epoch_period_s)
            for v in verdicts
            if v.test == test and v.hypothesis is Hypothesis.H1
        )
        real = [e for e in hits if attack_offset(spec.attack, e) != 0.0]
        false_alarms += len(hits) - len(real)
        if real:
            outcomes[test] = DetectorOutcome(True, real[0] - spec.attack.onset_epoch)
        else:
            outcomes[test] = DetectorOutcome(False)
    return RunReport(
        scenario=spec.name,
        outcomes=outcomes,
        false_alarms=false_alarms,
        final_phase=state.phase.value,
        config_sha256=config_hash,
    )


def scenario_inputs(outputs: SimOutputs) -> Iterator[tuple[str, tuple]]:
    """A generated run's inputs in the order a feed carries them, each as a
    Monitor method name and its arguments: a `network` input before an epoch
    where the simulated network changes (the engine starts online), then the
    epoch, its Roughtime reply, its NTS reply, and `finish` last."""
    spec, rt, nts = outputs.spec, outputs.rt_responses, outputs.nts_responses
    online = True
    for e, rec in enumerate(outputs.epochs):
        if network_available(spec, e) != online:
            online = not online
            yield "network", (online, rec.t_mono)
        yield "epoch", (rec,)
        if e in rt:
            yield "roughtime", (rt[e],)
        if e in nts:
            yield "nts", (nts[e],)
    yield "finish", ()


def run_scenario(
    scenario: ScenarioSpec | str,
    config: AppConfig,
    on_transition: Optional[Callable[[Event, TransitionRecord], None]] = None,
) -> tuple[SimOutputs, PipelineResult]:
    """Generate a scenario, bundled by name or given as a spec, and apply its
    scenario_inputs to a Monitor; the result holds the verdicts, the final
    state and the scored report, which pins the config by its `config_sha256`.

    Each event that goes through the transition rule goes to
    `on_transition` as it happens (see Monitor: an event that changes
    nothing is not one).  The ll, calibrated by resolve_ll if the config
    leaves it blank, is resolved before generation, so a run that
    calibrates loads numpy in set-up, not in the replay.
    """
    spec = scenario if isinstance(scenario, ScenarioSpec) else builtin_scenarios()[scenario]
    verdicts: list[Verdict] = []
    monitor = Monitor(config, resolve_ll(config), on_verdict=verdicts.append,
                      on_transition=on_transition)
    outputs = gen_scenario(spec)
    for name, args in scenario_inputs(outputs):
        getattr(monitor, name)(*args)
    report = build_report(spec, verdicts, monitor.state, config_sha256(config))
    return outputs, PipelineResult(verdicts=verdicts, state=monitor.state, report=report)


# -- trace writers: the one writer of each format, for simulate and live -----


VERDICT_CSV_HEADER = "t_mono_ns,test,statistic,threshold,hypothesis,source_id"


def _csv_field(text: str) -> str:
    """text as one RFC 4180 field: quoted, inner quotes doubled, only when it
    holds a comma, a quote or a line break, so a feed's id cannot split a row."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _verdict_csv_row(v: Verdict) -> str:
    return (
        f"{v.t_mono.nanoseconds},{v.test},{v.statistic!r},{v.threshold!r},"
        f"{v.hypothesis.value},{_csv_field(v.source_id)}"
    )


def verdict_writer(fh: TextIO, fmt: str) -> Callable[[Verdict], None]:
    """An on_verdict that writes one jsonl or csv line per verdict to fh.

    For csv it writes the header first.  It never flushes: its caller
    flushes fh when a reader must see the lines, as live does before it
    waits on its input or on a provider.
    """
    if fmt == "csv":
        fh.write(VERDICT_CSV_HEADER + "\n")
        return lambda verdict: fh.write(_verdict_csv_row(verdict) + "\n")
    return lambda verdict: fh.write(verdict_to_json(verdict) + "\n")


def transition_writer(fh: TextIO) -> Callable[[Event, TransitionRecord], None]:
    """An on_transition that writes a transitions.jsonl line to fh for each
    record that changes the phase, and with it the active source, or that
    carries actions.  A self-loop with no action is not encoded at all."""

    def write(event: Event, record: TransitionRecord) -> None:
        if record.from_phase is not record.to_phase or record.actions:
            fh.write(transition_to_json(record) + "\n")

    return write

"""Tests for the end-to-end validation pipeline."""

import io
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timeguard import pipeline
from timeguard.attack_sim import (
    NetworkSpec,
    ScenarioSpec,
    builtin_scenarios,
    gen_scenario,
)
from timeguard.cli import main
from timeguard.config import config_sha256, default_config, dump_config
from timeguard.detector import (
    ConfigError,
    Hypothesis,
    LlConfig,
    LlDetectorState,
    Verdict,
    calibrate_ll,
    ll_step,
    nts_test,
    roughtime_test,
)
from timeguard.ensemble import OscillatorSpec, kf_init, kf_update
from timeguard.orchestrator import (
    Event,
    EventKind,
    OrchestratorConfig,
    OrderingError,
    Phase,
    only_time_moves,
    replay,
    transition_to_json,
)
from timeguard.pipeline import (
    VERDICT_CSV_HEADER,
    DetectorOutcome,
    Monitor,
    RunReport,
    build_report,
    local_bias_s,
    report_to_json,
    resolve_ll,
    run_scenario,
    scenario_inputs,
    training_residuals,
    transition_writer,
    verdict_writer,
)
from timeguard.receiver_feed import (EpochRecord, NtsMeasurement, RoughtimeMeasurement,
                                     feed_input, feed_line)
from timeguard.timebase import MonotonicInstant, SignedDuration, Timestamp, ts_add

DEFAULT = default_config()
# ll pinned to its calibration, so no run calibrates again
CFG = replace(DEFAULT, detector=replace(DEFAULT.detector, ll=resolve_ll(DEFAULT)))

QUIET = OscillatorSpec(q_b=0.0, q_d=0.0)


def mono(s):
    return MonotonicInstant(int(s * 1e9))


def run_logged(scenario, config=CFG):
    """run_scenario with the events it applied and their transition records."""
    events, transitions = [], []

    def record(event, transition):
        events.append(event)
        transitions.append(transition)

    _, result = run_scenario(scenario, config, on_transition=record)
    return result, events, transitions


# -- local clock projection --------------------------------------------------


def test_local_bias_exact_dyadic():
    utc0 = Timestamp.from_unix_s(1_689_120_000)
    mono0 = mono(5.0)
    rec = EpochRecord(t_mono=mono(7.0), t_gnss=ts_add(utc0, SignedDuration.from_s(2.5)),
                      fix_valid=True)
    assert local_bias_s(rec, utc0, mono0) == 0.5


def test_local_bias_no_drift_over_long_spans():
    # floor-per-product conversion must not accumulate error with elapsed time
    utc0 = Timestamp.from_unix_s(0)
    for e in (1, 10_000, 10_000_000):
        rec = EpochRecord(
            t_mono=mono(float(e)), t_gnss=ts_add(utc0, SignedDuration.from_s(float(e))),
            fix_valid=True,
        )
        assert abs(local_bias_s(rec, utc0, mono(0.0))) < 1e-15


def test_local_bias_subtracts_oscillator():
    # the local clock runs 30 ns ahead of GNSS time
    utc0 = Timestamp.from_unix_s(0)
    rec = EpochRecord(t_mono=MonotonicInstant(10**9 + 30),
                      t_gnss=ts_add(utc0, SignedDuration.from_s(1.0)), fix_valid=True)
    assert local_bias_s(rec, utc0, mono(0.0)) == pytest.approx(-3e-8)


# -- the clock filter --------------------------------------------------------

# the Monitor's readout variance, at which it tracks each fix's bias
R_MEAS = Monitor(CFG, None).r_meas


def track(observations):
    """Filter (bias, instant) pairs from a fresh state through kf_update, as
    the Monitor tracks its fixes: the last state and every innovation."""
    kf, last, innovations = kf_init(), None, []
    for bias, t in observations:
        tau = 0.0 if last is None else t.elapsed_s(last)
        update = kf_update(kf, CFG.ensemble, bias, R_MEAS, CFG.ensemble.gate_k, tau)
        kf, last = update.state, t
        innovations.append(update.innovation)
    return kf, innovations


def each_second(biases):
    return [(bias, mono(float(i))) for i, bias in enumerate(biases)]


def test_first_innovation_is_the_measurement():
    _, (innovation,) = track([(5e-9, mono(0.0))])
    assert innovation == 5e-9


def test_benign_innovations_stay_white():
    rng = np.random.default_rng(5)
    _, innovations = track(each_second(rng.normal(0.0, 10e-9, 2000)))
    tail = np.array(innovations[100:])
    assert abs(tail.mean()) < 2e-9
    assert tail.std() == pytest.approx(10e-9, rel=0.25)


def test_gate_freezes_filter_on_step():
    rng = np.random.default_rng(6)
    kf, innovations = track(each_second([*rng.normal(0.0, 10e-9, 200), *[1.0] * 40]))
    assert abs(kf.bias) < 1e-6
    assert innovations[-1] == pytest.approx(1.0, abs=1e-5)


def test_ll_fires_on_sustained_offset():
    # converge first: a fresh filter would swallow the step into its
    # initial bias estimate instead of rejecting it at the gate
    _, innovations = track(each_second([0.0] * 300 + [1e-6] * 60))
    ll = LlDetectorState(LlConfig(lambda_T=0.0, sigma0_sq=1e-16))
    verdicts = [ll_step(ll, innovation, mono(float(i))) for i, innovation in enumerate(innovations)]
    verdicts = verdicts[300:]
    hits = [i for i, v in enumerate(verdicts) if v is not None
            and v.hypothesis is Hypothesis.H1]
    assert hits
    assert hits[0] < 40
    assert hits == list(range(hits[0], 60))


@pytest.mark.parametrize("ll", [DEFAULT.detector.ll, LlConfig(sigma0_sq=1e-16)])
def test_a_monitor_refuses_an_ll_without_a_threshold(ll):
    # a partly fitted ll would otherwise fail only in ll_step, on the first warmed epoch
    with pytest.raises(ConfigError, match="timeguard calibrate"):
        Monitor(CFG, ll)


def test_reset_clears_history():
    # the first network H0 resets the filter: the tracker and the ll window together
    outputs = gen_scenario(builtin_scenarios()["step4s"])
    monitor = Monitor(CFG, CFG.detector.ll)
    for rec in outputs.epochs[:50]:
        monitor.epoch(rec)
    assert monitor.state.phase is Phase.COLD_START
    assert monitor.kf != kf_init() and monitor.ll.z is not None
    last = outputs.epochs[49]
    monitor.roughtime(RoughtimeMeasurement(last.t_gnss, SignedDuration.from_s(1.0), "rt-sim",
                                           last.t_mono))
    assert monitor.state.phase is Phase.COARSE_VALIDATED
    assert monitor.kf == kf_init() and monitor.tracked_at is None
    assert monitor.ll.z is None and not monitor.ll.window
    assert monitor.ll.params is CFG.detector.ll
    # the tracker restarts against the local clock re-anchored at the last fix
    _, innovation = monitor.epoch(outputs.epochs[50])
    assert innovation == local_bias_s(outputs.epochs[50], last.t_gnss, last.t_mono)


def test_a_reset_without_an_ll_resets_the_filter_alone():
    # calibration's engine has no ll test; the first network H0 still
    # restarts its tracker, with no ll window to restart
    outputs = gen_scenario(builtin_scenarios()["step4s"])
    monitor = Monitor(CFG, None)
    for rec in outputs.epochs[:50]:
        monitor.epoch(rec)
    assert monitor.kf != kf_init() and monitor.ll is None
    last = outputs.epochs[49]
    monitor.roughtime(RoughtimeMeasurement(last.t_gnss, SignedDuration.from_s(1.0), "rt-sim",
                                           last.t_mono))
    assert monitor.state.phase is Phase.COARSE_VALIDATED
    assert monitor.kf == kf_init() and monitor.tracked_at is None
    assert monitor.ll is None


def streamed_peak_bytes(n: int) -> int:
    """tracemalloc's peak while a benign run of n epochs streams through a Monitor."""
    monitor = Monitor(CFG, CFG.detector.ll)
    tracemalloc.start()
    try:
        for name, args in scenario_inputs(ScenarioSpec(name="flat", duration_epochs=n, seed=5)):
            getattr(monitor, name)(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_streamed_run_holds_flat_memory():
    # generation holds one block at a time and the engine a bounded ll
    # window, so ten times the epochs may not double the peak (a run held
    # whole grows by about 490 bytes an epoch)
    assert streamed_peak_bytes(100_000) <= 2 * streamed_peak_bytes(10_000)


@pytest.mark.parametrize("seed", [13, 18])
def test_a_reset_hours_after_the_first_fix_tracks_from_the_last_one(seed):
    # the network is down for the first 12 h, so the first Roughtime H0 and
    # its filter reset come 43,200 epochs after the first fix; a filter
    # restarted at bias 0 against the first fix's anchor would see all the
    # oscillator offset built up since, and the ll test would alarm on it
    spec = ScenarioSpec(name="late-reset", duration_epochs=44_400, seed=seed,
                        network=NetworkSpec(mode="down", down_from_epoch=0,
                                            down_to_epoch=43_200))
    _, result = run_scenario(spec, CFG)
    assert [v for v in result.verdicts if v.test == "ll" and v.hypothesis is Hypothesis.H1] == []
    assert result.state.phase is Phase.FINE_MONITORING


# -- what kf_update trusts its one caller for ---------------------------------


@pytest.fixture()
def filter_inputs(monkeypatch):
    """Every (z, r_meas, gate_k, tau) the Monitor hands kf_update during the test."""
    calls = []

    def recorded(state, osc, z, r_meas, gate_k, tau):
        calls.append((z, r_meas, gate_k, tau))
        return kf_update(state, osc, z, r_meas, gate_k, tau)

    monkeypatch.setattr(pipeline, "kf_update", recorded)
    return calls


def assert_trusted(calls):
    # kf_update checks none of these itself
    assert calls
    for inputs in calls:
        assert all(type(v) is float and math.isfinite(v) for v in inputs), inputs
        z, r_meas, gate_k, tau = inputs
        assert r_meas > 0 and gate_k > 0 and tau >= 0, inputs


@pytest.mark.parametrize("name", ["step4s", "incr2us"])
def test_a_simulated_run_hands_kf_update_what_it_trusts(name, filter_inputs):
    run_scenario(name, CFG)
    assert_trusted(filter_inputs)


def test_a_live_replay_hands_kf_update_what_it_trusts(filter_inputs, tmp_path):
    spec = ScenarioSpec(name="outage", duration_epochs=400, seed=21,
                        network=NetworkSpec(mode="down", down_from_epoch=100, down_to_epoch=200))
    lines = [feed_line(method, args) for method, args in scenario_inputs(spec)
             if method != "finish"]
    assert {feed_input(line)[0] for line in lines} == {"epoch", "roughtime", "nts", "network"}
    feed, config = tmp_path / "feed.jsonl", tmp_path / "pinned.ini"
    feed.write_text("".join(line + "\n" for line in lines))
    config.write_text(dump_config(CFG))
    main(["live", "--feed", str(feed), "--config", str(config), "--out-dir", str(tmp_path)])
    assert len(filter_inputs) == spec.duration_epochs
    assert_trusted(filter_inputs)


# -- calibration -------------------------------------------------------------


def test_training_residuals_match_readout_noise():
    residuals = training_residuals(gen_scenario(builtin_scenarios()["benign_cal"]).epochs, CFG)
    assert len(residuals) == 10_000
    assert abs(residuals.mean()) < 2e-9
    assert residuals.std() == pytest.approx(10e-9, rel=0.3)


def test_training_residuals_track_every_epoch_against_the_first_ones_clock():
    # with no network input the engine never resets the filter, so its
    # innovations are those of one filter run over every epoch's bias
    outputs = gen_scenario(ScenarioSpec(name="cal2k", duration_epochs=2_000, seed=31))
    first = outputs.epochs[0]
    _, innovations = track([(local_bias_s(rec, first.t_gnss, first.t_mono), rec.t_mono)
                            for rec in outputs.epochs])
    assert training_residuals(outputs.epochs, CFG).tolist() == innovations


def test_resolve_ll_passthrough_when_pinned():
    pinned = replace(CFG, detector=replace(CFG.detector, ll=LlConfig(lambda_T=4.5, sigma0_sq=1e-16)))
    assert resolve_ll(pinned) is pinned.detector.ll


def test_resolve_ll_is_quantile_plus_margin():
    residuals = training_residuals(
        gen_scenario(builtin_scenarios()[DEFAULT.calibration.scenario]).epochs, DEFAULT)
    fitted = calibrate_ll(DEFAULT.detector.ll, residuals, far=DEFAULT.calibration.far)
    resolved = CFG.detector.ll
    assert resolved.lambda_T == fitted.lambda_T + DEFAULT.calibration.margin
    assert resolved.mu0 == fitted.mu0
    assert resolved.sigma0_sq == fitted.sigma0_sq


# -- scenario replay ---------------------------------------------------------


def test_zero_noise_run_is_silent():
    spec = ScenarioSpec(
        name="silent", duration_epochs=80, benign_jitter_sigma_s=0.0,
        oscillator=QUIET, seed=3,
    )
    verdicts = []
    monitor = Monitor(CFG, CFG.detector.ll, on_verdict=verdicts.append)
    returns = [(name, getattr(monitor, name)(*args))
               for name, args in scenario_inputs(spec)]
    # every epoch's (filtered bias, innovation)
    assert [tracked for name, tracked in returns if name == "epoch"] == [(0.0, 0.0)] * 80
    assert all(v.hypothesis is Hypothesis.H0 for v in verdicts)
    assert monitor.state.phase is Phase.FINE_MONITORING
    assert monitor.state.active_time_source == "gnss"


def test_run_is_deterministic():
    a, _, a_transitions = run_logged("step4s")
    b, _, b_transitions = run_logged("step4s")
    assert a.verdicts == b.verdicts
    assert a_transitions == b_transitions


def test_recorded_events_replay_to_same_transitions():
    result, events, transitions = run_logged("step4s")
    final, records = replay(events, CFG.orchestrator)
    assert records == transitions
    assert final.phase == result.state.phase


def test_step4s_report():
    _, result = run_scenario("step4s", CFG)
    report = result.report
    assert report.scenario == "step4s"
    assert report.outcomes["rt"].detected
    assert report.outcomes["rt"].latency_epochs == 0
    assert report.false_alarms == 0
    assert report.final_phase == "ALARM"
    assert report.config_sha256 == config_sha256(CFG)
    assert report.any_h1


def test_step4s_alarm_is_latched_and_gnss_distrusted():
    result, _, transitions = run_logged("step4s")
    alarm_seen = False
    for record in transitions:
        if record.to_phase is Phase.ALARM:
            alarm_seen = True
        if alarm_seen:
            assert record.to_phase is Phase.ALARM
            assert json.loads(transition_to_json(record))["active_source"] != "gnss"
    assert alarm_seen
    assert result.state.active_time_source == "ensemble"


def test_pull2us_detected_by_ll_only():
    _, result = run_scenario("pull2us", CFG)
    report = result.report
    assert report.outcomes["ll"].detected
    assert not report.outcomes["rt"].detected
    assert not report.outcomes["nts"].detected
    onset = builtin_scenarios()["pull2us"].attack.onset_epoch
    span = builtin_scenarios()["pull2us"].attack.span_epochs
    assert 0 < report.outcomes["ll"].latency_epochs < span
    assert report.false_alarms == 0


def test_benign10k_fully_clean():
    _, result = run_scenario("benign10k", CFG)
    assert not result.report.any_h1
    assert result.report.final_phase == "FINE_MONITORING"


OUTAGE = ScenarioSpec(name="outage", duration_epochs=400, seed=21,
                      network=NetworkSpec(mode="down", down_from_epoch=100, down_to_epoch=200))


def test_outage_drives_holdover_and_recovery():
    result, _, transitions = run_logged(OUTAGE)
    phases = [r.to_phase for r in transitions]
    assert Phase.HOLDOVER in phases
    down_at = phases.index(Phase.HOLDOVER)
    assert Phase.FINE_MONITORING in phases[down_at:]
    assert result.state.phase is Phase.FINE_MONITORING


def test_monitor_refuses_out_of_order_input_and_applies_nothing():
    outputs = gen_scenario(builtin_scenarios()["step4s"])
    seen = []
    monitor = Monitor(CFG, CFG.detector.ll, on_verdict=seen.append,
                      on_transition=lambda event, record: seen.append(record))
    for name, args in scenario_inputs(outputs.spec):
        if name == "epoch" and args[0] == outputs.epochs[40]:
            break  # the first 40 epochs and their replies applied
        getattr(monitor, name)(*args)
    state, kf, window = monitor.state, monitor.kf, list(monitor.ll.window)
    count = len(seen)
    # an rt H0 and an nts H0 in FINE_MONITORING change nothing, so step never
    # sees them: only the engine's own check can refuse them
    assert state.phase is Phase.FINE_MONITORING
    last_gnss = outputs.epochs[39].t_gnss
    rt_h0 = RoughtimeMeasurement(last_gnss, SignedDuration.from_s(1.0), "rt-sim",
                                 outputs.epochs[20].t_mono)
    nts_h0 = outputs.nts_responses[0]
    assert only_time_moves(state, EventKind.RT_VERDICT,
                           roughtime_test(last_gnss, rt_h0, CFG.detector))
    assert only_time_moves(state, EventKind.NTS_VERDICT, nts_test(nts_h0, CFG.detector))
    with pytest.raises(OrderingError):
        monitor.epoch(outputs.epochs[20])
    with pytest.raises(OrderingError):
        monitor.roughtime(outputs.rt_responses[20])
    with pytest.raises(OrderingError):
        monitor.roughtime(rt_h0)
    with pytest.raises(OrderingError):
        monitor.nts(nts_h0)
    assert monitor.state is state
    assert monitor.kf is kf
    assert list(monitor.ll.window) == window
    assert len(seen) == count


@pytest.mark.parametrize("which", ["rt", "nts"])
def test_monitor_refuses_a_reply_before_the_first_fix_and_applies_nothing(which):
    # an invalid epoch moves the clock but brings no GNSS time to test against
    outputs = gen_scenario(builtin_scenarios()["step4s"])
    seen = []
    monitor = Monitor(CFG, CFG.detector.ll, on_verdict=seen.append,
                      on_transition=lambda event, record: seen.append(record))
    first = outputs.epochs[0]
    monitor.epoch(EpochRecord(first.t_mono, first.t_gnss, False, first.leap_applied,
                              first.source_id))
    state, count = monitor.state, len(seen)
    with pytest.raises(OrderingError, match="first GNSS fix"):
        if which == "rt":
            monitor.roughtime(outputs.rt_responses[0])
        else:
            monitor.nts(outputs.nts_responses[0])
    assert monitor.state is state
    assert len(seen) == count
    assert monitor.last_fix is None


def test_monitor_orders_epochs_against_the_last_tracked_one():
    # every epoch moves the engine's clock: the first here with its
    # FixAcquired, the second, in the ll warm-up, with its TICK
    utc0 = Timestamp.from_unix_s(1_689_120_000)

    def at(s):
        return EpochRecord(t_mono=mono(s), t_gnss=ts_add(utc0, SignedDuration.from_s(s)),
                           fix_valid=True)

    monitor = Monitor(CFG, CFG.detector.ll)
    monitor.epoch(at(10.0))
    monitor.epoch(at(20.0))
    again = at(20.0)  # an epoch at the last instant is in order
    monitor.epoch(again)
    assert monitor.last_fix is again and monitor.t_last == mono(20.0)
    state, kf, last_fix = monitor.state, monitor.kf, monitor.last_fix
    window = list(monitor.ll.window)
    with pytest.raises(OrderingError):
        monitor.epoch(at(15.0))
    assert monitor.last_fix is last_fix and last_fix.t_mono == mono(20.0)
    assert monitor.state is state
    assert monitor.kf is kf
    assert list(monitor.ll.window) == window


def run_refusing(inputs):
    """Apply inputs to a Monitor as live does, refusing a line out of order:
    the verdicts, transitions.jsonl and the refusals."""
    verdicts, fh, refused = [], io.StringIO(), []
    monitor = Monitor(CFG, CFG.detector.ll, on_verdict=verdicts.append,
                      on_transition=transition_writer(fh))
    for name, args in inputs:
        try:
            getattr(monitor, name)(*args)
        except OrderingError as exc:
            refused.append(str(exc))
    return verdicts, fh.getvalue(), refused


def test_a_leading_span_without_utc_changes_nothing_of_the_run_after_it():
    # a receiver reports the GPS scale, UTC + 18 s, until it has decoded the
    # UTC parameters: those epochs are no fix, so the replies among them come
    # before the first fix, and the run starts at the first epoch with UTC
    outputs = gen_scenario(builtin_scenarios()["step4s"])
    inputs = list(scenario_inputs(outputs.spec))
    cut = inputs.index(("epoch", (outputs.epochs[30],)))
    gps = SignedDuration.from_s(18.0)
    lead = [(name, (EpochRecord(args[0].t_mono, ts_add(args[0].t_gnss, gps), True, False),))
            if name == "epoch" else (name, args) for name, args in inputs[:cut]]
    assert [name for name, _ in lead].count("roughtime") == 3
    verdicts, transitions, refused = run_refusing(lead + inputs[cut:])
    assert (verdicts, transitions, []) == run_refusing(inputs[cut:])
    assert verdicts and transitions
    assert refused == ["measurement before the first GNSS fix"] * (len(lead) - 30)


def test_verdict_cadence():
    spec = builtin_scenarios()["step4s"]
    _, result = run_scenario(spec, CFG)
    assert sum(v.test == "rt" for v in result.verdicts) == 20
    assert sum(v.test == "nts" for v in result.verdicts) == 7
    # epoch 0 anchors the local reference, then the window warms for m epochs
    assert sum(v.test == "ll" for v in result.verdicts) == 200 - CFG.detector.ll.m


# -- reports -----------------------------------------------------------------


def test_outcome_latency_requires_detection():
    with pytest.raises(ValueError):
        DetectorOutcome(detected=False, latency_epochs=3)


def test_report_json_round_trip():
    report = RunReport(
        scenario="x",
        outcomes={"rt": DetectorOutcome(True, 2), "nts": DetectorOutcome(False)},
        false_alarms=1,
        final_phase="ALARM",
        config_sha256="00ff",
    )
    assert json.loads(report_to_json(report)) == {
        "scenario": "x",
        "outcomes": {"rt": {"detected": True, "latency_epochs": 2},
                     "nts": {"detected": False, "latency_epochs": None}},
        "false_alarms": 1,
        "final_phase": "ALARM",
        "config_sha256": "00ff",
    }


def test_build_report_counts_false_alarms():
    spec = ScenarioSpec(name="quiet", duration_epochs=20, seed=5)
    verdicts = [
        Verdict(test="rt", hypothesis=Hypothesis.H1, statistic=2.0, threshold=1.0,
                source_id="rt-sim", t_mono=mono(3.0)),
        Verdict(test="nts", hypothesis=Hypothesis.H0, statistic=0.0, threshold=1.0,
                source_id="nts-sim", t_mono=mono(4.0)),
    ]
    idle_state, _ = replay([], CFG.orchestrator)
    report = build_report(spec, verdicts, idle_state, "aa")
    assert report.false_alarms == 1
    assert not report.outcomes["rt"].detected
    assert report.any_h1


# -- serialization -----------------------------------------------------------


def test_verdict_writers():
    _, result = run_scenario("step4s", CFG)
    jsonl, csv = io.StringIO(), io.StringIO()
    write_jsonl, write_csv = verdict_writer(jsonl, "jsonl"), verdict_writer(csv, "csv")
    for verdict in result.verdicts:
        write_jsonl(verdict)
        write_csv(verdict)
    assert len(jsonl.getvalue().splitlines()) == len(result.verdicts)
    lines = csv.getvalue().splitlines()
    assert lines[0] == VERDICT_CSV_HEADER
    assert len(lines) == len(result.verdicts) + 1


def kept(record) -> bool:
    """The records transitions.jsonl keeps: a phase change, and with it a
    change of active source, or an action."""
    return record.from_phase is not record.to_phase or bool(record.actions)


def test_transition_writer_streams_one_line_per_record():
    fh = io.StringIO()
    _, _, transitions = run_logged("step4s")
    run_scenario("step4s", CFG, on_transition=transition_writer(fh))
    assert fh.getvalue() == "".join(transition_to_json(r) + "\n" for r in transitions if kept(r))
    # the rule's self-loops still reach on_transition: only the writer leaves them out
    assert 0 < fh.getvalue().count("\n") < len(transitions)


# -- the TICK rule -------------------------------------------------------------


class TickEveryEpoch(Monitor):
    """The engine with a TICK closing every epoch, also one that applied a
    fix change or an ll verdict: the reference the engine must match."""

    def _apply(self, kind, t, verdict=None):
        super()._apply(kind, t, verdict)
        self.ticked = kind is EventKind.TICK

    def epoch(self, rec):
        self.ticked = False
        tracked = super().epoch(rec)
        if not self.ticked:
            self._apply(EventKind.TICK, rec.t_mono)
        return tracked


class RuleForEveryEvent(Monitor):
    """The engine with every event built and sent through advance, also one
    that changes nothing: the reference the engine's skip must match.  step
    is the full rule, which no predicate shortcuts, so a predicate that lets
    a rule event through as changing nothing fails here."""

    def _apply(self, kind, t, verdict=None):
        self._advance(Event(kind, t, verdict))
        self.t_last = t
        if verdict is not None and self.on_verdict is not None:
            self.on_verdict(verdict)


def assert_runs_match(config, inputs, reference=TickEveryEpoch):
    """Feed inputs, (method, args) each, to a Monitor and a reference engine,
    and compare the two after every input: what the call returned or the
    OrderingError it raised, the state and the engine's clock, the verdicts
    and transitions.jsonl."""
    runs = []
    for engine in (Monitor, reference):
        verdicts, fh = [], io.StringIO()
        runs.append((engine(config, config.detector.ll, on_verdict=verdicts.append,
                            on_transition=transition_writer(fh)), verdicts, fh))
    (got, got_verdicts, got_fh), (want, want_verdicts, want_fh) = runs
    seen = 0  # verdicts already compared
    for method, args in inputs:
        outcomes = []
        for monitor, _, _ in runs:
            try:
                outcomes.append(getattr(monitor, method)(*args))
            except OrderingError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert (got.state, got.t_last) == (want.state, want.t_last)
        assert got_verdicts[seen:] == want_verdicts[seen:]
        seen = len(got_verdicts)
        assert got_fh.getvalue() == want_fh.getvalue()


@pytest.mark.parametrize("name", sorted(builtin_scenarios()) + ["outage"])
def test_a_tick_only_on_an_epoch_that_applied_nothing_else_changes_no_run(name):
    spec = OUTAGE if name == "outage" else builtin_scenarios()[name]
    assert_runs_match(CFG, scenario_inputs(spec))


# a 5 s ephemeris validity, so that short feeds outlive it, and a 3-innovation
# ll window, so that they reach ll verdicts
SHORT = replace(CFG, orchestrator=OrchestratorConfig(ephemeris_validity_s=5.0, auto_clear_k=2),
                detector=replace(CFG.detector, ll=replace(CFG.detector.ll, m=3)))
UTC0 = Timestamp.from_unix_s(1_689_120_000)


def gnss_time(s):
    return ts_add(UTC0, SignedDuration.from_s(s))


@st.composite
def feeds(draw):
    """Inputs at random steps, a gap past SHORT's ephemeris validity and a
    step back before the last input among them: epochs that toggle the fix
    and carry a GNSS offset, rt and nts replies that pass or fail, and
    network changes and repeats; the end of input last."""
    inputs, now, gnss = [], 10.0, 10.0
    for _ in range(draw(st.integers(1, 60))):
        t = now + draw(st.sampled_from((1.0, 1.0, 1.0, 0.0, 3.0, 7.0, -2.0)))
        now = max(now, t)
        kind = draw(st.sampled_from(("epoch", "epoch", "epoch", "rt", "nts", "network")))
        if kind == "epoch":
            offset = draw(st.sampled_from((0.0, 0.0, 1e-6, 1e-3)))
            valid = draw(st.booleans())
            gnss = t if valid else gnss  # the time an rt reply is tested against
            inputs.append(("epoch", (EpochRecord(t_mono=mono(t), t_gnss=gnss_time(t + offset),
                                                 fix_valid=valid),)))
        elif kind == "rt":
            midpoint = gnss_time(gnss + draw(st.sampled_from((0.0, 5.0))))
            inputs.append(("roughtime", (RoughtimeMeasurement(
                midpoint, SignedDuration.from_s(1.0), "rt-test", mono(t)),)))
        elif kind == "nts":
            offset = SignedDuration.from_s(draw(st.sampled_from((1e-5, 1e-2))))
            inputs.append(("nts", (NtsMeasurement(offset, SignedDuration.from_s(0.01), mono(t),
                                                  "nts-test"),)))
        else:
            inputs.append(("network", (draw(st.booleans()), mono(t), draw(st.booleans()))))
    return inputs + [("finish", ())]


def fix(s, valid=True):
    return ("epoch", (EpochRecord(t_mono=mono(s), t_gnss=gnss_time(s), fix_valid=valid),))


@given(feeds())
# a fix lost, then an invalid epoch past the validity: its TICK starts the reset
@example([fix(10.0), fix(11.0, False), fix(18.0, False), fix(19.0), ("finish", ())])
@settings(max_examples=300, deadline=None)
def test_a_tick_only_on_an_epoch_that_applied_nothing_else_changes_no_feed(inputs):
    assert_runs_match(SHORT, inputs)


# -- the skipped events ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(builtin_scenarios()) + ["outage"])
def test_applying_time_only_events_in_place_changes_no_run(name):
    spec = OUTAGE if name == "outage" else builtin_scenarios()[name]
    assert_runs_match(CFG, scenario_inputs(spec), RuleForEveryEvent)


@given(feeds())
@example([fix(10.0), fix(11.0, False), fix(18.0, False), fix(19.0), ("finish", ())])
# an H1 latches ALARM, then H1 repeats with a streak of 0: time-only events
# in ALARM, and an rt reply stamped before the last input
@example([fix(10.0), ("nts", (NtsMeasurement(SignedDuration.from_s(1e-2),
                                             SignedDuration.from_s(0.01), mono(11.0), "n"),)),
          ("nts", (NtsMeasurement(SignedDuration.from_s(1e-2), SignedDuration.from_s(0.01),
                                  mono(12.0), "n"),)),
          ("roughtime", (RoughtimeMeasurement(gnss_time(10.0), SignedDuration.from_s(1.0),
                                              "r", mono(11.5)),)),
          ("finish", ())])
@settings(max_examples=300, deadline=None)
def test_applying_time_only_events_in_place_changes_no_feed(inputs):
    assert_runs_match(SHORT, inputs, RuleForEveryEvent)


# -- connectivity ------------------------------------------------------------


def test_monitor_applies_a_network_line_only_on_a_change_or_a_repeat():
    seen = []
    monitor = Monitor(CFG, CFG.detector.ll,
                      on_transition=lambda event, record: seen.append(event))
    monitor.epoch(*fix(10.0)[1])
    # the engine starts online: a repeated up reaches neither the state nor on_transition
    state, count = monitor.state, len(seen)
    monitor.network(True, mono(10.5))
    assert monitor.state is state and len(seen) == count
    # the order is checked first, also for a line that would change nothing
    with pytest.raises(OrderingError):
        monitor.network(True, mono(9.0))
    # offline while COLD_START: the phase stays, but the clock moves
    monitor.network(False, mono(11.0))
    assert monitor.state.phase is Phase.COLD_START
    assert monitor.t_last == mono(11.0)
    assert seen[-1].kind is EventKind.NETWORK_DOWN
    # scripted replies still reach FINE_MONITORING while offline
    monitor.roughtime(RoughtimeMeasurement(gnss_time(10.0), SignedDuration.from_s(1.0),
                                           "rt-test", mono(12.0)))
    monitor.nts(NtsMeasurement(SignedDuration.from_s(1e-5), SignedDuration.from_s(0.01),
                               mono(13.0), "nts-test"))
    assert monitor.state.phase is Phase.FINE_MONITORING
    # a plain repeated down is no change, so the phase stays where it is
    state, count = monitor.state, len(seen)
    monitor.network(False, mono(14.0))
    assert monitor.state is state and len(seen) == count
    # a repeated down, as a failed poll sends it, is applied and enters HOLDOVER
    monitor.network(False, mono(15.0), repeat=True)
    assert monitor.state.phase is Phase.HOLDOVER
    assert monitor.t_last == mono(15.0)
    assert [event.kind for event in seen[count:]] == [EventKind.NETWORK_DOWN]
    # a repeated down in HOLDOVER is applied too: it moves the clock
    monitor.network(False, mono(16.0), repeat=True)
    assert monitor.state.phase is Phase.HOLDOVER
    assert monitor.t_last == mono(16.0)
    # back online, the machine re-validates through NTS
    monitor.network(True, mono(17.0))
    assert monitor.state.phase is Phase.COARSE_VALIDATED

"""Tests for the validation state machine and trust policy."""

import itertools
import json
from dataclasses import FrozenInstanceError, asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeguard.detector import Hypothesis, Verdict
from timeguard.orchestrator import (
    RESET_FILTER,
    SCHEDULE_NTS,
    SCHEDULE_RT,
    Event,
    EventKind,
    OrchestratorConfig,
    OrderingError,
    Phase,
    PolicyError,
    alert,
    initial_state,
    only_time_moves,
    replay,
    step,
    transition_to_json,
)
from timeguard.timebase import MonotonicInstant


def mono(seconds):
    return MonotonicInstant(int(seconds * 1e9))


def verdict(test, hypothesis, t_mono, source_id=None):
    defaults = {"rt": "roughtime", "nts": "nts", "ll": "ensemble"}
    return Verdict(
        test=test,
        hypothesis=hypothesis,
        statistic=1.0,
        threshold=2.0,
        source_id=source_id or defaults[test],
        t_mono=t_mono,
    )


def ev(kind, t_s, test=None, hypothesis=Hypothesis.H0):
    t = mono(t_s)
    if test is None:
        return Event(kind, t)
    return Event(kind, t, verdict(test, hypothesis, t))


def run(events, config=None):
    return replay(events, config)


# -- nominal refinement path ------------------------------------------------


def test_cold_start_schedules_roughtime():
    state, actions = step(initial_state(), ev(EventKind.FIX_ACQUIRED, 0))
    assert state.phase is Phase.COLD_START
    assert SCHEDULE_RT in actions


def test_nominal_path_to_fine_monitoring():
    state, records = run(
        [
            ev(EventKind.FIX_ACQUIRED, 0),
            ev(EventKind.RT_VERDICT, 1, "rt"),
            ev(EventKind.NTS_VERDICT, 2, "nts"),
        ]
    )
    assert [r.to_phase for r in records] == [
        Phase.COLD_START,
        Phase.COARSE_VALIDATED,
        Phase.FINE_MONITORING,
    ]
    assert state.active_time_source == "gnss"
    assert RESET_FILTER in records[1].actions
    assert SCHEDULE_NTS in records[1].actions


def test_nts_substitutes_for_coarse_validation():
    state, records = run(
        [
            ev(EventKind.FIX_ACQUIRED, 0),
            ev(EventKind.NTS_VERDICT, 1, "nts"),
            ev(EventKind.NTS_VERDICT, 2, "nts"),
        ]
    )
    assert records[1].to_phase is Phase.COARSE_VALIDATED
    assert RESET_FILTER in records[1].actions
    assert state.phase is Phase.FINE_MONITORING


# -- alarms -----------------------------------------------------------------


def fine_state():
    state, _ = run(
        [
            ev(EventKind.FIX_ACQUIRED, 0),
            ev(EventKind.RT_VERDICT, 1, "rt"),
            ev(EventKind.NTS_VERDICT, 2, "nts"),
        ]
    )
    return state


def test_ll_h1_raises_alarm_on_ensemble():
    state, actions = step(fine_state(), ev(EventKind.LL_VERDICT, 3, "ll", Hypothesis.H1))
    assert state.phase is Phase.ALARM
    assert state.active_time_source == "ensemble"
    assert any(a.startswith("alert:h1:ll") for a in actions)


def test_h1_alarms_from_any_phase():
    state, _ = step(initial_state(), ev(EventKind.RT_VERDICT, 0, "rt", Hypothesis.H1))
    assert state.phase is Phase.ALARM
    assert state.active_time_source != "gnss"


def test_alarm_latches_until_auto_clear():
    state = fine_state()
    state, _ = step(state, ev(EventKind.NTS_VERDICT, 3, "nts", Hypothesis.H1))
    for i in range(10):
        state, actions = step(state, ev(EventKind.NTS_VERDICT, 4 + i, "nts"))
        if i < 9:
            assert state.phase is Phase.ALARM
            assert state.active_time_source != "gnss"
    # 10th consecutive clean validation clears with re-validation pending
    assert state.phase is Phase.COARSE_VALIDATED
    assert state.active_time_source == "gnss"


def test_alarm_streak_resets_on_new_h1():
    state = fine_state()
    state, _ = step(state, ev(EventKind.NTS_VERDICT, 3, "nts", Hypothesis.H1))
    for i in range(5):
        state, _ = step(state, ev(EventKind.NTS_VERDICT, 4 + i, "nts"))
    state, _ = step(state, ev(EventKind.NTS_VERDICT, 9, "nts", Hypothesis.H1))
    assert state.clean_streak == 0
    for i in range(9):
        state, _ = step(state, ev(EventKind.NTS_VERDICT, 10 + i, "nts"))
        assert state.phase is Phase.ALARM
    state, _ = step(state, ev(EventKind.NTS_VERDICT, 20, "nts"))
    assert state.phase is Phase.COARSE_VALIDATED


def test_explicit_clear_returns_to_coarse():
    state = fine_state()
    state, _ = step(state, ev(EventKind.LL_VERDICT, 3, "ll", Hypothesis.H1))
    state, _ = step(state, ev(EventKind.CLEAR, 4))
    assert state.phase is Phase.COARSE_VALIDATED
    assert state.active_time_source == "gnss"


def test_clear_without_prior_coarse_returns_to_cold():
    state, _ = step(initial_state(), ev(EventKind.RT_VERDICT, 0, "rt", Hypothesis.H1))
    state, _ = step(state, ev(EventKind.CLEAR, 1))
    assert state.phase is Phase.COLD_START


# -- connectivity and holdover ----------------------------------------------


def test_network_down_enters_holdover():
    state, _ = step(fine_state(), ev(EventKind.NETWORK_DOWN, 3))
    assert state.phase is Phase.HOLDOVER
    assert state.active_time_source == "gnss"  # benign holdover keeps GNSS


def test_network_up_revalidates_via_nts():
    state, _ = step(fine_state(), ev(EventKind.NETWORK_DOWN, 3))
    state, actions = step(state, ev(EventKind.NETWORK_UP, 4))
    assert state.phase is Phase.COARSE_VALIDATED
    assert SCHEDULE_NTS in actions
    state, _ = step(state, ev(EventKind.NTS_VERDICT, 5, "nts"))
    assert state.phase is Phase.FINE_MONITORING


def test_cold_start_unaffected_by_network_down():
    state, _ = step(initial_state(), ev(EventKind.NETWORK_DOWN, 0))
    assert state.phase is Phase.COLD_START


# -- outage and reset -------------------------------------------------------


def test_long_outage_forces_reset():
    state = fine_state()
    state, _ = step(state, ev(EventKind.FIX_LOST, 10))
    state, _ = step(state, ev(EventKind.TICK, 10 + 4 * 3600))  # boundary: still short
    assert state.phase is Phase.FINE_MONITORING
    state, actions = step(state, ev(EventKind.TICK, 10 + 5 * 3600))
    assert state.phase is Phase.RESET_PENDING
    assert any(a.startswith("alert:gnss_outage") for a in actions)
    assert state.active_time_source != "gnss"


def test_reacquired_fix_cancels_outage():
    state = fine_state()
    state, _ = step(state, ev(EventKind.FIX_LOST, 10))
    state, _ = step(state, ev(EventKind.FIX_ACQUIRED, 20))
    state, _ = step(state, ev(EventKind.TICK, 10 + 5 * 3600))
    assert state.phase is Phase.FINE_MONITORING


def test_reset_pending_restarts_cold():
    state = fine_state()
    state, _ = step(state, ev(EventKind.FIX_LOST, 10))
    state, _ = step(state, ev(EventKind.TICK, 10 + 5 * 3600))
    state, actions = step(state, ev(EventKind.FIX_ACQUIRED, 10 + 6 * 3600))
    assert state.phase is Phase.COLD_START
    assert not state.coarse_validated
    assert SCHEDULE_RT in actions


def test_fix_reacquired_after_a_long_outage_restarts_cold_without_a_tick():
    # no TICK fell inside the outage, so the reacquired fix classifies it
    state = fine_state()
    state, _ = step(state, ev(EventKind.FIX_LOST, 10))
    state, _ = step(state, ev(EventKind.FIX_ACQUIRED, 10 + 4 * 3600))  # boundary: still short
    assert state.phase is Phase.FINE_MONITORING
    state, _ = step(state, ev(EventKind.FIX_LOST, 20 + 4 * 3600))
    state, actions = step(state, ev(EventKind.FIX_ACQUIRED, 20 + 9 * 3600))
    assert state.phase is Phase.COLD_START
    assert state.outage_started is None
    assert not state.coarse_validated
    assert actions == [alert("gnss_outage_exceeds_ephemeris_validity"), SCHEDULE_RT]
    assert state.active_time_source == "gnss"


def test_policy_validation():
    with pytest.raises(PolicyError):
        OrchestratorConfig(auto_clear_k=0)
    with pytest.raises(PolicyError):
        Event(EventKind.RT_VERDICT, mono(0))


@pytest.mark.parametrize("setting, message", [
    ({"ephemeris_validity_s": 0.0}, "validity must be positive"),
    ({"rt_poll_s": 0.0}, "poll cadences must be positive"),
    ({"nts_poll_s": 0.0}, "poll cadences must be positive"),
])
def test_the_config_refuses_a_zero_validity_and_each_zero_cadence_alone(setting, message):
    with pytest.raises(PolicyError, match=message):
        OrchestratorConfig(**setting)


def test_the_config_is_frozen():
    config = OrchestratorConfig()
    for name, value in asdict(config).items():
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, value)
    assert config == OrchestratorConfig()


# -- ordering and determinism -----------------------------------------------


def test_out_of_order_event_rejected():
    with pytest.raises(OrderingError, match="event at 4000000000 ns precedes 5000000000 ns"):
        replay([ev(EventKind.FIX_ACQUIRED, 5), ev(EventKind.TICK, 4)])
    # equal instants allowed
    state, _ = replay([ev(EventKind.FIX_ACQUIRED, 5), ev(EventKind.TICK, 5)])
    assert state.phase is Phase.COLD_START


def test_replay_is_deterministic():
    events = [
        ev(EventKind.FIX_ACQUIRED, 0),
        ev(EventKind.RT_VERDICT, 1, "rt"),
        ev(EventKind.NTS_VERDICT, 2, "nts", Hypothesis.H1),
        ev(EventKind.NTS_VERDICT, 3, "nts"),
        ev(EventKind.NETWORK_DOWN, 4),
        ev(EventKind.NETWORK_UP, 5),
    ]
    assert run(events) == run(events)


# every kind, with both hypotheses for the verdict kinds
EVERY_EVENT = [
    (EventKind.FIX_ACQUIRED, None, None),
    (EventKind.FIX_LOST, None, None),
    (EventKind.RT_VERDICT, "rt", Hypothesis.H0),
    (EventKind.RT_VERDICT, "rt", Hypothesis.H1),
    (EventKind.NTS_VERDICT, "nts", Hypothesis.H0),
    (EventKind.NTS_VERDICT, "nts", Hypothesis.H1),
    (EventKind.LL_VERDICT, "ll", Hypothesis.H0),
    (EventKind.LL_VERDICT, "ll", Hypothesis.H1),
    (EventKind.NETWORK_UP, None, None),
    (EventKind.NETWORK_DOWN, None, None),
    (EventKind.TICK, None, None),
    (EventKind.CLEAR, None, None),
]
EVENT_POOL = st.sampled_from(EVERY_EVENT)


@given(st.lists(EVENT_POOL, max_size=60))
@settings(max_examples=300)
def test_safety_invariants_over_random_logs(choices):
    state = initial_state()
    for i, (kind, test, hyp) in enumerate(choices):
        event = ev(kind, float(i), test, hyp) if test else ev(kind, float(i))
        state, _ = step(state, event)
        if state.phase is Phase.FINE_MONITORING:
            assert state.coarse_validated
        if state.phase in (Phase.ALARM, Phase.RESET_PENDING):
            assert state.active_time_source != "gnss"


# a short validity and streak, so that long outages, RESET_PENDING and
# auto-clear all occur within a 60-event log
ORACLE_CONFIG = OrchestratorConfig(ephemeris_validity_s=2.0, auto_clear_k=3)


@given(st.lists(st.tuples(EVENT_POOL, st.integers(0, 2000)), max_size=60))
@settings(max_examples=500)
def test_fast_path_agrees_with_the_full_rule(log):
    # ORACLE_CONFIG's short validity and streak take the log through every
    # phase and streak the predicate reads
    state, t_ms = initial_state(), 0
    for (kind, test, hyp), gap_ms in log:
        t_ms += gap_ms
        event = ev(kind, t_ms / 1000, test, hyp) if test else ev(kind, t_ms / 1000)
        got = step(state, event, ORACLE_CONFIG)
        if only_time_moves(state, kind, event.verdict):
            assert got == (state, [])
        state = got[0]


# -- differential test against a rule that stores the trust decision -------


@dataclass(frozen=True)
class ReferenceSummary:
    """Last hypothesis per test; None means not yet exercised."""

    last_rt: Optional[Hypothesis] = None
    last_nts: Optional[Hypothesis] = None
    last_ll: Optional[Hypothesis] = None

    @property
    def any_h1(self) -> bool:
        return Hypothesis.H1 in (self.last_rt, self.last_nts, self.last_ll)


@dataclass(frozen=True)
class ReferenceState:
    phase: Phase = Phase.COLD_START
    outage_started: Optional[MonotonicInstant] = None
    active_time_source: str = "gnss"
    summary: ReferenceSummary = field(default_factory=ReferenceSummary)
    coarse_validated: bool = False
    clean_streak: int = 0


REFERENCE_SLOT = {
    EventKind.RT_VERDICT: "last_rt",
    EventKind.NTS_VERDICT: "last_nts",
    EventKind.LL_VERDICT: "last_ll",
}


def reference_apply(state, event, config):
    """The full rule with each test's last hypothesis kept in a summary and
    the active source stored, set from the phase or any H1 in the summary:
    the differential oracle."""
    actions = []
    phase = state.phase
    outage = state.outage_started
    summary = state.summary
    coarse = state.coarse_validated
    streak = state.clean_streak

    kind = event.kind
    if kind is EventKind.TICK or kind is EventKind.FIX_ACQUIRED:
        if (outage is not None and phase is not Phase.RESET_PENDING
                and event.t_mono.elapsed_s(outage) > config.ephemeris_validity_s):
            phase = Phase.RESET_PENDING
            actions.append(alert("gnss_outage_exceeds_ephemeris_validity"))
    if kind is EventKind.FIX_ACQUIRED:
        outage = None
        if phase is Phase.COLD_START:
            actions.append(SCHEDULE_RT)
        elif phase is Phase.RESET_PENDING:
            phase, summary, coarse, streak = Phase.COLD_START, ReferenceSummary(), False, 0
            actions.append(SCHEDULE_RT)
    elif kind is EventKind.FIX_LOST:
        if outage is None:
            outage = event.t_mono
    elif kind in REFERENCE_SLOT:
        verdict = event.verdict
        summary = replace(summary, **{REFERENCE_SLOT[kind]: verdict.hypothesis})
        if verdict.hypothesis is Hypothesis.H1:
            if phase is not Phase.ALARM:
                actions.append(alert(f"h1:{verdict.test}:{verdict.source_id}"))
            phase, streak = Phase.ALARM, 0
        elif phase is Phase.ALARM:
            streak += 1
            if streak >= config.auto_clear_k:
                phase = Phase.COARSE_VALIDATED if coarse else Phase.COLD_START
                summary, streak = ReferenceSummary(), 0
                actions.append(alert("auto_clear"))
        elif kind is not EventKind.LL_VERDICT and phase is Phase.COLD_START:
            phase, coarse = Phase.COARSE_VALIDATED, True
            actions += [RESET_FILTER, SCHEDULE_NTS]
        elif kind is EventKind.NTS_VERDICT and phase is Phase.COARSE_VALIDATED:
            phase = Phase.FINE_MONITORING
    elif kind is EventKind.NETWORK_DOWN:
        if phase in (Phase.FINE_MONITORING, Phase.COARSE_VALIDATED):
            phase = Phase.HOLDOVER
    elif kind is EventKind.NETWORK_UP:
        if phase is Phase.HOLDOVER:
            phase = Phase.COARSE_VALIDATED
            actions.append(SCHEDULE_NTS)
    elif kind is EventKind.CLEAR:
        if phase is Phase.ALARM:
            phase = Phase.COARSE_VALIDATED if coarse else Phase.COLD_START
            summary, streak = ReferenceSummary(), 0

    suspect = phase in (Phase.ALARM, Phase.RESET_PENDING) or summary.any_h1
    return ReferenceState(phase, outage, "ensemble" if suspect else "gnss",
                          summary, coarse, streak), actions


def observable(state):
    return (state.phase, state.outage_started, state.coarse_validated,
            state.clean_streak, state.active_time_source)


@given(st.lists(st.tuples(EVENT_POOL, st.integers(0, 2000)), max_size=60))
@settings(max_examples=500)
def test_step_matches_the_rule_that_stores_the_trust_decision(log):
    # EVENT_POOL holds CLEAR, and ORACLE_CONFIG makes RESET_PENDING and
    # auto-clear occur, so every way out of ALARM and RESET_PENDING is taken
    state, reference, t_ms = initial_state(), ReferenceState(), 0
    for (kind, test, hyp), gap_ms in log:
        t_ms += gap_ms
        event = ev(kind, t_ms / 1000, test, hyp) if test else ev(kind, t_ms / 1000)
        state, actions = step(state, event, ORACLE_CONFIG)
        reference, expected = reference_apply(reference, event, ORACLE_CONFIG)
        assert (observable(state), actions) == (observable(reference), expected)


# -- transition log ---------------------------------------------------------


def test_transition_jsonl_roundtrip():
    _, records = run(
        [ev(EventKind.FIX_ACQUIRED, 0), ev(EventKind.RT_VERDICT, 1, "rt")]
    )
    assert [json.loads(transition_to_json(record)) for record in records] == [
        {"t_mono_ns": 0, "event": "FixAcquired", "from_phase": "COLD_START",
         "to_phase": "COLD_START", "active_source": "gnss",
         "actions": ["schedule_poll:roughtime"]},
        {"t_mono_ns": 1_000_000_000, "event": "RtVerdict", "from_phase": "COLD_START",
         "to_phase": "COARSE_VALIDATED", "active_source": "gnss",
         "actions": ["reset_filter:ensemble", "schedule_poll:nts"]},
    ]


# -- every reachable state ---------------------------------------------------

# the same instant, a step inside a 2 s ephemeris validity, and one past it
STEPS_NS = (0, 10**9, 3 * 10**9)


def state_key(state, t):
    """Phase, outage age at the instant t, coarse_validated and clean_streak.
    Every age past the 2 s validity acts alike, so ages are capped at 3 s and
    keys are finite."""
    age = None if state.outage_started is None else min(
        t.nanoseconds - state.outage_started.nanoseconds, 3 * 10**9)
    return state.phase, age, state.coarse_validated, state.clean_streak


def reachable_edges(config):
    """(state, EVERY_EVENT entry, event, new state, actions) for each entry
    at each step of STEPS_NS, from every state reachable from initial_state()
    under config; the event carries the entry's verdict and its instant."""
    seen, todo = set(), [(initial_state(), MonotonicInstant(0))]
    while todo:
        state, last = todo.pop()
        for entry, dt in itertools.product(EVERY_EVENT, STEPS_NS):
            kind, test, hyp = entry
            t = MonotonicInstant(last.nanoseconds + dt)
            event = Event(kind, t, verdict(test, hyp, t) if test else None)
            new, actions = step(state, event, config)
            yield state, entry, event, new, actions
            if state_key(new, t) not in seen:
                seen.add(state_key(new, t))
                todo.append((new, t))


@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_every_reachable_state_keeps_the_fast_path_and_the_trust_rules(k):
    assert {kind for kind, _, _ in EVERY_EVENT} == set(EventKind)
    config = OrchestratorConfig(ephemeris_validity_s=2.0, auto_clear_k=k)
    reached = set()
    for state, (kind, _, hyp), event, new, actions in reachable_edges(config):
        if only_time_moves(state, kind, event.verdict):
            assert (new, actions) == (state, []), (state, event)
        if new.phase in (Phase.ALARM, Phase.RESET_PENDING):
            assert new.active_time_source != "gnss"
        if new.phase is Phase.FINE_MONITORING and state.phase is not Phase.FINE_MONITORING:
            assert (kind, hyp) == (EventKind.NTS_VERDICT, Hypothesis.H0), (state, event)
        reached.add(new.phase)
    assert reached == set(Phase)


# -- the README's phase x event table ----------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"
TABLE_BEGIN = "<!-- phase x event table, printed by `python3 tests/test_orchestrator.py` -->\n"
TABLE_END = "<!-- end of the phase x event table -->\n"


def phase_event_table():
    """A Markdown table of the phases step leads to from each phase (a
    column) on each event (a row), the verdict kinds split by hypothesis,
    over every reachable state at the default auto_clear_k."""
    leads = {(entry, phase): set() for entry in EVERY_EVENT for phase in Phase}
    for state, entry, _, new, _ in reachable_edges(OrchestratorConfig(ephemeris_validity_s=2.0)):
        leads[entry, state.phase].add(new.phase)
    rows = ["| event | " + " | ".join(phase.value for phase in Phase) + " |",
            "|---" * (len(Phase) + 1) + "|"]
    for entry in EVERY_EVENT:
        kind, _, hyp = entry
        cells = [", ".join(p.value for p in Phase if p in leads[entry, phase]) for phase in Phase]
        rows.append(f"| {kind.value}{f' {hyp.value}' if hyp else ''} | " + " | ".join(cells) + " |")
    return "".join(row + "\n" for row in rows)


def test_the_readme_table_is_the_enumerated_rule():
    readme = README.read_text()
    assert readme.count(TABLE_BEGIN) == readme.count(TABLE_END) == 1
    block = readme.split(TABLE_BEGIN, 1)[1].split(TABLE_END, 1)[0]
    assert block == phase_event_table()


if __name__ == "__main__":
    print(TABLE_BEGIN + phase_event_table() + TABLE_END, end="")

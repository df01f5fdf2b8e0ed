"""Event-driven supervision of GNSS time validation.

A pure state machine that refines trust progressively: cold start, coarse
validation against Roughtime (or NTS when Roughtime is unreachable), fine
monitoring against NTS, holdover on the local ensemble when the network
drops, latched alarm on any H1 verdict, and a cold-start reset once a GNSS
outage outlives the broadcast ephemeris.

Trust follows from the phase: GNSS is the active time source except in
ALARM and RESET_PENDING, where the local ensemble is.

step() is the transition rule: a pure function of (state, event, config).
The state holds the trust decision alone and no clock; the engine that
drives the rule keeps the instant of the last event it applied and
refuses one stamped before it, as replay() does for an event log.

Almost every event changes nothing: a TICK with no outage open, or a
verdict that can move neither the phase nor the clean streak.
only_time_moves() recognises these from the state, the event's kind and
its verdict: step() gives such an event back its state and no action, so
an engine that asks the predicate first can skip the event unbuilt.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

from .detector import Hypothesis, Verdict
from .receiver_feed import json_string
from .timebase import MonotonicInstant


class OrderingError(Exception):
    """Event timestamped before one already processed."""


class PolicyError(Exception):
    """Trust policy or configuration out of range."""


class Phase(Enum):
    COLD_START = "COLD_START"
    COARSE_VALIDATED = "COARSE_VALIDATED"
    FINE_MONITORING = "FINE_MONITORING"
    HOLDOVER = "HOLDOVER"
    ALARM = "ALARM"
    RESET_PENDING = "RESET_PENDING"


class EventKind(Enum):
    FIX_ACQUIRED = "FixAcquired"
    FIX_LOST = "FixLost"
    RT_VERDICT = "RtVerdict"
    NTS_VERDICT = "NtsVerdict"
    LL_VERDICT = "LlVerdict"
    NETWORK_UP = "NetworkUp"
    NETWORK_DOWN = "NetworkDown"
    TICK = "Tick"
    CLEAR = "Clear"


_VERDICT_KINDS = (EventKind.RT_VERDICT, EventKind.NTS_VERDICT, EventKind.LL_VERDICT)

SCHEDULE_RT = "schedule_poll:roughtime"
SCHEDULE_NTS = "schedule_poll:nts"
RESET_FILTER = "reset_filter:ensemble"


def alert(reason: str) -> str:
    return f"alert:{reason}"


class _EventFields(NamedTuple):
    kind: EventKind
    t_mono: MonotonicInstant
    verdict: Optional[Verdict] = None


class Event(_EventFields):
    """Immutable input to the state machine; verdict kinds carry payload.

    A tuple, built only for an event that reaches step(); the constructor
    checks the payload before it builds the tuple.
    """

    __slots__ = ()

    def __new__(cls, kind: EventKind, t_mono: MonotonicInstant,
                verdict: Optional[Verdict] = None) -> "Event":
        if kind in _VERDICT_KINDS and verdict is None:
            raise PolicyError(f"{kind.value} event requires a verdict payload")
        return tuple.__new__(cls, (kind, t_mono, verdict))


@dataclass(frozen=True)
class OrchestratorConfig:
    ephemeris_validity_s: float = 4 * 3600.0
    auto_clear_k: int = 10
    rt_poll_s: float = 10.0
    nts_poll_s: float = 30.0

    def __post_init__(self) -> None:
        if self.ephemeris_validity_s <= 0 or self.auto_clear_k < 1:
            raise PolicyError("validity must be positive and auto_clear_k >= 1")
        if self.rt_poll_s <= 0 or self.nts_poll_s <= 0:
            raise PolicyError("poll cadences must be positive")


# GNSS, the most accurate source, outside an alarm or a reset; else the
# ensemble, which sits inside the hardware boundary and so stays clean
# whether or not the network is reachable.  Keyed by the phase's text: an
# enum member hashes through a Python-level __hash__, a str does not
_SOURCE = {phase._value_: "ensemble" if phase in (Phase.ALARM, Phase.RESET_PENDING) else "gnss"
           for phase in Phase}


class OrchestratorState(NamedTuple):
    """The state machine's state, an immutable tuple: step builds one per event."""

    phase: Phase = Phase.COLD_START
    outage_started: Optional[MonotonicInstant] = None
    coarse_validated: bool = False
    clean_streak: int = 0

    @property
    def active_time_source(self) -> str:
        return _SOURCE[self.phase._value_]


def initial_state() -> OrchestratorState:
    return OrchestratorState()


def _cleared(coarse_validated: bool) -> Phase:
    return Phase.COARSE_VALIDATED if coarse_validated else Phase.COLD_START


def only_time_moves(state: OrchestratorState, kind: EventKind,
                    verdict: Optional[Verdict] = None) -> bool:
    """True when step() gives an event of this kind and verdict back the
    state it was given and no action.  A verdict kind comes with its
    verdict, since the Event constructor refuses one without it, so the
    verdict is read for a verdict kind and not checked for None."""
    phase = state.phase
    if kind is EventKind.TICK:
        return state.outage_started is None or phase is Phase.RESET_PENDING
    if kind not in _VERDICT_KINDS:
        return False
    if verdict.hypothesis is Hypothesis.H1:
        return phase is Phase.ALARM and state.clean_streak == 0
    if phase is Phase.COLD_START:
        return kind is EventKind.LL_VERDICT
    if phase is Phase.COARSE_VALIDATED:
        return kind is not EventKind.NTS_VERDICT
    return phase is not Phase.ALARM


def step(
    state: OrchestratorState, event: Event, config: Optional[OrchestratorConfig] = None
) -> tuple[OrchestratorState, list[str]]:
    """Apply one event; returns the new state and side-effect requests."""
    config = config or OrchestratorConfig()
    actions: list[str] = []
    phase = state.phase
    outage = state.outage_started
    coarse = state.coarse_validated
    streak = state.clean_streak

    kind = event.kind
    if kind is EventKind.TICK or kind is EventKind.FIX_ACQUIRED:
        # an outage is short while it fits inside the ephemeris validity,
        # inclusive; a fix reacquired after a long one forces a cold start
        # even when no TICK arrived during the outage to see it expire
        if (outage is not None and phase is not Phase.RESET_PENDING
                and event.t_mono.elapsed_s(outage) > config.ephemeris_validity_s):
            phase = Phase.RESET_PENDING
            actions.append(alert("gnss_outage_exceeds_ephemeris_validity"))
    if kind is EventKind.FIX_ACQUIRED:
        outage = None
        if phase is Phase.COLD_START:
            actions.append(SCHEDULE_RT)
        elif phase is Phase.RESET_PENDING:
            phase = Phase.COLD_START
            coarse = False
            streak = 0
            actions.append(SCHEDULE_RT)
    elif kind is EventKind.FIX_LOST:
        if outage is None:
            outage = event.t_mono
    elif kind in _VERDICT_KINDS:
        verdict = event.verdict
        if verdict.hypothesis is Hypothesis.H1:
            if phase is not Phase.ALARM:
                actions.append(alert(f"h1:{verdict.test}:{verdict.source_id}"))
            phase = Phase.ALARM
            streak = 0
        elif phase is Phase.ALARM:
            streak += 1
            if streak >= config.auto_clear_k:
                phase, streak = _cleared(coarse), 0
                actions.append(alert("auto_clear"))
        elif kind is not EventKind.LL_VERDICT and phase is Phase.COLD_START:
            # the first network H0; from NTS when Roughtime is unreachable,
            # since the tighter NTS bound covers coarse too
            phase = Phase.COARSE_VALIDATED
            coarse = True
            actions += [RESET_FILTER, SCHEDULE_NTS]
        elif kind is EventKind.NTS_VERDICT and phase is Phase.COARSE_VALIDATED:
            phase = Phase.FINE_MONITORING
    elif kind is EventKind.NETWORK_DOWN:
        if phase in (Phase.FINE_MONITORING, Phase.COARSE_VALIDATED):
            phase = Phase.HOLDOVER
    elif kind is EventKind.NETWORK_UP:
        if phase is Phase.HOLDOVER:
            # re-validate via NTS before resuming fine monitoring
            phase = Phase.COARSE_VALIDATED
            actions.append(SCHEDULE_NTS)
    elif kind is EventKind.CLEAR:
        if phase is Phase.ALARM:
            phase, streak = _cleared(coarse), 0

    return OrchestratorState(phase, outage, coarse, streak), actions


class TransitionRecord(NamedTuple):
    t_mono: MonotonicInstant
    event: str
    from_phase: Phase
    to_phase: Phase
    actions: tuple


def advance(
    state: OrchestratorState,
    event: Event,
    config: Optional[OrchestratorConfig] = None,
    on_record: Optional[Callable[[Event, TransitionRecord], None]] = None,
) -> tuple[OrchestratorState, list[str]]:
    """step() one event; its transition record is built only for an on_record."""
    new_state, actions = step(state, event, config)
    if on_record is not None:
        # an enum member's text is its plain _value_ attribute; .value is a
        # property that costs a Python-level call
        on_record(event, TransitionRecord(event.t_mono, event.kind._value_, state.phase,
                                          new_state.phase, tuple(actions)))
    return new_state, actions


def replay(
    events: Sequence[Event], config: Optional[OrchestratorConfig] = None
) -> tuple[OrchestratorState, list[TransitionRecord]]:
    """Run an event log from initial_state() through advance(), collecting
    the transition trail; OrderingError for an event stamped before the
    one before it."""
    state = initial_state()
    records: list[TransitionRecord] = []
    last_ns = 0
    for event in events:
        if event.t_mono.nanoseconds < last_ns:
            raise OrderingError(f"event at {event.t_mono.nanoseconds} ns precedes {last_ns} ns")
        last_ns = event.t_mono.nanoseconds
        state, _ = advance(state, event, config, lambda _, record: records.append(record))
    return state, records


def transition_to_json(record: TransitionRecord) -> str:
    """One transitions.jsonl line, encoded as receiver_feed.epoch_to_json is."""
    actions = ",".join(map(json_string, record.actions))
    return (
        f'{{"t_mono_ns":{int.__repr__(record.t_mono.nanoseconds)},'
        f'"event":{json_string(record.event)},'
        f'"from_phase":"{record.from_phase._value_}","to_phase":"{record.to_phase._value_}",'
        f'"active_source":"{_SOURCE[record.to_phase._value_]}","actions":[{actions}]}}'
    )

"""The hand-written line encoders against json.dumps.

epoch_to_json, feed_line, verdict_to_json and transition_to_json build
their lines with f-strings.  Each must write the bytes that
json.dumps(dict, separators=(",", ":")) writes for the same record; the
references below are that dict, key for key.
"""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from timeguard.detector import Hypothesis, Verdict, verdict_to_json
from timeguard.orchestrator import (
    RESET_FILTER,
    SCHEDULE_NTS,
    EventKind,
    Phase,
    TransitionRecord,
    alert,
    transition_to_json,
)
from timeguard.receiver_feed import (
    EpochRecord,
    NtsMeasurement,
    RoughtimeMeasurement,
    epoch_to_json,
    feed_line,
)
from timeguard.timebase import MonotonicInstant, SignedDuration, Timestamp


def dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def epoch_ref(rec: EpochRecord) -> str:
    return dumps({
        "t_mono_ns": rec.t_mono.nanoseconds,
        "t_gnss": {"sec": rec.t_gnss.seconds, "frac": str(rec.t_gnss.fraction)},
        "fix_valid": rec.fix_valid,
        "leap_applied": rec.leap_applied,
        "source_id": rec.source_id,
    })


# the reference line of each Monitor input a feed carries
FEED_REFS = {
    "epoch": epoch_ref,
    "network": lambda up, t: dumps({"type": "network", "t_mono_ns": t.nanoseconds, "up": up}),
    "roughtime": lambda rt: dumps({"type": "rt", "t_mono_ns": rt.t_mono_rx.nanoseconds,
                                   "midpoint_unix_ns": rt.midpoint.to_ns(),
                                   "radius_s": rt.radius.to_s(), "source_id": rt.server_id}),
    "nts": lambda nts: dumps({"type": "nts", "t_mono_ns": nts.t_mono_rx.nanoseconds,
                              "offset_s": nts.offset.to_s(), "delay_s": nts.delay.to_s(),
                              "source_id": nts.server_id}),
}


def verdict_ref(v: Verdict) -> str:
    return dumps({
        "t_mono_ns": v.t_mono.nanoseconds,
        "test": v.test,
        "statistic": v.statistic,
        "threshold": v.threshold,
        "hypothesis": v.hypothesis.value,
        "source_id": v.source_id,
    })


def transition_ref(r: TransitionRecord) -> str:
    return dumps({
        "t_mono_ns": r.t_mono.nanoseconds,
        "event": r.event,
        "from_phase": r.from_phase.value,
        "to_phase": r.to_phase.value,
        "active_source": "ensemble" if r.to_phase in (Phase.ALARM, Phase.RESET_PENDING) else "gnss",
        "actions": list(r.actions),
    })


# feed lines accept any JSON string as a source id
IDS = ["gnss", 'say "hi"', "back\\slash", "bell\x07tab\t", "line\u2028sep", "Z\u00fcrich", ""]
T_MONO = [MonotonicInstant(0), MonotonicInstant(1_500_000_000), MonotonicInstant(2**64 - 1)]
T_GNSS = [
    Timestamp.from_parts(1_689_120_000, 2**63 + 12_345),
    Timestamp.from_parts(-2, 2**64 - 1),
    Timestamp(-1),
    Timestamp(0),
]
FLOATS = [-0.0, 0.0, 5e-324, 1e300, -12.330742521827073, 1.5e-4, 2.0**-64]

EPOCHS = (
    [EpochRecord(t, T_GNSS[0], True) for t in T_MONO]
    + [EpochRecord(T_MONO[1], ts, True) for ts in T_GNSS]
    + [EpochRecord(T_MONO[1], T_GNSS[0], False, leap_applied=False)]
    + [EpochRecord(T_MONO[1], T_GNSS[0], True, source_id=s) for s in ("rx-0", "0", "rx 2")]
    + [EpochRecord(T_MONO[1], T_GNSS[1], False, source_id=s) for s in IDS]
)

VERDICTS = (
    [Verdict("nts", Hypothesis.H1, x, 1.5e-4, "nts-a", T_MONO[1]) for x in FLOATS]
    + [Verdict("ll", Hypothesis.H0, 3.0, x, "ensemble", T_MONO[0]) for x in FLOATS]
    + [Verdict("rt", Hypothesis.H0, 0.25, 10.0, s, t) for s in IDS for t in (T_MONO[0], T_MONO[2])]
)

# both ends of the 128-bit range, one unit, and durations a float spells
DURATIONS = [SignedDuration(u) for u in (0, 1, -1, 2**127 - 1, -(2**127))] + [
    SignedDuration.from_s(x) for x in (-12.330742521827073, 1.5e-4, 0.01)]
RADII = [d for d in DURATIONS if d.units >= 0]

FEED_INPUTS = (
    [("epoch", (r,)) for r in EPOCHS]
    + [("network", (up, t)) for up in (True, False) for t in T_MONO]
    + [("roughtime", (RoughtimeMeasurement(ts, r, "rt", T_MONO[1]),))
       for ts in T_GNSS for r in RADII]
    + [("roughtime", (RoughtimeMeasurement(T_GNSS[0], RADII[-1], s, t),))
       for s in IDS for t in T_MONO]
    + [("nts", (NtsMeasurement(d, r, T_MONO[1], "nts"),)) for d in DURATIONS for r in RADII]
    + [("nts", (NtsMeasurement(DURATIONS[-1], RADII[-1], t, s),)) for s in IDS for t in T_MONO]
)

ACTIONS = [(), (SCHEDULE_NTS,), (RESET_FILTER, SCHEDULE_NTS)] + [
    (alert(f"h1:nts:{s}"), SCHEDULE_NTS) for s in IDS
]

TRANSITIONS = [
    TransitionRecord(t, kind.value, Phase.COLD_START, phase, actions)
    for t, kind, phase, actions in [
        (T_MONO[0], EventKind.TICK, Phase.COLD_START, ACTIONS[0]),
        (T_MONO[2], EventKind.FIX_ACQUIRED, Phase.COLD_START, ACTIONS[1]),
        (T_MONO[1], EventKind.RT_VERDICT, Phase.COARSE_VALIDATED, ACTIONS[2]),
    ]
] + [
    TransitionRecord(T_MONO[1], EventKind.NTS_VERDICT.value, Phase.FINE_MONITORING,
                     Phase.ALARM, actions)
    for actions in ACTIONS[3:]
]

CASES = (
    [(epoch_to_json, epoch_ref, r) for r in EPOCHS]
    + [(verdict_to_json, verdict_ref, v) for v in VERDICTS]
    + [(transition_to_json, transition_ref, r) for r in TRANSITIONS]
)


@pytest.mark.parametrize(
    "encode, reference, record", CASES,
    ids=[f"{encode.__name__}-{i}" for i, (encode, _, _) in enumerate(CASES)],
)
def test_encoder_matches_json_dumps(encode, reference, record):
    line = encode(record)
    assert line == reference(record)
    assert line.isascii()


@pytest.mark.parametrize("name, args", FEED_INPUTS,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(FEED_INPUTS)])
def test_feed_line_matches_json_dumps(name, args):
    durations = () if name in ("epoch", "network") else (
        (args[0].radius,) if name == "roughtime" else (args[0].offset, args[0].delay))
    if any(d.to_s() >= 2.0**63 for d in durations):
        # spelled 2^63 s, it would read back past the duration range
        with pytest.raises(ValueError, match=r"reaches 2\^63 s"):
            feed_line(name, args)
        return
    line = feed_line(name, args)
    assert line == FEED_REFS[name](*args)
    assert line.isascii()



# any double, doubles near the top of the range, and both zeros often
THRESHOLDS = st.one_of(st.floats(), st.floats(min_value=1e307), st.floats(max_value=-1e307),
                       st.sampled_from((0.0, -0.0)))


@given(st.lists(THRESHOLDS, min_size=1, max_size=12))
@example([0.0, -0.0, 0.0])
@example([-0.0, 0.0, -0.0])
@example([5e-324, -5e-324, 2.225073858507201e-308, 5e-324])
@example([1.7976931348623157e308, -1e308, 1e308, 1.7976931348623157e308])
def test_verdict_to_json_spells_each_threshold_as_float_repr(thresholds):
    # verdict_to_json spells a nonzero threshold through a cache, so each
    # threshold is encoded twice, the second time from the cache, between
    # the others; the cache lives across examples
    for threshold in thresholds + thresholds:
        line = verdict_to_json(Verdict("ll", Hypothesis.H0, 1.5, threshold, "s", T_MONO[0]))
        assert f'"threshold":{float.__repr__(threshold)},' in line
        assert line == verdict_to_json(Verdict("ll", Hypothesis.H0, 1.5, threshold, "s",
                                               T_MONO[0]))

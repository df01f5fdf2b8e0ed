"""The per-epoch records keep their contracts as tuples.

EpochRecord, ClockKfState and Verdict are NamedTuples, because every
epoch builds one of each; so are Event and OrchestratorState, built for
each event that goes through the transition rule.  The three that
check their fields do so in a __new__ that runs before the tuple is
built, with the exception and text the frozen dataclasses raised; every
record refuses assignment to a field, and two records built from equal
fields are equal and hash alike.
"""

import pickle
import re

import pytest

from timeguard.detector import ConfigError, Hypothesis, Verdict
from timeguard.ensemble import ClockKfState, FilterDomainError, kf_init
from timeguard.orchestrator import (
    Event,
    EventKind,
    OrchestratorState,
    Phase,
    PolicyError,
)
from timeguard.receiver_feed import EpochRecord
from timeguard.timebase import MonotonicInstant, Timestamp

T = MonotonicInstant(5 * 10**9)


def verdict(**changes):
    fields = dict(test="rt", hypothesis=Hypothesis.H0, statistic=0.25, threshold=1.0,
                  source_id="rt-feed", t_mono=T)
    return Verdict(**{**fields, **changes})


# each builds one record from fresh but equal field values
BUILDERS = {
    "EpochRecord": lambda: EpochRecord(MonotonicInstant(7), Timestamp(2**70 + 1), True,
                                       False, "gnss-sim"),
    "ClockKfState": lambda: ClockKfState(1e-7, 2e-10, 1e-12, 0.0, 1e-18),
    "Verdict": verdict,
    "Event": lambda: Event(EventKind.NTS_VERDICT, T, verdict(test="nts")),
    "OrchestratorState": lambda: OrchestratorState(Phase.HOLDOVER, MonotonicInstant(3), True,
                                                   2),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_equal_fields_make_equal_records_that_hash_alike(build):
    a, b = build(), build()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_a_field_cannot_be_assigned(build):
    record = build()
    first = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, record[0])
    with pytest.raises(AttributeError):
        record.unknown = 1  # no __dict__ to take it


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_a_record_round_trips_through_pickle(build):
    # unpickling calls the class's __new__, so a checked record is checked again
    record = build()
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record)
    assert again == record


def test_defaults_fill_the_unset_fields():
    rec = EpochRecord(MonotonicInstant(0), Timestamp(0), fix_valid=True)
    assert (rec.leap_applied, rec.source_id) == (True, "gnss")
    assert OrchestratorState() == (Phase.COLD_START, None, False, 0)
    assert OrchestratorState().active_time_source == "gnss"
    assert Event(EventKind.TICK, T).verdict is None
    assert kf_init(1e-7) == ClockKfState(1e-7, 0.0, 1e-12, 0.0, 1e-18)


def test_the_filter_state_is_the_estimate_alone():
    # the oscillator model is an argument of kf_predict and kf_update
    assert ClockKfState._fields == ("bias", "drift", "p00", "p01", "p11")


# -- each failing check: its exception and text, as the dataclasses raised ----

CHECKS = [
    (lambda: ClockKfState(0.0, 0.0, 1.0, 2.0, 1.0),
     FilterDomainError, "covariance not PSD: min eigenvalue -1.0"),
    (lambda: ClockKfState(0.0, 0.0, float("inf"), 0.0, 1.0),
     FilterDomainError, "covariance has non-finite entries"),
    (lambda: ClockKfState(bias=0.0, drift=0.0, p00=float("nan"), p01=0.0, p11=1.0),
     FilterDomainError, "covariance has non-finite entries"),
    (lambda: verdict(test="gps"), ConfigError, "unknown test kind 'gps'"),
    (lambda: Verdict("RT", Hypothesis.H1, 1.0, 0.5, "x", T), ConfigError,
     "unknown test kind 'RT'"),
    (lambda: Event(EventKind.RT_VERDICT, T), PolicyError,
     "RtVerdict event requires a verdict payload"),
    (lambda: Event(EventKind.LL_VERDICT, T, None), PolicyError,
     "LlVerdict event requires a verdict payload"),
    (lambda: Event(kind=EventKind.NTS_VERDICT, t_mono=T), PolicyError,
     "NtsVerdict event requires a verdict payload"),
]


@pytest.mark.parametrize("build, error, text", CHECKS)
def test_a_failing_check_raises_what_the_dataclass_raised(build, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        build()


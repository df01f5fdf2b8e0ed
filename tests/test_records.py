"""The per-epoch records and time values keep their contracts.

EpochRecord, ClockKfState and Verdict are NamedTuples, because every
epoch builds one of each; so are Event and OrchestratorState, built for
each event that goes through the transition rule.  The three that
check their fields do so in a __new__ that runs before the tuple is
built, with the exception and text the frozen dataclasses raised.  The
time types (SignedDuration, Timestamp, MonotonicInstant) and the reply
records (RoughtimeMeasurement, NtsMeasurement) are frozen dataclasses
that keep their fields in slots.  Every record refuses assignment, holds
no instance dict, and round-trips through pickle and deepcopy; two
records built from equal fields are equal and hash alike.
"""

import copy
import dataclasses
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
from timeguard.receiver_feed import EpochRecord, NtsMeasurement, RoughtimeMeasurement
from timeguard.timebase import MonotonicInstant, SignedDuration, Timestamp, TimeRangeError

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
    "SignedDuration": lambda: SignedDuration(-(2**70) - 3),
    "Timestamp": lambda: Timestamp(2**70 + 1),
    "MonotonicInstant": lambda: MonotonicInstant(2**63 + 7),
    "RoughtimeMeasurement": lambda: RoughtimeMeasurement(Timestamp(2**95), SignedDuration(2**64),
                                                         "rt-feed", MonotonicInstant(9)),
    "NtsMeasurement": lambda: NtsMeasurement(SignedDuration(-(2**50)), SignedDuration(2**58),
                                             MonotonicInstant(9), "nts-feed"),
}


def first_field(record) -> str:
    """The name of a record's first field, a NamedTuple's or a dataclass's."""
    if isinstance(record, tuple):
        return type(record)._fields[0]
    return dataclasses.fields(record)[0].name


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
    first = first_field(record)
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.unknown = 1  # no __dict__ to take it


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_a_record_holds_no_instance_dict(build):
    assert not hasattr(build(), "__dict__")


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_a_record_round_trips_through_pickle(build):
    # unpickling calls the class's __new__, or a dataclass's constructor, so
    # a checked record is checked again
    record = build()
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record)
    assert again == record


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_a_record_round_trips_through_deepcopy(build):
    record = build()
    again = copy.deepcopy(record)
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
    (lambda: SignedDuration(1 << 127), TimeRangeError,
     "duration out of 128-bit range: 170141183460469231731687303715884105728"),
    (lambda: Timestamp(-(1 << 127) - 1), TimeRangeError,
     "timestamp out of 128-bit range: -170141183460469231731687303715884105729"),
    (lambda: MonotonicInstant(-1), TimeRangeError, "monotonic ns out of uint64: -1"),
    (lambda: RoughtimeMeasurement(Timestamp(0), SignedDuration(-1), "rt", T), ValueError,
     "radius must be non-negative"),
    (lambda: NtsMeasurement(SignedDuration(0), SignedDuration(-1), T, "nts"), ValueError,
     "round-trip delay must be non-negative"),
]


@pytest.mark.parametrize("build, error, text", CHECKS)
def test_a_failing_check_raises_what_the_dataclass_raised(build, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        build()


# -- the time types stay dataclasses -------------------------------------------


TIME_TYPES = [SignedDuration, Timestamp, MonotonicInstant]


@pytest.mark.parametrize("cls", TIME_TYPES, ids=lambda c: c.__name__)
def test_a_time_type_keeps_its_dataclass_surface(cls):
    # config._schema reads SignedDuration's fields as a dataclass's
    (field,) = dataclasses.fields(cls)
    small, large = cls(5), cls(2**62)
    assert repr(small) == f"{cls.__name__}({field.name}=5)"
    assert small < large and large > small and small <= cls(5) and not small < cls(5)
    assert sorted([large, small]) == [small, large]
    moved = dataclasses.replace(small, **{field.name: 2**62})
    assert type(moved) is cls and moved == large and hash(moved) == hash(large)


def test_time_types_do_not_compare_across_types():
    # why they are not tuples: a tuple of the same units would compare equal
    assert (Timestamp(5) == SignedDuration(5)) is False
    assert (MonotonicInstant(5) == 5) is False
    with pytest.raises(TypeError):
        Timestamp(5) < SignedDuration(5)

"""Tests for the receiver feed's JSONL epoch record."""

import json
from dataclasses import replace

import pytest

from timeguard.config import default_config
from timeguard.detector import LlConfig
from timeguard.orchestrator import OrderingError
from timeguard.pipeline import Monitor
from timeguard.receiver_feed import (
    EpochRecord,
    FeedError,
    NtsMeasurement,
    RoughtimeMeasurement,
    epoch_from_json,
    epoch_to_json,
    feed_input,
    feed_line,
)
from timeguard.timebase import MonotonicInstant, SignedDuration, Timestamp


def test_json_round_trip_exact():
    rec = EpochRecord(
        t_mono=MonotonicInstant(123456789),
        t_gnss=Timestamp.from_parts(1689182889, (1 << 63) + 12345),
        fix_valid=True,
        leap_applied=False,
        source_id="sim",
    )
    assert epoch_from_json(json.loads(epoch_to_json(rec))) == rec


@pytest.mark.parametrize("bias", [None, -42, "not read"])
def test_an_older_line_with_clock_bias_ns_still_parses(bias):
    rec = EpochRecord(MonotonicInstant(5), Timestamp.from_parts(1689182889, 7), True)
    obj = json.loads(epoch_to_json(rec))
    assert "clock_bias_ns" not in obj
    assert epoch_from_json({**obj, "clock_bias_ns": bias}) == rec


def test_json_fraction_is_string():
    rec = EpochRecord(MonotonicInstant(1), Timestamp.from_parts(0, 2**64 - 1), True)
    obj = json.loads(epoch_to_json(rec))
    assert obj["t_gnss"]["frac"] == str(2**64 - 1)


MALFORMED = [
    {"nope": 1},
    {"t_mono_ns": 5},
    {"t_mono_ns": -1, "t_gnss": {"sec": 0, "frac": "0"}, "fix_valid": True, "leap_applied": True},
    {"t_mono_ns": 0, "t_gnss": 3, "fix_valid": True, "leap_applied": True},
    {"t_mono_ns": "x", "t_gnss": {"sec": 0, "frac": "0"}, "fix_valid": True, "leap_applied": True},
    # integers must be JSON integers: 1e400 decodes to inf, which int() cannot
    # convert, and int() would truncate 0.5 s of GNSS time or read a string
    {"t_mono_ns": 1e400, "t_gnss": {"sec": 0, "frac": "0"}, "fix_valid": True, "leap_applied": True},
    {"t_mono_ns": 0, "t_gnss": {"sec": 1689120000.5, "frac": "0"}, "fix_valid": True,
     "leap_applied": True},
    {"t_mono_ns": 0, "t_gnss": {"sec": 0, "frac": 0.5}, "fix_valid": True, "leap_applied": True},
    {"t_mono_ns": "5000000000", "t_gnss": {"sec": 0, "frac": "0"}, "fix_valid": True,
     "leap_applied": True},
    # flags must be JSON booleans: bool("false") would be True
    {"t_mono_ns": 0, "t_gnss": {"sec": 0, "frac": "0"}, "fix_valid": "false", "leap_applied": True},
    {"t_mono_ns": 0, "t_gnss": {"sec": 0, "frac": "0"}, "fix_valid": True, "leap_applied": 1},
    # nor is a boolean a number: int(True) would be 1
    {"t_mono_ns": True, "t_gnss": {"sec": 0, "frac": "0"}, "fix_valid": True, "leap_applied": True},
    # the fraction must lie in [0, 2^64): out of range it would carry into sec
    {"t_mono_ns": 0, "t_gnss": {"sec": 0, "frac": "18446744073709551616"}, "fix_valid": True,
     "leap_applied": True},
    {"t_mono_ns": 0, "t_gnss": {"sec": 0, "frac": 18446744073709551616}, "fix_valid": True,
     "leap_applied": True},
    {"t_mono_ns": 0, "t_gnss": {"sec": 0, "frac": "-1"}, "fix_valid": True, "leap_applied": True},
    # the string form is ASCII digits only: int() also reads these as 1000, 7, 5 and 3
    *({"t_mono_ns": 0, "t_gnss": {"sec": 0, "frac": frac}, "fix_valid": True,
       "leap_applied": True} for frac in ("1_000", " 7 ", "+5", "\u0663")),
    # past the interpreter's 4,300-digit limit, which int() would raise on
    {"t_mono_ns": 0, "t_gnss": {"sec": 0, "frac": "9" * 5_000}, "fix_valid": True,
     "leap_applied": True},
    # a source_id, when present, must be a JSON string: str() would write "None"
    {"t_mono_ns": 0, "t_gnss": {"sec": 0, "frac": "0"}, "fix_valid": True, "leap_applied": True,
     "source_id": None},
    {"t_mono_ns": 0, "t_gnss": {"sec": 0, "frac": "0"}, "fix_valid": True, "leap_applied": True,
     "source_id": {"a": 1}},
]


def test_json_malformed_raises_feed_error():
    for obj in MALFORMED:
        with pytest.raises(FeedError, match="malformed epoch record"):
            epoch_from_json(obj)


def frac_line(frac: str) -> dict:
    return {"t_mono_ns": 0, "t_gnss": {"sec": 0, "frac": frac}, "fix_valid": True,
            "leap_applied": True}


def test_a_fraction_too_long_for_64_bits_is_refused_before_it_is_converted():
    with pytest.raises(FeedError) as refused:
        epoch_from_json(frac_line("9" * 5_000))
    assert str(refused.value) == f"malformed epoch record: frac out of 64-bit range: '{'9' * 63}..."
    # leading zeros spell no range: 2^64 - 1 and 1, each behind 5,000 zeros
    assert epoch_from_json(frac_line("0" * 5_000 + str(2**64 - 1))).t_gnss.fraction == 2**64 - 1
    assert epoch_from_json(frac_line("0" * 5_000 + "1")).t_gnss.fraction == 1
    assert epoch_from_json(frac_line("0" * 5_000)).t_gnss.fraction == 0


# -- durations on a feed line ---------------------------------------------------

T = MonotonicInstant(10**9)
MIDPOINT = Timestamp.from_unix_s(1_689_120_000)
# the largest float seconds under 2^63, the top of the duration range
TOP_S = 2.0**63 - 1024


@pytest.mark.parametrize("offset, delay", [
    (SignedDuration(-(2**127)), SignedDuration(0)),
    (SignedDuration.from_s(-TOP_S), SignedDuration.from_s(TOP_S)),
    (SignedDuration.from_s(TOP_S), SignedDuration.from_s(TOP_S)),
])
def test_a_duration_at_either_end_of_the_range_reads_back_from_its_feed_line(offset, delay):
    nts = NtsMeasurement(offset, delay, T, "nts")
    rt = RoughtimeMeasurement(MIDPOINT, delay, "rt", T)
    assert feed_input(feed_line("nts", (nts,))) == ("nts", (nts,))
    assert feed_input(feed_line("roughtime", (rt,))) == ("roughtime", (rt,))


def test_a_duration_whose_float_seconds_reach_2_63_s_gets_no_feed_line():
    # 2^127 - 2^73 units is half-way between TOP_S and 2^63 s, and ties round to 2^63
    for units in (2**127 - 1, 2**127 - 2**73):
        big = SignedDuration(units)
        with pytest.raises(ValueError, match=r"^offset 9.223372036854776e\+18 s reaches 2\^63 s"):
            feed_line("nts", (NtsMeasurement(big, SignedDuration(0), T, "nts"),))
        with pytest.raises(ValueError, match=r"^delay .* reaches 2\^63 s"):
            feed_line("nts", (NtsMeasurement(SignedDuration(0), big, T, "nts"),))
        with pytest.raises(ValueError, match=r"^radius .* reaches 2\^63 s"):
            feed_line("roughtime", (RoughtimeMeasurement(MIDPOINT, big, "rt", T),))
    # one unit less is spelled TOP_S, and reads back as that
    below = NtsMeasurement(SignedDuration(2**127 - 2**73 - 1), SignedDuration(0), T, "nts")
    assert feed_input(feed_line("nts", (below,)))[1][0].offset == SignedDuration.from_s(TOP_S)


# -- a feed stream as live applies it ----------------------------------------


def feed_epochs(*t_mono_s):
    """Epoch records one second of GNSS time apart, read back from their feed lines."""
    return [
        epoch_from_json(json.loads(epoch_to_json(
            EpochRecord(MonotonicInstant(t * 10**9), Timestamp.from_unix_s(1_689_120_000 + i), True)
        )))
        for i, t in enumerate(t_mono_s)
    ]


def feed_monitor():
    config = default_config()
    return Monitor(replace(config, detector=replace(config.detector, ll=LlConfig(lambda_T=100.0, sigma0_sq=1e-16))))


def test_stream_monotonicity_enforced():
    monitor = feed_monitor()
    first, second, regressed = feed_epochs(10, 20, 15)
    monitor.epoch(first)
    monitor.epoch(second)
    with pytest.raises(OrderingError):
        monitor.epoch(regressed)
    assert monitor.last_fix == second
    assert monitor.t_last == second.t_mono


def test_stream_equal_t_mono_allowed():
    monitor = feed_monitor()
    first, second = feed_epochs(10, 10)
    monitor.epoch(first)
    monitor.epoch(second)
    assert monitor.last_fix == second

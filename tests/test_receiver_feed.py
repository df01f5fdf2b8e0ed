"""Tests for the receiver feed's JSONL epoch record."""

import json
from dataclasses import replace

import pytest

from timeguard.config import default_config
from timeguard.detector import LlConfig
from timeguard.orchestrator import OrderingError
from timeguard.pipeline import Monitor
from timeguard.receiver_feed import EpochRecord, FeedError, epoch_from_json, epoch_to_json
from timeguard.timebase import MonotonicInstant, Timestamp


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
    assert monitor.state.last_t_mono == second.t_mono


def test_stream_equal_t_mono_allowed():
    monitor = feed_monitor()
    first, second = feed_epochs(10, 10)
    monitor.epoch(first)
    monitor.epoch(second)
    assert monitor.last_fix == second

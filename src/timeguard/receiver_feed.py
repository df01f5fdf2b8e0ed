"""The monitor's input records: receiver epochs and Roughtime and NTS replies.

An EpochRecord is the object every detector tests: the receiver's UTC
solution at full 2^-64 s resolution, stamped with the local monotonic
instant it arrived at.  simulate writes one JSON object per epoch and
live reads the same record back, one feed line at a time.  A
RoughtimeMeasurement or NtsMeasurement is a reply from a network time
provider, whether a client verified it, the simulator scripted it or a
feed line carried it.  This module imports no crypto, so the engine
can take these records without loading the provider clients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .timebase import MonotonicInstant, SignedDuration, Timestamp


# The line encoders of the trace formats (epoch_to_json here,
# detector.verdict_to_json, orchestrator.transition_to_json) each write
# their line with one f-string, byte for byte what
# json.dumps(..., separators=(",", ":")) writes under its default
# ensure_ascii.  Free strings go through the C escaper json.dumps uses,
# enum values and test names are ASCII words written as they are, ints go
# through int.__repr__ and floats through float.__repr__.  Every float is
# finite: statistics come from bounded 128-bit time differences, and
# thresholds from the config, which refuses NaN and infinities.  So there
# is no NaN or Infinity to spell.
json_string = json.encoder.encode_basestring_ascii


class FeedError(Exception):
    """A feed record that cannot be turned into an epoch."""


class EpochRecord(NamedTuple):
    """One receiver time-solution epoch, the object every detector tests.

    An immutable tuple, since every epoch builds one; its fields need no
    check.
    """

    t_mono: MonotonicInstant
    t_gnss: Timestamp
    fix_valid: bool
    leap_applied: bool = True
    source_id: str = "gnss"


@dataclass(frozen=True)
class RoughtimeMeasurement:
    """Coarse time from a Roughtime server: true time lies in midpoint +/- radius.

    The Roughtime client builds one only after verify_response's full
    check chain; the simulator and live's scripted rt lines build them
    from their own inputs.
    """

    midpoint: Timestamp
    radius: SignedDuration
    server_id: str
    t_mono_rx: MonotonicInstant

    def __post_init__(self) -> None:
        if self.radius.units < 0:
            raise ValueError("radius must be non-negative")


@dataclass(frozen=True)
class NtsMeasurement:
    """Offset/delay sample from an NTS server.

    The NTS client builds one only from a reply whose authenticator
    verified; the simulator and live's scripted nts lines build them
    from their own inputs.
    """

    offset: SignedDuration
    delay: SignedDuration
    t_mono_rx: MonotonicInstant
    server_id: str

    def __post_init__(self) -> None:
        if self.delay.units < 0:
            raise ValueError("round-trip delay must be non-negative")


def epoch_to_json(rec: EpochRecord) -> str:
    """One epochs.jsonl line: the bytes of json.dumps(..., separators=(",", ":"))."""
    t = rec.t_gnss
    return (
        f'{{"t_mono_ns":{int.__repr__(rec.t_mono.nanoseconds)},'
        f'"t_gnss":{{"sec":{int.__repr__(t.seconds)},"frac":"{int.__repr__(t.fraction)}"}},'
        f'"fix_valid":{"true" if rec.fix_valid else "false"},'
        f'"leap_applied":{"true" if rec.leap_applied else "false"},'
        f'"source_id":{json_string(rec.source_id)}}}'
    )


def json_flag(obj: dict, key: str) -> bool:
    """obj[key] if it is a JSON boolean; TypeError for "false", 0 or null."""
    value = obj[key]
    if not isinstance(value, bool):
        raise TypeError(f"{key} must be true or false, got {value!r}")
    return value


def json_int(obj: dict, key: str, *, text: bool = False) -> int:
    """obj[key] if it is a JSON integer, or with text=True a string of ASCII
    decimal digits.

    TypeError for a boolean, which int() reads as 1 or 0, and for a float
    such as 1.5 or 1e400, which int() truncates or cannot convert.
    ValueError for a string with a sign, a space, an underscore or a
    non-ASCII digit, each of which int() would accept.
    """
    value = obj[key]
    if text and isinstance(value, str):
        if not (value.isascii() and value.isdigit()):
            raise ValueError(f"{key} must be decimal digits, got {value!r}")
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def json_float(obj: dict, key: str) -> float:
    """obj[key] as a float if it is a JSON number; TypeError for a string or a boolean."""
    value = obj[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


def json_text(obj: dict, key: str, default: str) -> str:
    """obj[key] if it is a JSON string, default if key is absent; TypeError otherwise."""
    value = obj.get(key, default)
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {value!r}")
    return value


def epoch_from_json(obj: dict) -> EpochRecord:
    """The EpochRecord of one decoded feed line; FeedError if it is malformed.

    A key it does not read is ignored, such as the clock_bias_ns that
    older feeds carry."""
    try:
        gnss = obj["t_gnss"]
        return EpochRecord(
            t_mono=MonotonicInstant(json_int(obj, "t_mono_ns")),
            t_gnss=Timestamp.from_parts(json_int(gnss, "sec"), json_int(gnss, "frac", text=True)),
            fix_valid=json_flag(obj, "fix_valid"),
            leap_applied=json_flag(obj, "leap_applied"),
            source_id=json_text(obj, "source_id", "gnss"),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise FeedError(f"malformed epoch record: {e}") from None

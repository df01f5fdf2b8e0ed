"""The monitor's inputs and the whole feed format that carries them.

An EpochRecord is the object every detector tests: the receiver's UTC
solution at full 2^-64 s resolution, stamped with the local monotonic
instant it arrived at.  A RoughtimeMeasurement or NtsMeasurement is a
reply from a network time provider, whether a client verified it, the
simulator scripted it or a feed line carried it.  A feed is one JSON
object per line: an epoch, or an `rt`, `nts` or `network` line.
feed_line writes the line of a Monitor input and feed_input reads it
back: an epoch line spelled as epoch_to_json writes it through one
compiled pattern, and any other line through json.loads, to the same
input or the same refusal.  This module imports no crypto, so the engine
can take these records without loading the provider clients.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import NamedTuple

from .timebase import FRAC_UNIT, MonotonicInstant, SignedDuration, Timestamp, shown


# The line encoders of the trace formats (epoch_to_json and feed_line
# here, detector.verdict_to_json, orchestrator.transition_to_json) each
# write a line with one f-string, byte for byte what
# json.dumps(..., separators=(",", ":")) writes under its default
# ensure_ascii.  Free strings go through the C escaper json.dumps uses,
# enum values and test names are ASCII words written as they are, ints go
# through int.__repr__ and floats through float.__repr__.  Every float is
# finite: statistics and durations come from bounded 128-bit time units, and
# thresholds from the config, which refuses NaN and infinities.  So there
# is no NaN or Infinity to spell.
json_string = json.encoder.encode_basestring_ascii


class FeedError(Exception):
    """A feed line or record that carries no input the monitor can apply."""


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


# The reply records keep their fields in slots, as the time types do, and
# for the reason timebase gives above SignedDuration.
@dataclass(frozen=True)
class RoughtimeMeasurement:
    """Coarse time from a Roughtime server: true time lies in midpoint +/- radius.

    The Roughtime client builds one only after verify_response's full
    check chain; the simulator and live's scripted rt lines build them
    from their own inputs.
    """

    __slots__ = ("midpoint", "radius", "server_id", "t_mono_rx")
    midpoint: Timestamp
    radius: SignedDuration
    server_id: str
    t_mono_rx: MonotonicInstant

    def __post_init__(self) -> None:
        if self.radius.units < 0:
            raise ValueError("radius must be non-negative")

    def __reduce__(self):
        return RoughtimeMeasurement, (self.midpoint, self.radius, self.server_id, self.t_mono_rx)


@dataclass(frozen=True)
class NtsMeasurement:
    """Offset/delay sample from an NTS server.

    The NTS client builds one only from a reply whose authenticator
    verified; the simulator and live's scripted nts lines build them
    from their own inputs.
    """

    __slots__ = ("offset", "delay", "t_mono_rx", "server_id")
    offset: SignedDuration
    delay: SignedDuration
    t_mono_rx: MonotonicInstant
    server_id: str

    def __post_init__(self) -> None:
        if self.delay.units < 0:
            raise ValueError("round-trip delay must be non-negative")

    def __reduce__(self):
        return NtsMeasurement, (self.offset, self.delay, self.t_mono_rx, self.server_id)


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


# The JSON text of an epoch line as epoch_to_json spells it: its keys in
# that order and no whitespace.  Integers follow the JSON grammar, at most
# 20 digits for t_mono_ns and 19 for sec; frac is 1 to 20 ASCII digits, and
# source_id holds only letters, digits and _.:-, which JSON does not
# escape.  feed_input reads such a line from the groups, whose values are
# then exactly what json.loads would give; any other spelling of the same
# record, json.dumps's default one included, goes through json.loads.
_EPOCH_LINE = re.compile(
    r'\{"t_mono_ns":(-?(?:0|[1-9][0-9]{0,19})),'
    r'"t_gnss":\{"sec":(-?(?:0|[1-9][0-9]{0,18})),"frac":"([0-9]{1,20})"\},'
    r'"fix_valid":(true|false),"leap_applied":(true|false),'
    r'"source_id":"([A-Za-z0-9_.:-]*)"\}'
).fullmatch


def feed_line(name: str, args: tuple) -> str:
    """The feed line of one Monitor input, the method name and arguments
    pipeline.scenario_inputs yields (any but `finish`, the feed's end), so
    that feed_input(feed_line(name, args)) == (name, args).

    The limits: a Roughtime midpoint travels in whole nanoseconds, the
    nearest.  Durations travel as float seconds, exact for each duration
    SignedDuration.from_s builds, and refused (ValueError) from 2^63 s up."""
    if name == "epoch":
        return epoch_to_json(*args)
    if name == "network":
        up, t_mono = args
        return (f'{{"type":"network","t_mono_ns":{int.__repr__(t_mono.nanoseconds)},'
                f'"up":{"true" if up else "false"}}}')
    (meas,) = args
    if name == "roughtime":
        return (f'{{"type":"rt","t_mono_ns":{int.__repr__(meas.t_mono_rx.nanoseconds)},'
                f'"midpoint_unix_ns":{int.__repr__(meas.midpoint.to_ns())},'
                f'"radius_s":{_seconds("radius", meas.radius)},'
                f'"source_id":{json_string(meas.server_id)}}}')
    return (f'{{"type":"nts","t_mono_ns":{int.__repr__(meas.t_mono_rx.nanoseconds)},'
            f'"offset_s":{_seconds("offset", meas.offset)},'
            f'"delay_s":{_seconds("delay", meas.delay)},'
            f'"source_id":{json_string(meas.server_id)}}}')


def _seconds(what: str, d: SignedDuration) -> str:
    """d in float seconds; ValueError from 2^63 s up, which reads back past the range."""
    if d.to_s() >= 2.0**63:
        raise ValueError(f"{what} {d.to_s()!r} s reaches 2^63 s, past the duration range")
    return float.__repr__(d.to_s())


def _json_flag(obj: dict, key: str) -> bool:
    """obj[key] if it is a JSON boolean; TypeError for "false", 0 or null."""
    value = obj[key]
    if not isinstance(value, bool):
        raise TypeError(f"{key} must be true or false, got {shown(value)}")
    return value


def _json_int(obj: dict, key: str, *, text: bool = False) -> int:
    """obj[key] if it is a JSON integer, or with text=True a 64-bit field's
    string of ASCII decimal digits.

    TypeError for a boolean, which int() reads as 1 or 0, and for a float
    such as 1.5 or 1e400, which int() truncates or cannot convert.
    ValueError for a string with a sign, a space, an underscore or a
    non-ASCII digit, each of which int() would accept, and for one whose
    value needs more than 20 digits, past 2^64, before int() converts it.
    """
    value = obj[key]
    if text and isinstance(value, str):
        if not (value.isascii() and value.isdigit()):
            raise ValueError(f"{key} must be decimal digits, got {shown(value)}")
        digits = value.lstrip("0")
        if len(digits) > 20:
            raise ValueError(f"{key} out of 64-bit range: {shown(value)}")
        return int(digits or "0")
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{key} must be an integer, got {shown(value)}")
    return value


def _json_float(obj: dict, key: str) -> float:
    """obj[key] as a float if it is a JSON number; TypeError for a string or a boolean."""
    value = obj[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{key} must be a number, got {shown(value)}")
    return float(value)


def _json_text(obj: dict, key: str, default: str) -> str:
    """obj[key] if it is a JSON string, default if key is absent; TypeError otherwise."""
    value = obj.get(key, default)
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {shown(value)}")
    return value


def epoch_from_json(obj: dict) -> EpochRecord:
    """The EpochRecord of one decoded feed line; FeedError if it is malformed.

    A key it does not read is ignored, such as the clock_bias_ns that
    older feeds carry."""
    try:
        gnss = obj["t_gnss"]
        return EpochRecord(
            t_mono=MonotonicInstant(_json_int(obj, "t_mono_ns")),
            t_gnss=Timestamp.from_parts(_json_int(gnss, "sec"),
                                        _json_int(gnss, "frac", text=True)),
            fix_valid=_json_flag(obj, "fix_valid"),
            leap_applied=_json_flag(obj, "leap_applied"),
            source_id=_json_text(obj, "source_id", "gnss"),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise FeedError(f"malformed epoch record: {e}") from None


def feed_input(line: str) -> tuple[str, tuple]:
    """The Monitor input one feed line carries, as the method name and
    arguments pipeline.scenario_inputs yields for it: an epoch line has no
    `type`, the others are `rt`, `nts` or `network` lines.

    FeedError for a line that carries no input, with the message live
    prints for it: a line that is not a JSON object (the parser refuses a
    line nested past the recursion limit with RecursionError, and an
    integer of more than 4,300 digits with ValueError), an unknown type,
    or a field that is missing or out of range.

    An epoch line spelled as epoch_to_json writes it matches _EPOCH_LINE
    and is read without json.loads, through the checks of the
    constructors epoch_from_json calls, in its order, so its result or
    refusal is the one _json_feed_input gives.  Every other line, an
    epoch line with whitespace included, goes through _json_feed_input.
    """
    epoch = _EPOCH_LINE(line)
    if epoch is None:
        return _json_feed_input(line)
    t_mono_ns, sec, frac, fix_valid, leap_applied, source_id = epoch.groups()
    try:
        t_mono = MonotonicInstant(int(t_mono_ns))
        # Timestamp.from_parts written out; the pattern admits no negative fraction
        fraction = int(frac)
        if fraction >= FRAC_UNIT:
            Timestamp.from_parts(0, fraction)  # raises its TimeRangeError
        return "epoch", (EpochRecord(t_mono, Timestamp(int(sec) * FRAC_UNIT + fraction),
                                     fix_valid == "true", leap_applied == "true", source_id),)
    except ValueError as e:  # a range check of the time types
        raise FeedError(f"feed line rejected: malformed epoch record: {e}") from None


def _json_feed_input(line: str) -> tuple[str, tuple]:
    """feed_input of any spelling of a feed line, through json.loads."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        obj = None
    if not isinstance(obj, dict):
        raise FeedError("unparseable feed line, skipped")
    kind = obj.get("type")
    try:
        if kind is None:
            return "epoch", (epoch_from_json(obj),)
        if kind == "rt":
            return "roughtime", (RoughtimeMeasurement(
                midpoint=Timestamp.from_ns(_json_int(obj, "midpoint_unix_ns")),
                radius=SignedDuration.from_s(_json_float(obj, "radius_s")),
                server_id=_json_text(obj, "source_id", "rt-feed"),
                t_mono_rx=MonotonicInstant(_json_int(obj, "t_mono_ns")),
            ),)
        if kind == "nts":
            return "nts", (NtsMeasurement(
                offset=SignedDuration.from_s(_json_float(obj, "offset_s")),
                delay=SignedDuration.from_s(_json_float(obj, "delay_s")),
                t_mono_rx=MonotonicInstant(_json_int(obj, "t_mono_ns")),
                server_id=_json_text(obj, "source_id", "nts-feed"),
            ),)
        if kind == "network":
            return "network", (_json_flag(obj, "up"),
                               MonotonicInstant(_json_int(obj, "t_mono_ns")))
    except (FeedError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise FeedError(f"feed line rejected: {e}") from None
    raise FeedError(f"unknown feed line type {shown(kind)}, skipped")

"""Fixed-point time representation shared by every other module.

Every time value is one integer.  An instant on the UTC scale is a count of
2^-64 s units since the Unix epoch, whose 64.64 split into signed seconds and
an unsigned fraction is a view; a duration is a signed count of the same
units; a local monotonic instant counts nanoseconds.  All arithmetic is exact
and every conversion rounds half-even, so detector comparisons at nanosecond
scale never depend on float rounding.  Leap-second bookkeeping deliberately
lives elsewhere: a Timestamp is just a UTC label.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

FRAC_BITS = 64
FRAC_UNIT = 1 << FRAC_BITS  # units per second
# Timestamps (int64 seconds with a 2^-64 s fraction) and durations share
# one 128-bit signed range of units.
_UNITS_MIN = -(1 << 127)
_UNITS_MAX = (1 << 127) - 1
NS_PER_S = 10**9
_RAW = getattr(time, "CLOCK_MONOTONIC_RAW", None)  # Linux's unslewed clock
# the most characters of a refused value that an error message quotes, so
# that a hostile input's message stays short however long the value is
_SHOWN_MAX = 64


def shown(value: object) -> str:
    """repr(value), cut to _SHOWN_MAX characters and ended with ... if cut.

    A long int is spelled from its leading digits alone, so that one past the
    interpreter's 4,300-digit limit on int-to-string conversion is quoted too."""
    # 0.3 < log10(2): the cut leaves more than _SHOWN_MAX digits
    cut = value.bit_length() * 3 // 10 - _SHOWN_MAX - 1 if type(value) is int else 0
    if cut > 0:
        value = abs(value) // 10**cut * (-1 if value < 0 else 1)
    text = repr(value)
    return text if len(text) <= _SHOWN_MAX else text[:_SHOWN_MAX] + "..."


class TimeRangeError(ValueError):
    """Result does not fit the declared fixed-point range."""


def _check_units(units: int, what: str) -> None:
    if not (_UNITS_MIN <= units <= _UNITS_MAX):
        raise TimeRangeError(f"{what} out of 128-bit range: {shown(units)}")


# The time types, and the reply records built on them, are frozen
# dataclasses that keep their fields in slots, with no instance dict: a run
# builds two time values per epoch.  The slots are named in the class body,
# not made by dataclass(slots=True): that builds a second class, which the
# frozen __setattr__ does not know, so assigning an attribute that is not a
# field raises TypeError instead of FrozenInstanceError.  Pickle restores
# slots through __setattr__, which refuses, so each type reduces to a call
# of its constructor, which checks the fields again.
@dataclass(frozen=True, order=True)
class SignedDuration:
    """Signed time interval, a 128-bit count of 2^-64 s units."""

    __slots__ = ("units",)
    units: int

    def __post_init__(self) -> None:
        _check_units(self.units, "duration")

    def __reduce__(self):
        return SignedDuration, (self.units,)

    @classmethod
    def from_s(cls, seconds: float | int) -> "SignedDuration":
        return cls(units_from_s(seconds))

    def to_s(self) -> float:
        """Lossy float view, for statistics and reporting."""
        return self.units / FRAC_UNIT


@dataclass(frozen=True, order=True)
class Timestamp:
    """UTC-scale instant: a count of 2^-64 s units since the Unix epoch.

    `seconds` and `fraction` are the 64.64 view of the count, with the
    fraction always non-negative: -0.25 s is (-1, 0.75 * 2^64).
    """

    __slots__ = ("units",)
    units: int

    def __post_init__(self) -> None:
        _check_units(self.units, "timestamp")

    def __reduce__(self):
        return Timestamp, (self.units,)

    @classmethod
    def from_parts(cls, seconds: int, fraction: int) -> "Timestamp":
        """The instant seconds + fraction * 2^-64 s, with 0 <= fraction < 2^64."""
        if not (0 <= fraction < FRAC_UNIT):
            raise TimeRangeError(f"fraction out of range: {shown(fraction)}")
        return cls(seconds * FRAC_UNIT + fraction)

    @classmethod
    def from_unix_s(cls, seconds: int) -> "Timestamp":
        return cls(int(seconds) * FRAC_UNIT)

    @classmethod
    def from_ns(cls, ns: int) -> "Timestamp":
        return cls(_round_div(ns * FRAC_UNIT, NS_PER_S))

    @classmethod
    def now_system(cls) -> "Timestamp":
        """Current system clock reading (only a UTC estimate, not validated)."""
        return cls.from_ns(time.time_ns())

    @property
    def seconds(self) -> int:
        return self.units >> FRAC_BITS

    @property
    def fraction(self) -> int:
        return self.units & (FRAC_UNIT - 1)

    def to_ns(self) -> int:
        """Nearest integer nanoseconds since the epoch (round half even).

        Exact round trip with from_ns for |ns| up to 2^62.
        """
        return _round_div(self.units * NS_PER_S, FRAC_UNIT)


def units_from_s(seconds: float | int) -> int:
    """seconds as a count of 2^-64 s units, unchecked for range.

    Floats are dyadic rationals, so values at 2^-64 granularity or
    coarser convert exactly; anything finer rounds half-even.  NaN
    raises ValueError and an infinity OverflowError.

    A float under 1e280 in magnitude takes one product: scaling by 2^64
    is exact there, subnormals included, and round() of a float is
    half-even.  Ints, float subclasses and larger floats take the
    exact ratio.
    """
    if type(seconds) is float and -1e280 < seconds < 1e280:
        return round(seconds * 2.0**64)
    num, den = seconds.as_integer_ratio()
    return _round_div(num * FRAC_UNIT, den)


def ts_diff(a: Timestamp, b: Timestamp) -> SignedDuration:
    """Exact a - b.  ts_add(b, ts_diff(a, b)) == a, bit for bit."""
    return SignedDuration(a.units - b.units)


def ts_add(t: Timestamp, d: SignedDuration) -> Timestamp:
    """Exact t + d; TimeRangeError when the seconds leave int64."""
    return Timestamp(t.units + d.units)


# -- local free-running monotonic scale ------------------------------------


@dataclass(frozen=True, order=True)
class MonotonicInstant:
    """Nanoseconds on the local monotonic clock; anchors measurements when
    no UTC scale is trusted.  Only differences are meaningful."""

    __slots__ = ("nanoseconds",)
    nanoseconds: int

    def __post_init__(self) -> None:
        if not (0 <= self.nanoseconds < 1 << 64):
            raise TimeRangeError(f"monotonic ns out of uint64: {shown(self.nanoseconds)}")

    def __reduce__(self):
        return MonotonicInstant, (self.nanoseconds,)

    @classmethod
    def now(cls) -> "MonotonicInstant":
        """The host's CLOCK_MONOTONIC_RAW where time has it, else time.monotonic_ns():
        clock discipline slews CLOCK_MONOTONIC, and may be steered from GNSS."""
        return cls(time.monotonic_ns() if _RAW is None else time.clock_gettime_ns(_RAW))

    def elapsed_s(self, earlier: "MonotonicInstant") -> float:
        return (self.nanoseconds - earlier.nanoseconds) / NS_PER_S


def _round_div(num: int, den: int) -> int:
    """num / den rounded to the nearest integer, ties to even; den > 0."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q

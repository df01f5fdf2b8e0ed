"""Fixed-point time representation shared by every other module.

Instants are stored as 64.64 binary fixed point on the UTC scale (signed
seconds since the Unix epoch plus an unsigned 2^-64 s fraction), durations as
a signed count of 2^-64 s units.  All arithmetic is exact, so detector
comparisons at nanosecond scale never depend on float rounding.  Leap-second
bookkeeping deliberately lives elsewhere: a Timestamp is just a UTC label.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

FRAC_BITS = 64
FRAC_UNIT = 1 << FRAC_BITS  # units per second
_SECONDS_MIN = -(1 << 63)
_SECONDS_MAX = (1 << 63) - 1
_DURATION_MAX = (1 << 127) - 1
NS_PER_S = 10**9


class TimeRangeError(ValueError):
    """Result does not fit the declared fixed-point range."""


@dataclass(frozen=True)
class SignedDuration:
    """Signed time interval, a 128-bit count of 2^-64 s units."""

    units: int

    def __post_init__(self) -> None:
        if not (-_DURATION_MAX - 1 <= self.units <= _DURATION_MAX):
            raise TimeRangeError(f"duration out of 128-bit range: {self.units}")

    @classmethod
    def from_s(cls, seconds: float | int | Fraction) -> "SignedDuration":
        # Floats are dyadic rationals, so values at 2^-64 granularity or
        # coarser convert exactly; anything finer rounds half-even.
        frac = Fraction(seconds) * FRAC_UNIT
        return cls(_round_fraction(frac))

    @classmethod
    def from_ns(cls, ns: int) -> "SignedDuration":
        return cls(_round_fraction(Fraction(ns * FRAC_UNIT, NS_PER_S)))

    def to_s(self) -> float:
        """Lossy float view, for statistics and reporting."""
        return self.units / FRAC_UNIT

    def to_ns(self) -> int:
        """Nearest integer nanosecond count (round half even)."""
        return _round_fraction(Fraction(self.units * NS_PER_S, FRAC_UNIT))

    def __neg__(self) -> "SignedDuration":
        return SignedDuration(-self.units)

    def __abs__(self) -> "SignedDuration":
        return SignedDuration(abs(self.units))

    def __add__(self, other: "SignedDuration") -> "SignedDuration":
        return SignedDuration(self.units + other.units)

    def __sub__(self, other: "SignedDuration") -> "SignedDuration":
        return SignedDuration(self.units - other.units)

    def __mul__(self, k: int) -> "SignedDuration":
        return SignedDuration(self.units * k)

    __rmul__ = __mul__

    def __lt__(self, other: "SignedDuration") -> bool:
        return self.units < other.units

    def __le__(self, other: "SignedDuration") -> bool:
        return self.units <= other.units

    def __gt__(self, other: "SignedDuration") -> bool:
        return self.units > other.units

    def __ge__(self, other: "SignedDuration") -> bool:
        return self.units >= other.units


@dataclass(frozen=True)
class Timestamp:
    """UTC-scale instant: signed seconds since the Unix epoch + 2^-64 s fraction.

    Ordering is lexicographic on (seconds, fraction), which matches numeric
    order because the fraction is always non-negative: -0.25 s is stored as
    (-1, 0.75 * 2^64).
    """

    seconds: int
    fraction: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.fraction < FRAC_UNIT):
            raise TimeRangeError(f"fraction out of range: {self.fraction}")
        if not (_SECONDS_MIN <= self.seconds <= _SECONDS_MAX):
            raise TimeRangeError(f"seconds out of int64 range: {self.seconds}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_units(cls, units: int) -> "Timestamp":
        seconds, fraction = divmod(units, FRAC_UNIT)
        return cls(seconds, fraction)

    @classmethod
    def from_unix_s(cls, seconds: int) -> "Timestamp":
        return cls(int(seconds), 0)

    @classmethod
    def from_ns(cls, ns: int) -> "Timestamp":
        return cls.from_units(_round_fraction(Fraction(ns * FRAC_UNIT, NS_PER_S)))

    @classmethod
    def now_system(cls) -> "Timestamp":
        """Current system clock reading (only a UTC estimate, not validated)."""
        return cls.from_ns(time.time_ns())

    # -- views -------------------------------------------------------------

    def to_units(self) -> int:
        return self.seconds * FRAC_UNIT + self.fraction

    def to_ns(self) -> int:
        """Nearest integer nanoseconds since the epoch (round half even).

        Exact round trip with from_ns for |ns| up to 2^62.
        """
        return _round_fraction(Fraction(self.to_units() * NS_PER_S, FRAC_UNIT))

    # -- ordering ----------------------------------------------------------

    def __lt__(self, other: "Timestamp") -> bool:
        return (self.seconds, self.fraction) < (other.seconds, other.fraction)

    def __le__(self, other: "Timestamp") -> bool:
        return (self.seconds, self.fraction) <= (other.seconds, other.fraction)

    def __gt__(self, other: "Timestamp") -> bool:
        return (self.seconds, self.fraction) > (other.seconds, other.fraction)

    def __ge__(self, other: "Timestamp") -> bool:
        return (self.seconds, self.fraction) >= (other.seconds, other.fraction)


def ts_diff(a: Timestamp, b: Timestamp) -> SignedDuration:
    """Exact a - b.  ts_add(b, ts_diff(a, b)) == a, bit for bit."""
    return SignedDuration(a.to_units() - b.to_units())


def ts_add(t: Timestamp, d: SignedDuration) -> Timestamp:
    """Exact t + d with carry between fraction and seconds.

    Raises TimeRangeError when the resulting seconds leave int64.
    """
    seconds, fraction = divmod(t.to_units() + d.units, FRAC_UNIT)
    if not (_SECONDS_MIN <= seconds <= _SECONDS_MAX):
        raise TimeRangeError(f"timestamp addition overflow: {seconds} s")
    return Timestamp(seconds, fraction)


# -- local free-running monotonic scale ------------------------------------


@dataclass(frozen=True)
class MonotonicInstant:
    """Nanoseconds on the local monotonic clock; anchors measurements when
    no UTC scale is trusted.  Only differences are meaningful."""

    nanoseconds: int

    def __post_init__(self) -> None:
        if not (0 <= self.nanoseconds < 1 << 64):
            raise TimeRangeError(f"monotonic ns out of uint64: {self.nanoseconds}")

    @classmethod
    def now(cls) -> "MonotonicInstant":
        return cls(time.monotonic_ns())

    def __lt__(self, other: "MonotonicInstant") -> bool:
        return self.nanoseconds < other.nanoseconds

    def __le__(self, other: "MonotonicInstant") -> bool:
        return self.nanoseconds <= other.nanoseconds

    def __gt__(self, other: "MonotonicInstant") -> bool:
        return self.nanoseconds > other.nanoseconds

    def __ge__(self, other: "MonotonicInstant") -> bool:
        return self.nanoseconds >= other.nanoseconds

    def elapsed_s(self, earlier: "MonotonicInstant") -> float:
        return (self.nanoseconds - earlier.nanoseconds) / NS_PER_S


def _round_fraction(x: Fraction) -> int:
    """Round a rational to the nearest integer, ties to even."""
    floor = x.numerator // x.denominator
    rem2 = 2 * (x.numerator - floor * x.denominator)
    if rem2 > x.denominator or (rem2 == x.denominator and floor % 2 == 1):
        return floor + 1
    return floor

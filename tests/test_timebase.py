import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from timeguard.timebase import (
    FRAC_UNIT,
    MonotonicInstant,
    SignedDuration,
    TimeRangeError,
    Timestamp,
    ts_add,
    ts_diff,
    units_from_s,
)

# keep |seconds| well inside int64 so additions cannot overflow in properties
ts_strategy = st.builds(
    Timestamp.from_parts,
    seconds=st.integers(min_value=-(2**40), max_value=2**40),
    fraction=st.integers(min_value=0, max_value=FRAC_UNIT - 1),
)

UNITS_MAX = 2**127 - 1


def test_diff_identity():
    t = Timestamp.from_parts(12345, 678)
    assert ts_diff(t, t).units == 0


def test_diff_four_seconds():
    # the 4 s step magnitude used by the coarse step-attack scenario
    assert ts_diff(Timestamp.from_unix_s(10), Timestamp.from_unix_s(6)) == SignedDuration.from_s(4)


def test_diff_half_second():
    d = ts_diff(Timestamp.from_parts(0, 2**63), Timestamp.from_unix_s(0))
    assert d.units == 2**63
    assert d.to_s() == 0.5


def test_add_carry():
    t = ts_add(Timestamp.from_parts(5, FRAC_UNIT - 1), SignedDuration(1))
    assert t == Timestamp.from_unix_s(6)
    assert (t.seconds, t.fraction) == (6, 0)


def test_add_identity():
    t = Timestamp.from_parts(-3, 17)
    assert ts_add(t, SignedDuration(0)) == t


def test_add_negative_second():
    assert ts_add(Timestamp.from_unix_s(0), SignedDuration.from_s(-1)) == Timestamp.from_unix_s(-1)


def test_add_overflow():
    with pytest.raises(TimeRangeError):
        ts_add(Timestamp.from_unix_s(2**63 - 1), SignedDuration.from_s(1))
    with pytest.raises(TimeRangeError):
        ts_add(Timestamp.from_unix_s(-(2**63)), SignedDuration(-1))


def test_fraction_range_enforced():
    # a fraction out of range would otherwise carry into the seconds
    with pytest.raises(TimeRangeError):
        Timestamp.from_parts(0, FRAC_UNIT)
    with pytest.raises(TimeRangeError):
        Timestamp.from_parts(0, -1)


@given(a=ts_strategy, b=ts_strategy)
def test_diff_add_round_trip(a, b):
    assert ts_add(b, ts_diff(a, b)) == a


@given(a=ts_strategy, b=ts_strategy)
def test_ordering_consistent_with_diff_sign(a, b):
    d = ts_diff(a, b)
    if d.units > 0:
        assert a > b and a >= b and d > SignedDuration(0)
    elif d.units < 0:
        assert a < b and a <= b and d < SignedDuration(0)
    else:
        assert a == b


@given(ns=st.integers(min_value=-(2**62), max_value=2**62))
def test_ns_round_trip_exact(ns):
    assert Timestamp.from_ns(ns).to_ns() == ns


def test_from_s_dyadic_exact():
    assert SignedDuration.from_s(0.5).units == 2**63
    assert SignedDuration.from_s(-0.25).units == -(2**62)
    assert SignedDuration.from_s(4).units == 4 * FRAC_UNIT


def test_negative_quarter_second_representation():
    t = Timestamp(-(FRAC_UNIT // 4))
    assert t.seconds == -1
    assert t.fraction == 3 * FRAC_UNIT // 4
    assert t == Timestamp.from_parts(-1, 3 * FRAC_UNIT // 4)
    assert t.units / FRAC_UNIT == -0.25


def test_monotonic_elapsed():
    a = MonotonicInstant(1_000)
    b = MonotonicInstant(3_500)
    assert b.elapsed_s(a) == 2.5e-6
    assert a < b


def test_monotonic_now_reads_the_raw_clock_where_there_is_one(monkeypatch):
    # CLOCK_MONOTONIC is slewed by the host's clock discipline, which a
    # deployment may steer from the very receiver under test
    read = []
    monkeypatch.setattr(time, "clock_gettime_ns", lambda clock: read.append(clock) or 7)
    monkeypatch.setattr(time, "monotonic_ns", lambda: 11)
    if hasattr(time, "CLOCK_MONOTONIC_RAW"):
        assert MonotonicInstant.now() == MonotonicInstant(7)
        assert read == [time.CLOCK_MONOTONIC_RAW]
    else:
        assert MonotonicInstant.now() == MonotonicInstant(11)
        assert read == []


def test_monotonic_now_non_decreasing():
    prev = MonotonicInstant.now()
    for _ in range(100):
        cur = MonotonicInstant.now()
        assert cur >= prev
        prev = cur


# -- the integer rounding against the rational oracle -------------------------


def _oracle_units(seconds) -> int:
    """Nearest 2^-64 s count, ties to even, computed with Fraction."""
    return round(Fraction(seconds) * FRAC_UNIT)


def _check_from_s(seconds) -> None:
    expected = _oracle_units(seconds)
    if not -UNITS_MAX - 1 <= expected <= UNITS_MAX:
        with pytest.raises(TimeRangeError):
            SignedDuration.from_s(seconds)
    else:
        assert SignedDuration.from_s(seconds).units == expected


@given(x=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
@example(x=5e-324)
@example(x=-2.2250738585072014e-308)
@example(x=2.0**-65)
@example(x=1.7976931348623157e308)
@example(x=2.0**63 - 2.0**10)
@example(x=-(2.0**63))
def test_from_s_matches_fraction_oracle(x):
    _check_from_s(x)
    _check_from_s(np.float64(x))


@given(k=st.integers(min_value=-(2**51), max_value=2**51))
@example(k=0)
@example(k=1)
@example(k=-1)
def test_from_s_half_unit_ties_round_to_even(k):
    x = (2 * k + 1) * 2.0**-65  # exactly half-way between two 2^-64 s units
    assert Fraction(x) * FRAC_UNIT == Fraction(2 * k + 1, 2)
    units = SignedDuration.from_s(x).units
    assert units == _oracle_units(x)
    assert units % 2 == 0


@given(n=st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_from_s_integer_seconds(n):
    assert SignedDuration.from_s(n).units == n * FRAC_UNIT


@pytest.mark.parametrize(
    "bad, error", [(math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError)]
)
def test_from_s_rejects_nan_and_infinity(bad, error):
    # so a feed line carrying NaN or Infinity is rejected, not converted
    for x in (bad, np.float64(bad)):
        with pytest.raises(error):
            SignedDuration.from_s(x)


# -- units_from_s's float product against its exact ratio ---------------------


def _ratio_units(x: float) -> int:
    """The as_integer_ratio path: num * 2^64 / den, rounded half-even."""
    num, den = x.as_integer_ratio()
    return round(Fraction(num * FRAC_UNIT, den))


def _check_float_path(x: float) -> None:
    units = units_from_s(x)
    assert type(units) is int
    assert units == _ratio_units(x)


@given(x=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
@example(x=0.0)
@example(x=-0.0)
@example(x=5e-324)
@example(x=-5e-324)
@example(x=2.2250738585072009e-308)  # the largest subnormal
@example(x=2.0**-65)
@example(x=3 * 2.0**-66)
@example(x=math.nextafter(1e280, 0.0))
@example(x=-math.nextafter(1e280, 0.0))
def test_units_from_s_float_product_matches_the_ratio(x):
    _check_float_path(x)


@given(k=st.integers(min_value=-(2**52), max_value=2**52 - 1))
@example(k=0)
@example(k=-1)
@example(k=2**52 - 1)
def test_units_from_s_ties_at_odd_multiples_of_half_a_unit_round_to_even(k):
    x = (2 * k + 1) * 2.0**-65
    assert Fraction(x) * FRAC_UNIT == Fraction(2 * k + 1, 2)
    _check_float_path(x)
    assert units_from_s(x) % 2 == 0


@given(x=st.floats(min_value=1e280, allow_infinity=False), negative=st.booleans())
@example(x=1e280, negative=False)
@example(x=1e280, negative=True)
@example(x=1e290, negative=False)
@example(x=1e299, negative=True)
@example(x=1.7976931348623157e308, negative=True)
def test_units_from_s_past_1e280_takes_the_ratio(x, negative):
    # x * 2^64 overflows a double from about 9.7e288; the ratio is exact
    _check_float_path(-x if negative else x)


@pytest.mark.parametrize(
    "bad, error", [(math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError)]
)
def test_units_from_s_rejects_nan_and_infinity(bad, error):
    with pytest.raises(error):
        units_from_s(bad)


@given(ns=st.integers(min_value=-(2**62), max_value=2**62))
def test_from_ns_matches_fraction_oracle(ns):
    assert Timestamp.from_ns(ns).units == round(Fraction(ns * FRAC_UNIT, 10**9))


# counts of 2^-64 s for |t| up to 2^62 ns, plus exact half-nanosecond ties:
# an odd multiple of 2^54 units is an odd multiple of 5^9 / 2 ns
_UNITS_2_62_NS = 2**62 * FRAC_UNIT // 10**9
units_strategy = st.one_of(
    st.integers(min_value=-_UNITS_2_62_NS, max_value=_UNITS_2_62_NS),
    st.integers(min_value=-(2**20), max_value=2**20).map(lambda m: (2 * m + 1) << 54),
)


@given(units=units_strategy)
@example(units=1 << 54)
@example(units=3 << 54)
def test_to_ns_matches_fraction_oracle(units):
    assert Timestamp(units).to_ns() == round(Fraction(units * 10**9, FRAC_UNIT))

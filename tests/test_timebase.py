import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from timeguard.timebase import (
    FRAC_UNIT,
    MonotonicInstant,
    SignedDuration,
    TimeRangeError,
    Timestamp,
    ts_add,
    ts_diff,
)

# keep |seconds| well inside int64 so additions cannot overflow in properties
ts_strategy = st.builds(
    Timestamp,
    seconds=st.integers(min_value=-(2**40), max_value=2**40),
    fraction=st.integers(min_value=0, max_value=FRAC_UNIT - 1),
)


def test_diff_identity():
    t = Timestamp(12345, 678)
    assert ts_diff(t, t).units == 0


def test_diff_four_seconds():
    # the 4 s step magnitude used by the coarse step-attack scenario
    assert ts_diff(Timestamp(10, 0), Timestamp(6, 0)) == SignedDuration.from_s(4)


def test_diff_half_second():
    d = ts_diff(Timestamp(0, 2**63), Timestamp(0, 0))
    assert d.units == 2**63
    assert d.to_s() == 0.5


def test_add_carry():
    assert ts_add(Timestamp(5, FRAC_UNIT - 1), SignedDuration(1)) == Timestamp(6, 0)


def test_add_identity():
    t = Timestamp(-3, 17)
    assert ts_add(t, SignedDuration(0)) == t


def test_add_negative_second():
    assert ts_add(Timestamp(0, 0), SignedDuration.from_s(-1)) == Timestamp(-1, 0)


def test_add_overflow():
    with pytest.raises(TimeRangeError):
        ts_add(Timestamp(2**63 - 1, 0), SignedDuration.from_s(1))


def test_fraction_range_enforced():
    with pytest.raises(TimeRangeError):
        Timestamp(0, FRAC_UNIT)
    with pytest.raises(TimeRangeError):
        Timestamp(0, -1)


@given(a=ts_strategy, b=ts_strategy)
def test_diff_add_round_trip(a, b):
    assert ts_add(b, ts_diff(a, b)) == a


@given(a=ts_strategy, b=ts_strategy)
def test_ordering_consistent_with_diff_sign(a, b):
    d = ts_diff(a, b)
    if d.units > 0:
        assert a > b
    elif d.units < 0:
        assert a < b
    else:
        assert a == b


@given(ns=st.integers(min_value=-(2**62), max_value=2**62))
def test_ns_round_trip_exact(ns):
    assert Timestamp.from_ns(ns).to_ns() == ns


@given(ns=st.integers(min_value=-(2**62), max_value=2**62))
def test_duration_ns_round_trip_exact(ns):
    assert SignedDuration.from_ns(ns).to_ns() == ns


def test_from_s_dyadic_exact():
    assert SignedDuration.from_s(0.5).units == 2**63
    assert SignedDuration.from_s(-0.25).units == -(2**62)
    assert SignedDuration.from_s(4).units == 4 * FRAC_UNIT


def test_negation_exact():
    d = SignedDuration(123456789123456789)
    assert (-d).units == -d.units
    assert -(-d) == d


def test_negative_quarter_second_representation():
    t = Timestamp.from_units(-(FRAC_UNIT // 4))
    assert t.seconds == -1
    assert t.fraction == 3 * FRAC_UNIT // 4
    assert t.to_units() / FRAC_UNIT == -0.25


def test_monotonic_elapsed():
    a = MonotonicInstant(1_000)
    b = MonotonicInstant(3_500)
    assert b.elapsed_s(a) == 2.5e-6
    assert a < b


def test_monotonic_now_non_decreasing():
    prev = MonotonicInstant.now()
    for _ in range(100):
        cur = MonotonicInstant.now()
        assert cur >= prev
        prev = cur


@settings(max_examples=30)
@given(
    d1=st.integers(min_value=-(2**80), max_value=2**80),
    d2=st.integers(min_value=-(2**80), max_value=2**80),
)
def test_duration_arithmetic(d1, d2):
    a, b = SignedDuration(d1), SignedDuration(d2)
    assert (a + b).units == d1 + d2
    assert (a - b).units == d1 - d2
    assert abs(a).units == abs(d1)

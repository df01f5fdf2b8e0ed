"""Tests for the receiver feed's JSONL epoch record."""

import json
from dataclasses import replace
from itertools import cycle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timeguard.attack_sim import builtin_scenarios, gen_scenario
from timeguard.config import default_config
from timeguard.detector import LlConfig
from timeguard.orchestrator import OrderingError
from timeguard.pipeline import Monitor, scenario_inputs
from timeguard.receiver_feed import (
    _EPOCH_LINE,
    EpochRecord,
    FeedError,
    NtsMeasurement,
    RoughtimeMeasurement,
    epoch_from_json,
    epoch_to_json,
    _json_feed_input,
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


# -- the epoch-line pattern against the JSON path ------------------------------

U64_MAX = 2**64 - 1
I64_MIN, I64_MAX = -(2**63), 2**63 - 1

records = st.builds(
    lambda t_mono, sec, frac, fix_valid, leap_applied, source_id: EpochRecord(
        MonotonicInstant(t_mono), Timestamp.from_parts(sec, frac), fix_valid, leap_applied,
        source_id),
    st.sampled_from([0, U64_MAX]) | st.integers(0, U64_MAX),
    st.sampled_from([I64_MIN, I64_MAX, 0]) | st.integers(I64_MIN, I64_MAX),
    st.sampled_from([0, U64_MAX]) | st.integers(0, U64_MAX),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["gnss", "", "rx-1.a:b_C"]) | st.text(max_size=6),
)


def epoch_fields(rec: EpochRecord) -> list:
    """The (key, value text) pairs of rec's epoch line, in epoch_to_json's order."""
    return [("t_mono_ns", str(rec.t_mono.nanoseconds)),
            ("t_gnss", [("sec", str(rec.t_gnss.seconds)), ("frac", f'"{rec.t_gnss.fraction}"')]),
            ("fix_valid", json.dumps(rec.fix_valid)),
            ("leap_applied", json.dumps(rec.leap_applied)),
            ("source_id", json.dumps(rec.source_id))]


def spell(fields: list, gaps) -> str:
    """The JSON text of an object of (key, value text) pairs, with next(gaps)
    before and after every token."""
    def value(v):
        return f"{next(gaps)}{spell(v, gaps) if isinstance(v, list) else v}{next(gaps)}"
    return "{" + ",".join(f'{next(gaps)}"{key}"{next(gaps)}:{value(v)}' for key, v in fields) + "}"


def takes_source_id(source_id: str) -> bool:
    return all(c.isascii() and (c.isalnum() or c in "_.:-") for c in source_id)


def decoded(decode, line: str):
    """decode(line) with its repr, which tells a bool from an int, or its refusal."""
    try:
        result = decode(line)
    except FeedError as e:
        return "refused", str(e)
    return result, repr(result)


JSON_WS = ["", " ", "\t", "\n", "\r\n", " \t\n\r"]


@given(rec=records, gaps=st.lists(st.sampled_from(JSON_WS), min_size=1, max_size=4))
@settings(max_examples=200)
def test_the_pattern_takes_the_lines_epoch_to_json_writes(rec, gaps):
    line = epoch_to_json(rec)
    assert spell(epoch_fields(rec), cycle([""])) == line
    # json.dumps's default spelling has a space after each colon and comma
    for spelled in (line, json.dumps(json.loads(line)), spell(epoch_fields(rec), cycle(gaps))):
        assert (_EPOCH_LINE(spelled) is not None) == takes_source_id(rec.source_id)
        assert feed_input(spelled) == _json_feed_input(spelled) == ("epoch", (rec,))


# integers inside each field's range, at its ends, just past them, and of up to 23 digits
T_MONO_NS = (st.sampled_from([0, U64_MAX, 2**64, -1]) | st.integers(0, U64_MAX)
             | st.integers(-(10**22), 10**22))
SEC = (st.sampled_from([I64_MIN, I64_MAX, I64_MIN - 1, I64_MAX + 1]) | st.integers(I64_MIN, I64_MAX)
       | st.integers(-(10**22), 10**22))
FRAC = st.sampled_from([0, U64_MAX, 2**64]) | st.integers(0, U64_MAX) | st.integers(0, 10**22)
# value texts a line may carry in place of the one epoch_to_json would
# write, each with whether the pattern takes it; the JSON path says what
# each reads as
INTEGER_MUTANTS = {"-0": True, "-1": True, "00": False, "01": False, "+1": False,
                   "1.0": False, "1e3": False, "true": False, '"1"': False}
FLAG_MUTANTS = {"TRUE": False, "True": False, "1": False, "null": False, '"true"': False}
MUTANTS = {
    ("t_mono_ns",): {**INTEGER_MUTANTS, "1" * 20: True, "1" * 21: False, "-" + "1" * 20: True},
    ("t_gnss", "sec"): {**INTEGER_MUTANTS, "1" * 19: True, "1" * 20: False, "-" + "1" * 20: False},
    ("t_gnss", "frac"): {'"00000000000000000001"': True, f'"0{U64_MAX}"': False, '""': False,
                         '"-1"': False, '"+1"': False, '" 1"': False, "1": False,
                         '"\\u0031"': False},
    ("fix_valid",): FLAG_MUTANTS,
    ("leap_applied",): FLAG_MUTANTS,
    ("source_id",): {'"\\u0067nss"': False, '"gn\\u00dfs"': False, '"gnß"': False,
                     '"a b"': False, '"a\\"b"': False, "null": False, "7": False},
}
# key orders and keys that the pattern does not take
STRUCTURE = {
    "swapped": lambda f: [f[0], f[1], f[3], f[2], f[4]],
    "t_mono_ns last": lambda f: f[1:] + f[:1],
    "duplicated": lambda f: f + [("fix_valid", "false")],
    "clock_bias_ns": lambda f: f[:4] + [("clock_bias_ns", "-42")] + f[4:],
    "no source_id": lambda f: f[:4],
    "no leap_applied": lambda f: f[:3] + f[4:],
}
NOT_JSON_WS = ["\x0b", "\x0c", "\u00a0", "\u2028"]
TAILS = ["x", "}", ",", "\x00"]


def mutate(fields: list, path: tuple, text: str) -> list:
    return [(key, mutate(v, path[1:], text) if len(path) > 1 else text) if key == path[0]
            else (key, v) for key, v in fields]


def digits(n: int) -> int:
    return len(str(abs(n)))


@st.composite
def epoch_lines(draw):
    """(line, whether the pattern takes it): an epoch line whose integers may
    lie past their range, perhaps with a leading zero, one other value, its
    keys, its whitespace or its tail changed."""
    t_mono_ns, sec, frac = draw(T_MONO_NS), draw(SEC), draw(FRAC)
    source_id = draw(st.sampled_from(["gnss", "", "rx-1.a:b_C"]) | st.text(max_size=6))
    fields = [("t_mono_ns", str(t_mono_ns)), ("t_gnss", [("sec", str(sec)), ("frac", f'"{frac}"')]),
              ("fix_valid", json.dumps(draw(st.booleans()))),
              ("leap_applied", json.dumps(draw(st.booleans()))),
              ("source_id", json.dumps(source_id))]
    taken = {("t_mono_ns",): digits(t_mono_ns) <= 20, ("t_gnss", "sec"): digits(sec) <= 19,
             ("t_gnss", "frac"): digits(frac) <= 20, ("source_id",): takes_source_id(source_id)}
    gaps = draw(st.lists(st.sampled_from(JSON_WS), min_size=1, max_size=4))
    tail = ""
    change = draw(st.sampled_from([None, None, "zero", "value", "keys", "whitespace", "tail"]))
    if change == "zero":  # a leading zero, which JSON refuses
        key, n = draw(st.sampled_from([("t_mono_ns", t_mono_ns), ("sec", sec)]))
        fields = mutate(fields, ("t_gnss", key) if key == "sec" else (key,),
                        f"{'-' if n < 0 else ''}0{abs(n)}")
    elif change == "value":
        path = draw(st.sampled_from(sorted(MUTANTS)))
        text = draw(st.sampled_from(sorted(MUTANTS[path])))
        fields = mutate(fields, path, text)
        taken[path] = MUTANTS[path][text]
    elif change == "keys":
        fields = STRUCTURE[draw(st.sampled_from(sorted(STRUCTURE)))](fields)
    elif change == "whitespace":
        gaps.insert(draw(st.integers(0, len(gaps))), draw(st.sampled_from(NOT_JSON_WS)))
    elif change == "tail":
        tail = draw(st.sampled_from(TAILS))
    return spell(fields, cycle(gaps)) + tail, change in (None, "value") and all(taken.values())


def canonical(**values) -> str:
    """The canonical epoch line, with the given value texts in place."""
    fields = epoch_fields(EpochRecord(MonotonicInstant(5), Timestamp.from_parts(1, 2), True))
    for key, text in values.items():
        fields = mutate(fields, ("t_gnss", key) if key in ("sec", "frac") else (key,), text)
    return spell(fields, cycle([""]))


@given(case=epoch_lines())
@example(case=(canonical(t_mono_ns="01"), False))
@example(case=(canonical(t_mono_ns="-1", frac=f'"{2**64}"'), True))
@example(case=(canonical(t_mono_ns=str(2**64), sec=str(2**63)), True))
@settings(max_examples=500)
def test_an_epoch_line_reads_as_the_json_path_reads_it(case):
    line, taken = case
    assert (_EPOCH_LINE(line) is not None) == taken
    assert decoded(feed_input, line) == decoded(_json_feed_input, line)


@pytest.mark.parametrize("name", ["step4s", "outage"])
def test_every_epoch_line_of_a_generated_run_takes_the_pattern(name):
    spec = builtin_scenarios()["step4s"]
    if name == "outage":
        spec = replace(spec, network=replace(spec.network, mode="down", down_from_epoch=100,
                                             down_to_epoch=200))
    kinds = set()
    for method, args in scenario_inputs(gen_scenario(spec)):
        if method != "finish":
            kinds.add(method)
            assert (_EPOCH_LINE(feed_line(method, args)) is not None) == (method == "epoch")
    assert kinds == {"epoch", "roughtime", "nts"} | ({"network"} if name == "outage" else set())


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
    return Monitor(default_config(), LlConfig(lambda_T=100.0, sigma0_sq=1e-16))


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

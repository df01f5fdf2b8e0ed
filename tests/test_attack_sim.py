"""Tests for scenario generation and attack profiles."""

import dataclasses
import hashlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from adev import allan_deviation, analytic_adev
from timeguard.attack_sim import (
    _STREAM_JITTER,
    _STREAM_NETWORK,
    _STREAM_OSCILLATOR,
    ATTACK_KINDS,
    MAX_OFFSET_S,
    MAX_RUN_S,
    PRNG_ID,
    AttackSpec,
    NetworkSpec,
    ScenarioSpec,
    SpecValidationError,
    _chol2,
    _stream,
    attack_offset,
    builtin_scenarios,
    gen_scenario,
    network_available,
    simulate_oscillator,
    write_epochs_jsonl,
    write_truth_csv,
)
from timeguard.ensemble import DEFAULT_OSCILLATOR, OscillatorSpec, process_noise
from timeguard.receiver_feed import EpochRecord, epoch_from_json
from timeguard.timebase import MonotonicInstant, SignedDuration, Timestamp, ts_add, ts_diff

STEP = AttackSpec(kind="step", offset_s=4.0, onset_epoch=100)
INCR = AttackSpec(kind="incremental", offset_s=2e-6, onset_epoch=100, every_k=30)
PULL = AttackSpec(kind="smooth_pull", offset_s=2e-6, onset_epoch=200, span_epochs=600)


# -- attack profiles --------------------------------------------------------


def test_none_profile_is_zero():
    assert all(attack_offset(AttackSpec(), e) == 0.0 for e in range(0, 1000, 37))


def test_step_profile():
    assert attack_offset(STEP, 99) == 0.0
    assert attack_offset(STEP, 100) == 4.0
    assert attack_offset(STEP, 150) == 4.0


def test_incremental_profile_closed_form():
    assert attack_offset(INCR, 100) == 0.0
    assert attack_offset(INCR, 129) == 0.0
    assert attack_offset(INCR, 130) == 2e-6
    assert attack_offset(INCR, 100 + 76 * 30) == pytest.approx(152e-6)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200)
def test_incremental_matches_recomputation(epoch):
    want = 0.0 if epoch < 100 else 2e-6 * math.floor((epoch - 100) / 30)
    assert attack_offset(INCR, epoch) == pytest.approx(want)


def test_smooth_pull_profile():
    assert attack_offset(PULL, 200) == 0.0
    assert attack_offset(PULL, 500) == pytest.approx(1e-6)  # half the raised cosine
    assert attack_offset(PULL, 800) == pytest.approx(2e-6)
    assert attack_offset(PULL, 1100) == pytest.approx(2e-6)  # clamped after the ramp


@given(st.integers(min_value=0, max_value=1499))
@settings(max_examples=200)
def test_smooth_pull_monotone(epoch):
    assert attack_offset(PULL, epoch + 1) >= attack_offset(PULL, epoch)


def test_smooth_pull_continuity_bound():
    offsets = [attack_offset(PULL, e) for e in range(1300)]
    max_jump = max(abs(b - a) for a, b in zip(offsets, offsets[1:]))
    assert max_jump <= 2e-6 * (math.pi / 2) / 600 * 1.0001


def test_meacon_delay_negative_offset():
    attack = AttackSpec(kind="meacon_delay", offset_s=5e-4, onset_epoch=10)
    assert attack_offset(attack, 9) == 0.0
    assert attack_offset(attack, 10) == -5e-4


# -- oscillator simulation --------------------------------------------------


def test_oscillator_noiseless_integration():
    quiet = OscillatorSpec(q_b=0.0, q_d=0.0)
    bias = simulate_oscillator(quiet, 10, 1.0, seed=5, bias0=1.0, drift0=0.5)
    assert np.array_equal(bias, 1.0 + 0.5 * np.arange(10))


def simulate_oscillator_loop(spec, n, period_s, seed, bias0=0.0, drift0=0.0):
    """The recursion simulate_oscillator accumulates, one epoch at a time."""
    chol = _chol2(*process_noise(spec.q_b, spec.q_d, period_s))
    noise = _stream(seed, _STREAM_OSCILLATOR).standard_normal((n - 1, 2)) @ chol.T
    bias = np.empty(n)
    b, d = bias0, drift0
    bias[0] = b
    for k in range(1, n):
        b += d * period_s + noise[k - 1, 0]
        d += noise[k - 1, 1]
        bias[k] = b
    return bias


@pytest.mark.parametrize("seed", [1, 7, 1001, 2**40 + 3])
@pytest.mark.parametrize("n, period_s, bias0, drift0", [
    (1, 1.0, 0.0, 0.0),
    (1, 1.0, 2.5e-3, -1e-9),
    (2, 1.0, 0.0, 0.0),
    (3_000, 1.0, 0.0, 0.0),
    (3_000, 0.37, 1e-4, 3e-9),
    (500, 0.37, -2.0, -5e-8),
])
def test_oscillator_accumulates_as_the_epoch_loop_does(seed, n, period_s, bias0, drift0):
    got = simulate_oscillator(DEFAULT_OSCILLATOR, n, period_s, seed, bias0, drift0)
    want = simulate_oscillator_loop(DEFAULT_OSCILLATOR, n, period_s, seed, bias0, drift0)
    assert got.dtype == want.dtype and got.shape == (n,)
    assert got.tobytes() == want.tobytes()


def test_oscillator_deterministic_and_streams_distinct():
    a = simulate_oscillator(DEFAULT_OSCILLATOR, 500, 1.0, seed=42)
    b = simulate_oscillator(DEFAULT_OSCILLATOR, 500, 1.0, seed=42)
    c = simulate_oscillator(DEFAULT_OSCILLATOR, 500, 1.0, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_oscillator_adev_matches_analytic():
    bias = simulate_oscillator(DEFAULT_OSCILLATOR, 20_000, 1.0, seed=7)
    taus = [1.0, 4.0, 16.0]
    measured = allan_deviation(bias, 1.0, taus)
    for tau, got in zip(taus, measured):
        want = analytic_adev(DEFAULT_OSCILLATOR.q_b, DEFAULT_OSCILLATOR.q_d, tau)
        assert got == pytest.approx(want, rel=0.15)


# -- scenario generation ----------------------------------------------------


def test_zero_noise_benign_equals_truth():
    spec = ScenarioSpec(name="quiet", duration_epochs=50, benign_jitter_sigma_s=0.0, seed=9)
    out = gen_scenario(spec)
    start = Timestamp.from_unix_s(spec.start_unix_s)
    for e, rec in enumerate(out.epochs):
        assert rec.t_gnss == ts_add(start, SignedDuration.from_s(float(e)))
    assert [attack_offset(spec.attack, e) for e in range(50)] == [0.0] * 50


def test_local_clock_runs_on_the_simulated_oscillator():
    spec = builtin_scenarios()["incr2us"]
    out = gen_scenario(spec)
    wander = simulate_oscillator(spec.oscillator, spec.duration_epochs, spec.epoch_period_s,
                                 seed=spec.seed)
    t_mono = [rec.t_mono.nanoseconds for rec in out.epochs]
    ahead = [t - round(e * spec.epoch_period_s * 1e9) for e, t in enumerate(t_mono)]
    assert ahead == [round(w * 1e9) for w in wander]
    assert any(ahead)
    assert all(a < b for a, b in zip(t_mono, t_mono[1:]))
    for replies in (out.rt_responses, out.nts_responses):
        assert replies
        for e, reply in replies.items():
            assert reply.t_mono_rx == out.epochs[e].t_mono


def test_ground_truth_equals_injected_profile():
    spec = builtin_scenarios()["step4s"]
    truth = [attack_offset(spec.attack, e) for e in range(spec.duration_epochs)]
    assert truth == [0.0] * 100 + [4.0] * 100


def test_generation_deterministic_byte_identical():
    spec = builtin_scenarios()["pull2us"]
    blobs = []
    for _ in range(2):
        out = gen_scenario(spec)
        epochs, truth = io.StringIO(), io.StringIO()
        write_epochs_jsonl(epochs, out)
        write_truth_csv(truth, spec)
        blobs.append((epochs.getvalue(), truth.getvalue()))
    assert blobs[0] == blobs[1]


def reference_outputs(spec: ScenarioSpec) -> tuple[list, dict, dict]:
    """Epochs, Roughtime midpoints and NTS offsets built the long way: each
    instant through ts_add and SignedDuration.from_s, from numpy scalars."""
    n, period = spec.duration_epochs, spec.epoch_period_s
    start = Timestamp.from_unix_s(spec.start_unix_s)
    jitter = _stream(spec.seed, _STREAM_JITTER).normal(0.0, spec.benign_jitter_sigma_s, n)
    if spec.benign_jitter_sigma_s == 0.0:
        jitter = np.zeros(n)
    osc_bias = simulate_oscillator(spec.oscillator, n, period,
                                   _stream(spec.seed, _STREAM_OSCILLATOR)).tolist()
    net_rng = _stream(spec.seed, _STREAM_NETWORK)
    truth = np.array([attack_offset(spec.attack, e) for e in range(n)])
    epochs, midpoints, nts_offsets = [], {}, {}
    for e in range(n):
        t_true = ts_add(start, SignedDuration.from_s(e * period))
        t_mono = MonotonicInstant(round(e * period * 1e9) + round(osc_bias[e] * 1e9))
        t_gnss = ts_add(t_true, SignedDuration.from_s(truth[e] + jitter[e]))
        epochs.append(EpochRecord(t_mono=t_mono, t_gnss=t_gnss, fix_valid=True,
                                  source_id="gnss-sim"))
        online = network_available(spec, e)
        if e % spec.rt_poll_epochs == 0 and online:
            midpoints[e] = t_true
        if e % spec.nts_poll_epochs == 0 and online:
            theta = -(truth[e] + jitter[e]) + net_rng.normal(0.0, spec.network.nts_sigma_s)
            if spec.network.mode == "provider_compromise":
                theta += spec.network.provider_bias_s
            net_rng.uniform(spec.network.rtt_min_s, spec.network.rtt_max_s)
            nts_offsets[e] = SignedDuration.from_s(theta)
    return epochs, midpoints, nts_offsets


ORACLE_ATTACKS = [
    AttackSpec(),
    AttackSpec(kind="step", offset_s=4.0, onset_epoch=40),
    AttackSpec(kind="incremental", offset_s=3e-7, onset_epoch=17, every_k=7),
    AttackSpec(kind="smooth_pull", offset_s=2e-6, onset_epoch=20, span_epochs=90),
    AttackSpec(kind="meacon_delay", offset_s=1.1e-6, onset_epoch=33),
]
ORACLE_SPECS = [
    ScenarioSpec(name=f"oracle-{attack.kind}-{period}", duration_epochs=150,
                 epoch_period_s=period, attack=attack, seed=31 + i)
    for i, attack in enumerate(ORACLE_ATTACKS) for period in (0.1, 0.3, 1.0)
] + [
    ScenarioSpec(name="oracle-quiet", duration_epochs=150, epoch_period_s=0.3,
                 benign_jitter_sigma_s=0.0, seed=3,
                 attack=AttackSpec(kind="incremental", offset_s=7e-9, onset_epoch=3, every_k=2)),
    ScenarioSpec(name="oracle-quiet-none", duration_epochs=150, epoch_period_s=0.1,
                 benign_jitter_sigma_s=0.0, seed=4),
    ScenarioSpec(name="oracle-net", duration_epochs=150, epoch_period_s=0.3, seed=5,
                 network=NetworkSpec(mode="provider_compromise", provider_bias_s=3e-4)),
    ScenarioSpec(name="oracle-down", duration_epochs=150, epoch_period_s=0.1, seed=6,
                 network=NetworkSpec(mode="down", down_from_epoch=25, down_to_epoch=95)),
]


def assert_generates_as_reference(spec):
    # generation adds integer units; the reference rounds through ts_add
    epochs, midpoints, nts_offsets = reference_outputs(spec)
    out = gen_scenario(spec)
    assert out.epochs == epochs
    assert {e: m.midpoint for e, m in out.rt_responses.items()} == midpoints
    assert {e: m.offset for e, m in out.nts_responses.items()} == nts_offsets


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=[s.name for s in ORACLE_SPECS])
def test_generation_matches_the_ts_add_reference(spec):
    assert_generates_as_reference(spec)


def largest_within(bound: float, factor: int) -> float:
    """The largest float x with x * factor <= bound, as the spec multiplies."""
    x = bound / factor
    while x * factor > bound:
        x = math.nextafter(x, 0.0)
    return x


NETWORKS = [NetworkSpec(), NetworkSpec(mode="provider_compromise", provider_bias_s=3e-4),
            NetworkSpec(mode="down", down_from_epoch=2, down_to_epoch=9)]


@st.composite
def spec_fields(draw) -> dict:
    """ScenarioSpec keywords inside every bound, short runs at their edges
    included: offsets at 1e9 s, periods that take the run to 4e9 s, jitter
    just under 1 s, and 4 s steps."""
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(ATTACK_KINDS))
    reach = largest_within(MAX_OFFSET_S, n if kind == "incremental" else 1)
    longest = largest_within(MAX_RUN_S, n)
    return dict(
        name="drawn", duration_epochs=n,
        epoch_period_s=draw(st.one_of(st.sampled_from([0.1, 1.0, longest]),
                                      st.floats(1e-3, 10.0), st.floats(0.5 * longest, longest))),
        benign_jitter_sigma_s=draw(st.one_of(
            st.sampled_from([0.0, 10e-9, math.nextafter(1.0, 0.0)]),
            st.floats(0.0, 1.0, exclude_max=True))),
        attack=AttackSpec(
            kind=kind, onset_epoch=draw(st.integers(0, n - 1)),
            offset_s=draw(st.one_of(st.sampled_from([4.0, -4.0, reach, -reach]),
                                    st.floats(-reach, reach), st.floats(-1e-5, 1e-5))),
            every_k=draw(st.integers(1, 5)), span_epochs=draw(st.integers(1, 40))),
        network=draw(st.sampled_from(NETWORKS)),
        rt_poll_epochs=draw(st.integers(1, 7)), nts_poll_epochs=draw(st.integers(1, 7)),
        seed=draw(st.integers(0, 2**32)),
    )


@given(spec_fields())
@settings(max_examples=150, deadline=None)
def test_every_accepted_spec_generates_as_the_reference_does(fields):
    assert_generates_as_reference(ScenarioSpec(**fields))


@st.composite
def one_field_past_its_bound(draw) -> tuple:
    """(ScenarioSpec keywords with exactly one bound broken, the field it names)."""
    fields = draw(spec_fields())
    n, attack = fields["duration_epochs"], fields["attack"]
    field = draw(st.sampled_from(["run", "attack.offset_s", "benign_jitter_sigma_s"]))
    if field == "run":
        fields["epoch_period_s"] = draw(st.one_of(
            st.just(math.nextafter(largest_within(MAX_RUN_S, n), math.inf)),
            st.floats(MAX_RUN_S / n * 1.01, 1e300), st.sampled_from([math.inf, math.nan])))
        return fields, "duration_epochs * epoch_period_s"
    if field == "attack.offset_s":
        reach = largest_within(MAX_OFFSET_S, n if attack.kind == "incremental" else 1)
        offset = draw(st.one_of(
            st.just(math.nextafter(reach, math.inf)),
            st.floats(reach, 2 * reach, exclude_min=True), st.floats(reach * 1.01, 1e300),
            st.sampled_from([math.inf, math.nan])))
        offset *= draw(st.sampled_from([1.0, -1.0]))
        fields["attack"] = dataclasses.replace(attack, offset_s=offset)
        return fields, field
    fields[field] = draw(st.one_of(st.floats(1.0, 1e300), st.sampled_from([math.inf, math.nan])))
    return fields, field


@given(one_field_past_its_bound())
# ten epochs of 1.01e8 s pass 1e9 s: the incremental bound counts every epoch
@example((dict(name="drawn", duration_epochs=10,
               attack=AttackSpec(kind="incremental", offset_s=1.01e8)), "attack.offset_s"))
@settings(max_examples=300)
def test_every_spec_past_a_bound_is_refused_naming_its_field(case):
    fields, field = case
    with pytest.raises(SpecValidationError) as refused:
        ScenarioSpec(**fields)
    # one refusal, and it names the field
    assert str(refused.value).startswith(field + " must") and "; " not in str(refused.value)


def test_an_oscillator_past_the_clock_range_is_refused_before_any_epoch_is_built():
    # set only in code, so bounded where generation draws it: 1e10 s per
    # root second takes the clock bias past 4e9 s in the first steps
    spec = ScenarioSpec(name="wild", duration_epochs=100, seed=3,
                        oscillator=OscillatorSpec(q_b=1e20))
    with pytest.raises(SpecValidationError, match="^oscillator "):
        gen_scenario(spec)


# An offset past 1e9 s, an infinity or NaN is refused when the spec is built,
# before any epoch's instant could leave the 128-bit range.
REFUSED_OFFSETS = [1e279, 1e300, 1.7e308, math.inf, math.nan]


@pytest.mark.parametrize("offset_s", REFUSED_OFFSETS, ids=repr)
def test_generation_refuses_an_offset_past_the_timestamp_range(offset_s):
    message = f"attack.offset_s must keep the offset within 1e9 s, got {offset_s!r}"
    with pytest.raises(SpecValidationError, match=f"^{re.escape(message)}$"):
        ScenarioSpec(name="refused", duration_epochs=40, seed=3,
                     attack=AttackSpec(kind="step", offset_s=offset_s, onset_epoch=12))


def test_residual_noise_is_gaussian():
    out = gen_scenario(builtin_scenarios()["benign10k"])
    start = Timestamp.from_unix_s(out.spec.start_unix_s)
    residuals = np.array(
        [
            ts_diff(rec.t_gnss, ts_add(start, SignedDuration.from_s(float(e)))).to_s()
            - attack_offset(out.spec.attack, e)
            for e, rec in enumerate(out.epochs)
        ]
    )
    assert stats.normaltest(residuals).pvalue > 0.05
    assert residuals.std() == pytest.approx(10e-9, rel=0.05)


def test_provider_scripts_at_poll_epochs():
    out = gen_scenario(builtin_scenarios()["step4s"])
    assert set(out.rt_responses) == set(range(0, 200, 10))
    assert set(out.nts_responses) == set(range(0, 200, 30))
    start = Timestamp.from_unix_s(out.spec.start_unix_s)
    meas = out.rt_responses[50]
    assert meas.midpoint == ts_add(start, SignedDuration.from_s(50.0))
    assert meas.radius.to_s() == pytest.approx(1.0)


def test_nts_offset_tracks_negative_attack():
    out = gen_scenario(builtin_scenarios()["benign10k"])
    centered = np.array(
        [out.nts_responses[e].offset.to_s() + attack_offset(out.spec.attack, e)
         for e in out.nts_responses]
    )
    assert stats.normaltest(centered).pvalue > 0.05
    assert centered.std() == pytest.approx(50e-6, rel=0.15)
    delays = [out.nts_responses[e].delay.to_s() for e in out.nts_responses]
    assert all(1e-3 <= d <= 20e-3 for d in delays)


def test_network_down_window_suppresses_polls():
    spec = ScenarioSpec(
        name="outage",
        duration_epochs=300,
        network=NetworkSpec(mode="down", down_from_epoch=100, down_to_epoch=200),
        seed=11,
    )
    out = gen_scenario(spec)
    assert 90 in out.rt_responses
    assert not any(100 <= e < 200 for e in out.rt_responses)
    assert not any(100 <= e < 200 for e in out.nts_responses)
    assert 210 in out.rt_responses
    assert network_available(spec, 150) is False
    assert network_available(spec, 250) is True


def test_provider_compromise_biases_nts():
    spec = ScenarioSpec(
        name="lying-nts",
        duration_epochs=3000,
        network=NetworkSpec(mode="provider_compromise", provider_bias_s=1e-3),
        nts_poll_epochs=10,
        seed=12,
    )
    out = gen_scenario(spec)
    offsets = np.array([m.offset.to_s() for m in out.nts_responses.values()])
    assert offsets.mean() == pytest.approx(1e-3, abs=5 * 50e-6 / math.sqrt(len(offsets)))


def test_spec_validation_messages():
    with pytest.raises(SpecValidationError, match="duration_epochs"):
        ScenarioSpec(name="bad", duration_epochs=0)
    with pytest.raises(SpecValidationError, match="onset_epoch"):
        ScenarioSpec(
            name="bad", duration_epochs=10, attack=AttackSpec(kind="step", onset_epoch=10)
        )
    with pytest.raises(SpecValidationError, match="kind"):
        ScenarioSpec(name="bad", duration_epochs=10, attack=AttackSpec(kind="warp"))
    with pytest.raises(SpecValidationError, match="rtt_max_s"):
        ScenarioSpec(
            name="bad", duration_epochs=10, network=NetworkSpec(rtt_min_s=0.02, rtt_max_s=0.01)
        )
    with pytest.raises(SpecValidationError, match="poll"):
        ScenarioSpec(name="bad", duration_epochs=10, rt_poll_epochs=0)


@pytest.mark.parametrize("seed, accepted", [
    (-(2**63) - 1, False), (-(2**63), True), (2**63 - 1, True), (2**63, False), (2**64 - 1, False),
])
def test_the_seed_lies_in_the_range_philox_keys_exactly(seed, accepted):
    # past int64, numpy keys Philox through a float: 2^64 - 1 drew seed 0's
    # stream, and 2^63 + 1 the stream of 2^63 + 2
    if not accepted:
        with pytest.raises(SpecValidationError,
                           match=re.escape(f"seed must lie in [-2^63, 2^63), got {seed}")):
            ScenarioSpec(name="far", duration_epochs=5, seed=seed)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on a seed it casts
        run = gen_scenario(ScenarioSpec(name="far", duration_epochs=5, seed=seed))
    # -1 - seed is the other end of the range
    other = gen_scenario(ScenarioSpec(name="far", duration_epochs=5, seed=-1 - seed))
    assert run.epochs != other.epochs


def test_a_generated_run_holds_no_instance_dict():
    # a run builds two time values per epoch, and each reply holds more
    out = gen_scenario(builtin_scenarios()["step4s"])
    held = [value for rec in out.epochs for value in (rec.t_mono, rec.t_gnss)]
    for reply in [*out.rt_responses.values(), *out.nts_responses.values()]:
        held.append(reply)
        held.extend(getattr(reply, f.name) for f in dataclasses.fields(reply)
                    if f.name != "server_id")
    assert out.rt_responses and out.nts_responses
    assert {type(v).__name__ for v in held} == {
        "MonotonicInstant", "Timestamp", "SignedDuration", "RoughtimeMeasurement",
        "NtsMeasurement"}
    assert [v for v in held if hasattr(v, "__dict__")] == []


def test_builtin_scenarios_pinned():
    table = builtin_scenarios()
    assert set(table) == {"benign_cal", "benign10k", "step4s", "incr2us", "pull2us"}
    assert table["benign_cal"].seed != table["benign10k"].seed
    step = table["step4s"]
    assert step.attack.offset_s == 4.0
    assert step.attack.onset_epoch == 100
    assert step.rt_poll_epochs == 10
    assert step.rt_radius_s == 1.0
    incr = table["incr2us"]
    assert incr.attack.every_k == 30
    assert incr.nts_poll_epochs == 30
    pull = table["pull2us"]
    assert pull.attack.span_epochs == 600
    assert pull.attack.onset_epoch + pull.attack.span_epochs < pull.duration_epochs


def test_output_files_roundtrip():
    out = gen_scenario(ScenarioSpec(name="tiny", duration_epochs=7, seed=13))
    epochs_fh, truth_fh = io.StringIO(), io.StringIO()
    write_epochs_jsonl(epochs_fh, out)
    write_truth_csv(truth_fh, out.spec)
    header = truth_fh.getvalue().splitlines()[0]
    assert PRNG_ID in header
    assert "seed=13" in header
    parsed = [epoch_from_json(json.loads(line)) for line in epochs_fh.getvalue().splitlines()]
    assert parsed == out.epochs


# sha256 of truth.csv as written from a stored numpy truth array, 1024 epochs
# to a block: the writer that calls attack_offset per epoch writes the same bytes
TRUTH_CSV_SHA256 = {
    1: "57fb39311c65dc141f4da8bebd0f3e0b7bb9572dc69ab7567df2b93a2e6ed758",
    1024: "21f87e3b1fd6a23812a94455ad0d1c0baf99045623ccd980ff24f32b87d816bf",
    1025: "7bd61a48f9c33b09257d024d766e1b1f3017af0f26c715eb6581ff5b7daf09d6",
    2_500: "41d1a6e686d9bf832d9921e4b7374f25a214b4abf250faf539ecc7de5482b97a",
}


@pytest.mark.parametrize("n", [1, 1024, 1025, 2_500])
def test_truth_csv_matches_formatting_each_numpy_value(n):
    attack = INCR if n > INCR.onset_epoch else AttackSpec()
    fh = io.StringIO()
    write_truth_csv(fh, ScenarioSpec(name="blocks", duration_epochs=n, seed=14, attack=attack))
    body = "".join(f"{e},{attack_offset(attack, e) * 1e9:.6f}\n" for e in range(n))
    assert fh.getvalue().split("\n", 2)[2] == body
    assert hashlib.sha256(fh.getvalue().encode()).hexdigest() == TRUTH_CSV_SHA256[n]

"""Acceptance gate: one test per release criterion.

Each test is self-contained, pins its tolerances inline, and carries its
own runtime budget where the criterion demands one.  Run with -v to get
the one-line pass/fail verdict per criterion.
"""

import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from loopback import Wire
from scipy import stats

from timeguard.attack_sim import (
    DEFAULT_OSCILLATOR,
    attack_offset,
    builtin_scenarios,
    gen_scenario,
    simulate_oscillator,
)
from timeguard.bench import OPERATIONS, PAYLOAD_SIZES, run_bench
from timeguard.config import default_config
from timeguard.detector import Hypothesis, Verdict, calibrate_ll
from timeguard.ensemble import kf_init, kf_predict, kf_update, process_noise
from timeguard.orchestrator import (
    Event,
    EventKind,
    Phase,
    initial_state,
    replay,
    step,
    transition_to_json,
)
from timeguard.pipeline import resolve_ll, run_scenario, training_residuals
from timeguard.provider_nts import (
    EF_COOKIE,
    NtsTestServer,
    AuthenticationError,
    iter_efs,
    nts_query,
    offset_delay,
)
from timeguard.provider_roughtime import (
    TAG_CERT,
    TAG_PATH,
    TAG_ROOT,
    TAG_SIG,
    TAG_SREP,
    RoughtimeError,
    RoughtimeTestServer,
    build_request,
    decode_message,
    make_nonce,
    merkle_leaf,
    unframe_packet,
    verify_response,
)
from timeguard.timebase import MonotonicInstant, Timestamp

DEFAULT = default_config()
CFG = replace(DEFAULT, detector=replace(DEFAULT.detector, ll=resolve_ll(DEFAULT)))


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeds the {seconds}s budget"


def h1_epochs(result, test):
    return sorted(
        round(v.t_mono.nanoseconds / 1e9)
        for v in result.verdicts
        if v.test == test and v.hypothesis is Hypothesis.H1
    )


def test_criterion_1_step_attack_caught_at_first_rt_poll():
    """4 s step: RT H1 on the first poll after onset; zero benign RT alarms."""
    with budget(10.0):
        spec = builtin_scenarios()["step4s"]
        _, result = run_scenario(spec, CFG)
        polls = range(0, spec.duration_epochs, spec.rt_poll_epochs)
        first_attacked_poll = next(e for e in polls if attack_offset(spec.attack, e) != 0.0)
        assert first_attacked_poll - spec.attack.onset_epoch < spec.rt_poll_epochs
        hits = h1_epochs(result, "rt")
        assert hits, "step attack produced no RT alarm"
        assert hits[0] == first_attacked_poll  # exact
        assert result.report.outcomes["rt"].detected

        _, benign = run_scenario("benign10k", CFG)
        assert h1_epochs(benign, "rt") == []  # exact: zero false alarms


def test_criterion_2_incremental_attack_caught_by_nts():
    """2 us/30-epoch ramp: first NTS H1 no later than the deterministic
    threshold crossing plus one poll interval, and only during the attack."""
    with budget(30.0):
        spec = builtin_scenarios()["incr2us"]
        lam = CFG.detector.nts_lambda.to_s()
        polls = range(0, spec.duration_epochs, spec.nts_poll_epochs)
        crossing = next(e for e in polls if abs(attack_offset(spec.attack, e)) >= lam)
        # noise-free crossing lies within the advertised 76-period budget
        assert crossing <= spec.attack.onset_epoch + 76 * spec.nts_poll_epochs

        _, result = run_scenario(spec, CFG)
        hits = h1_epochs(result, "nts")
        assert hits, "incremental attack produced no NTS alarm"
        assert hits[0] <= crossing + spec.nts_poll_epochs  # +- 1 poll interval
        assert attack_offset(spec.attack, hits[0]) != 0.0  # fired during the attack
        assert result.report.outcomes["nts"].detected


def test_criterion_3_smooth_pull_caught_with_calibrated_far():
    """2 us pull over 600 epochs: ll fires before completion; a fresh
    benign 10^4-epoch run respects the calibrated 1e-3 false-alarm rate."""
    with budget(60.0):
        far = CFG.calibration.far
        residuals = training_residuals(
            gen_scenario(builtin_scenarios()[CFG.calibration.scenario]).epochs, CFG
        )
        fitted = calibrate_ll(CFG.detector.ll, residuals, far=far)
        operational = replace(
            fitted, lambda_T=fitted.lambda_T + CFG.calibration.margin
        )
        pinned = replace(CFG, detector=replace(CFG.detector, ll=operational))

        spec = builtin_scenarios()["pull2us"]
        _, result = run_scenario(spec, pinned)
        outcome = result.report.outcomes["ll"]
        assert outcome.detected
        assert outcome.latency_epochs < spec.attack.span_epochs  # before completion

        _, benign = run_scenario("benign10k", pinned)
        stats_ll = [v.statistic for v in benign.verdicts if v.test == "ll"]
        n = len(stats_ll)
        assert n > 9000
        # raw quantile crossings within the binomial 95% upper bound
        exceed = sum(s >= fitted.lambda_T for s in stats_ll)
        bound = int(stats.binom.ppf(0.95, n, far))
        assert exceed <= bound, f"{exceed} quantile crossings exceed bound {bound}"
        # the window overlaps m epochs, so crossings come in runs; one
        # statistic per window length is a count of independent windows
        thinned = stats_ll[::CFG.detector.ll.m]
        exceed_thinned = sum(s >= fitted.lambda_T for s in thinned)
        bound_thinned = int(stats.binom.ppf(0.95, len(thinned), far))
        assert exceed_thinned <= bound_thinned, (
            f"{exceed_thinned} thinned quantile crossings exceed bound {bound_thinned}"
        )
        # margin-padded operational threshold: no alarms at all
        assert h1_epochs(benign, "ll") == []


def test_criterion_4_kalman_filter_consistency():
    """Matched-model NEES in the chi-square 95% band, zero-interval predict
    is the identity, the 3-sigma gate rejects 4-sigma outliers, and one
    filter step agrees with a scalar oracle to 1e-12 relative."""
    spec = DEFAULT_OSCILLATOR
    sigma_meas = DEFAULT.ensemble.sigma_meas_s
    tau, steps, runs = 1.0, 200, 100
    r = sigma_meas**2
    q00, q01, q11 = process_noise(spec.q_b, spec.q_d, tau)
    chol = np.linalg.cholesky(np.array([[q00, q01], [q01, q11]]))
    nees = np.empty((runs, steps))
    for run in range(runs):
        rng = np.random.default_rng(900 + run)
        f0 = kf_init()
        p0 = np.array([[f0.p00, f0.p01], [f0.p01, f0.p11]])
        x0 = np.linalg.cholesky(p0) @ rng.standard_normal(2)
        bias, drift = simulate_oscillator(
            spec, steps + 1, tau, seed=np.random.default_rng(2000 + run),
            bias0=x0[0], drift0=x0[1],
        )
        # replay the generator's draws: the same noise, per element
        z = np.random.default_rng(2000 + run).standard_normal((steps, 2))
        b, d = x0[0], x0[1]
        for k in range(1, steps + 1):
            b += d * tau + z[k - 1, 0] * chol[0, 0]
            d += z[k - 1, 0] * chol[1, 0] + z[k - 1, 1] * chol[1, 1]
            assert b == bias[k] and d == drift[k]
        s = kf_init()
        for k in range(1, steps + 1):
            s = kf_predict(s, spec, tau)
            z = bias[k] + sigma_meas * rng.standard_normal()
            s = kf_update(s, spec, z, r, gate_k=1e6).state
            e = np.array([bias[k] - s.bias, drift[k] - s.drift])
            nees[run, k - 1] = float(e @ np.linalg.solve([[s.p00, s.p01], [s.p01, s.p11]], e))
    lo = stats.chi2.ppf(0.025, 2 * runs) / runs
    hi = stats.chi2.ppf(0.975, 2 * runs) / runs
    grand = float(nees.mean())
    assert lo <= grand <= hi, f"NEES {grand:.4f} outside [{lo:.4f}, {hi:.4f}]"
    per_step = nees.mean(axis=0)
    assert np.mean((per_step >= lo) & (per_step <= hi)) >= 0.90

    s = kf_init(bias=1e-7, drift=1e-10)
    assert kf_predict(s, spec, 0.0) is s  # identity, exact

    converged = kf_init()
    for _ in range(100):
        converged = kf_predict(converged, spec, tau)
        converged = kf_update(converged, spec, 0.0, r, gate_k=3.0).state
    sigma = math.sqrt(converged.p00 + 2 * tau * converged.p01 + tau**2 * converged.p11
                      + q00 + r)
    probe = kf_predict(converged, spec, tau)
    update = kf_update(probe, spec, probe.bias + 4.0 * sigma, r, gate_k=3.0)
    assert not update.accepted
    assert update.state == probe  # rejected: state untouched

    # scalar oracle for one predict+update cycle, 1e-12 relative
    s = kf_init(bias=3e-8, drift=1e-11)
    zs = [5e-8, -2e-8, 1e-8]
    for z in zs:
        s = kf_predict(s, spec, tau)
        s = kf_update(s, spec, z, r, gate_k=1e6).state
    b, d = 3e-8, 1e-11
    p00, p01, p11 = 1e-12, 0.0, 1e-18
    for z in zs:
        b += d * tau
        p00, p01, p11 = (
            p00 + 2 * tau * p01 + tau * tau * p11 + q00,
            p01 + tau * p11 + q01,
            p11 + q11,
        )
        sv = p00 + r
        k0, k1 = p00 / sv, p01 / sv
        innov = z - b
        b, d = b + k0 * innov, d + k1 * innov
        p00, p01, p11 = (1 - k0) * p00, (1 - k0) * p01, p11 - k1 * p01
    assert s.bias == pytest.approx(b, rel=1e-12)
    assert s.drift == pytest.approx(d, rel=1e-12)
    assert s.p00 == pytest.approx(p00, rel=1e-12)


def test_criterion_5_roughtime_chain_and_exhaustive_bit_flips():
    """Self-generated delegation chain verifies; every single-bit flip in
    the signed regions is rejected; one-leaf Merkle root equals the
    direct leaf hash."""
    with budget(60.0):
        server = RoughtimeTestServer(now_unix_s=lambda: 1_689_120_000, radius_s=1)
        nonce = make_nonce()
        response = server.transport(build_request(nonce))
        measurement = verify_response(
            response, nonce, server.server_key, MonotonicInstant(0)
        )
        assert measurement.midpoint == Timestamp.from_unix_s(1_689_120_000)

        message = decode_message(unframe_packet(response))
        total = rejected = 0
        for tag in (TAG_SIG, TAG_PATH, TAG_SREP, TAG_CERT):
            value = message[tag]
            if not value:
                continue  # single-leaf tree: PATH is empty
            start = response.find(value)
            assert start > 0
            for pos in range(start, start + len(value)):
                for bit in range(8):
                    total += 1
                    flipped = bytearray(response)
                    flipped[pos] ^= 1 << bit
                    try:
                        verify_response(
                            bytes(flipped), nonce, server.server_key,
                            MonotonicInstant(0),
                        )
                    except RoughtimeError:
                        rejected += 1
        assert total > 1000
        assert rejected == total  # 100% rejection, exact

        srep = decode_message(message[TAG_SREP])
        direct = hashlib.sha512(b"\x00" + nonce).digest()[:32]
        assert srep[TAG_ROOT] == merkle_leaf(nonce) == direct


def test_criterion_6_nts_round_trip_tamper_cookies_and_offset_math():
    """Mock NTS round trip authenticates, a flipped ciphertext bit is
    rejected, 10^3 queries never reuse a cookie, and the offset/delay
    forms match hand-computed values on three fixed quadruples."""
    def fixed(values):
        remaining = list(values)
        return lambda: remaining.pop(0)

    t1, t4 = Timestamp.from_unix_s(100), Timestamp.from_parts(100, 3 << 61)
    t2, t3 = Timestamp.from_parts(101, 1 << 62), Timestamp.from_parts(101, 1 << 63)
    server = NtsTestServer(clock=fixed([t2, t3]))
    session = server.mint_session()
    m = nts_query(
        session, transport=server.transport, clock_utc=fixed([t1, t4]),
        mono=lambda: MonotonicInstant(5),
    )
    assert m.offset.to_s() == 1.1875  # dyadic, exact
    assert m.delay.to_s() == 0.125

    tampered = Wire(NtsTestServer(), flip=True)
    with pytest.raises(AuthenticationError):
        nts_query(tampered.mint_session(), transport=tampered.transport)

    server = NtsTestServer()
    session = server.mint_session(num_cookies=8)
    seen = []

    def recording(request):
        for ef_type, body, _start, _end in iter_efs(request):
            if ef_type == EF_COOKIE:
                seen.append(bytes(body))
        return server.transport(request)

    for _ in range(1000):
        nts_query(session, transport=recording)
    assert len(seen) == 1000
    assert len(set(seen)) == 1000  # uniqueness, exact

    quadruples = [
        # (t1, t2, t3, t4) -> expected (theta, delta), all dyadic
        ((0, 5, 6, 11), (0.0, 10.0)),
        ((100.0, 95.0, 96.0, 101.0), (-5.0, 0.0)),
        ((0.0, 10.25, 10.5, 0.375), (10.1875, 0.125)),
    ]
    def ts(x):
        seconds = int(x)
        return Timestamp.from_parts(seconds, round((x - seconds) * 2**64))
    for stamps, (theta_want, delta_want) in quadruples:
        theta, delta = offset_delay(*(ts(x) for x in stamps))
        assert theta.to_s() == theta_want  # exact
        assert delta.to_s() == delta_want


def test_criterion_7_orchestrator_replay_and_randomized_safety():
    """Replaying a recorded event log reproduces the transition log
    byte-identically; 10^5 random event sequences never reach fine
    monitoring without coarse validation and never leave the receiver
    trusted after an unresolved alarm."""
    events, transitions = [], []

    def record(event, transition):
        events.append(event)
        transitions.append(transition)

    _, result = run_scenario("step4s", CFG, on_transition=record)
    original = "\n".join(transition_to_json(r) for r in transitions)
    final, records = replay(events, CFG.orchestrator)
    assert "\n".join(transition_to_json(r) for r in records) == original
    assert final.phase == result.state.phase

    kinds = (
        EventKind.FIX_ACQUIRED, EventKind.FIX_LOST, EventKind.RT_VERDICT,
        EventKind.NTS_VERDICT, EventKind.LL_VERDICT, EventKind.NETWORK_UP,
        EventKind.NETWORK_DOWN, EventKind.TICK, EventKind.CLEAR,
    )
    tests = {
        EventKind.RT_VERDICT: "rt",
        EventKind.NTS_VERDICT: "nts",
        EventKind.LL_VERDICT: "ll",
    }
    sequences, length = 100_000, 8
    rng = np.random.default_rng(2026)
    kind_draw = rng.integers(0, len(kinds), size=(sequences, length))
    dt_draw = rng.integers(0, 3, size=(sequences, length))
    h1_draw = rng.random((sequences, length)) < 0.3
    cfg = CFG.orchestrator
    for i in range(sequences):
        state = initial_state()
        t = 0
        validated = False
        unresolved = False
        for j in range(length):
            kind = kinds[kind_draw[i, j]]
            t += int(dt_draw[i, j]) * 1_000_000_000
            mono = MonotonicInstant(t)
            if kind in tests:
                h = Hypothesis.H1 if h1_draw[i, j] else Hypothesis.H0
                event = Event(kind, mono, Verdict(tests[kind], h, 0.0, 1.0, "x", mono))
            else:
                event = Event(kind, mono)
            before = state.phase
            state, actions = step(state, event, cfg)
            verdict = event.verdict
            if kind in (EventKind.RT_VERDICT, EventKind.NTS_VERDICT):
                if verdict.hypothesis is Hypothesis.H0:
                    validated = True
            if verdict is not None and verdict.hypothesis is Hypothesis.H1:
                unresolved = True
            if "alert:auto_clear" in actions or (
                kind is EventKind.CLEAR and before is Phase.ALARM
            ):
                unresolved = False
            if state.phase is Phase.COLD_START and before is not Phase.COLD_START:
                validated = False
                unresolved = False
            assert not (state.phase is Phase.FINE_MONITORING and not validated), (
                f"sequence {i}: fine monitoring without coarse validation"
            )
            assert not (unresolved and state.active_time_source == "gnss"), (
                f"sequence {i}: receiver trusted with an unresolved alarm"
            )


def test_criterion_8_crypto_benchmark_table_and_orderings():
    """Full 4x2 benchmark table; throughput is the reciprocal of latency
    within 20%; AEAD beats signature verification, by 10x at the
    protocol-sized payload; consecutive runs agree within 3x."""
    first = run_bench(iterations=300)
    second = run_bench(iterations=300)
    cells = {(r.operation, r.payload_bytes) for r in first.rows}
    assert cells == {(op, size) for op in OPERATIONS for size in PAYLOAD_SIZES}
    for row in first.rows:
        assert row.mean_latency_s > 0
        assert abs(row.ops_per_s * row.mean_latency_s - 1.0) <= 0.20
        other = second.row(row.operation, row.payload_bytes)
        assert 1 / 3 < row.ops_per_s / other.ops_per_s < 3
    for size in PAYLOAD_SIZES:
        verify = first.row("verify", size).mean_latency_s
        for op in ("aead-encrypt", "aead-decrypt"):
            assert first.row(op, size).mean_latency_s < verify
    # the 10x margin is asserted at the packet-scale payload; at 8 KiB the
    # linear bulk-cipher term narrows the gap while verification stays flat
    verify_1k = first.row("verify", 1024).mean_latency_s
    for op in ("aead-encrypt", "aead-decrypt"):
        assert verify_1k / first.row(op, 1024).mean_latency_s >= 10.0

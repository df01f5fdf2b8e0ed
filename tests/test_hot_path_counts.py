"""Construction counts on the engine's and the provider clients' hot paths, with no timing.

Scenario generation adds each epoch's time values as integer units and
builds one Timestamp per epoch, plus the Roughtime midpoint at a poll.
The filter predicts inside kf_update, so a filtered epoch builds one
filter state, and every state accepts an ordinary covariance with one
inline comparison and never reaches the general PSD check.  These are
counted through the names the code calls them by, on a 2,000-epoch
benign scenario, so a change that brings back the per-epoch objects or
the general check fails here rather than as a slower benchmark.
An event that changes nothing only moves the engine's clock, so a benign
run builds an Event, steps the state machine, builds a transition record
and rebinds the engine's state only for the four events that change the
phase or request an action, and it asks whether an event changes nothing
once per event.  simulate encodes a transition record only when
transition_writer keeps it.  live decodes through json.loads only the feed
lines that are not epochs spelled as feed_line writes them.

Set-up is counted too: simulate and live each resolve the ll exactly once,
which is where the benchmark splits set-up off from the run, and building
a Monitor neither calibrates nor generates a run.

The provider clients are counted the same way over 50 rounds against
the in-process test servers, leaving out the calls made inside the
transport, which are the server's: the NTS client builds each key's
AES-SIV schedule once and seals and opens once per query, and the
Roughtime client sends a fixed request with no message encoding.
"""

import json
import sys
from dataclasses import replace

import pytest
from test_cli import PINNED_CFG

from timeguard import (attack_sim, ensemble, orchestrator, pipeline, provider_nts,
                       provider_roughtime, timebase)
from timeguard.attack_sim import ScenarioSpec, builtin_scenarios, gen_scenario
from timeguard.cli import EXIT_ATTACK, main
from timeguard.config import default_config
from timeguard.detector import ConfigError, LlConfig
from timeguard.pipeline import resolve_ll, run_scenario, scenario_inputs
from timeguard.provider_nts import NtsTestServer, nts_query
from timeguard.provider_roughtime import RoughtimeTestServer, poll
from timeguard.receiver_feed import feed_line

BENIGN = ScenarioSpec(name="benign2k", duration_epochs=2_000, seed=21)
CONFIG = default_config()


def count_calls(monkeypatch, owner, name: str) -> list:
    """Count calls of owner.name through every timeguard module that binds it."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("timeguard") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def client_side(transport, *counts: list):
    """transport, and a function giving each count less its calls made inside it."""
    inside = [0] * len(counts)

    def send(request: bytes) -> bytes:
        before = [len(c) for c in counts]
        try:
            return transport(request)
        finally:
            for i, c in enumerate(counts):
                inside[i] += len(c) - before[i]

    return send, lambda: [len(c) - n for c, n in zip(counts, inside)]


def test_generation_builds_one_timestamp_per_epoch_and_never_calls_ts_add(monkeypatch):
    built = []
    check = timebase.Timestamp.__post_init__

    def counted(self):
        built.append(None)
        check(self)

    monkeypatch.setattr(timebase.Timestamp, "__post_init__", counted)
    ts_add_calls = count_calls(monkeypatch, timebase, "ts_add")
    out = gen_scenario(BENIGN)
    assert len(out.epochs) == 2_000 and len(out.rt_responses) == 200
    assert len(built) <= 1.1 * 2_000
    assert ts_add_calls == []


def test_a_full_run_never_reaches_the_general_psd_check(monkeypatch):
    checks = count_calls(monkeypatch, ensemble, "_check_psd")
    updates = count_calls(monkeypatch, ensemble, "kf_update")
    # the default config calibrates the ll first, which runs the filter too
    _, result = run_scenario(BENIGN, CONFIG)
    assert result.report.final_phase == "FINE_MONITORING"
    assert len(updates) >= 2_000
    assert checks == []


def test_a_filtered_epoch_builds_one_filter_state(monkeypatch):
    pinned = replace(CONFIG, detector=replace(CONFIG.detector, ll=resolve_ll(CONFIG)))
    built = []
    construct = ensemble.ClockKfState.__new__

    def counted(cls, *args, **kwargs):
        built.append(None)
        return construct(cls, *args, **kwargs)

    monkeypatch.setattr(ensemble.ClockKfState, "__new__", counted)
    resets = count_calls(monkeypatch, ensemble, "kf_init")
    updates = count_calls(monkeypatch, ensemble, "kf_update")
    run_scenario(BENIGN, pinned)
    assert len(updates) == 2_000
    assert len(built) <= len(updates) + len(resets)


def count_constructions(monkeypatch, cls) -> list:
    """Count the tuples cls builds, through its __new__."""
    built = []
    construct = cls.__new__

    def counted(*args, **kwargs):
        built.append(None)
        return construct(*args, **kwargs)

    monkeypatch.setattr(cls, "__new__", counted)
    return built


def test_only_the_events_that_can_change_something_reach_the_rule(monkeypatch):
    # FixAcquired, the first rt H0, the first nts H0 and the closing FixLost;
    # every other event of the run changes nothing and is skipped
    pinned = replace(CONFIG, detector=replace(CONFIG.detector, ll=resolve_ll(CONFIG)))
    steps = count_calls(monkeypatch, orchestrator, "step")
    events = count_constructions(monkeypatch, orchestrator.Event)
    records = count_constructions(monkeypatch, orchestrator.TransitionRecord)
    kinds = []
    outputs, result = run_scenario(BENIGN, pinned,
                                   on_transition=lambda event, _: kinds.append(event.kind))
    assert len(outputs.epochs) == 2_000 and len(result.verdicts) > 2_000
    assert kinds == [orchestrator.EventKind.FIX_ACQUIRED, orchestrator.EventKind.RT_VERDICT,
                     orchestrator.EventKind.NTS_VERDICT, orchestrator.EventKind.FIX_LOST]
    assert len(steps) == len(events) == len(records) == 4


def test_the_engine_rebinds_its_state_only_when_it_steps(monkeypatch):
    # a skipped event leaves Monitor.state the same object: the state holds no clock
    pinned = replace(CONFIG, detector=replace(CONFIG.detector, ll=resolve_ll(CONFIG)))
    steps = count_calls(monkeypatch, orchestrator, "step")
    bound = []
    setattr_ = pipeline.Monitor.__setattr__

    def counted(self, name, value):
        if name == "state":
            bound.append(value)
        setattr_(self, name, value)

    monkeypatch.setattr(pipeline.Monitor, "__setattr__", counted)
    run_scenario(BENIGN, pinned)
    assert bound[0] == orchestrator.initial_state()  # Monitor.__init__ binds it
    assert len(bound) - 1 == len(steps) == 4


def test_the_engine_asks_the_predicate_once_per_event(monkeypatch):
    # step is the rule alone, so the predicate runs only where the engine asks it
    pinned = replace(CONFIG, detector=replace(CONFIG.detector, ll=resolve_ll(CONFIG)))
    asked = count_calls(monkeypatch, orchestrator, "only_time_moves")
    applied = []
    apply = pipeline.Monitor._apply

    def counted(self, *args):
        applied.append(None)
        return apply(self, *args)

    monkeypatch.setattr(pipeline.Monitor, "_apply", counted)
    run_scenario(BENIGN, pinned)
    assert len(asked) == len(applied) == 2_268


def test_simulate_encodes_only_the_transitions_it_writes(monkeypatch, tmp_path):
    encoded = count_calls(monkeypatch, orchestrator, "transition_to_json")
    main(["simulate", "--scenario", "step4s", "--out-dir", str(tmp_path)])
    written = (tmp_path / "transitions.jsonl").read_text().splitlines()
    assert written
    assert len(encoded) == len(written)


def test_live_decodes_only_the_lines_that_are_not_epochs_through_json(monkeypatch, tmp_path):
    # an epoch line as feed_line writes it takes the compiled pattern, and
    # every rt, nts and network line is decoded by json.loads exactly once;
    # the outage puts network lines into incr2us's feed
    incr2us = builtin_scenarios()["incr2us"]
    spec = replace(incr2us, network=replace(incr2us.network, mode="down", down_from_epoch=100,
                                            down_to_epoch=200))
    lines = [(method, feed_line(method, args)) for method, args in scenario_inputs(gen_scenario(spec))
             if method != "finish"]
    feed = tmp_path / "feed.jsonl"
    feed.write_text("".join(line + "\n" for _, line in lines))
    config = tmp_path / "pin.ini"
    config.write_text(PINNED_CFG)
    decoded = []
    loads = json.loads

    def counted(text, *args, **kwargs):
        decoded.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    assert main(["live", "--feed", str(feed), "--config", str(config),
                 "--out-dir", str(tmp_path / "out")]) == EXIT_ATTACK
    kinds = [method for method, _ in lines]
    assert kinds.count("epoch") == 2_700
    assert {"roughtime", "nts", "network"} <= set(kinds)
    assert decoded == [line for method, line in lines if method != "epoch"]


def test_simulate_and_live_each_resolve_the_ll_once(monkeypatch, tmp_path):
    # simulate on the default config calibrates inside its one call; live
    # on a pinned config gets the pinned ll back from its one call
    resolved = count_calls(monkeypatch, pipeline, "resolve_ll")
    assert main(["simulate", "--scenario", "step4s"]) == EXIT_ATTACK
    assert len(resolved) == 1
    feed = tmp_path / "feed.jsonl"
    feed.write_text("".join(feed_line(method, args) + "\n" for method, args
                            in scenario_inputs(gen_scenario(builtin_scenarios()["step4s"]))
                            if method != "finish"))
    config = tmp_path / "pin.ini"
    config.write_text(PINNED_CFG)
    assert main(["live", "--feed", str(feed), "--config", str(config)]) == EXIT_ATTACK
    assert len(resolved) == 2


def test_building_a_monitor_resolves_no_ll_and_generates_no_run(monkeypatch):
    resolved = count_calls(monkeypatch, pipeline, "resolve_ll")
    generated = count_calls(monkeypatch, attack_sim, "gen_scenario")
    pipeline.Monitor(CONFIG, None)
    pipeline.Monitor(CONFIG, LlConfig(lambda_T=-12.0, sigma0_sq=1e-16))
    # the default config's blank ll is refused, not calibrated
    with pytest.raises(ConfigError):
        pipeline.Monitor(CONFIG, CONFIG.detector.ll)
    assert resolved == generated == []


def test_nts_queries_build_each_key_schedule_once_and_seal_and_open_once_each(monkeypatch):
    server = NtsTestServer()
    session = server.mint_session()
    schedules = count_calls(monkeypatch, provider_nts, "AESSIV")
    seals = count_calls(monkeypatch, provider_nts, "siv_seal")
    opens = count_calls(monkeypatch, provider_nts, "siv_open")
    transport, client = client_side(server.transport, schedules, seals, opens)
    for _ in range(50):
        nts_query(session, transport=transport)
    built, sealed, opened = client()
    assert built <= 2  # session.c2s and session.s2c
    assert sealed == opened == 50
    assert session.cookie_count() == 8


def test_roughtime_polls_encode_no_message_on_the_client(monkeypatch):
    server = RoughtimeTestServer()
    encodes = count_calls(monkeypatch, provider_roughtime, "encode_message")
    transport, client = client_side(server.transport, encodes)
    for _ in range(50):
        poll(server.server_key, transport=transport)
    assert client() == [0]
    assert len(encodes) > 0  # the server's are counted, and left out

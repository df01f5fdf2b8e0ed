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
lines that are not epochs as epoch_to_json spells them, which one compiled
pattern reads; an epoch that json.dumps spells, with whitespace, goes
through json.loads to the same input.  live hands its verdicts to the OS
once per read of its feed, not once per verdict, but always before it
waits on its feed or on a provider.

Set-up is counted too: simulate and live each resolve the ll exactly once,
which is where the benchmark splits set-up off from the run, and building
a Monitor neither calibrates nor generates a run.

The provider clients are counted the same way over 50 rounds against
the in-process test servers, leaving out the calls made inside the
transport, which are the server's: the NTS client builds each key's
AES-SIV schedule once and seals and opens once per query, and the
Roughtime client sends a fixed request with no message encoding.
"""

import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from test_cli import PINNED_CFG, epoch_line, nts_line, rt_line

from timeguard import (attack_sim, cli, ensemble, orchestrator, pipeline, provider_nts,
                       provider_roughtime, receiver_feed, timebase)
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


def outage_feed_lines() -> list:
    """(method, feed_line) of each input of incr2us with an outage, which
    puts network lines into its feed."""
    incr2us = builtin_scenarios()["incr2us"]
    spec = replace(incr2us, network=replace(incr2us.network, mode="down", down_from_epoch=100,
                                            down_to_epoch=200))
    return [(method, feed_line(method, args))
            for method, args in scenario_inputs(spec) if method != "finish"]


def live_decoding(monkeypatch, tmp_path, lines: list) -> tuple[list, list]:
    """The texts json.loads and receiver_feed._EPOCH_LINE are given while live
    replays a feed of lines with a pinned ll, which alarms."""
    feed = tmp_path / "feed.jsonl"
    feed.write_text("".join(line + "\n" for line in lines))
    config = tmp_path / "pin.ini"
    config.write_text(PINNED_CFG)
    decoded, matched = [], []
    loads, epoch_line = json.loads, receiver_feed._EPOCH_LINE

    def counted_loads(text, *args, **kwargs):
        decoded.append(text)
        return loads(text, *args, **kwargs)

    def counted_match(text):
        matched.append(text)
        return epoch_line(text)

    monkeypatch.setattr(json, "loads", counted_loads)
    monkeypatch.setattr(receiver_feed, "_EPOCH_LINE", counted_match)
    assert main(["live", "--feed", str(feed), "--config", str(config),
                 "--out-dir", str(tmp_path / "out")]) == EXIT_ATTACK
    return decoded, matched


def test_live_decodes_only_the_lines_that_are_not_epochs_through_json(monkeypatch, tmp_path):
    # an epoch line as feed_line writes it takes the compiled pattern, and
    # every rt, nts and network line is decoded by json.loads exactly once
    lines = outage_feed_lines()
    decoded, _ = live_decoding(monkeypatch, tmp_path, [line for _, line in lines])
    kinds = [method for method, _ in lines]
    assert kinds.count("epoch") == 2_700
    assert {"roughtime", "nts", "network"} <= set(kinds)
    assert decoded == [line for method, line in lines if method != "epoch"]


def test_live_reads_canonical_epoch_lines_with_the_pattern_that_allows_no_whitespace(
        monkeypatch, tmp_path):
    # every line tries the one pattern, which takes feed_line's epoch lines;
    # the same feed spelled by json.dumps, with a space after each colon and
    # comma, decodes every line through json.loads, to the same inputs: live
    # writes the same verdicts and transitions from it
    lines = outage_feed_lines()
    compact = [line for _, line in lines]
    spelled = [json.dumps(json.loads(line)) for line in compact]
    assert all(" " in line for line in spelled)
    others = [line for method, line in lines if method != "epoch"]
    written = []
    for feed, through_json in ((compact, others), (spelled, spelled)):
        run = tmp_path / str(len(written))
        run.mkdir()
        decoded, matched = live_decoding(monkeypatch, run, feed)
        assert matched == feed and decoded == through_json
        written.append([(run / "out" / name).read_bytes()
                        for name in ("verdicts.jsonl", "transitions.jsonl")])
    assert written[0] == written[1]


def log_live_files(monkeypatch) -> list:
    """One log of (file name, call) for every file cli opens, each built as
    open builds it (a buffering of 1 is line-buffered text) over a raw file
    that logs its system calls, "read" and "write", and for text a layer
    that logs each "text" written to it and each "flush"."""
    log: list = []

    class Raw(io.FileIO):
        def readinto(self, buffer) -> int:
            log.append((Path(self.name).name, "read"))
            return super().readinto(buffer)

        def write(self, data) -> int:
            log.append((Path(self.name).name, "write"))
            return super().write(data)

    class Text(io.TextIOWrapper):
        def write(self, text: str) -> int:
            log.append((Path(self.name).name, "text"))
            return super().write(text)

        def flush(self) -> None:
            log.append((Path(self.name).name, "flush"))
            super().flush()

    def logged_open(file, mode="r", buffering=-1, **kwargs):
        raw = Raw(file, mode.replace("b", ""))
        buffered = io.BufferedWriter(raw) if "w" in mode else io.BufferedReader(raw)
        if "b" in mode:
            return buffered
        return Text(buffered, line_buffering=buffering == 1, **kwargs)

    monkeypatch.setattr(cli, "open", logged_open, raising=False)
    return log


def test_live_writes_its_verdicts_once_per_read_of_its_feed(monkeypatch, tmp_path):
    # incr2us, the benchmark's feed: about 50 verdicts come of each read,
    # and every one is flushed before the next read
    feed = tmp_path / "feed.jsonl"
    feed.write_text("".join(feed_line(method, args) + "\n" for method, args
                            in scenario_inputs(builtin_scenarios()["incr2us"])
                            if method != "finish"))
    config = tmp_path / "pin.ini"
    config.write_text(PINNED_CFG)
    log = log_live_files(monkeypatch)
    out = tmp_path / "out"
    assert main(["live", "--feed", str(feed), "--config", str(config),
                 "--out-dir", str(out)]) == EXIT_ATTACK
    reads = log.count(("feed.jsonl", "read"))
    assert reads == math.ceil(feed.stat().st_size / cli.FEED_CHUNK) + 1  # the last finds the end
    assert len((out / "verdicts.jsonl").read_text().splitlines()) > 40 * reads
    for name in ("verdicts.jsonl", "transitions.jsonl"):
        unflushed = False
        for entry in log:
            if entry[0] == name and entry[1] in ("text", "flush"):
                unflushed = entry[1] == "text"
            assert not (unflushed and entry == ("feed.jsonl", "read")), f"{name} unflushed"
    # a read's verdicts, a little more than the bytes read, may fill the
    # 8 KiB write buffer once before the flush that follows the read
    assert 0 < log.count(("verdicts.jsonl", "write")) <= 2 * reads
    assert 0 < log.count(("transitions.jsonl", "write")) <= reads


def test_live_flushes_its_verdicts_before_each_poll(monkeypatch, tmp_path):
    # one read takes the whole feed: the poll at 10 s comes mid-chunk, after
    # the rt and nts verdicts of 0 s were written, and must find them on disk
    out = tmp_path / "out"
    on_disk = []

    def poll():
        on_disk.append(len((out / "verdicts.jsonl").read_text().splitlines()))
        raise TimeoutError("no reply")

    monkeypatch.setattr(cli, "_rt_poller", lambda config: poll)
    feed = tmp_path / "feed.jsonl"
    feed.write_text("".join(line + "\n" for line in [
        epoch_line(0), rt_line(0), nts_line(0), *(epoch_line(e) for e in range(1, 12))]))
    assert feed.stat().st_size < cli.FEED_CHUNK
    config = tmp_path / "pin.ini"
    config.write_text(PINNED_CFG)
    main(["live", "--feed", str(feed), "--config", str(config), "--out-dir", str(out)])
    assert on_disk == [0, 2]


def test_simulate_and_live_each_resolve_the_ll_once(monkeypatch, tmp_path):
    # simulate on the default config calibrates inside its one call; live
    # on a pinned config gets the pinned ll back from its one call
    resolved = count_calls(monkeypatch, pipeline, "resolve_ll")
    assert main(["simulate", "--scenario", "step4s"]) == EXIT_ATTACK
    assert len(resolved) == 1
    feed = tmp_path / "feed.jsonl"
    feed.write_text("".join(feed_line(method, args) + "\n" for method, args
                            in scenario_inputs(builtin_scenarios()["step4s"])
                            if method != "finish"))
    config = tmp_path / "pin.ini"
    config.write_text(PINNED_CFG)
    assert main(["live", "--feed", str(feed), "--config", str(config)]) == EXIT_ATTACK
    assert len(resolved) == 2


def test_building_a_monitor_resolves_no_ll_and_generates_no_run(monkeypatch):
    resolved = count_calls(monkeypatch, pipeline, "resolve_ll")
    generated = count_calls(monkeypatch, attack_sim, "stream_scenario")
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

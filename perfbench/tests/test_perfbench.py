"""Tests of the benchmark itself: its declaration, its output and its orderings.

    python3 -m pytest perfbench/tests -q

Each workload runs once per mode with --seconds 1.  Only orderings are
gated, never absolute times.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import polls  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from feed import export_feed  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 4):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def results():
    cache: dict = {}

    def get(workload: str, trace: int) -> dict:
        if (workload, trace) not in cache:
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            cache[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[workload, trace]

    return get


def _values(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


# -- declaration ---------------------------------------------------------------


def test_benchmark_json_matches_the_contract():
    text = (ROOT / "BENCHMARK.json").read_text()
    assert len(text.encode()) <= 64 * 1024
    b = json.loads(text)
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert b["command"] == ["python3", "perfbench/run.py"]
    assert b["paths"] == ["perfbench"]
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60
    assert [w["name"] for w in b["workloads"]] == list(run.WORKLOADS)
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"]] + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in b["end_to_end"] + b["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == run.PER_LAYER


# -- output --------------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_output_line_and_checks(results, workload, trace):
    result = results(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v > 0 for v in _values(result).values())
    else:
        assert _values(result)["trace.missing_names"] == 0


def test_sim_layer_self_times_add_up_to_the_epoch(results):
    v = _values(results("sim-benign10k", 1))
    epoch = v["pipeline.run_scenario_us_per_epoch"]
    assert v["ensemble.kf_update_us"] < epoch
    # calls per epoch on benign10k: one predict (bar the first epoch), one
    # update, one bias and ll step, an rt test every 10th epoch and an NTS
    # test every 30th
    parts = (v["pipeline.loop_self_us_per_epoch"] + v["pipeline.local_bias_s_us"]
             + v["ensemble.kf_predict_us"] * 0.9999 + v["ensemble.kf_update_us"]
             + v["detector.ll_step_us"] + v["detector.roughtime_test_us"] * 0.1
             + v["detector.nts_test_us"] * 0.0334
             + v["orchestrator.step_us"] * v["orchestrator.events_per_epoch"])
    assert parts == pytest.approx(epoch, rel=0.01)
    assert v["pipeline.training_residuals_s"] + v["detector.calibrate_ll_s"] <= \
        v["pipeline.resolve_ll_s"]
    assert v["serialize.transitions.jsonl_bytes"] > v["serialize.report.json_bytes"] > 0
    assert v["detector.verdicts.rt.H0"] == 1000 and v["detector.verdicts.ll.H1"] == 0


def test_live_layers(results):
    v = _values(results("live-incr2us", 1))
    assert 0 < v["receiver_feed.epoch_from_json_us"] < v["cli.inprocess_us_per_line"]
    assert 0 < v["cli.live_line_p50_us"] <= v["cli.live_line_p90_us"]
    assert v["detector.verdicts.ll.H1"] > 0
    assert v["attack_sim.gen_scenario_ms"] == 0  # the feed is generated beforehand


def test_provider_orderings(results):
    v = _values(results("provider-polls", 1))
    assert v["crypto.aes_siv_seal_us"] < v["crypto.ed25519_verify_us"]
    # verify_response checks two Ed25519 signatures.  The floor verifies a
    # 1 KiB message and the response's two are under 200 bytes each, so
    # the floor runs a little dearer per signature; 1.5 leaves room for that
    # and for host noise between the two measurements.
    assert v["provider_roughtime.verify_response_us"] >= 1.5 * v["crypto.ed25519_verify_us"]
    assert v["provider_nts.query_p50_us"] < v["provider_roughtime.poll_p50_us"]
    assert v["provider_nts.siv_seal_calls"] == v["provider_nts.siv_open_calls"] == 1
    assert v["provider_nts.cookies_after_query"] == 8


# -- parts ---------------------------------------------------------------------


def test_feed_export_is_seeded_and_marks_verdict_lines():
    a, b, c = export_feed("incr2us", 5), export_feed("incr2us", 5), export_feed("incr2us", 6)
    assert a == b and a != c
    kinds = [line.kind for line in a.lines]
    assert (kinds.count("epoch"), kinds.count("rt"), kinds.count("nts")) == (2700, 270, 90)
    # the ll window refills for m = 30 epochs after the first rt verdict resets the filter
    assert sum(line.expects_verdict for line in a.lines) == 3060 - 30
    assert a.onset_ns == 100 * 10**9


def test_median_cost_adds_the_median_repetition_of_each_segment():
    reps = [[1.0, 5.0, 2.0], [3.0, 2.0, 2.5], [9.0, 3.0, 2.2]]
    assert run.median_cost(reps) == 3.0 + 3.0 + 2.2
    with pytest.raises(run.CheckFailed):
        run.median_cost([[1.0, 2.0], [1.0]])


def test_per_reference_divides_each_segment_by_the_loops_at_its_ends():
    assert run.per_reference([10.0, 30.0], [1.0, 3.0, 3.0]) == [5.0, 10.0]
    # a host that runs everything twice as slowly gives the same figures
    assert run.per_reference([20.0, 60.0], [2.0, 6.0, 6.0]) == [5.0, 10.0]
    with pytest.raises(run.CheckFailed):
        run.per_reference([1.0, 2.0], [1.0, 1.0])


def test_stamps_bracket_the_reference_loop():
    stamps: list = []
    tracing.stamp(stamps)
    tracing.stamp(stamps)
    (end0, start0), (end1, start1) = stamps
    assert end0 < start0 <= end1 < start1


def test_poll_round_leaves_server_time_out_of_both_clients():
    class SlowServers:
        """Stands in for the tracer: every server reply takes 20 ms longer."""

        def wrap(self, fn, name, scope=None):
            def slow(request):
                time.sleep(0.02)
                return fn(request)

            return slow

    rt_ns, nts_ns = polls.poll_round(polls.build_providers(3, SlowServers()))
    assert 0 < rt_ns < 20_000_000
    assert 0 < nts_ns < 20_000_000


def test_missing_names_are_reported_not_raised():
    tracer = tracing.Tracer()
    assert not tracing.patch_everywhere(tracer, "timeguard.ensemble", "no_such_fn", "x")
    assert not tracing.patch_everywhere(tracer, "timeguard.no_such_module", "f", "y")
    assert tracer.missing == ["timeguard.ensemble.no_such_fn", "timeguard.no_such_module.f"]
    layers = run.engine_layers(tracer, epochs=10)
    assert all(value == 0 for value in layers.values())


def test_spans_nest_into_self_time():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer", scope="s")
    outer()
    assert tracer.get("s/inner").calls == 3
    o = tracer.get("outer")
    assert o.self_ns == o.total_ns - tracer.get("s/inner").total_ns


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("provider-polls", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

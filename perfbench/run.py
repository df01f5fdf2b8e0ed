"""timeguard benchmark: three workloads, every metric by name, one JSON result.

    python3 perfbench/run.py --workload sim-benign10k|live-incr2us|provider-polls \\
        --seed N --seconds S --trace 0|1

Run from anywhere; it builds nothing and imports timeguard from the
checkout's ``src``.  ``--trace 0`` measures the end-to-end metrics with no
spans installed.  ``--trace 1`` runs the workload once untraced and once
traced and reports the per-layer metrics (see NOTES.md for every metric
and the reason for each workload).  Either way the outputs are checked,
and the last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Workloads:

* sim-benign10k: a fresh interpreter runs ``timeguard simulate`` on
  benign10k with the seed as ``--seed-override`` and writes all five
  trace files.  Batch work: filter, ll window, state machine and
  serialization, no crypto, no line parsing.
* live-incr2us: incr2us, exported as a feed (epoch plus scripted rt/nts
  lines), is replayed by ``timeguard live --config CAL --feed FILE`` in a
  fresh interpreter.  The traced run also writes it over a pipe to
  ``live --feed -`` in a closed loop with one line outstanding, timing
  each line from its write to its verdict read back on stdout.
* provider-polls: a closed loop alternates a Roughtime ``poll`` and an
  ``nts_query`` against the in-process test servers; the time spent in
  the server transports is subtracted.

Each run repeats its workload's input a fixed number of times and
reports the cost of one operation in reference loops, a fixed loop timed
beside the program; see ``per_reference`` and ``median_cost``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

from polls import build_providers, poll_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = ("sim-benign10k", "live-incr2us", "provider-polls")

END_TO_END = {
    "setup_s": "s",
    "op_cost_ref": "refloops",
    "peak_rss_mib": "MiB",
}

TRACE_FILES = ("epochs.jsonl", "truth.csv", "verdicts.jsonl", "transitions.jsonl", "report.json")

PER_LAYER = {
    "setup.import_s": "s",
    "pipeline.resolve_ll_s": "s",
    "pipeline.training_residuals_s": "s",
    "detector.calibrate_ll_s": "s",
    "attack_sim.gen_scenario_ms": "ms",
    "pipeline.run_scenario_us_per_epoch": "us",
    "pipeline.loop_self_us_per_epoch": "us",
    "pipeline.local_bias_s_us": "us",
    "ensemble.kf_predict_us": "us",
    "ensemble.kf_update_us": "us",
    "ensemble.gate_accept_ratio": "ratio",
    "detector.ll_step_us": "us",
    "detector.roughtime_test_us": "us",
    "detector.nts_test_us": "us",
    **{f"detector.verdicts.{t}.{h}": "count" for t in ("rt", "nts", "ll") for h in ("H0", "H1")},
    "orchestrator.step_us": "us",
    "orchestrator.events_per_epoch": "1/epoch",
    "orchestrator.self_loop_ratio": "ratio",
    "receiver_feed.epoch_from_json_us": "us",
    "cli.live_line_p50_us": "us",
    "cli.live_line_p90_us": "us",
    "cli.inprocess_us_per_line": "us",
    "cli.handoff_us": "us",
    **{f"serialize.{f}_{what}": unit for f in TRACE_FILES
       for what, unit in (("ms", "ms"), ("bytes", "bytes"))},
    "serialize.transition_to_json_us": "us",
    "serialize.verdict_to_json_us": "us",
    "provider_roughtime.poll_p50_us": "us",
    "provider_roughtime.poll_p90_us": "us",
    "provider_roughtime.build_request_us": "us",
    "provider_roughtime.verify_response_us": "us",
    "provider_roughtime.server_respond_us": "us",
    "provider_nts.query_p50_us": "us",
    "provider_nts.query_p90_us": "us",
    "provider_nts.build_nts_request_us": "us",
    "provider_nts.parse_nts_response_us": "us",
    "provider_nts.siv_seal_calls": "1/query",
    "provider_nts.siv_seal_us": "us/query",
    "provider_nts.siv_open_calls": "1/query",
    "provider_nts.siv_open_us": "us/query",
    "provider_nts.cookies_after_query": "count",
    "provider_nts.server_handle_ntp_us": "us",
    "crypto.ed25519_verify_us": "us",
    "crypto.aes_siv_seal_us": "us",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.missing_names": "count",
}

# Seconds of --seconds that one repetition counts for.  They fix how many
# repetitions a run makes from --seconds alone, so that the same
# --seconds always means the same number of repetitions.  On a 2-vCPU VM
# a live replay takes about 1.5 s and a pass about 0.2 s; a sim job takes
# about 7.5 s, but counts for 6 so that a 30 s run makes 5 of them.
SIM_JOB_S = 6.0
LIVE_JOB_S = 1.5
POLL_PASS_S = 0.2

# A run stops repeating early only once it has taken OVERRUN times
# --seconds, on a host far slower than the nominal figures above, so that
# a full round of benchmark runs stays within its time limit.
OVERRUN = 1.5

POLL_PASS_ROUNDS = 128
POLL_SEGMENT_ROUNDS = 8
SETUP_SPAWNS = 25

SETUP_TIMEOUT_S = 60.0
LINE_TIMEOUT_S = 5.0
EXIT_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 150.0
STDERR_PROBLEMS = ("rejected", "skipped", "dropping", "failed")


class CheckFailed(Exception):
    """An output of the program is not what the workload expects."""


# what a job raises when the program's outputs are wrong or missing: a
# failed check, a pipe to a monitor that died, an unparseable or empty
# output
JOB_FAILURES = (CheckFailed, OSError, ValueError, KeyError, IndexError)


@dataclass
class Tally:
    """Operations attempted and failed; each failure's reason goes to stderr."""

    attempted: int = 0
    failed: int = 0

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        print(f"perfbench: check failed: {why}", file=sys.stderr)


def p50(samples) -> float:
    return statistics.median(samples)


def p90(samples) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def repeats(seconds: float, nominal_s: float) -> int:
    return max(1, round(seconds / nominal_s))


def out_of_time(t0: float, seconds: float, done: int, planned: int) -> bool:
    if done and time.monotonic() - t0 > OVERRUN * seconds:
        print(f"perfbench: host slow, stopping after {done} of {planned} repetitions",
              file=sys.stderr)
        return True
    return False


def per_reference(segments: list, refs: list) -> list:
    """Each segment's time in reference loops.

    ``refs`` holds the reference loop's time at every segment boundary,
    one more than there are segments; a segment is divided by the mean of
    the loops at its two ends.  The test VM runs at two speeds 1.5-2x
    apart, switching within milliseconds, and the share of time it spends
    slow changes from minute to minute with the load of other tenants.
    The reference loop slows down with the program, so the ratio is
    steadier than either time.
    """
    if len(refs) != len(segments) + 1:
        raise CheckFailed(f"{len(segments)} segments but {len(refs)} boundaries")
    return [2 * seg / (a + b) for seg, a, b in zip(segments, refs, refs[1:])]


def median_cost(reps: list) -> float:
    """The input's cost: the median repetition of each segment, added up.

    ``reps`` holds one list per repetition of the same input: the cost of
    each fixed segment of it, in order (see ``per_reference``).  The
    median, not the minimum, because a segment's cost in reference loops
    is a ratio of two noisy times; over many repetitions the minimum
    picks out the ones whose reference loop happened to be slow.  The
    number of repetitions depends on --seconds only.
    """
    if len({len(r) for r in reps}) != 1:
        raise CheckFailed(f"repetitions of one input cut into {sorted({len(r) for r in reps})} "
                          "segments; the program is not deterministic")
    return sum(statistics.median(seg) for seg in zip(*reps))


def attempt(tally: Tally, ops: int, label: str, job, *args):
    """job(*args), or None with its ops counted failed when its outputs are wrong."""
    tally.attempted += ops
    try:
        return job(*args)
    except JOB_FAILURES as e:
        tally.fail(ops, f"{label}: {type(e).__name__}: {e}")
        return None


def repeat(tally: Tally, seconds: float, nominal_s: float, ops: int, label: str, job, *args):
    """Checked repetitions of job(*args), one per nominal_s; None once one fails."""
    runs = []
    n = repeats(seconds, nominal_s)
    t0 = time.monotonic()
    for _ in range(n):
        if out_of_time(t0, seconds, len(runs), n):
            break
        run = attempt(tally, ops, label, job, *args)
        if run is None:
            return None
        runs.append(run)
    return runs


def end_to_end(tally: Tally, runs: list, ops: int, label: str) -> dict:
    """The end-to-end metrics of a workload's repeated monitor processes."""
    try:
        cost = median_cost([r.ref_segments for r in runs])
    except CheckFailed as e:
        tally.fail(ops * len(runs), f"{label}: {e}")
        return {}
    return {
        "setup_s": p50([r.setup_s for r in runs]),
        "op_cost_ref": cost / ops,
        "peak_rss_mib": p50([r.peak_rss_mib for r in runs]),
    }


def _missing(names: list) -> int:
    """Report traced names a refactor removed; their metrics read 0."""
    if names:
        print(f"perfbench: not found, reported as 0: {', '.join(names)}", file=sys.stderr)
    return len(names)


def _work_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=WORK))


def _monitor_cmd(summary: Path, trace: bool, cli_args: list) -> list:
    return [sys.executable, str(HERE / "monitor.py"), str(summary), "1" if trace else "0",
            "--", *cli_args]


# -- one monitor process -------------------------------------------------------


@dataclass
class MonitorRun:
    setup_s: float  # spawn until ready: interpreter, imports, resolve_ll
    segments: list  # seconds of each segment of the run, set-up excluded
    ref_segments: list  # the same in reference loops, see per_reference
    wall_s: float  # spawn until exit
    import_s: float
    peak_rss_mib: float
    exit_code: int
    trace: object  # tracing.Tracer

    @property
    def run_s(self) -> float:
        return sum(self.segments)


def run_monitor(work: Path, cli_args: list, trace: bool, stdout) -> MonitorRun:
    """`timeguard <cli_args>` in a fresh interpreter, through monitor.py.

    Untraced, the run is cut into segments of a few milliseconds (see
    monitor.py).  The segment that ``resolve_ll`` fills belongs to set-up
    and is left out.
    """
    import tracing

    summary_path = work / "summary.json"
    with open(work / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        try:
            subprocess.run(_monitor_cmd(summary_path, trace, cli_args), cwd=work,
                           stdout=stdout, stderr=err, timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise CheckFailed(f"{cli_args[0]} did not finish within {JOB_TIMEOUT_S} s") from None
        t_exit = time.monotonic()
    if not summary_path.is_file():
        tail = (work / "stderr.txt").read_text(errors="replace")[-500:]
        raise CheckFailed(f"{cli_args[0]} exited without a summary: {tail}")
    summary = json.loads(summary_path.read_text())
    spans = tracing.Tracer.from_json(summary["trace"])
    cal = spans.get("pipeline.resolve_ll")
    if cal.calls != 1:
        raise CheckFailed(f"resolve_ll ran {cal.calls} times; set-up cannot be split off")
    if not trace and spans.missing:
        _missing(spans.missing)  # fewer stamps: longer segments
    cal_s = cal.total_ns / 1e9
    bounds = spans.stamps  # [end, start] ns; the run starts and ends on one
    segments = [(end - start) / 1e9 for (_, start), (end, _) in zip(bounds, bounds[1:])]
    ref_segments = per_reference(segments, [(start - end) / 1e9 for end, start in bounds])
    setup = int(spans.counters["setup_segment"])
    del segments[setup], ref_segments[setup]
    import_s = summary["t_imported"] - t_spawn
    return MonitorRun(
        setup_s=import_s + cal_s,
        segments=segments,
        ref_segments=ref_segments,
        wall_s=t_exit - t_spawn,
        import_s=import_s,
        peak_rss_mib=summary["peak_rss_kib"] / 1024,
        exit_code=summary["exit_code"],
        trace=spans,
    )


# -- sim-benign10k -----------------------------------------------------------


def _check_sim_outputs(out: Path, exit_code: int, spec, m: int) -> None:
    """simulate's files agree with each other and with the scenario."""
    for name in TRACE_FILES:
        if not (out / name).is_file() or (out / name).stat().st_size == 0:
            raise CheckFailed(f"simulate did not write {name}")
    n = spec.duration_epochs
    with open(out / "epochs.jsonl") as fh:
        if sum(1 for _ in fh) != n:
            raise CheckFailed("epochs.jsonl does not hold one line per epoch")
    with open(out / "truth.csv") as fh:
        rows = [line for line in fh if line[:1].isdigit()]
    if len(rows) != n or any(float(r.split(",")[1]) != 0.0 for r in rows):
        raise CheckFailed("truth.csv is not a zero offset at every epoch")
    report = json.loads((out / "report.json").read_text())
    if report["final_phase"] != "FINE_MONITORING":
        raise CheckFailed(f"final phase {report['final_phase']}, expected FINE_MONITORING")
    counts: dict = {}
    h1_tests = []
    with open(out / "verdicts.jsonl") as fh:
        for line in fh:
            v = json.loads(line)
            counts[v["test"]] = counts.get(v["test"], 0) + 1
            if v["hypothesis"] == "H1":
                h1_tests.append(v["test"])
    expected = {"rt": len(range(0, n, spec.rt_poll_epochs)),
                "nts": len(range(0, n, spec.nts_poll_epochs))}
    for test, want in expected.items():
        if counts.get(test, 0) != want:
            raise CheckFailed(f"{counts.get(test, 0)} {test} verdicts, expected {want}")
    if not n - 2 * m <= counts.get("ll", 0) <= n:
        raise CheckFailed(f"{counts.get('ll', 0)} ll verdicts for {n} epochs")
    # benign input: the ll and rt tests must stay quiet.  The NTS test
    # thresholds at 3 sigma of the simulated server noise, so a seed can
    # legitimately yield a few NTS false alarms; they must be the ones
    # the report counts, and the exit code must say so.
    if any(t != "nts" for t in h1_tests):
        raise CheckFailed(f"benign run raised H1 from {sorted(set(h1_tests) - {'nts'})}")
    if report["false_alarms"] != len(h1_tests):
        raise CheckFailed(f"report counts {report['false_alarms']} false alarms, "
                          f"verdicts.jsonl holds {len(h1_tests)} H1")
    if any(o["detected"] for o in report["outcomes"].values()):
        raise CheckFailed("benign run reports a detection")
    if exit_code != (2 if h1_tests else 0):
        raise CheckFailed(f"exit code {exit_code} with {len(h1_tests)} H1 verdicts")


def sim_job(seed: int, trace: bool) -> MonitorRun:
    from timeguard.attack_sim import builtin_scenarios
    from timeguard.config import default_config

    spec = replace(builtin_scenarios()["benign10k"], seed=seed)
    work = _work_dir()
    try:
        out = work / "out"
        run = run_monitor(work, ["simulate", "--scenario", "benign10k", "--seed-override",
                                 str(seed), "--out-dir", str(out)], trace, subprocess.DEVNULL)
        _check_sim_outputs(out, run.exit_code, spec, default_config().detector.ll.m)
        return run
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_sim(seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    from timeguard.attack_sim import builtin_scenarios

    epochs = builtin_scenarios()["benign10k"].duration_epochs
    label = f"sim-benign10k seed {seed}"
    tally = Tally()
    if trace:
        return tally, trace_sim(seed, epochs, tally, label)
    runs = repeat(tally, seconds, SIM_JOB_S, epochs, label, sim_job, seed, False)
    return tally, end_to_end(tally, runs, epochs, label) if runs else {}


def trace_sim(seed: int, epochs: int, tally: Tally, label: str) -> dict:
    """One untraced and one traced simulate job."""
    base = attempt(tally, epochs, label, sim_job, seed, False)
    traced = attempt(tally, epochs, label, sim_job, seed, True)
    if base is None or traced is None:
        return {}
    metrics = sim_layers(traced.trace, epochs)
    metrics["setup.import_s"] = base.import_s
    metrics.update(_overhead(base, traced))
    return metrics


def _overhead(base, traced) -> dict:
    return {
        "trace.overhead_s": traced.wall_s - base.wall_s,
        "trace.overhead_ratio": traced.wall_s / base.wall_s - 1,
        "trace.missing_names": _missing(traced.trace.missing),
    }


def engine_layers(t, epochs: int) -> dict:
    """Per-layer figures shared by simulate and live, run scope only."""
    steps = t.get("orchestrator.step").calls
    kf_updates = t.get("ensemble.kf_update").calls
    out = {
        "pipeline.resolve_ll_s": t.get("pipeline.resolve_ll").total_ns / 1e9,
        "pipeline.training_residuals_s": t.get("setup/pipeline.training_residuals").total_ns / 1e9,
        "detector.calibrate_ll_s": t.get("setup/detector.calibrate_ll").total_ns / 1e9,
        "pipeline.local_bias_s_us": t.mean_us("pipeline.local_bias_s"),
        "ensemble.kf_predict_us": t.mean_us("ensemble.kf_predict"),
        "ensemble.kf_update_us": t.mean_us("ensemble.kf_update"),
        "ensemble.gate_accept_ratio":
            t.counters.get("kf_update.accepted", 0) / kf_updates if kf_updates else 0.0,
        "detector.ll_step_us": t.mean_us("detector.ll_step"),
        "detector.roughtime_test_us": t.mean_us("detector.roughtime_test"),
        "detector.nts_test_us": t.mean_us("detector.nts_test"),
        "orchestrator.step_us": t.mean_us("orchestrator.step"),
        "orchestrator.events_per_epoch": steps / epochs,
        "orchestrator.self_loop_ratio":
            t.counters.get("step.self_loops", 0) / steps if steps else 0.0,
        "serialize.transition_to_json_us": t.mean_us("serialize.transition_to_json"),
        "serialize.verdict_to_json_us": t.mean_us("serialize.verdict_to_json"),
    }
    for test in ("rt", "nts", "ll"):
        for h in ("H0", "H1"):
            out[f"detector.verdicts.{test}.{h}"] = t.counters.get(f"verdicts.{test}.{h}", 0)
    return out


def sim_layers(t, epochs: int) -> dict:
    run = t.get("pipeline.run_scenario")
    cal_ns = t.get("pipeline.resolve_ll").total_ns
    out = engine_layers(t, epochs)
    out["attack_sim.gen_scenario_ms"] = t.get("attack_sim.gen_scenario").total_ns / 1e6
    out["pipeline.run_scenario_us_per_epoch"] = (run.total_ns - cal_ns) / epochs / 1e3
    out["pipeline.loop_self_us_per_epoch"] = run.self_ns / epochs / 1e3
    for name in TRACE_FILES:
        out[f"serialize.{name}_ms"] = t.get(f"serialize.{name}").total_ns / 1e6
        out[f"serialize.{name}_bytes"] = t.counters.get(f"bytes.{name}", 0)
    return out


# -- live-incr2us ------------------------------------------------------------


class LineReader:
    """Lines from a pipe, each read waiting at most until a deadline."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.buf = b""
        self.eof = False
        self.poller = select.poll()
        self.poller.register(fd, select.POLLIN | select.POLLHUP)

    def readline(self, timeout_s: float):
        """One line without its newline; None on timeout or end of stream."""
        deadline = time.monotonic() + timeout_s
        while True:
            nl = self.buf.find(b"\n")
            if nl >= 0:
                line, self.buf = self.buf[:nl], self.buf[nl + 1:]
                return line
            if self.eof:
                return None
            left = deadline - time.monotonic()
            if left <= 0 or not self.poller.poll(left * 1000):
                return None
            chunk = os.read(self.fd, 65536)
            if not chunk:
                self.eof = True
            self.buf += chunk


def _check_verdict(raw: bytes, line, feed, state: dict) -> None:
    v = json.loads(raw)
    want = "ll" if line.kind == "epoch" else line.kind
    if v["test"] != want or v["t_mono_ns"] != line.t_mono_ns:
        raise CheckFailed(f"verdict {v['test']}@{v['t_mono_ns']} answers a {line.kind} line "
                          f"at {line.t_mono_ns}")
    if v["hypothesis"] != "H1":
        return
    if line.t_mono_ns >= feed.onset_ns:
        state["h1_after_onset"] = True
    elif not (line.kind == "nts" and abs(line.nts_offset_s) >= v["threshold"]):
        # before onset only an NTS line whose scripted offset already
        # exceeds the threshold (the 3-sigma test's false alarm) may alarm
        raise CheckFailed(f"H1 from {v['test']} at {line.t_mono_ns} ns, before attack onset")


def write_calibration(path: Path) -> None:
    """The fitted ll parameters as a config file, as `timeguard calibrate` prints them.

    live then starts without replaying the calibration scenario, the way an
    operator runs it after calibrating once.  The verdicts are the same.
    """
    from timeguard.config import default_config
    from timeguard.pipeline import resolve_ll

    ll = resolve_ll(default_config())
    path.write_text(f"[ll]\nmu0 = {ll.mu0!r}\nsigma0_sq = {ll.sigma0_sq!r}\n"
                    f"lambda_t = {ll.lambda_T!r}\n")


def _check_live_end(exit_code: int, stderr: str, state: dict) -> None:
    bad = [ln for ln in stderr.splitlines() if any(w in ln for w in STDERR_PROBLEMS)]
    if bad:
        raise CheckFailed(f"live reported feed problems: {bad[:3]}")
    if exit_code != 2:
        raise CheckFailed(f"live exited {exit_code}, expected 2 (attack detected)")
    if not state["h1_after_onset"]:
        raise CheckFailed("no H1 verdict after attack onset")


def replay_job(feed, feed_path: Path, config: Path, trace: bool) -> MonitorRun:
    """`live --config CAL --feed FILE` in a fresh process, its verdicts checked."""
    work = _work_dir()
    try:
        with open(work / "verdicts.txt", "wb") as out:
            run = run_monitor(work, ["live", "--config", str(config), "--feed", str(feed_path)],
                              trace, out)
        expected = [line for line in feed.lines if line.expects_verdict]
        got = (work / "verdicts.txt").read_bytes().splitlines()
        if len(got) != len(expected):
            raise CheckFailed(f"{len(got)} verdicts for the {len(expected)} lines that get one")
        state = {"h1_after_onset": False}
        for raw, line in zip(got, expected):
            _check_verdict(raw, line, feed, state)
        _check_live_end(run.exit_code, (work / "stderr.txt").read_text(errors="replace"), state)
        return run
    finally:
        shutil.rmtree(work, ignore_errors=True)


def live_job(feed, config: Path) -> list:
    """The closed loop over a pipe to `live --feed -`: ns per verdict-producing line."""
    work = _work_dir()
    proc = None
    try:
        cmd = _monitor_cmd(work / "summary.json", False,
                           ["live", "--config", str(config), "--feed", "-"])
        with open(work / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=work, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=err, bufsize=0)
        fd_in = proc.stdin.fileno()
        reader = LineReader(proc.stdout.fileno())
        lines = feed.lines
        state = {"h1_after_onset": False}

        first = next(i for i, line in enumerate(lines) if line.expects_verdict)
        os.write(fd_in, "".join(line.text for line in lines[:first + 1]).encode())
        raw = reader.readline(SETUP_TIMEOUT_S)
        if raw is None:
            raise CheckFailed(f"no first verdict within {SETUP_TIMEOUT_S} s")
        _check_verdict(raw, lines[first], feed, state)

        samples = []
        queued = False  # a line without a verdict is still being processed
        clock = time.perf_counter_ns
        for line in lines[first + 1:]:
            t0 = clock()
            os.write(fd_in, line.text.encode())
            if not line.expects_verdict:
                queued = True
                continue
            raw = reader.readline(LINE_TIMEOUT_S)
            t1 = clock()
            if raw is None:
                raise CheckFailed(f"no verdict for the {line.kind} line at {line.t_mono_ns} ns "
                                  f"within {LINE_TIMEOUT_S} s")
            if not queued:
                samples.append(t1 - t0)
            queued = False
            _check_verdict(raw, line, feed, state)
        proc.stdin.close()
        extra = reader.readline(EXIT_TIMEOUT_S)
        if extra is not None:
            raise CheckFailed(f"verdict without a feed line to answer: {extra[:120]!r}")
        try:
            exit_code = proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise CheckFailed("live did not exit after the feed ended") from None
        _check_live_end(exit_code, (work / "stderr.txt").read_text(errors="replace"), state)
        return samples
    finally:
        if proc is not None:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                if pipe is not None and not pipe.closed:
                    pipe.close()
        shutil.rmtree(work, ignore_errors=True)


def run_live(seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    from feed import export_feed

    feed = export_feed("incr2us", seed)
    label = f"live-incr2us seed {seed}"
    ops = len(feed.lines)
    tally = Tally()
    work = _work_dir()
    try:
        config = work / "calibration.ini"
        write_calibration(config)
        feed_path = work / "feed.jsonl"
        feed_path.write_text("".join(line.text for line in feed.lines))
        if trace:
            return tally, trace_live(feed, feed_path, config, tally, label)
        runs = repeat(tally, seconds, LIVE_JOB_S, ops, label,
                      replay_job, feed, feed_path, config, False)
        return tally, end_to_end(tally, runs, ops, label) if runs else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def trace_live(feed, feed_path: Path, config: Path, tally: Tally, label: str) -> dict:
    """The replay untraced and traced, then one closed loop over the pipe."""
    ops = len(feed.lines)
    base = attempt(tally, ops, label, replay_job, feed, feed_path, config, False)
    traced = attempt(tally, ops, label, replay_job, feed, feed_path, config, True)
    samples = attempt(tally, ops, label, live_job, feed, config)
    if base is None or traced is None or samples is None:
        return {}
    t = traced.trace
    metrics = engine_layers(t, feed.epochs)
    metrics["setup.import_s"] = base.import_s
    metrics["receiver_feed.epoch_from_json_us"] = t.mean_us("receiver_feed.epoch_from_json")
    per_line_us = base.run_s / ops * 1e6
    metrics["cli.live_line_p50_us"] = p50(samples) / 1e3
    metrics["cli.live_line_p90_us"] = p90(samples) / 1e3
    metrics["cli.inprocess_us_per_line"] = per_line_us
    metrics["cli.handoff_us"] = metrics["cli.live_line_p50_us"] - per_line_us
    metrics.update(_overhead(base, traced))
    return metrics


# -- provider-polls ----------------------------------------------------------


@dataclass
class ClientSetup:
    setup_s: float
    peak_rss_mib: float


def setup_job(seed: int) -> ClientSetup:
    """polls.py in a fresh process: spawn until its first checked round is done."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "polls.py"), str(seed)], cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"client set-up did not finish within {SETUP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise CheckFailed(f"client set-up exited {proc.returncode}: {proc.stderr[-500:]}")
    ready = json.loads(proc.stdout.strip().splitlines()[-1])
    return ClientSetup(ready["t_ready"] - t_spawn, ready["peak_rss_kib"] / 1024)


def _providers(tally: Tally, label: str, seed: int, tracer=None):
    """build_providers, or None with a failed operation counted when it raises."""
    try:
        return build_providers(seed, tracer)
    except Exception as e:  # any provider error fails the run
        tally.attempted += 1
        tally.fail(1, f"{label}: building the providers: {type(e).__name__}: {e}")
        return None


def _pass(p, tally: Tally, label: str):
    """POLL_PASS_ROUNDS checked rounds, or None if one fails.

    Returns the (Roughtime, NTS) client ns of each round, and the
    reference loop's ns before the first round and after every
    POLL_SEGMENT_ROUNDS rounds.
    """
    import tracing

    rounds, refs = [], [tracing.reference_ns()]
    for i in range(POLL_PASS_ROUNDS):
        tally.attempted += 1
        try:
            rounds.append(poll_round(p))
        except Exception as e:  # any provider error is a failed round
            tally.fail(1, f"{label}: {type(e).__name__}: {e}")
            return None
        if (i + 1) % POLL_SEGMENT_ROUNDS == 0:
            refs.append(tracing.reference_ns())
    return rounds, refs


def _segments(rounds: list, refs: list) -> list:
    ns = [sum(a + b for a, b in rounds[i:i + POLL_SEGMENT_ROUNDS])
          for i in range(0, len(rounds), POLL_SEGMENT_ROUNDS)]
    return per_reference(ns, refs)


def run_polls(seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    label = f"provider-polls seed {seed}"
    tally = Tally()
    if trace:
        return tally, trace_polls(seed, seconds, tally, label)
    p = _providers(tally, label, seed)
    if p is None:
        return tally, {}
    n = repeats(seconds, POLL_PASS_S)
    # the set-ups are spread over the run: a client process starts in a
    # fraction of a second, so back to back they would all see one
    # moment of the host's drifting speed
    spawn_every = max(1, n // SETUP_SPAWNS)
    setups, passes = [], []
    t0 = time.monotonic()
    for i in range(n):
        if out_of_time(t0, seconds, len(passes), n):
            break
        if i % spawn_every == 0 and len(setups) < SETUP_SPAWNS:
            setup = attempt(tally, 1, label, setup_job, seed)
            if setup is None:
                return tally, {}
            setups.append(setup)
        done = _pass(p, tally, label)
        if done is None:
            return tally, {}
        passes.append(_segments(*done))
    return tally, {
        "setup_s": p50([s.setup_s for s in setups]),
        "op_cost_ref": median_cost(passes) / POLL_PASS_ROUNDS,
        "peak_rss_mib": p50([s.peak_rss_mib for s in setups]),
    }


def trace_polls(seed: int, seconds: float, tally: Tally, label: str) -> dict:
    """Untraced passes for half the time, then as many passes traced."""
    import tracing
    from timeguard.bench import run_bench

    n = repeats(seconds / 2, POLL_PASS_S)
    p = _providers(tally, label, seed)
    if p is None:
        return {}
    rounds = []
    t0 = time.perf_counter()
    for _ in range(n):
        done = _pass(p, tally, label)
        if done is None:
            return {}
        rounds += done[0]
    wall0 = time.perf_counter() - t0
    rt_ns, nts_ns = [a for a, _ in rounds], [b for _, b in rounds]

    tracer = tracing.Tracer()
    tracing.install(tracer, tracing.PROVIDER_SPANS)
    p = _providers(tally, label, seed, tracer)
    if p is None:
        return {}
    tracer.stats.clear()
    # the crypto floor is sampled between traced passes, so that it and
    # the spans see the same host speed
    floor = []
    wall1 = 0.0
    for _ in range(n):
        floor.append(run_bench(iterations=25))
        t1 = time.perf_counter()
        if _pass(p, tally, label) is None:
            return {}
        wall1 += time.perf_counter() - t1
    queries = max(tracer.get("provider_nts.server_handle_ntp").calls, 1)
    seal, open_ = tracer.get("provider_nts.siv_seal"), tracer.get("provider_nts.siv_open")
    return {
        "provider_roughtime.poll_p50_us": p50(rt_ns) / 1e3,
        "provider_roughtime.poll_p90_us": p90(rt_ns) / 1e3,
        "provider_roughtime.build_request_us": tracer.mean_us("provider_roughtime.build_request"),
        "provider_roughtime.verify_response_us":
            tracer.mean_us("provider_roughtime.verify_response"),
        "provider_roughtime.server_respond_us": tracer.mean_us("provider_roughtime.server_respond"),
        "provider_nts.query_p50_us": p50(nts_ns) / 1e3,
        "provider_nts.query_p90_us": p90(nts_ns) / 1e3,
        "provider_nts.build_nts_request_us": tracer.mean_us("provider_nts.build_nts_request"),
        "provider_nts.parse_nts_response_us": tracer.mean_us("provider_nts.parse_nts_response"),
        "provider_nts.siv_seal_calls": seal.calls / queries,
        "provider_nts.siv_seal_us": seal.total_ns / queries / 1e3,
        "provider_nts.siv_open_calls": open_.calls / queries,
        "provider_nts.siv_open_us": open_.total_ns / queries / 1e3,
        "provider_nts.cookies_after_query": p.session.cookie_count(),
        "provider_nts.server_handle_ntp_us": tracer.mean_us("provider_nts.server_handle_ntp"),
        "crypto.ed25519_verify_us":
            p50([b.row("verify", 1024).mean_latency_s for b in floor]) * 1e6,
        "crypto.aes_siv_seal_us":
            p50([b.row("aead-encrypt", 1024).mean_latency_s for b in floor]) * 1e6,
        "trace.overhead_s": wall1 - wall0,
        "trace.overhead_ratio": wall1 / wall0 - 1,
        "trace.missing_names": _missing(tracer.missing),
    }


# -- main --------------------------------------------------------------------


RUNNERS = {"sim-benign10k": run_sim, "live-incr2us": run_live, "provider-polls": run_polls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "timeguard" / "cli.py").is_file():
        print(f"perfbench: no timeguard sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # the first import compiles timeguard's bytecode, so no fresh
    # monitor process pays for it
    import timeguard.cli  # noqa: F401

    # One CPU for the benchmark and every process it starts.  On a small
    # VM a pipe write that wakes a thread on the other CPU costs a few
    # hundred microseconds that vary with the host's load; on one CPU the
    # live loop measures the monitor's own work and thread handoff.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    trace = bool(args.trace)
    tally, values = RUNNERS[args.workload](args.seed, args.seconds, trace)
    units = PER_LAYER if trace else END_TO_END
    metrics = {}
    if values:
        for name, unit in units.items():
            value = float(values.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<40} {value:>16.6g} {unit}")
    ok = tally.failed == 0 and bool(metrics)
    if not metrics:
        print("perfbench: no metrics: the workload did not complete", file=sys.stderr)
    print(json.dumps({
        "correct": ok,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if ok else max(tally.failed, 1),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the command-line front end."""

import base64
import csv
import io
import json
import os
import select
import struct
import subprocess
import sys
import time
from contextlib import redirect_stderr
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from loopback import Wire, nts_ke, udp
from test_pipeline import kept
from test_scripts import checkout_env

from timeguard import cli, provider_nts
from timeguard.attack_sim import builtin_scenarios, gen_scenario
from timeguard.cli import EXIT_ATTACK, EXIT_CLEAN, EXIT_ERROR, _nts_poller, main
from timeguard.config import ConfigFileError, default_config, load_config, load_scenario
from timeguard.orchestrator import transition_to_json
from timeguard.pipeline import run_scenario, scenario_inputs, transition_writer
from timeguard.provider_nts import (
    EF_UNIQUE_ID,
    AuthenticationError,
    NtsTestServer,
    UnreachableError,
    encode_ef,
    iter_efs,
)
from timeguard.provider_roughtime import RoughtimeTestServer
from timeguard.receiver_feed import (
    EpochRecord,
    NtsMeasurement,
    RoughtimeMeasurement,
    feed_input,
    feed_line,
)
from timeguard.timebase import MonotonicInstant, SignedDuration, Timestamp, ts_add

PY = sys.executable
START = 1_689_120_000

# threshold pinned so runs skip the calibration pass
PINNED_CFG = """\
[ll]
lambda_t = -12.330742521827073
mu0 = -1.6293743441244062e-10
sigma0_sq = 1.0264860239324563e-16
"""

BENIGN_INI = """\
[scenario]
name = smoke-benign
duration_epochs = 240
seed = 11
"""


@pytest.fixture()
def pin_cfg(tmp_path):
    path = tmp_path / "pin.ini"
    path.write_text(PINNED_CFG)
    return str(path)


@pytest.fixture()
def benign_ini(tmp_path):
    path = tmp_path / "benign.ini"
    path.write_text(BENIGN_INI)
    return str(path)


def run_cli(*argv):
    return subprocess.run(
        [PY, "-m", "timeguard", *argv], capture_output=True, text=True, timeout=120,
        env=checkout_env(),
    )


# -- feed line builders ------------------------------------------------------


def write_feed(tmp_path, lines):
    """The path of a feed file that holds lines, one to a line."""
    feed = tmp_path / "feed.jsonl"
    feed.write_text("".join(line + "\n" for line in lines))
    return str(feed)


# each line at e s on the monotonic clock, with the default source ids
def epoch_line(e, fix=True, offset_s=0.0):
    t_gnss = ts_add(Timestamp.from_unix_s(START + e), SignedDuration.from_s(offset_s))
    return feed_line("epoch", (EpochRecord(MonotonicInstant(e * 10**9), t_gnss, fix),))


def rt_line(e, offset_s=0.0, radius_s=1.0, source_id="rt-feed"):
    midpoint = Timestamp.from_ns(int((START + e + offset_s) * 10**9))
    return feed_line("roughtime", (RoughtimeMeasurement(
        midpoint, SignedDuration.from_s(radius_s), source_id, MonotonicInstant(e * 10**9)),))


def nts_line(e, offset_s=0.0):
    return feed_line("nts", (NtsMeasurement(SignedDuration.from_s(offset_s),
                                            SignedDuration.from_s(0.01),
                                            MonotonicInstant(e * 10**9), "nts-feed"),))


# -- exit codes --------------------------------------------------------------


def test_attack_scenario_exits_2(pin_cfg, tmp_path):
    rc = main(["simulate", "--scenario", "step4s", "--config", pin_cfg,
               "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_ATTACK


def test_benign_scenario_exits_0(pin_cfg, benign_ini):
    rc = main(["simulate", "--scenario", benign_ini, "--config", pin_cfg])
    assert rc == EXIT_CLEAN


def test_usage_errors_exit_1():
    assert run_cli().returncode == EXIT_ERROR
    assert run_cli("no-such-command").returncode == EXIT_ERROR
    assert run_cli("simulate").returncode == EXIT_ERROR
    assert run_cli("bench-crypto", "--iterations", "nope").returncode == EXIT_ERROR


@pytest.mark.parametrize("argv", [
    ["bench-crypto", "--iterations", "5", "--config", "tg.ini"],  # reads no config
    ["config", "dump", "--out-dir", "out"],  # writes no file
])
def test_a_flag_the_subcommand_never_reads_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as stopped:
        main(argv)
    assert stopped.value.code == EXIT_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_zero_iterations_is_usage_error():
    proc = run_cli("bench-crypto", "--iterations", "0")
    assert proc.returncode == EXIT_ERROR
    assert "iterations" in proc.stderr


def test_missing_config_file_exits_1(capsys):
    assert main(["config", "dump", "--config", "/nonexistent.ini"]) == EXIT_ERROR
    assert "config error" in capsys.readouterr().err


def test_bad_scenario_name_exits_1(capsys):
    assert main(["simulate", "--scenario", "/nonexistent.ini"]) == EXIT_ERROR


# -- what each command imports ------------------------------------------------

# The code between these two parts runs in a fresh interpreter; the second
# lists on stderr the heavy modules it loaded that the interpreter had not,
# and on Linux the OpenSSL libraries it mapped
FOOTPRINT_BEFORE = """\
import sys
def openssl_mapped():
    if sys.platform != "linux":
        return None
    with open("/proc/self/maps") as maps:
        text = maps.read()
    return {lib for lib in ("libcrypto", "libssl") if lib in text}
modules_before, mapped_before = set(sys.modules), openssl_mapped()
"""
FOOTPRINT_AFTER = """\
heavy = ("numpy", "cryptography", "ssl", "socket", "_hashlib", "_ssl")
print("loaded:", *[m for m in heavy if m in sys.modules and m not in modules_before],
      file=sys.stderr)
if mapped_before is not None:
    print("mapped:", *sorted(openssl_mapped() - mapped_before), file=sys.stderr)
"""
REPORT_LOADED = (FOOTPRINT_BEFORE + "from timeguard.cli import main\nrc = main(sys.argv[1:])\n"
                 + FOOTPRINT_AFTER + "sys.exit(rc)\n")


def footprint(script, *argv):
    """(process, heavy modules loaded, OpenSSL libraries mapped or None off Linux)."""
    proc = subprocess.run([PY, "-c", script, *argv], capture_output=True, text=True,
                          timeout=120, env=checkout_env())
    report = {}
    for line in proc.stderr.splitlines():
        head, *names = line.split() or [""]
        if head in ("loaded:", "mapped:"):
            assert head not in report, proc.stderr
            report[head] = names
    assert "loaded:" in report, proc.stderr
    return proc, report["loaded:"], report.get("mapped:")


def loaded_modules(*argv):
    return footprint(REPORT_LOADED, *argv)


def test_live_with_a_fitted_config_loads_no_numpy_or_crypto(pin_cfg, tmp_path):
    feed = write_feed(tmp_path, [epoch_line(0), rt_line(0), nts_line(0), epoch_line(1),
                                 rt_line(1, offset_s=-4.0), epoch_line(2)])
    proc, loaded, mapped = loaded_modules("live", "--feed", feed, "--config", pin_cfg)
    assert proc.returncode == EXIT_ATTACK
    assert [json.loads(line)["test"] for line in proc.stdout.splitlines()] == ["rt", "nts", "rt"]
    assert loaded == []
    assert mapped in ([], None)


def test_simulate_loads_no_crypto(tmp_path):
    # the default config calibrates the ll threshold first, which loads numpy;
    # numpy.random and the report's config hash load OpenSSL's _hashlib
    proc, loaded, _ = loaded_modules("simulate", "--scenario", "step4s",
                                     "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == EXIT_ATTACK
    assert loaded == ["numpy", "_hashlib"]


def test_calibrate_loads_no_crypto():
    # no NTS server configured: the noise estimate comes from the simulator
    proc, loaded, _ = loaded_modules("calibrate")
    assert proc.returncode == 0, proc.stderr
    assert loaded == ["numpy", "_hashlib"]


def test_config_dump_loads_only_the_hash():
    proc, loaded, _ = loaded_modules("config", "dump")
    assert proc.returncode == 0, proc.stderr
    assert loaded == ["_hashlib"]


POLL_IN_PROCESS = """\
from timeguard.provider_nts import NtsTestServer, nts_query
from timeguard.provider_roughtime import RoughtimeTestServer, poll
rt = RoughtimeTestServer()
poll(rt.server_key, transport=rt.transport)
nts = NtsTestServer()
session = nts.mint_session()
nts_query(session, transport=nts.transport, target_cookies=session.cookie_count())
"""


def test_in_process_polls_load_no_tls_stack():
    # only an NTS-KE handshake opens TLS; the clients' crypto maps libcrypto
    proc, loaded, mapped = footprint(FOOTPRINT_BEFORE + POLL_IN_PROCESS + FOOTPRINT_AFTER)
    assert proc.returncode == 0, proc.stderr
    assert loaded == ["cryptography", "_hashlib"]
    assert mapped in (["libcrypto"], None)


# -- simulate ----------------------------------------------------------------


def test_simulate_writes_all_traces(pin_cfg, tmp_path):
    out = tmp_path / "out"
    main(["simulate", "--scenario", "step4s", "--config", pin_cfg, "--out-dir", str(out)])
    for name in ("epochs.jsonl", "truth.csv", "verdicts.jsonl", "transitions.jsonl",
                 "report.json"):
        assert (out / name).stat().st_size > 0
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"] == "step4s"
    assert report["outcomes"]["rt"]["detected"]
    assert len(report["config_sha256"]) == 64


def test_simulate_is_byte_reproducible(pin_cfg, tmp_path):
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["simulate", "--scenario", "step4s", "--config", pin_cfg,
              "--out-dir", str(out)])
        dirs.append(out)
    for name in ("verdicts.jsonl", "transitions.jsonl", "report.json", "epochs.jsonl"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_simulate_writes_the_transitions_that_change_phase_or_act(name, pin_cfg, tmp_path):
    # every event that goes through the rule reaches on_transition; the file
    # keeps the records that change the phase, and so the active source, or
    # carry actions
    main(["simulate", "--scenario", name, "--config", pin_cfg, "--out-dir", str(tmp_path)])
    applied = []
    run_scenario(name, load_config(pin_cfg), on_transition=lambda _, r: applied.append(r))
    assert (tmp_path / "transitions.jsonl").read_text() == "".join(
        transition_to_json(r) + "\n" for r in applied if kept(r))


def test_simulate_csv_format(pin_cfg, tmp_path):
    out = tmp_path / "out"
    main(["simulate", "--scenario", "step4s", "--config", pin_cfg,
          "--out-dir", str(out), "--format", "csv"])
    lines = (out / "verdicts.csv").read_text().splitlines()
    assert lines[0] == "t_mono_ns,test,statistic,threshold,hypothesis,source_id"
    assert not (out / "verdicts.jsonl").exists()


def test_seed_override_changes_noise_not_verdict_schema(pin_cfg, benign_ini, tmp_path):
    traces = {}
    for seed in ("1", "1", "2"):
        out = tmp_path / f"s{seed}-{len(traces)}"
        rc = main(["simulate", "--scenario", benign_ini, "--config", pin_cfg,
                   "--seed-override", seed, "--out-dir", str(out)])
        assert rc == EXIT_CLEAN
        traces[len(traces)] = (out / "verdicts.jsonl").read_bytes()
    assert traces[0] == traces[1]
    assert traces[0] != traces[2]


def test_a_seed_past_int64_is_refused(pin_cfg, tmp_path, capsys):
    # Philox would key it through a float: it drew seed 0's run
    seed = "18446744073709551615"
    refusal = f"seed must lie in [-2^63, 2^63), got {seed}"
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", "step4s", "--config", pin_cfg,
               "--seed-override", seed, "--out-dir", str(out)])
    assert rc == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"timeguard: error: {refusal}" in captured.err
    assert not out.exists()
    spec_path = tmp_path / "far.ini"
    spec_path.write_text(BENIGN_INI.replace("seed = 11", f"seed = {seed}"))
    assert main(["simulate", "--scenario", str(spec_path), "--config", pin_cfg]) == EXIT_ERROR
    assert f"config error: invalid scenario: {refusal}" in capsys.readouterr().err


def test_simulate_summary_on_stdout(pin_cfg, capsys):
    main(["simulate", "--scenario", "step4s", "--config", pin_cfg])
    out = capsys.readouterr().out
    assert "final phase ALARM" in out
    assert "rt: detected" in out
    assert '"scenario":"step4s"' in out


# -- config dump -------------------------------------------------------------


def test_config_dump_round_trips(tmp_path, capsys):
    assert main(["config", "dump"]) == EXIT_CLEAN
    text = capsys.readouterr().out
    assert text.splitlines()[-1].startswith("# sha256 ")
    path = tmp_path / "dumped.ini"
    path.write_text(text)
    assert load_config(str(path)) == default_config()


def test_a_negative_noise_density_is_refused_at_load(tmp_path, capsys):
    path = tmp_path / "negative.ini"
    path.write_text("[ensemble]\nq_b = -1e-21\n")
    assert main(["config", "dump", "--config", str(path)]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error" in err and "q_b must be finite and >= 0" in err


def test_env_override_reaches_dump(monkeypatch, capsys):
    monkeypatch.setenv("TIMEGUARD_ROUGHTIME_ADDR", "10.9.8.7:2003")
    main(["config", "dump"])
    text = capsys.readouterr().out
    assert "roughtime_host = 10.9.8.7" in text
    assert "roughtime_port = 2003" in text


# -- bench-crypto ------------------------------------------------------------


def test_bench_json_artifact(tmp_path, capsys):
    assert main(["bench-crypto", "--iterations", "5", "--out-dir", str(tmp_path)]) == 0
    assert "aead-encrypt" in capsys.readouterr().out
    report = json.loads((tmp_path / "bench.json").read_text())
    assert report["iterations"] == 5
    assert [(r["operation"], r["payload_bytes"]) for r in report["rows"]] == [
        (op, size) for size in (1024, 8192)
        for op in ("sign", "verify", "aead-encrypt", "aead-decrypt")
    ]
    for r in report["rows"]:
        assert set(r) == {"operation", "payload_bytes", "mean_latency_s", "ops_per_s"}
        assert isinstance(r["mean_latency_s"], float) and isinstance(r["ops_per_s"], float)


# -- calibrate ---------------------------------------------------------------


CAL_INI = """\
[scenario]
name = smoke-cal
duration_epochs = 1200
seed = 4
"""


def test_calibrate_emits_loadable_overlay(tmp_path, capsys):
    spec_path = tmp_path / "cal.ini"
    spec_path.write_text(CAL_INI)
    rc = main(["calibrate", "--scenario", str(spec_path), "--out-dir", str(tmp_path)])
    assert rc == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "[ll]" in out and "lambda_t" in out and "nts_lambda_s" in out
    overlay = load_config(str(tmp_path / "calibration.ini"))
    assert overlay.detector.ll.lambda_T is not None
    assert overlay.detector.ll.sigma0_sq > 0
    assert overlay.detector.nts_lambda.to_s() > 0


def test_calibrate_refuses_offsets_with_zero_spread(tmp_path, capsys):
    # 3 sigma of offsets that never move is an nts_lambda_s of 0, which the
    # config loader refuses: calibrate prints and writes nothing
    spec_path = tmp_path / "flat.ini"
    spec_path.write_text("[scenario]\nname = flat\nduration_epochs = 2000\n"
                         "benign_jitter_sigma_s = 0\n\n[network]\nnts_sigma_s = 0\n")
    out = tmp_path / "out"
    rc = main(["calibrate", "--scenario", str(spec_path), "--out-dir", str(out)])
    assert rc == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("timeguard: error: nts_lambda_s 0.0 s is not a positive duration: "
            "the NTS offsets have zero spread (sigma 0.0 s)") in captured.err
    assert not (out / "calibration.ini").exists()


def test_calibrate_refuses_an_nts_lambda_past_the_duration_range(tmp_path, capsys):
    # nts_sigma_k times sigma past 2^63 s, or overflowing to infinity, is an
    # nts_lambda_s the config loader refuses too: calibrate prints and writes
    # nothing; just under 2^63 s both take it
    spec_path = tmp_path / "spec.ini"

    def calibrate(k, nts_sigma_s=50e-6):
        spec_path.write_text("[scenario]\nname = loud\nduration_epochs = 2000\n\n"
                             f"[network]\nnts_sigma_s = {nts_sigma_s!r}\n")
        cfg = tmp_path / "k.ini"
        cfg.write_text(f"[detector]\nnts_sigma_k = {k!r}\n")
        out = tmp_path / f"out-{k!r}"
        rc = main(["calibrate", "--scenario", str(spec_path), "--config", str(cfg),
                   "--out-dir", str(out)])
        return rc, capsys.readouterr(), out / "calibration.ini"

    rc, captured, written = calibrate(3.0)
    assert rc == EXIT_CLEAN
    sigma = float(captured.out.split("# sigma ")[1].split()[0])
    for k, nts_sigma_s in ((1e40, 50e-6), (1.001 * 2.0**63 / sigma, 50e-6), (1e308, 100.0)):
        rc, captured, written = calibrate(k, nts_sigma_s)
        assert rc == EXIT_ERROR
        assert captured.out == ""
        assert f" s is past the duration range: nts_sigma_k {k!r} times sigma " in captured.err
        assert not written.exists()
        value = captured.err.split("nts_lambda_s ")[1].split()[0]
        (tmp_path / "lambda.ini").write_text(f"[detector]\nnts_lambda_s = {value}\n")
        with pytest.raises(ConfigFileError):
            load_config(str(tmp_path / "lambda.ini"))
    rc, captured, written = calibrate(0.999 * 2.0**63 / sigma)
    assert rc == EXIT_CLEAN
    assert load_config(str(written)).detector.nts_lambda.to_s() < 2.0**63


def test_calibration_scenario_takes_an_ini_path(tmp_path, capsys):
    spec_path = tmp_path / "cal.ini"
    spec_path.write_text(CAL_INI)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[calibration]\nscenario = {spec_path}\n")
    assert main(["simulate", "--scenario", "step4s", "--config", str(cfg)]) == EXIT_ATTACK
    cfg.write_text("[calibration]\nscenario = no-such-scenario\n")
    assert main(["simulate", "--scenario", "step4s", "--config", str(cfg)]) == EXIT_ERROR
    assert "config error: cannot read no-such-scenario" in capsys.readouterr().err


def test_calibration_on_an_attack_scenario_is_refused(tmp_path, capsys):
    # a pull fitted as benign would widen the threshold past the attack itself
    spec_path = tmp_path / "pull.ini"
    spec_path.write_text(CAL_INI + "\n[attack]\nkind = smooth_pull\noffset_s = 2e-6\n"
                         "onset_epoch = 300\n")
    assert main(["calibrate", "--scenario", str(spec_path)]) == EXIT_ERROR
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[calibration]\nscenario = {spec_path}\n")
    assert main(["simulate", "--scenario", "step4s", "--config", str(cfg)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    refusal = "config error: calibration scenario 'smoke-cal' carries a smooth_pull attack"
    assert captured.err.count(refusal) == 2


def test_attack_calibration_scenario_is_refused_before_generation(monkeypatch, capsys):
    # the refusal needs only the spec: generating incr2us first costs 2,700 epochs
    def generate(spec):
        raise AssertionError(f"generated {spec.name}")

    for module in ("timeguard.attack_sim", "timeguard.cli", "timeguard.pipeline"):
        monkeypatch.setattr(f"{module}.gen_scenario", generate)
    assert main(["calibrate", "--scenario", "incr2us"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "generated" not in captured.err
    assert "config error: calibration scenario 'incr2us' carries a" in captured.err


def test_blank_nts_lambda_is_refused_before_any_output(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(PINNED_CFG + "\n[detector]\nnts_lambda_s =\n")
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", "step4s", "--config", str(cfg), "--out-dir", str(out)]
    assert main(argv) == EXIT_ERROR
    assert "config error: detector.nts_lambda_s" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pinned", [
    "mu0 = 0.001\nsigma0_sq = 1.0\n", "mu0 = 0.001\n", "sigma0_sq = 1.0\n",
])
def test_pinned_ll_moments_without_lambda_t_are_refused(pinned, tmp_path, capsys):
    # calibration would replace them without a word
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[ll]\n" + pinned)
    assert main(["simulate", "--scenario", "step4s", "--config", str(cfg)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: [ll] mu0 or sigma0_sq is pinned but lambda_t is blank" in captured.err
    assert "timeguard calibrate" in captured.err


# -- live --------------------------------------------------------------------


def test_live_streams_verdicts_from_named_pipe(pin_cfg, tmp_path):
    fifo = tmp_path / "feed.fifo"
    os.mkfifo(fifo)
    proc = subprocess.Popen(
        [PY, "-m", "timeguard", "live", "--feed", str(fifo), "--config", pin_cfg],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=checkout_env(),
    )
    with open(fifo, "w") as fh:
        fh.write(epoch_line(0) + "\n")
        fh.flush()
        fh.write(rt_line(0) + "\n")
        fh.write(nts_line(0) + "\n")
        for e in range(1, 5):
            fh.write(epoch_line(e) + "\n")
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_CLEAN
    verdicts = [json.loads(line) for line in out.splitlines()]
    assert [v["test"] for v in verdicts] == ["rt", "nts"]
    assert all(v["hypothesis"] == "H0" for v in verdicts)
    assert "final phase FINE_MONITORING" in err


def read_line(fd, timeout_s):
    """One line from fd, or None when none is complete within timeout_s."""
    deadline = time.monotonic() + timeout_s
    data = b""
    while not data.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        chunk = os.read(fd, 1)
        if not chunk:
            return None
        data += chunk
    return data


def test_live_hands_over_each_verdict_before_the_next_line(pin_cfg):
    # a closed loop over pipes: the next feed line is written only after the
    # verdict for the last one has been read back, so a verdict left in an
    # output buffer stalls the loop; PYTHONUNBUFFERED would hide such a buffer
    env = {k: v for k, v in checkout_env().items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [PY, "-m", "timeguard", "live", "--feed", "-", "--config", pin_cfg],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, bufsize=0,
        env=env,
    )
    try:
        answers = []
        for lines in ([epoch_line(0), rt_line(0)], [nts_line(0)], [epoch_line(1), rt_line(1)]):
            os.write(proc.stdin.fileno(), "".join(line + "\n" for line in lines).encode())
            raw = read_line(proc.stdout.fileno(), 10.0)
            assert raw is not None, f"no verdict within 10 s after {lines[-1]}"
            answers.append(json.loads(raw)["test"])
        assert answers == ["rt", "nts", "rt"]
        proc.stdin.close()
        assert proc.wait(timeout=60) == EXIT_CLEAN
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()


def test_live_scripted_h1_raises_alarm(pin_cfg, tmp_path, monkeypatch):
    feed = write_feed(tmp_path, [epoch_line(0), rt_line(0), nts_line(0), epoch_line(1),
                                 rt_line(1, offset_s=-4.0), epoch_line(2)])
    out = tmp_path / "out"
    # the run's full on_transition log, beside the file its writer keeps
    applied = []

    def logged_writer(fh):
        write = transition_writer(fh)

        def on_transition(event, record):
            applied.append(record)
            write(event, record)

        return on_transition

    monkeypatch.setattr(cli, "transition_writer", logged_writer)
    rc = main(["live", "--feed", feed, "--config", pin_cfg, "--out-dir", str(out)])
    assert rc == EXIT_ATTACK
    written = (out / "transitions.jsonl").read_text()
    transitions = [json.loads(l) for l in written.splitlines()]
    alarm = [t for t in transitions if t["to_phase"] == "ALARM"]
    assert alarm
    assert alarm[0]["active_source"] != "gnss"
    # Monitor.finish() closes the held fix with a FixLost, which the state
    # machine applies; a self-loop with no action, it is not written
    assert applied[-1].event == "FixLost"
    assert written == "".join(transition_to_json(r) + "\n" for r in applied if kept(r))


def test_live_unreachable_providers_enter_holdover(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        PINNED_CFG
        + "\n[providers]\n"
        + "roughtime_host = 127.0.0.1\n"
        + "roughtime_port = 9\n"
        + f"roughtime_pubkey_b64 = {base64.b64encode(bytes(32)).decode()}\n"
        + "nts_ke_host = 127.0.0.1\n"
        + "nts_ke_port = 9\n"
        + "timeout_s = 0.05\n"
    )
    feed = write_feed(tmp_path, [epoch_line(0), rt_line(0), nts_line(0), epoch_line(31)])
    out = tmp_path / "out"
    proc = run_cli("live", "--feed", feed, "--config", str(cfg), "--out-dir", str(out))
    assert proc.returncode == EXIT_CLEAN
    assert "poll failed" in proc.stderr
    transitions = [json.loads(l) for l in (out / "transitions.jsonl").read_text().splitlines()]
    phases = [t["to_phase"] for t in transitions]
    assert "FINE_MONITORING" in phases
    assert "HOLDOVER" in phases
    assert phases.index("HOLDOVER") > phases.index("FINE_MONITORING")


def test_live_nts_poller_re_keys_once_its_cookies_run_out():
    """Each lost reply spends a cookie; once the eight from the handshake are
    gone, the next poll runs NTS-KE again instead of failing for good."""
    wire = Wire(NtsTestServer())
    with nts_ke(wire) as ke:
        base = default_config()
        poll = _nts_poller(replace(base, providers=replace(
            base.providers, nts_ke_host="127.0.0.1", nts_ke_port=ke.port,
            nts_ca_file=ke.ca_file, timeout_s=0.05)))
        wire.drop = True
        for _ in range(9):
            with pytest.raises(UnreachableError):
                poll()
        wire.drop = False
        assert poll().delay.units >= 0


def nak(request: bytes) -> bytes:
    """The NTS NAK that answers request (RFC 8915 section 5.7): a stratum 0
    header with the kiss code NTSN and the request's unique identifier, and
    no authenticator."""
    (unique_id,) = [body for ef_type, body, _, _ in iter_efs(request) if ef_type == EF_UNIQUE_ID]
    header = struct.pack(">BBBb3I4Q", (4 << 3) | 4, 0, 0, 0, 0, 0,
                         int.from_bytes(b"NTSN", "big"), 0, 0, 0, 0)
    return header + encode_ef(EF_UNIQUE_ID, unique_id)


def test_live_nts_poller_re_keys_after_a_nak(monkeypatch):
    """A NAK says the server takes no more of the session's cookies: the poll
    fails, and the next one runs NTS-KE again, with cookies to spare."""
    server = NtsTestServer()
    handshakes = []
    answer_nak = True

    def handshake(host, port, ca_file, timeout_s):
        handshakes.append(None)
        return server.mint_session()

    def transport(host, port, timeout_s):
        return lambda request: nak(request) if answer_nak else server.transport(request)

    monkeypatch.setattr(provider_nts, "nts_ke_handshake", handshake)
    monkeypatch.setattr(cli, "udp_transport", transport)
    base = default_config()
    poll = _nts_poller(replace(base, providers=replace(base.providers,
                                                       nts_ke_host="nts.example")))
    for _ in range(2):
        with pytest.raises(AuthenticationError, match="lacks an authenticator"):
            poll()
    assert len(handshakes) == 2
    answer_nak = False
    assert poll().delay.units >= 0
    assert poll().delay.units >= 0
    assert len(handshakes) == 3


def test_live_polls_reachable_loopback_providers(tmp_path, capsys):
    # the Roughtime server's midpoint is START, the GNSS time of epoch 0; the
    # NTS server answers with host time, as the client stamps T1 and T4, and
    # loopback offsets run to about 130 us, so the threshold is set well above
    rt_server = RoughtimeTestServer()
    with udp(rt_server) as rt_port, nts_ke(NtsTestServer()) as ke:
        rt_key = replace(rt_server.server_key, port=rt_port)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            PINNED_CFG
            + "\n[detector]\nnts_lambda_s = 0.01\n"
            + "\n[providers]\n"
            + f"roughtime_host = {rt_key.host}\n"
            + f"roughtime_port = {rt_key.port}\n"
            + f"roughtime_pubkey_b64 = {base64.b64encode(rt_key.public_key).decode()}\n"
            + f"nts_ke_host = 127.0.0.1\nnts_ke_port = {ke.port}\n"
            + f"nts_ca_file = {ke.ca_file}\n"
        )
        feed = write_feed(tmp_path, [epoch_line(e) for e in range(10)])
        out = tmp_path / "out"
        rc = main(["live", "--feed", feed, "--config", str(cfg), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_CLEAN, err
    verdicts = [json.loads(l) for l in (out / "verdicts.jsonl").read_text().splitlines()]
    assert [(v["test"], v["hypothesis"]) for v in verdicts] == [("rt", "H0"), ("nts", "H0")]
    assert "poll failed" not in err
    transitions = [json.loads(l) for l in (out / "transitions.jsonl").read_text().splitlines()]
    assert transitions[-1]["to_phase"] == "FINE_MONITORING"
    assert "final phase FINE_MONITORING" in err
    # each reply is applied at the feed instant that polled it, the first
    # fix's: its verdict and its transition carry the same t_mono_ns
    kinds = {"rt": "RtVerdict", "nts": "NtsVerdict"}
    assert [(kinds[v["test"]], v["t_mono_ns"]) for v in verdicts] == [
        (t["event"], t["t_mono_ns"]) for t in transitions if t["event"] in kinds.values()]
    assert {v["t_mono_ns"] for v in verdicts} == {0}


def test_live_long_outage_resets_to_cold_start(tmp_path, capsys):
    # an outage longer than the ephemeris validity forces RESET_PENDING; a
    # tick inside it changes nothing, so the next record written is the
    # reacquired fix, which starts cold
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(PINNED_CFG + "\n[orchestrator]\nephemeris_validity_s = 5\n")
    feed = write_feed(tmp_path, [epoch_line(0), rt_line(0),
                                 *(epoch_line(e, fix=False) for e in range(1, 9)), epoch_line(9)])
    out = tmp_path / "out"
    rc = main(["live", "--feed", feed, "--config", str(cfg), "--out-dir", str(out)])
    assert rc == EXIT_CLEAN
    transitions = [json.loads(l) for l in (out / "transitions.jsonl").read_text().splitlines()]
    [(i, reset)] = [(i, t) for i, t in enumerate(transitions)
                    if "alert:gnss_outage_exceeds_ephemeris_validity" in t["actions"]]
    assert (reset["event"], reset["t_mono_ns"]) == ("Tick", 7 * 10**9)
    assert (reset["to_phase"], reset["active_source"]) == ("RESET_PENDING", "ensemble")
    restart = transitions[i + 1]
    assert (restart["event"], restart["from_phase"], restart["to_phase"]) == (
        "FixAcquired", "RESET_PENDING", "COLD_START")
    assert restart["actions"] == ["schedule_poll:roughtime"]
    assert restart["active_source"] == "gnss"
    assert "final phase COLD_START" in capsys.readouterr().err


def test_live_fix_reacquired_after_a_long_gap_starts_cold(tmp_path, capsys):
    # no epoch arrives inside the outage, so no TICK sees it outlive the
    # ephemeris; the reacquired fix classifies it and starts cold all the same
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(PINNED_CFG + "\n[orchestrator]\nephemeris_validity_s = 5\n")
    feed = write_feed(tmp_path, [epoch_line(0), rt_line(0), epoch_line(1, fix=False),
                                 epoch_line(100)])
    out = tmp_path / "out"
    rc = main(["live", "--feed", feed, "--config", str(cfg), "--out-dir", str(out)])
    assert rc == EXIT_CLEAN
    transitions = [json.loads(l) for l in (out / "transitions.jsonl").read_text().splitlines()]
    [restart] = [t for t in transitions
                 if "alert:gnss_outage_exceeds_ephemeris_validity" in t["actions"]]
    assert (restart["event"], restart["t_mono_ns"]) == ("FixAcquired", 100 * 10**9)
    assert (restart["from_phase"], restart["to_phase"]) == ("COARSE_VALIDATED", "COLD_START")
    assert restart["actions"] == ["alert:gnss_outage_exceeds_ephemeris_validity",
                                  "schedule_poll:roughtime"]
    assert "final phase COLD_START" in capsys.readouterr().err


def test_live_csv_format(pin_cfg, tmp_path):
    feed = write_feed(tmp_path, [epoch_line(0), rt_line(0)])
    out = tmp_path / "out"
    proc = run_cli("live", "--feed", feed, "--config", pin_cfg,
                   "--out-dir", str(out), "--format", "csv")
    assert proc.returncode == EXIT_CLEAN
    lines = (out / "verdicts.csv").read_text().splitlines()
    assert lines[0] == "t_mono_ns,test,statistic,threshold,hypothesis,source_id"
    assert len(lines) == 2


def test_live_csv_quotes_a_feed_supplied_source_id(pin_cfg, tmp_path):
    # a comma, a quote and a line break in the id neither split the row
    # nor forge another: it reads back as the last field of one row
    hostile = 'evil,H0\n"x"\r\ny'
    feed = write_feed(tmp_path, [epoch_line(0), rt_line(0, source_id=hostile)])
    out = tmp_path / "out"
    rc = main(["live", "--feed", feed, "--config", pin_cfg,
               "--out-dir", str(out), "--format", "csv"])
    assert rc == EXIT_CLEAN
    with open(out / "verdicts.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [6, 6]
    assert rows[1][1] == "rt"
    assert rows[1][-1] == hostile


def test_live_skips_garbage_lines(pin_cfg, tmp_path):
    feed = write_feed(tmp_path, ["not json", epoch_line(0), json.dumps({"type": "wat"}),
                                 rt_line(0)])
    proc = run_cli("live", "--feed", feed, "--config", pin_cfg)
    assert proc.returncode == EXIT_CLEAN
    assert "unparseable" in proc.stderr
    assert "unknown feed line type" in proc.stderr


def test_live_quotes_a_refused_value_only_in_part(pin_cfg, tmp_path):
    # stderr must not grow with a hostile line: 100 kB values echo a bounded repr,
    # and integers out of range, of up to the parser's 4,300 digits, their first digits
    big, nines = "x" * 100_000, int("9" * 4300)
    lines = [epoch_line(0), json.dumps({"type": big}), corrupt(nts_line(0), ("t_mono_ns",), big),
             corrupt(nts_line(0), ("t_mono_ns",), nines),
             corrupt(epoch_line(1), ("t_gnss", "sec"), nines), rt_line(0)]
    proc = run_cli("live", "--feed", write_feed(tmp_path, lines), "--config", pin_cfg)
    assert proc.returncode == EXIT_CLEAN
    err = proc.stderr.splitlines()
    assert any(line.startswith("timeguard: unknown feed line type 'xxx") for line in err)
    assert any("t_mono_ns must be an integer, got 'xxx" in line for line in err)
    assert any(line.endswith("monotonic ns out of uint64: " + "9" * 64 + "...") for line in err)
    assert any(line.endswith("timestamp out of 128-bit range: 18446744073709551615"
                             + "9" * 44 + "...") for line in err)
    assert max(map(len, err)) < 200, max(map(len, err))


def test_live_unreadable_feed_exits_1(pin_cfg, tmp_path, capsys):
    rc = main(["live", "--feed", str(tmp_path / "missing.jsonl"), "--config", pin_cfg])
    assert rc == EXIT_ERROR
    assert "No such file" in capsys.readouterr().err


def test_live_writes_no_verdict_the_state_machine_rejects(pin_cfg, tmp_path, capsys):
    # the rt line is stamped before the last epoch: the state machine
    # refuses it, so neither its H1 verdict nor exit code 2 may surface
    feed = write_feed(tmp_path, [epoch_line(0), epoch_line(1), epoch_line(2),
                                 rt_line(1, offset_s=-4.0)])
    out = tmp_path / "out"
    rc = main(["live", "--feed", feed, "--config", pin_cfg, "--out-dir", str(out)])
    assert rc == EXIT_CLEAN
    assert (out / "verdicts.jsonl").read_text() == ""
    err = capsys.readouterr().err
    assert "rejected" in err
    assert "final phase COLD_START, active source gnss" in err


def test_live_parses_an_epoch_line_once(pin_cfg, tmp_path, monkeypatch):
    # an epoch line spelled as feed_line writes it is read without json.loads;
    # one spelled otherwise, here with an older feed's clock_bias_ns, is decoded once
    older = epoch_line(1)[:-1] + ',"clock_bias_ns":-42}'
    feed = write_feed(tmp_path, [epoch_line(0), older])
    decoded = []
    real_loads = json.loads

    def loads(text, *args, **kwargs):
        decoded.append(text)
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", loads)
    assert main(["live", "--feed", feed, "--config", pin_cfg]) == EXIT_CLEAN
    assert decoded == [older]


def test_live_rejects_a_malformed_epoch_line_and_continues(tmp_path):
    good = [epoch_line(0), rt_line(0), epoch_line(1), rt_line(1, offset_s=-4.0), epoch_line(2)]
    bad = good[:2] + ['{"t_mono_ns": 500000000}', "[1, 2]"] + good[2:]
    (tmp_path / "good").mkdir()
    (tmp_path / "bad").mkdir()
    rc, verdicts, transitions, err = live_outputs(tmp_path / "bad", bad)
    assert "feed line rejected: malformed epoch record" in err
    assert "unparseable feed line" in err
    assert "record 0" not in err
    # the bad lines applied nothing: the run goes on to the alarm exactly as without them
    assert rc == EXIT_ATTACK
    assert (rc, verdicts, transitions) == live_outputs(tmp_path / "good", good)[:3]


def test_live_skips_a_line_that_is_not_utf8(pin_cfg, tmp_path, capsys):
    good = [epoch_line(0), rt_line(0), epoch_line(1), rt_line(1, offset_s=-4.0), epoch_line(2)]
    good_bytes = "".join(line + "\n" for line in good).encode()
    bad_bytes = b"".join(line.encode() + b"\n" for line in good[:1]) + b"\xff\xfe bad\n" + \
        b"".join(line.encode() + b"\n" for line in good[1:])
    runs = {}
    for name, data in (("good", good_bytes), ("bad", bad_bytes)):
        feed = tmp_path / f"{name}.jsonl"
        feed.write_bytes(data)
        out = tmp_path / name
        rc = main(["live", "--feed", str(feed), "--config", pin_cfg, "--out-dir", str(out)])
        runs[name] = (rc, capsys.readouterr().err, (out / "verdicts.jsonl").read_text())
    assert "unparseable feed line, skipped" in runs["bad"][1]
    assert runs["bad"][0] == runs["good"][0] == EXIT_ATTACK
    assert runs["bad"][2] == runs["good"][2]
    # the same through standard input
    piped = {
        name: subprocess.run([PY, "-m", "timeguard", "live", "--feed", "-", "--config", pin_cfg],
                             input=data, capture_output=True, timeout=120, env=checkout_env())
        for name, data in (("good", good_bytes), ("bad", bad_bytes))
    }
    assert b"unparseable feed line, skipped" in piped["bad"].stderr
    assert piped["bad"].returncode == piped["good"].returncode == EXIT_ATTACK
    assert piped["bad"].stdout == piped["good"].stdout
    assert piped["good"].stdout.decode() == runs["good"][2]


# -- a fix without UTC ---------------------------------------------------------


def gps_line(e):
    """An epoch as a receiver reports it before it has decoded the UTC
    parameters: a valid solution on the GPS scale, UTC + 18 s, with
    leap_applied false."""
    return feed_line("epoch", (EpochRecord(MonotonicInstant(e * 10**9),
                                           Timestamp.from_unix_s(START + e + 18), True,
                                           leap_applied=False),))


def live_run(cfg, tmp_path, lines):
    """live over lines: its exit code, its verdict lines and its stderr."""
    out = tmp_path / "out"
    rc = main(["live", "--feed", write_feed(tmp_path, lines), "--config", cfg,
               "--out-dir", str(out)])
    verdicts = [json.loads(l) for l in (out / "verdicts.jsonl").read_text().splitlines()]
    return rc, verdicts


def test_live_takes_no_fix_from_an_epoch_without_utc(pin_cfg, tmp_path, capsys):
    # an honest rt line would read 18 s against the GPS-scale epochs
    gps = [gps_line(e) for e in range(5)]
    assert live_run(pin_cfg, tmp_path, [*gps, rt_line(5)]) == (EXIT_CLEAN, [])
    err = capsys.readouterr().err
    assert "feed line rejected: measurement before the first GNSS fix" in err
    assert "final phase COLD_START" in err
    # once leap_applied turns true, a clean rt and nts line validate GNSS
    rc, verdicts = live_run(pin_cfg, tmp_path, [*gps, rt_line(5), epoch_line(6), rt_line(6),
                                                nts_line(7), epoch_line(8)])
    assert rc == EXIT_CLEAN
    assert [(v["test"], v["hypothesis"]) for v in verdicts] == [("rt", "H0"), ("nts", "H0")]
    assert "final phase FINE_MONITORING" in capsys.readouterr().err


def test_live_catches_a_leap_count_step_while_utc_stays_applied(pin_cfg, tmp_path):
    # a spoofed leap count moves UTC by whole seconds with leap_applied still
    # true: that is a fix, and an honest rt line tests it
    rc, verdicts = live_run(pin_cfg, tmp_path, [epoch_line(0), rt_line(0),
                                                epoch_line(1, offset_s=18.0), rt_line(1)])
    assert rc == EXIT_ATTACK
    assert [(v["test"], v["hypothesis"], v["statistic"]) for v in verdicts] == [
        ("rt", "H0", 0.0), ("rt", "H1", 18.0)]


def test_live_polls_only_after_an_epoch_with_a_fix(pin_cfg, tmp_path, monkeypatch):
    # the poll follows the engine's fix, so GPS-scale epochs poll nothing
    polled = []

    def poll():
        polled.append(None)
        return RoughtimeMeasurement(Timestamp.from_unix_s(START + 5), SignedDuration.from_s(1.0),
                                    "rt-poll", MonotonicInstant(0))

    monkeypatch.setattr(cli, "_rt_poller", lambda config: poll)
    rc, verdicts = live_run(pin_cfg, tmp_path, [*(gps_line(e) for e in range(5)),
                                                epoch_line(5), epoch_line(6)])
    assert rc == EXIT_CLEAN
    assert len(polled) == 1
    assert [(v["test"], v["hypothesis"], v["t_mono_ns"]) for v in verdicts] == [
        ("rt", "H0", 5 * 10**9)]


# -- hostile feed lines ------------------------------------------------------

# starts at 5 s, so an rt line at 0 s is stale wherever it is inserted
CLEAN_FEED = [epoch_line(5), rt_line(5), nts_line(5), epoch_line(6),
              rt_line(6, offset_s=-4.0), epoch_line(7)]
NETWORK_LINE = feed_line("network", (True, MonotonicInstant(6 * 10**9)))
# stale once an epoch is applied; its up matches the connectivity, so it changes nothing
STALE_NETWORK_LINE = feed_line("network", (True, MonotonicInstant(0)))
MISSING = object()
AS_TEXT = object()  # the field's own value written as a JSON string
PLUS_HALF = object()  # the field's own value plus 0.5, which int() would truncate back
BAD_NUMBERS = [float("nan"), float("inf"), float("-inf"), 2**200, -(2**200),
               "x", AS_TEXT, None, True, False, [1], {}, MISSING]
BAD_INTEGERS = BAD_NUMBERS + [PLUS_HALF]
BAD_INSTANTS = BAD_INTEGERS + [-1, 2**64]
BAD_FLAGS = ["false", "true", 0, 1, None, "x", [], MISSING]
# an absent source_id takes the default; any value but a JSON string is bad
BAD_TEXTS = [None, 0, 1.5, True, [], ["x"], {}, {"a": 1}]
# lines the JSON parser itself refuses with other errors than a syntax error:
# nested past the recursion limit, and an integer of more than 4,300 digits
HOSTILE_JSON = ["[" * 100000, '{"t_mono_ns": ' + "1" * 5000 + "}"]
# every field of every line kind, with values that must get the line refused
CORRUPTIONS = [
    (epoch_line(6), ("t_mono_ns",), BAD_INSTANTS),
    (epoch_line(6), ("t_gnss",), [3, "x", None, [], {}, MISSING]),
    (epoch_line(6), ("t_gnss", "sec"), BAD_INTEGERS),
    # frac is written as a string, so only a number or a string that is no integer is bad
    (epoch_line(6), ("t_gnss", "frac"),
     [v for v in BAD_INTEGERS if v is not AS_TEXT and v is not PLUS_HALF]
     + [0.5, "0.5", str(2**64), 2**64, "-1"]),
    (epoch_line(6), ("fix_valid",), BAD_FLAGS),
    (epoch_line(6), ("leap_applied",), BAD_FLAGS),
    (epoch_line(6), ("source_id",), BAD_TEXTS),
    (rt_line(6), ("t_mono_ns",), BAD_INSTANTS),
    (rt_line(6), ("midpoint_unix_ns",), BAD_INTEGERS),
    (rt_line(6), ("radius_s",), BAD_NUMBERS + [-1]),
    (rt_line(6), ("source_id",), BAD_TEXTS),
    (nts_line(6), ("t_mono_ns",), BAD_INSTANTS),
    (nts_line(6), ("offset_s",), BAD_NUMBERS),
    (nts_line(6), ("delay_s",), BAD_NUMBERS + [-1]),
    (nts_line(6), ("source_id",), BAD_TEXTS),
    (NETWORK_LINE, ("t_mono_ns",), BAD_INSTANTS),
    (NETWORK_LINE, ("up",), BAD_FLAGS),
]


def corrupt(line, path, value):
    obj = json.loads(line)
    target = obj
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    elif value is AS_TEXT:
        target[path[-1]] = str(target[path[-1]])
    elif value is PLUS_HALF:
        target[path[-1]] += 0.5
    else:
        target[path[-1]] = value
    return json.dumps(obj)


@st.composite
def bad_lines(draw, pos):
    """A line that live must refuse when inserted before CLEAN_FEED[pos]."""
    kinds = ["field", "truncated", "not an object", "hostile JSON", "unknown type", "stale rt"]
    if pos > 0:
        kinds.append("stale network")
    kind = draw(st.sampled_from(kinds))
    if kind == "field":
        line, path, values = draw(st.sampled_from(CORRUPTIONS))
        return corrupt(line, path, draw(st.sampled_from(values)))
    if kind == "truncated":
        line = draw(st.sampled_from(CLEAN_FEED))
        return line[: draw(st.integers(1, len(line) - 1))]
    if kind == "not an object":
        scalar = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
        return json.dumps(draw(scalar | st.lists(scalar, max_size=3)))
    if kind == "hostile JSON":
        return draw(st.sampled_from(HOSTILE_JSON))
    if kind == "unknown type":
        name = draw(st.text(max_size=6).filter(lambda k: k not in ("rt", "nts", "network")))
        return json.dumps({"type": name, "t_mono_ns": 6 * 10**9})
    if kind == "stale network":
        return STALE_NETWORK_LINE
    return rt_line(0)  # stale: before every epoch of CLEAN_FEED


def live_outputs(tmp, lines):
    """Exit code, verdicts.jsonl, transitions.jsonl and stderr of live over lines."""
    cfg, out = tmp / "pin.ini", tmp / "out"
    cfg.write_text(PINNED_CFG)
    err = io.StringIO()
    with redirect_stderr(err):
        rc = main(["live", "--feed", write_feed(tmp, lines), "--config", str(cfg),
                   "--out-dir", str(out)])
    return (rc, (out / "verdicts.jsonl").read_text(), (out / "transitions.jsonl").read_text(),
            err.getvalue())


def refusals(stderr):
    return [line for line in stderr.splitlines() if "rejected" in line or "skipped" in line]


@pytest.fixture(scope="module")
def clean_live(tmp_path_factory):
    return live_outputs(tmp_path_factory.mktemp("clean"), CLEAN_FEED)


@given(inserts=st.lists(
    st.integers(0, len(CLEAN_FEED)).flatmap(lambda pos: st.tuples(st.just(pos), bad_lines(pos))),
    min_size=1, max_size=4))
@example(inserts=[(1, STALE_NETWORK_LINE)])
@example(inserts=[(0, HOSTILE_JSON[0])])
@example(inserts=[(3, HOSTILE_JSON[1])])
@settings(max_examples=30, deadline=None)
def test_live_refuses_hostile_lines_and_applies_nothing(inserts, clean_live, tmp_path_factory):
    lines = list(CLEAN_FEED)
    for pos, bad in sorted(inserts, key=lambda insert: insert[0], reverse=True):
        lines.insert(pos, bad)
    rc, verdicts, transitions, err = live_outputs(tmp_path_factory.mktemp("hostile"), lines)
    clean_rc, clean_verdicts, clean_transitions, clean_err = clean_live
    assert clean_rc == EXIT_ATTACK and clean_verdicts and not refusals(clean_err)
    assert (rc, verdicts, transitions) == (clean_rc, clean_verdicts, clean_transitions)
    # one refusal on stderr per bad line
    assert len(refusals(err)) == len(inserts), err


def test_live_refuses_every_corrupted_field(clean_live, tmp_path):
    bad = [corrupt(line, path, value) for line, path, values in CORRUPTIONS for value in values]
    lines = CLEAN_FEED[:3] + bad + CLEAN_FEED[3:]
    rc, verdicts, transitions, err = live_outputs(tmp_path, lines)
    assert (rc, verdicts, transitions) == clean_live[:3]
    assert len(refusals(err)) == len(bad), err


def test_a_line_without_source_id_reads_as_one_with_the_default_id():
    for line in (epoch_line(0), rt_line(0), nts_line(0)):
        assert feed_input(corrupt(line, ("source_id",), MISSING)) == feed_input(line)


# -- simulate and live agree -------------------------------------------------


# a network outage; simulate reads a scenario that is not bundled from a file
OUTAGE_INI = """\
[scenario]
name = outage
duration_epochs = 400
seed = 21

[network]
mode = down
down_from_epoch = 100
down_to_epoch = 200
"""


def scenario_path(name, tmp_path):
    """A bundled scenario's name, or for "outage" the path of OUTAGE_INI written out."""
    if name != "outage":
        return name
    path = tmp_path / "outage.ini"
    path.write_text(OUTAGE_INI)
    return str(path)


@pytest.mark.parametrize("name", ["step4s", "incr2us", "pull2us", "outage"])
def test_each_input_of_a_generated_run_reads_back_from_its_feed_line(name, tmp_path):
    # equality compares every field, the ones no verdict reads too: an NTS
    # reply's delay, a Roughtime radius and each source id
    inputs = [(method, args) for method, args in
              scenario_inputs(gen_scenario(load_scenario(scenario_path(name, tmp_path))))
              if method != "finish"]
    assert {method for method, _ in inputs} == (
        {"epoch", "roughtime", "nts"} | ({"network"} if name == "outage" else set()))
    for method, args in inputs:
        assert feed_input(feed_line(method, args)) == (method, args)


@pytest.mark.parametrize("name", ["step4s", "incr2us", "pull2us", "outage"])
def test_live_replay_of_a_simulated_run_matches_simulate(name, pin_cfg, tmp_path):
    # the feed lines carry everything simulate hands the engine, oscillator
    # wander and network changes included, so both commands must write the
    # same verdicts and the same state-machine history
    scenario = scenario_path(name, tmp_path)
    sim, live = tmp_path / "sim", tmp_path / "live"
    rc = main(["simulate", "--scenario", scenario, "--config", pin_cfg, "--out-dir", str(sim)])
    feed = write_feed(tmp_path, [feed_line(method, args) for method, args in
                                 scenario_inputs(gen_scenario(load_scenario(scenario)))
                                 if method != "finish"])
    assert main(["live", "--feed", feed, "--config", pin_cfg, "--out-dir", str(live)]) == rc
    for trace in ("verdicts.jsonl", "transitions.jsonl"):
        simulated = (sim / trace).read_bytes()
        assert simulated
        assert (live / trace).read_bytes() == simulated

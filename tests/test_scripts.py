"""The analysis scripts under scripts/ run to completion.

They call the pipeline's public functions; a changed signature shows up
here rather than the next time someone plots a figure.  What
export_traces.py writes is pinned in test_golden_outputs.py.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def checkout_env():
    """This process's environment with the checkout's src first on
    PYTHONPATH, so a child python runs the package under test, installed
    or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=300, env=checkout_env())


def test_export_traces_runs(tmp_path):
    done = run_script("export_traces.py", "--scenario", "step4s", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "traces.csv").read_text().count("\n") == 201
    assert (tmp_path / "feed.jsonl").is_file()


def test_benign_far_sweep_runs():
    done = run_script("benign_far_sweep.py", "--seeds", "1")
    assert done.returncode == 0, done.stderr
    assert "seed     1:" in done.stdout


def test_benign_far_sweep_fails_when_an_operational_alarm_fires(tmp_path):
    # no margin: the operational threshold is the quantile, which benign runs cross
    config = tmp_path / "no-margin.ini"
    config.write_text("[calibration]\nmargin = 0\n")
    done = run_script("benign_far_sweep.py", "--config", str(config), "--seeds", "1")
    assert done.returncode == 1, done.stdout + done.stderr
    assert "VIOLATION" in done.stdout

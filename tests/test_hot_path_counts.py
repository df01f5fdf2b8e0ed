"""Per-epoch construction counts on the engine's hot path, with no timing.

Scenario generation adds each epoch's time values as integer units and
builds one Timestamp per epoch, plus the Roughtime midpoint at a poll;
the filter state accepts an ordinary covariance with one inline
comparison and never reaches the general PSD check.  Both are counted
through the names the code calls them by, on a 2,000-epoch benign
scenario, so a change that brings back the per-epoch objects or the
general check fails here rather than as a slower benchmark.
"""

import sys

from timeguard import ensemble, timebase
from timeguard.attack_sim import ScenarioSpec, gen_scenario
from timeguard.config import default_config
from timeguard.pipeline import run_scenario

BENIGN = ScenarioSpec(name="benign2k", duration_epochs=2_000, seed=21)


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
    states = count_calls(monkeypatch, ensemble, "kf_predict")
    # the default config calibrates the ll first, which runs the filter too
    _, result = run_scenario(BENIGN, default_config())
    assert result.report.final_phase == "FINE_MONITORING"
    assert len(states) >= 2_000
    assert checks == []

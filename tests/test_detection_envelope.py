"""The detection envelope: which test catches which attack, and how fast.

Each row runs one generated scenario through the full stack with ll
pinned to its calibration and pins, per test, whether it detected the
attack and its latency in epochs, the false-alarm count and the final
phase.  The rows cover what the bundled scenarios do not: meacon
delays, cold-start steps (onset at epoch 0), a 1 µs warm step and a
compromised NTS provider.

The rows record today's envelope, gaps included.  Planned work changes
some of them on purpose: an alarm that clears only on H0 from a test
that can see the attack holds the cold-start runs in ALARM, several
providers per test stop blaming GNSS for one lying provider, and a
pooled NTS statistic lowers the cold-start floor.  Such a change edits
its rows here and says why.
"""

import pytest
from test_pipeline import CFG

from timeguard.attack_sim import AttackSpec, NetworkSpec, ScenarioSpec
from timeguard.pipeline import run_scenario

NO = None  # not detected

# (name, attack, extra spec fields, latency per test, false alarms, final phase)
ENVELOPE = [
    ("meacon500us", AttackSpec(kind="meacon_delay", offset_s=500e-6, onset_epoch=100), {},
     {"rt": NO, "nts": 20, "ll": 0}, 0, "ALARM"),
    ("meacon100us", AttackSpec(kind="meacon_delay", offset_s=100e-6, onset_epoch=100), {},
     {"rt": NO, "nts": 80, "ll": 0}, 0, "ALARM"),
    ("meacon50us", AttackSpec(kind="meacon_delay", offset_s=50e-6, onset_epoch=100), {},
     {"rt": NO, "nts": NO, "ll": 0}, 0, "ALARM"),
    ("cold500us", AttackSpec(kind="step", offset_s=500e-6, onset_epoch=0), {},
     {"rt": NO, "nts": 0, "ll": NO}, 0, "COARSE_VALIDATED"),
    ("cold100us", AttackSpec(kind="step", offset_s=100e-6, onset_epoch=0), {},
     {"rt": NO, "nts": 0, "ll": NO}, 0, "FINE_MONITORING"),
    ("cold10us", AttackSpec(kind="step", offset_s=10e-6, onset_epoch=0), {},
     {"rt": NO, "nts": NO, "ll": NO}, 0, "FINE_MONITORING"),
    ("step1us", AttackSpec(kind="step", offset_s=1e-6, onset_epoch=100), {},
     {"rt": NO, "nts": NO, "ll": 2}, 0, "ALARM"),
    ("cold5ms", AttackSpec(kind="step", offset_s=5e-3, onset_epoch=0),
     {"duration_epochs": 300, "seed": 77},
     {"rt": NO, "nts": 0, "ll": NO}, 0, "COARSE_VALIDATED"),
    ("provider1ms", AttackSpec(),
     {"seed": 9, "network": NetworkSpec(mode="provider_compromise", provider_bias_s=1e-3)},
     {"rt": NO, "nts": NO, "ll": NO}, 20, "COARSE_VALIDATED"),
]


@pytest.mark.parametrize(("name", "attack", "extra", "latency", "false_alarms", "phase"),
                         ENVELOPE, ids=[row[0] for row in ENVELOPE])
def test_detection_envelope(name, attack, extra, latency, false_alarms, phase):
    spec = ScenarioSpec(**{"name": name, "duration_epochs": 600, "seed": 11,
                           "attack": attack, **extra})
    report = run_scenario(spec, CFG)[1].report
    got = {test: outcome.latency_epochs if outcome.detected else NO
           for test, outcome in report.outcomes.items()}
    assert got == latency
    assert report.false_alarms == false_alarms
    assert report.final_phase == phase

"""The benchmark's spans still name functions that exist, its post-hooks
still read what those functions return, and its provider round still runs.

perfbench times a layer by replacing a module-level name in timeguard;
a renamed or deleted function is only reported as missing there, and its
per-layer metrics read 0.  A post-hook that cannot read its layer's
result is only counted as ``unreadable.<span>``, and the counter it
feeds reads 0.  A provider round that no longer runs against the test
servers fails only the benchmark's provider-polls workload.  These guards
fail instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from timeguard.detector import Hypothesis, LlConfig, LlDetectorState, Verdict, ll_step
from timeguard.ensemble import DEFAULT_OSCILLATOR, kf_init, kf_update
from timeguard.orchestrator import Event, EventKind, Phase, initial_state, step
from timeguard.timebase import MonotonicInstant

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tracing = load_perfbench("tracing")
NAMES = sorted(
    {(module, attr) for module, attr, *_ in tracing.LAYER_SPANS + tracing.PROVIDER_SPANS}
    | set(tracing.STAMP_NAMES)
)


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_span_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_post_hooks_read_what_the_layers_return():
    tracer = tracing.Tracer()
    t = MonotonicInstant(0)
    state = initial_state()
    h1 = Verdict(test="nts", hypothesis=Hypothesis.H1, statistic=1.0, threshold=0.5,
                 source_id="nts", t_mono=t)
    for event in (Event(EventKind.TICK, t),  # a self-loop
                  Event(EventKind.NTS_VERDICT, t, h1)):  # COLD_START to ALARM
        result = step(state, event)
        tracing._after_step(tracer, (state, event), result)
        state = result[0]
    assert state.phase is Phase.ALARM

    ll = LlDetectorState(LlConfig(m=2, lambda_T=100.0, sigma0_sq=1e-16))
    for bias_s in (1e-9, 1e-9):  # warm-up, then a verdict
        tracing._after_verdict(tracer, (ll, bias_s, t), ll_step(ll, bias_s, t))

    kf = kf_init()
    for z in (0.0, 1.0):  # inside the gate, then far outside it
        tracing._after_kf_update(tracer, (kf, DEFAULT_OSCILLATOR, z, 1e-18),
                                 kf_update(kf, DEFAULT_OSCILLATOR, z, 1e-18))

    assert tracer.counters == {"step.self_loops": 1, "verdicts.ll.H0": 1,
                               "kf_update.accepted": 1}


def test_the_provider_round_runs_against_the_test_servers():
    # poll_round checks each reply against what the servers were built to say
    polls = load_perfbench("polls")
    rt_ns, nts_ns = polls.poll_round(polls.build_providers(7))
    assert rt_ns > 0 and nts_ns > 0

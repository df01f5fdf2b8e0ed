#!/usr/bin/env python3
"""Check false-alarm calibration across fresh benign runs.

Fits the detection threshold on the calibration scenario, then replays
long benign runs under different seeds and counts how often the
statistic exceeds the fitted quantile.  The raw count is printed beside
its binomial 95% upper bound for the target rate, but it cannot be held
to it: the ll window overlaps m epochs, so crossings come in runs.  The
count over the statistics thinned to one per window length, which do not
overlap, is held to its own bound; the margin-padded operational
threshold should see no crossings at all.  Exits 1 when a thinned count
exceeds its bound or an operational alarm fires.  Each run's verdicts are
counted as they arrive and none is kept, so a run of any length sweeps in
flat memory.
"""

import argparse
import os
import sys
from dataclasses import replace

from scipy.stats import binom

from timeguard.attack_sim import builtin_scenarios, stream_scenario
from timeguard.config import apply_env, load_config
from timeguard.detector import Hypothesis
from timeguard.pipeline import Monitor, calibration_spec, fit_ll, scenario_inputs


class LlTally:
    """An on_verdict that counts a run's ll statistics as they arrive: all of
    them and every m-th (thinned), those of each at or over the threshold,
    the operational alarms, and the largest."""

    def __init__(self, threshold: float, m: int) -> None:
        self.threshold, self.m = threshold, m
        self.count = self.exceed = self.thinned = self.exceed_thinned = self.alarms = 0
        self.worst = float("-inf")

    def __call__(self, verdict) -> None:
        if verdict.test != "ll":
            return
        over = verdict.statistic >= self.threshold
        if self.count % self.m == 0:
            self.thinned += 1
            self.exceed_thinned += over
        self.count += 1
        self.exceed += over
        self.alarms += verdict.hypothesis is Hypothesis.H1
        self.worst = max(self.worst, verdict.statistic)


def bound(n: int, far: float) -> int:
    """The binomial 95% upper bound on crossings among n statistics."""
    return int(binom.ppf(0.95, n, far))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None)
    ap.add_argument("--seeds", type=int, nargs="*", default=[1001, 7, 8, 9, 10, 11, 12])
    args = ap.parse_args()

    config = apply_env(load_config(args.config), os.environ)
    far = config.calibration.far
    m = config.detector.ll.m
    cal = calibration_spec(config.calibration.scenario)
    fitted, operational = fit_ll((rec for rec, _, _ in stream_scenario(cal)), config)
    print(f"fitted quantile {fitted.lambda_T!r}, operational {operational.lambda_T!r}")
    pinned = replace(config, detector=replace(config.detector, ll=operational))

    base = builtin_scenarios()["benign10k"]
    worst = float("-inf")
    failed = False
    for seed in args.seeds:
        spec = replace(base, name=f"benign10k-s{seed}", seed=seed)
        tally = LlTally(fitted.lambda_T, m)
        monitor = Monitor(pinned, operational, on_verdict=tally)
        for name, inputs in scenario_inputs(spec):
            getattr(monitor, name)(*inputs)
        bound_thinned = bound(tally.thinned, far)
        worst = max(worst, tally.worst)
        ok = tally.exceed_thinned <= bound_thinned and tally.alarms == 0
        failed = failed or not ok
        print(
            f"seed {seed:>5}: {tally.exceed:>3} of {tally.count} over quantile"
            f" (95% bound {bound(tally.count, far)}), thinned by {m}:"
            f" {tally.exceed_thinned} of {tally.thinned}"
            f" (95% bound {bound_thinned}), {tally.alarms} operational alarms"
            f"  {'ok' if ok else 'VIOLATION'}"
        )
    print(f"worst benign statistic {worst!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

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
exceeds its bound or an operational alarm fires.
"""

import argparse
import os
import sys
from dataclasses import replace

from scipy.stats import binom

from timeguard.attack_sim import builtin_scenarios, gen_scenario
from timeguard.config import apply_env, load_config
from timeguard.detector import Hypothesis
from timeguard.pipeline import calibration_spec, fit_ll, run_scenario


def over(stats: list, threshold: float, far: float) -> tuple[int, int]:
    """Crossings of threshold among stats, and their binomial 95% upper bound."""
    return sum(s >= threshold for s in stats), int(binom.ppf(0.95, len(stats), far))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None)
    ap.add_argument("--seeds", type=int, nargs="*", default=[1001, 7, 8, 9, 10, 11, 12])
    args = ap.parse_args()

    config = apply_env(load_config(args.config), os.environ)
    far = config.calibration.far
    m = config.detector.ll.m
    fitted, operational = fit_ll(
        gen_scenario(calibration_spec(config.calibration.scenario)), config)
    print(f"fitted quantile {fitted.lambda_T!r}, operational {operational.lambda_T!r}")
    pinned = replace(config, detector=replace(config.detector, ll=operational))

    base = builtin_scenarios()["benign10k"]
    worst = float("-inf")
    failed = False
    for seed in args.seeds:
        spec = replace(base, name=f"benign10k-s{seed}", seed=seed)
        _, result = run_scenario(spec, pinned)
        stats = [v.statistic for v in result.verdicts if v.test == "ll"]
        exceed, bound = over(stats, fitted.lambda_T, far)
        thinned = stats[::m]
        exceed_thinned, bound_thinned = over(thinned, fitted.lambda_T, far)
        alarms = sum(
            v.test == "ll" and v.hypothesis is Hypothesis.H1 for v in result.verdicts
        )
        worst = max(worst, max(stats))
        ok = exceed_thinned <= bound_thinned and alarms == 0
        failed = failed or not ok
        print(
            f"seed {seed:>5}: {exceed:>3} of {len(stats)} over quantile"
            f" (95% bound {bound}), thinned by {m}: {exceed_thinned} of {len(thinned)}"
            f" (95% bound {bound_thinned}), {alarms} operational alarms"
            f"  {'ok' if ok else 'VIOLATION'}"
        )
    print(f"worst benign statistic {worst!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

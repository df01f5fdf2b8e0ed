#!/usr/bin/env python3
"""Check false-alarm calibration across fresh benign runs.

Fits the detection threshold on the calibration scenario, then replays
long benign runs under different seeds and counts how often the raw
statistic exceeds the fitted quantile.  Each count is compared against
the binomial 95% upper bound for the target rate; the margin-padded
operational threshold should see no crossings at all.
"""

import argparse
import os
import sys
from dataclasses import replace

from scipy.stats import binom

from timeguard.attack_sim import builtin_scenarios
from timeguard.config import apply_env, load_config
from timeguard.detector import Hypothesis
from timeguard.pipeline import fit_ll, run_scenario


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None)
    ap.add_argument("--seeds", type=int, nargs="*", default=[1001, 7, 8, 9, 10, 11, 12])
    args = ap.parse_args()

    config = apply_env(load_config(args.config), os.environ)
    far = config.calibration.far
    table = builtin_scenarios()
    fitted, operational = fit_ll(table[config.calibration.scenario], config)
    print(f"fitted quantile {fitted.lambda_T!r}, operational {operational.lambda_T!r}")
    pinned = replace(config, detector=replace(config.detector, ll=operational))

    base = table["benign10k"]
    worst = float("-inf")
    for seed in args.seeds:
        spec = replace(base, name=f"benign10k-s{seed}", seed=seed)
        _, result = run_scenario(spec, pinned)
        stats = [v.statistic for v in result.verdicts if v.test == "ll"]
        exceed = sum(s >= fitted.lambda_T for s in stats)
        bound = int(binom.ppf(0.95, len(stats), far))
        alarms = sum(
            v.test == "ll" and v.hypothesis is Hypothesis.H1 for v in result.verdicts
        )
        worst = max(worst, max(stats))
        flag = "ok" if exceed <= bound and alarms == 0 else "VIOLATION"
        print(
            f"seed {seed:>5}: {exceed:>3} of {len(stats)} over quantile"
            f" (95% bound {bound}), {alarms} operational alarms  {flag}"
        )
    print(f"worst benign statistic {worst!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Export per-epoch pipeline traces for plotting, and the run as a live feed.

Writes traces.csv with the injected offset, the filter's bias estimate,
and the innovation for every epoch of one scenario, from a Monitor fed the
scenario's inputs as they are generated, in the order simulate applies
them.  The verdicts and the
state-machine transitions of the same run are what `timeguard simulate
--format csv --out-dir DIR` writes; with both, any plotting tool can
reproduce the detection-timeline figures.

In the same pass it writes feed.jsonl, each of those inputs as its feed
line: `timeguard live --feed DIR/feed.jsonl` replays it to the verdicts
and transitions simulate writes.
"""

import argparse
import os
import sys
from pathlib import Path

from timeguard.attack_sim import attack_offset
from timeguard.config import apply_env, load_config, load_scenario
from timeguard.pipeline import Monitor, resolve_ll, scenario_inputs
from timeguard.receiver_feed import feed_line


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", required=True, help="bundled name or scenario INI")
    ap.add_argument("--config", default=None)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    config = apply_env(load_config(args.config), os.environ)
    monitor = Monitor(config, resolve_ll(config))
    spec = load_scenario(args.scenario)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "traces.csv", "w") as fh, open(out / "feed.jsonl", "w") as feed:
        fh.write("epoch,truth_offset_ns,xhat_bias_ns,innovation_ns\n")
        e = 0
        for name, inputs in scenario_inputs(spec):
            tracked = getattr(monitor, name)(*inputs)
            if name != "finish":
                feed.write(feed_line(name, inputs) + "\n")
            if name == "epoch":
                xhat, innovation = tracked
                fh.write(f"{e},{attack_offset(spec.attack, e) * 1e9:.6f},"
                         f"{xhat * 1e9:.6f},{innovation * 1e9:.6f}\n")
                e += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

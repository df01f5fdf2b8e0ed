#!/usr/bin/env python3
"""Export per-epoch pipeline traces for plotting.

Writes traces.csv with the injected offset, the filter's bias estimate,
and the innovation for every epoch of one scenario, plus every verdict
in verdicts.csv and, in transitions.jsonl, the orchestrator transitions
that change the phase or carry actions, as simulate writes them.  Any
plotting tool can reproduce the detection-timeline figures from these
files.
"""

import argparse
import os
import sys
from pathlib import Path

from timeguard.config import apply_env, load_config, load_scenario
from timeguard.pipeline import run_scenario, transition_writer, verdict_writer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", required=True, help="bundled name or scenario INI")
    ap.add_argument("--config", default=None)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    config = apply_env(load_config(args.config), os.environ)
    spec = load_scenario(args.scenario)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "transitions.jsonl", "w") as fh:
        outputs, result = run_scenario(spec, config, on_transition=transition_writer(fh))
    with open(out / "traces.csv", "w") as fh:
        fh.write("epoch,truth_offset_ns,xhat_bias_ns,innovation_ns\n")
        for e in range(len(outputs.epochs)):
            fh.write(
                f"{e},{outputs.truth_offset_s[e] * 1e9:.6f},"
                f"{result.xhat_bias_s[e] * 1e9:.6f},{result.innovation_s[e] * 1e9:.6f}\n"
            )
    with open(out / "verdicts.csv", "w") as fh:
        write_verdict = verdict_writer(fh, "csv")
        for verdict in result.verdicts:
            write_verdict(verdict)

    report = result.report
    print(f"{spec.name}: {len(outputs.epochs)} epochs -> {out}")
    for test in ("rt", "nts", "ll"):
        outcome = report.outcomes[test]
        status = f"latency {outcome.latency_epochs}" if outcome.detected else "quiet"
        print(f"  {test}: {status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

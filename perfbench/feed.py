"""Export a bundled scenario as a `timeguard live` feed.

Epoch lines use the receiver feed's JSONL record (``epoch_to_json``);
each scripted Roughtime or NTS response becomes an ``rt``/``nts`` line
stamped with its epoch's monotonic time, after that epoch's line.  The
order is the one ``simulate`` applies within an epoch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from timeguard.attack_sim import builtin_scenarios, gen_scenario
from timeguard.config import default_config
from timeguard.receiver_feed import epoch_to_json


@dataclass(frozen=True)
class FeedLine:
    text: str  # one JSON object, newline-terminated
    kind: str  # "epoch" | "rt" | "nts"
    t_mono_ns: int
    expects_verdict: bool
    nts_offset_s: float = 0.0


@dataclass(frozen=True)
class Feed:
    lines: tuple
    onset_ns: int

    @property
    def epochs(self) -> int:
        return sum(1 for line in self.lines if line.kind == "epoch")


def export_feed(scenario: str, seed: int) -> Feed:
    """The scenario with its PRNG seed replaced, as feed lines.

    Each line records whether the monitor answers it with a verdict.  A
    scripted measurement always gets one.  An epoch gets an ll verdict
    once the detector window holds m innovations since the last filter
    reset; the only reset is the one the first Roughtime verdict
    requests when it lifts the monitor out of COLD_START.
    """
    spec = replace(builtin_scenarios()[scenario], seed=seed)
    out = gen_scenario(spec)
    m = default_config().detector.ll.m
    lines = []
    since_reset = None  # epochs the ll window has taken since the reset
    for e, rec in enumerate(out.epochs):
        t = rec.t_mono.nanoseconds
        if since_reset is not None:
            since_reset += 1
        warm = since_reset is not None and since_reset >= m
        lines.append(FeedLine(epoch_to_json(rec) + "\n", "epoch", t, warm))
        rt = out.rt_responses.get(e)
        if rt is not None:
            obj = {"type": "rt", "t_mono_ns": t, "midpoint_unix_ns": rt.midpoint.to_ns(),
                   "radius_s": rt.radius.to_s(), "source_id": rt.server_id}
            lines.append(FeedLine(json.dumps(obj) + "\n", "rt", t, True))
            if since_reset is None:
                since_reset = 0
        nts = out.nts_responses.get(e)
        if nts is not None:
            offset_s = nts.offset.to_s()
            obj = {"type": "nts", "t_mono_ns": t, "offset_s": offset_s,
                   "delay_s": nts.delay.to_s(), "source_id": nts.server_id}
            lines.append(FeedLine(json.dumps(obj) + "\n", "nts", t, True, offset_s))
    onset_ns = out.epochs[spec.attack.onset_epoch].t_mono.nanoseconds
    return Feed(lines=tuple(lines), onset_ns=onset_ns)

"""GNSS receiver time-solution epochs and their JSONL feed record.

An EpochRecord is the object every detector tests: the receiver's UTC
solution at full 2^-64 s resolution, stamped with the local monotonic
instant it arrived at.  simulate writes one JSON object per epoch and
live reads the same record back, one feed line at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .timebase import MonotonicInstant, Timestamp


class FeedError(Exception):
    """A feed record that cannot be turned into an epoch."""


@dataclass(frozen=True)
class EpochRecord:
    """One receiver time-solution epoch, the object every detector tests."""

    t_mono: MonotonicInstant
    t_gnss: Timestamp
    fix_valid: bool
    leap_applied: bool = True
    clock_bias_ns: Optional[int] = None
    source_id: str = "gnss"


def epoch_to_json(rec: EpochRecord) -> str:
    return json.dumps(
        {
            "t_mono_ns": rec.t_mono.nanoseconds,
            "t_gnss": {"sec": rec.t_gnss.seconds, "frac": str(rec.t_gnss.fraction)},
            "fix_valid": rec.fix_valid,
            "leap_applied": rec.leap_applied,
            "clock_bias_ns": rec.clock_bias_ns,
            "source_id": rec.source_id,
        },
        separators=(",", ":"),
    )


def epoch_from_json(obj: dict) -> EpochRecord:
    """The EpochRecord of one decoded feed line; FeedError if it is malformed."""
    try:
        return EpochRecord(
            t_mono=MonotonicInstant(int(obj["t_mono_ns"])),
            t_gnss=Timestamp(int(obj["t_gnss"]["sec"]), int(obj["t_gnss"]["frac"])),
            fix_valid=bool(obj["fix_valid"]),
            leap_applied=bool(obj["leap_applied"]),
            clock_bias_ns=None if obj.get("clock_bias_ns") is None else int(obj["clock_bias_ns"]),
            source_id=str(obj.get("source_id", "gnss")),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise FeedError(f"malformed epoch record: {e}") from None

"""Microbenchmarks for the cryptographic hot paths.

Times the four operations that dominate a validation round trip:
Ed25519 signing and verification (response authenticity) and AES-SIV
sealing and opening (encrypted query extensions).  Each operation runs
over fixed payload sizes so the report doubles as a sanity check that
symmetric work stays well under the public-key budget.  The AEAD rows
call siv_seal and siv_open, which build the key schedule once per key,
so they time sealing and opening as the NTS client runs them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from .provider_nts import siv_open, siv_seal

PAYLOAD_SIZES = (1024, 8192)
OPERATIONS = ("sign", "verify", "aead-encrypt", "aead-decrypt")

_SIV_KEY = bytes(range(32)) + bytes(range(32))
_NONCE = b"\x5a" * 16


class BenchUsageError(ValueError):
    """Raised for nonsensical benchmark parameters."""


@dataclass(frozen=True)
class BenchRow:
    operation: str
    payload_bytes: int
    mean_latency_s: float
    ops_per_s: float


@dataclass(frozen=True)
class BenchReport:
    iterations: int
    rows: tuple[BenchRow, ...]

    def row(self, operation: str, payload_bytes: int) -> BenchRow:
        for r in self.rows:
            if r.operation == operation and r.payload_bytes == payload_bytes:
                return r
        raise KeyError(f"{operation}/{payload_bytes}")


# Rounds the cells are timed in, interleaved.  Each round runs every cell
# once for its share of the iterations, so a slow spell of the host falls
# on one round of several cells rather than on all of one cell.
ROUNDS = 10


def _elapsed(fn, count: int) -> float:
    """Wall-clock seconds for count back-to-back calls of fn."""
    start = time.perf_counter()
    for _ in range(count):
        fn()
    return max(time.perf_counter() - start, 1e-12)


def run_bench(iterations: int = 200) -> BenchReport:
    """Measure all operations over all payload sizes.

    The iterations are split over ROUNDS interleaved rounds (rounded up)
    and each cell reports its fastest round.  Latency and throughput come
    from that round's elapsed time, so ops_per_s is the exact reciprocal
    of mean_latency_s.
    """
    if iterations <= 0:
        raise BenchUsageError(f"iterations must be positive, got {iterations}")
    signer = Ed25519PrivateKey.generate()
    verifier = signer.public_key()
    cells = []
    for size in PAYLOAD_SIZES:
        payload = bytes(i & 0xFF for i in range(size))
        signature = signer.sign(payload)
        sealed = siv_seal(_SIV_KEY, payload, [_NONCE])
        cases = {
            "sign": lambda p=payload: signer.sign(p),
            "verify": lambda s=signature, p=payload: verifier.verify(s, p),
            "aead-encrypt": lambda p=payload: siv_seal(_SIV_KEY, p, [_NONCE]),
            "aead-decrypt": lambda c=sealed: siv_open(_SIV_KEY, c, [_NONCE]),
        }
        cells.extend((operation, size, cases[operation]) for operation in OPERATIONS)
    per_round = -(-iterations // ROUNDS)
    best = [math.inf] * len(cells)
    for _ in range(ROUNDS):
        for i, (_, _, fn) in enumerate(cells):
            best[i] = min(best[i], _elapsed(fn, per_round))
    rows = tuple(
        BenchRow(operation, size, elapsed / per_round, per_round / elapsed)
        for (operation, size, _), elapsed in zip(cells, best)
    )
    return BenchReport(iterations=iterations, rows=rows)


def format_table(report: BenchReport) -> str:
    header = f"{'operation':<14} {'payload':>8} {'mean latency':>14} {'ops/s':>12}"
    lines = [header, "-" * len(header)]
    for r in report.rows:
        lines.append(
            f"{r.operation:<14} {r.payload_bytes:>7}B {r.mean_latency_s * 1e6:>11.2f} us"
            f" {r.ops_per_s:>12.0f}"
        )
    return "\n".join(lines)


def bench_to_json(report: BenchReport) -> str:
    payload = {
        "iterations": report.iterations,
        "rows": [
            {
                "operation": r.operation,
                "payload_bytes": r.payload_bytes,
                "mean_latency_s": r.mean_latency_s,
                "ops_per_s": r.ops_per_s,
            }
            for r in report.rows
        ],
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)

"""Tests for the crypto microbenchmarks."""

import json

import pytest

from timeguard.bench import (
    OPERATIONS,
    PAYLOAD_SIZES,
    BenchReport,
    BenchRow,
    BenchUsageError,
    bench_to_json,
    format_table,
    run_bench,
)

REPORT = run_bench(iterations=50)


def test_all_cells_present():
    seen = {(r.operation, r.payload_bytes) for r in REPORT.rows}
    assert seen == {(op, size) for op in OPERATIONS for size in PAYLOAD_SIZES}


def test_throughput_is_reciprocal_latency():
    for r in REPORT.rows:
        assert r.ops_per_s == pytest.approx(1.0 / r.mean_latency_s, rel=1e-9)


def test_latencies_positive_and_plausible():
    for r in REPORT.rows:
        assert 0.0 < r.mean_latency_s < 0.1


def test_aead_beats_public_key_verify():
    for size in PAYLOAD_SIZES:
        verify = REPORT.row("verify", size).mean_latency_s
        for op in ("aead-encrypt", "aead-decrypt"):
            assert REPORT.row(op, size).mean_latency_s < verify


def test_zero_iterations_rejected():
    with pytest.raises(BenchUsageError):
        run_bench(iterations=0)
    with pytest.raises(BenchUsageError):
        run_bench(iterations=-5)


def test_repeat_runs_agree_roughly():
    again = run_bench(iterations=50)
    for r in REPORT.rows:
        other = again.row(r.operation, r.payload_bytes)
        ratio = r.ops_per_s / other.ops_per_s
        assert 1 / 3 < ratio < 3


def test_table_has_all_rows():
    table = format_table(REPORT)
    for op in OPERATIONS:
        assert op in table
    assert "1024B" in table and "8192B" in table


def test_json_round_trip():
    report = BenchReport(iterations=7, rows=(BenchRow("verify", 1024, 0.25, 4.0),))
    assert json.loads(bench_to_json(report)) == {
        "iterations": 7,
        "rows": [{"operation": "verify", "payload_bytes": 1024, "mean_latency_s": 0.25,
                  "ops_per_s": 4.0}],
    }

"""One fresh timeguard process, as the benchmark launches it.

    python3 perfbench/monitor.py SUMMARY.json TRACE -- <timeguard CLI args>

Imports timeguard from the checkout's ``src``, runs ``timeguard.cli.main``
with the given arguments and, when it returns, writes SUMMARY.json: the
CLOCK_MONOTONIC instants at interpreter start and after the import, the
segment boundaries (``tracing.stamp``), the exit code, peak resident
memory and the spans.  The parent reads these instants against its own
CLOCK_MONOTONIC, which is shared by every process on the host.

``resolve_ll`` is always wrapped (one call per run) so the parent can
split set-up from run time: it is timed by a span and fills a segment of
its own.  The run starts and ends on a segment boundary.  TRACE=0 also
puts one before every STAMP_EVERY-th call of the per-record functions
``tracing.STAMP_NAMES``, which cuts the run into segments of a few
milliseconds; TRACE=1 installs the per-layer spans instead.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
STAMP_EVERY = 64
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    summary_path, trace = sys.argv[1], sys.argv[2] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]

    import timeguard.cli

    t_imported = time.monotonic()
    import tracing

    tracer = tracing.Tracer()
    if trace:
        tracing.install(tracer, tracing.LAYER_SPANS)
        if "--out-dir" in cli_args:
            tracing.install_file_spans(tracer, cli_args[cli_args.index("--out-dir") + 1])
    else:
        tracing.install(tracer, (tracing.CALIBRATION_SPAN,))
        tracing.install_stamps(tracer, STAMP_EVERY)
    tracing.bracket_setup(tracer)
    tracing.stamp(tracer.stamps)
    rc = timeguard.cli.main(cli_args)
    sys.stdout.flush()
    tracing.stamp(tracer.stamps)
    summary = {
        "t_start": T_START,
        "t_imported": t_imported,
        "exit_code": rc,
        "peak_rss_kib": tracing.peak_rss_kib(),
        "trace": tracer.to_json(),
    }
    Path(summary_path).write_text(json.dumps(summary))
    return rc


if __name__ == "__main__":
    sys.exit(main())

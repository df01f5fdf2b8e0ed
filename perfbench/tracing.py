"""Spans around timeguard's public functions, recorded from outside the package.

The benchmark never edits timeguard.  To time a layer it replaces the
module-level name that callers look up (``timeguard.pipeline.kf_update``,
``timeguard.cli.step``, ...) with a wrapper that records a span.  A
function is patched in every loaded timeguard module that holds it, so a
caller that imports it under another module still goes through the span.

A name that no longer exists is reported as missing and skipped: the
workload keeps running, that layer's metrics read 0, and
``trace.missing_names`` counts it.

Spans keep a stack, so each span knows how much of its interval its
children covered; self time is duration minus that.  Spans opened inside a
scope span (calibration, the in-process test servers) are keyed
``<scope>/<name>`` so that set-up and server work stay apart from the
per-epoch and client-side figures.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

_now = time.perf_counter_ns


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    """In-memory span aggregates plus the counters post-hooks record."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self.stamps: list = []  # [end, start] CLOCK_MONOTONIC ns, see stamp()
        self._stack: list[list] = []  # [key, start_ns, child_ns, scope]
        self._scopes: list[str] = []

    # -- spans ---------------------------------------------------------

    def begin(self, name: str, scope: Optional[str] = None) -> None:
        key = f"{self._scopes[-1]}/{name}" if self._scopes else name
        if scope is not None:
            self._scopes.append(scope)
        self._stack.append([key, _now(), 0, scope])

    def end(self) -> None:
        t1 = _now()
        key, t0, child_ns, scope = self._stack.pop()
        if scope is not None:
            self._scopes.pop()
        duration = t1 - t0
        if self._stack:
            self._stack[-1][2] += duration
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = SpanStats()
        s.calls += 1
        s.total_ns += duration
        s.self_ns += duration - child_ns

    @property
    def scoped(self) -> bool:
        """Inside a scope span: calibration or a test server."""
        return bool(self._scopes)

    def count(self, name: str, by: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def wrap(self, fn: Callable, name: str, scope: Optional[str] = None,
             after: Optional[Callable] = None) -> Callable:
        """fn behind a span; after(tracer, args, result) runs outside the span."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name, scope)
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if after is not None:
                try:
                    after(self, args, result)
                except (AttributeError, TypeError, ValueError):
                    # the layer's result changed shape; keep timing it
                    self.count(f"unreadable.{name}")
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reading -------------------------------------------------------

    def get(self, key: str) -> SpanStats:
        return self.stats.get(key, SpanStats())

    def mean_us(self, key: str) -> float:
        s = self.get(key)
        return s.total_ns / s.calls / 1e3 if s.calls else 0.0

    def to_json(self) -> dict:
        return {
            "stats": {k: [s.calls, s.total_ns, s.self_ns] for k, s in self.stats.items()},
            "counters": self.counters,
            "missing": self.missing,
            "stamps": self.stamps,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Tracer":
        t = cls()
        t.stats = {k: SpanStats(*v) for k, v in obj["stats"].items()}
        t.counters = dict(obj["counters"])
        t.missing = list(obj["missing"])
        t.stamps = list(obj["stamps"])
        return t


def peak_rss_kib() -> int:
    """Peak resident memory of this process since its exec (VmHWM).

    ``getrusage``'s ``ru_maxrss`` is no good here: Linux carries it over
    ``exec``, so a child started from a larger parent reports the parent's
    peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


# -- patching ----------------------------------------------------------------


def _timeguard_modules() -> list:
    # timeguard.bench keeps the bare primitives: it is the crypto floor
    # the spans are compared against
    return [m for name, m in list(sys.modules.items())
            if m is not None and name != "timeguard.bench"
            and (name == "timeguard" or name.startswith("timeguard."))]


def _patch(tracer: Tracer, module: str, attr: str, make_wrapper: Callable) -> bool:
    """Replace every loaded reference to module.attr by make_wrapper(it).

    Returns False, and records the name as missing, when the module or
    the attribute does not exist.
    """
    try:
        original = getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        tracer.missing.append(f"{module}.{attr}")
        return False
    wrapped = make_wrapper(original)
    for mod in _timeguard_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
    return True


def patch_everywhere(tracer: Tracer, module: str, attr: str, name: str,
                     scope: Optional[str] = None, after: Optional[Callable] = None) -> bool:
    """Route every loaded reference to module.attr through a span."""
    return _patch(tracer, module, attr, lambda fn: tracer.wrap(fn, name, scope, after))


# Iterations of the reference loop.  It takes about 3 us on a 2-vCPU VM:
# long enough to read with the monotonic clock, short enough to leave the
# segments it sits between undisturbed.
REFERENCE_LOOP = 100


def reference_ns() -> int:
    """Nanoseconds a fixed pure-Python loop takes now: the host's speed here."""
    now = time.monotonic_ns
    t0 = now()
    x = 0
    for i in range(REFERENCE_LOOP):
        x += i
    return now() - t0


def stamp(stamps: list) -> None:
    """Close a segment, time the reference loop, and open the next one.

    Appends ``[end, start]``: the CLOCK_MONOTONIC ns at which the segment
    before ended and the next one starts.  The reference loop runs
    between the two and belongs to neither segment.
    """
    end = time.monotonic_ns()
    stamps.append([end, end + reference_ns()])


# The calls that cut an untraced run into segments: the time arithmetic of
# scenario generation, the engine's state machine, and the per-record
# writers of the trace files and of live's verdicts.  On benign10k they
# are called about 84,000 times, from the start of generation to the last
# trace file.
STAMP_NAMES = (
    ("timeguard.timebase", "ts_add"),
    ("timeguard.orchestrator", "step"),
    ("timeguard.receiver_feed", "epoch_to_json"),
    ("timeguard.detector", "verdict_to_json"),
    ("timeguard.orchestrator", "transition_to_json"),
)


def install_stamps(tracer: Tracer, every: int) -> None:
    """A segment boundary (``stamp``) before every `every`-th call of STAMP_NAMES.

    This is no span: one shared counter, so an untraced run can be cut
    into segments that cover the same input in every repetition (see
    ``run.median_cost``).  Calls inside a scope span, such as calibration,
    are not counted, so set-up stays within one segment.
    """
    stamps = tracer.stamps
    calls = 0

    def make(fn: Callable) -> Callable:
        def stamped(*args, **kwargs):
            nonlocal calls
            if not tracer.scoped:
                calls += 1
                if calls % every == 0:
                    stamp(stamps)
            return fn(*args, **kwargs)

        return stamped

    for module, attr in STAMP_NAMES:
        _patch(tracer, module, attr, make)


def bracket_setup(tracer: Tracer) -> bool:
    """Segment boundaries right before and after ``resolve_ll``.

    The calibration, set-up work, then fills one segment of its own, whose
    index goes to ``counters["setup_segment"]``; the parent leaves that
    segment out of the run.
    """
    stamps = tracer.stamps

    def make(fn: Callable) -> Callable:
        def bracketed(*args, **kwargs):
            stamp(stamps)
            tracer.counters["setup_segment"] = len(stamps) - 1
            try:
                return fn(*args, **kwargs)
            finally:
                stamp(stamps)

        return bracketed

    return _patch(tracer, "timeguard.pipeline", "resolve_ll", make)


# -- post-hooks: counts read from a layer's results --------------------------


def _after_kf_update(tracer: Tracer, args: tuple, result) -> None:
    if not tracer.scoped:
        tracer.count("kf_update.accepted", bool(result.accepted))


def _after_verdict(tracer: Tracer, args: tuple, result) -> None:
    if result is not None and not tracer.scoped:
        tracer.count(f"verdicts.{result.test}.{result.hypothesis.value}")


def _after_step(tracer: Tracer, args: tuple, result) -> None:
    """A self-loop keeps phase and active source and requests no action."""
    if tracer.scoped:
        return
    before = args[0]
    after, actions = result
    if (after.phase == before.phase and after.active_time_source == before.active_time_source
            and not actions):
        tracer.count("step.self_loops")


# (defining module, function, span name, scope, post-hook)
CALIBRATION_SPAN = ("timeguard.pipeline", "resolve_ll", "pipeline.resolve_ll", "setup", None)

LAYER_SPANS = (
    CALIBRATION_SPAN,
    ("timeguard.pipeline", "training_residuals", "pipeline.training_residuals", None, None),
    ("timeguard.detector", "calibrate_ll", "detector.calibrate_ll", None, None),
    ("timeguard.attack_sim", "gen_scenario", "attack_sim.gen_scenario", None, None),
    ("timeguard.pipeline", "run_scenario", "pipeline.run_scenario", None, None),
    ("timeguard.pipeline", "local_bias_s", "pipeline.local_bias_s", None, None),
    ("timeguard.ensemble", "kf_predict", "ensemble.kf_predict", None, None),
    ("timeguard.ensemble", "kf_update", "ensemble.kf_update", None, _after_kf_update),
    ("timeguard.detector", "ll_step", "detector.ll_step", None, _after_verdict),
    ("timeguard.detector", "roughtime_test", "detector.roughtime_test", None, _after_verdict),
    ("timeguard.detector", "nts_test", "detector.nts_test", None, _after_verdict),
    ("timeguard.orchestrator", "step", "orchestrator.step", None, _after_step),
    ("timeguard.receiver_feed", "epoch_from_json", "receiver_feed.epoch_from_json", None, None),
    ("timeguard.orchestrator", "transition_to_json", "serialize.transition_to_json", None, None),
    ("timeguard.detector", "verdict_to_json", "serialize.verdict_to_json", None, None),
)

PROVIDER_SPANS = (
    ("timeguard.provider_roughtime", "build_request", "provider_roughtime.build_request",
     None, None),
    ("timeguard.provider_roughtime", "verify_response", "provider_roughtime.verify_response",
     None, None),
    ("timeguard.provider_nts", "build_nts_request", "provider_nts.build_nts_request", None, None),
    ("timeguard.provider_nts", "parse_nts_response", "provider_nts.parse_nts_response",
     None, None),
    ("timeguard.provider_nts", "siv_seal", "provider_nts.siv_seal", None, None),
    ("timeguard.provider_nts", "siv_open", "provider_nts.siv_open", None, None),
)


def install(tracer: Tracer, specs) -> None:
    for module, attr, name, scope, after in specs:
        patch_everywhere(tracer, module, attr, name, scope, after)


def install_file_spans(tracer: Tracer, out_dir: str) -> None:
    """Time each trace file from open to close, with its size.

    ``open`` is resolved through each module's globals before builtins, so
    a module-level ``open`` in every timeguard module catches every writer.
    simulate writes its files one after another, so the file spans nest
    like any other span.
    """
    import builtins

    real_open = builtins.open
    out_dir = os.path.realpath(out_dir)

    class _TimedFile:
        def __init__(self, fh, name: str) -> None:
            self._fh, self._name = fh, name

        def __getattr__(self, attr):
            return getattr(self._fh, attr)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.close()
            return False

        def close(self) -> None:
            if self._fh.closed:
                return
            self._fh.close()
            tracer.end()
            tracer.count(f"bytes.{self._name}", os.path.getsize(self._fh.name))

    def traced_open(file, mode="r", *args, **kwargs):
        path = os.path.realpath(os.fspath(file)) if isinstance(file, (str, os.PathLike)) else ""
        if "w" not in mode or os.path.dirname(path) != out_dir:
            return real_open(file, mode, *args, **kwargs)
        name = os.path.basename(path)
        tracer.begin(f"serialize.{name}")
        return _TimedFile(real_open(file, mode, *args, **kwargs), name)

    for mod in _timeguard_modules():
        mod.open = traced_open

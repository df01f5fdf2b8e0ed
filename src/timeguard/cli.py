"""Command-line front end.

Subcommands cover the operator workflows: replaying bundled or custom
scenarios (`simulate`), monitoring a live receiver feed with optional
real network providers (`live`), fitting detection thresholds
(`calibrate`), timing the crypto hot paths (`bench-crypto`), and
printing the effective configuration (`config dump`).

The provider clients, their UDP exchange and the crypto benchmark, which
load cryptography and socket, are imported only by the commands that run
them, and ssl only by an NTS-KE handshake.  OpenSSL's libcrypto comes with
numpy, with the config hash (`simulate`, `calibrate`, `config dump`) and
with the provider clients.  So `live` with scripted replies and a fitted
[ll] section starts without any of them, maps no OpenSSL library, and
loads no numpy, which only scenarios and calibration load.

Exit codes are a stable contract: 0 means the run completed with no
attack indication, 2 means at least one detector raised H1, and 1 means
the tool itself failed (bad usage, unreadable files, broken feed).
"""

from __future__ import annotations

import argparse
import base64
import codecs
import io
import os
import sys
from contextlib import ExitStack, nullcontext
from dataclasses import replace
from pathlib import Path
from typing import BinaryIO, Callable, Optional

from .attack_sim import gen_scenario, write_epochs_jsonl, write_truth_csv
from .config import (
    AppConfig,
    ConfigFileError,
    apply_env,
    config_sha256,
    dump_config,
    load_config,
    load_scenario,
)
from .detector import CalibrationError, Hypothesis, Verdict, estimate_server_sigma
from .orchestrator import Event, TransitionRecord
from .pipeline import (
    Monitor,
    calibration_spec,
    fit_ll,
    report_to_json,
    resolve_ll,
    run_scenario,
    transition_writer,
    verdict_writer,
)
from .receiver_feed import FeedError, NtsMeasurement, feed_input
from .timebase import MonotonicInstant, SignedDuration, TimeRangeError

EXIT_CLEAN = 0
EXIT_ERROR = 1
EXIT_ATTACK = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is taken by "attack detected"."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="timeguard", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    flags = {"--config": ("FILE", "INI config overlaying the defaults"),
             "--out-dir": ("DIR", "directory for trace files and reports")}

    def common(p: _Parser, *names: str) -> None:
        """Add the flags named, all of them if none: only those the command reads."""
        for name in names or flags:
            p.add_argument(name, metavar=flags[name][0], default=None, help=flags[name][1])

    p = sub.add_parser("simulate", help="replay a generated scenario end to end")
    common(p)
    p.add_argument("--scenario", required=True,
                   help="bundled scenario name or scenario INI path")
    p.add_argument("--seed-override", type=int, default=None, metavar="N",
                   help="replace the scenario's PRNG seed")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                   help="verdict trace format (default jsonl)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("live", help="monitor a receiver feed, polling real providers")
    common(p)
    p.add_argument("--feed", required=True, metavar="FILE",
                   help="JSONL feed path, named pipe, or - for stdin")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.set_defaults(fn=cmd_live)

    p = sub.add_parser("calibrate", help="fit detector thresholds from benign data")
    common(p)
    p.add_argument("--scenario", default=None,
                   help="benign scenario to fit against (default from config)")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("bench-crypto", help="time signing, verification, and AEAD")
    common(p, "--out-dir")
    p.add_argument("--iterations", type=int, default=200, metavar="N")
    p.set_defaults(fn=cmd_bench_crypto)

    p = sub.add_parser("config", help="inspect the effective configuration")
    common(p, "--config")
    p.add_argument("action", choices=("dump",))
    p.set_defaults(fn=cmd_config)
    return parser


def _effective_config(args: argparse.Namespace) -> AppConfig:
    return apply_env(load_config(args.config), os.environ)


def _out_dir(args: argparse.Namespace) -> Optional[Path]:
    if args.out_dir is None:
        return None
    path = Path(args.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- simulate ----------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    spec = load_scenario(args.scenario)
    if args.seed_override is not None:
        spec = replace(spec, seed=args.seed_override)

    # the transitions stream out during the run, as live writes them; the
    # other files follow one after another
    out = _out_dir(args)
    with (open(out / "transitions.jsonl", "w") if out is not None else nullcontext()) as fh:
        outputs, result = run_scenario(spec, config,
                                       transition_writer(fh) if fh is not None else None)
    report = result.report
    if out is not None:
        with open(out / "epochs.jsonl", "w") as fh:
            write_epochs_jsonl(fh, outputs)
        with open(out / "truth.csv", "w") as fh:
            write_truth_csv(fh, spec)
        with open(out / f"verdicts.{args.format}", "w") as fh:
            write_verdict = verdict_writer(fh, args.format)
            for verdict in result.verdicts:
                write_verdict(verdict)
        with open(out / "report.json", "w") as fh:
            fh.write(report_to_json(report) + "\n")

    print(f"scenario {report.scenario}: {len(outputs.epochs)} epochs, "
          f"final phase {report.final_phase}")
    for test in ("rt", "nts", "ll"):
        outcome = report.outcomes[test]
        if outcome.detected:
            print(f"  {test}: detected, latency {outcome.latency_epochs} epochs")
        else:
            print(f"  {test}: no detection")
    print(f"  false alarms: {report.false_alarms}")
    print(report_to_json(report))
    return EXIT_ATTACK if report.any_h1 else EXIT_CLEAN


# -- live monitoring ---------------------------------------------------------


def udp_transport(host: str, port: int, timeout_s: float) -> Callable[[bytes], bytes]:
    """The provider clients' one UDP exchange: a request to host:port (IPv4,
    IPv6 or a name) and its reply, or TimeoutError after timeout_s."""
    import socket

    def send(request: bytes) -> bytes:
        family, _, _, _, address = socket.getaddrinfo(host, port, type=socket.SOCK_DGRAM)[0]
        with socket.socket(family, socket.SOCK_DGRAM) as sock:
            sock.settimeout(timeout_s)
            sock.sendto(request, address)
            return sock.recvfrom(65536)[0]

    return send


def _rt_poller(config: AppConfig):
    prov = config.providers
    if not prov.roughtime_host:
        return None
    from .provider_roughtime import RoughtimeServerKey, poll

    key = RoughtimeServerKey(
        public_key=base64.b64decode(prov.roughtime_pubkey_b64),
        host=prov.roughtime_host,
        port=prov.roughtime_port,
    )
    transport = udp_transport(key.host, key.port, prov.timeout_s)
    return lambda: poll(key, transport)


def _nts_poller(config: AppConfig):
    prov = config.providers
    if not prov.nts_ke_host:
        return None
    from .provider_nts import AuthenticationError, nts_ke_handshake, nts_query

    session = None

    def query() -> NtsMeasurement:
        # each query spends a cookie, a lost reply too: re-key once they run
        # out, or after a reply without a valid authenticator, such as a NAK
        # (RFC 8915 section 5.7): the server takes no more of them
        nonlocal session
        if session is None or not session.cookies:
            session = nts_ke_handshake(prov.nts_ke_host, prov.nts_ke_port,
                                       prov.nts_ca_file or None, prov.timeout_s)
        try:
            return nts_query(session, udp_transport(session.host, session.port, prov.timeout_s))
        except AuthenticationError:
            session = None
            raise

    return query


FEED_CHUNK = 8192  # the most bytes live reads from its feed at once


class _LiveSession:
    """Each feed line's input applied to the Monitor, and provider polling,
    with the verdict count and exit status; each applied verdict and
    transition goes on to its writer, whose files are the outputs."""

    def __init__(self, config: AppConfig, write_verdict: Callable[[Verdict], None],
                 on_transition: Optional[Callable[[Event, TransitionRecord], None]],
                 outputs: tuple) -> None:
        self.write_verdict = write_verdict
        self.outputs = outputs
        orc = config.orchestrator
        self.pollers = [
            (which, poller, int(cadence_s * 1e9))
            for which, poller, cadence_s in (("rt", _rt_poller(config), orc.rt_poll_s),
                                             ("nts", _nts_poller(config), orc.nts_poll_s))
            if poller is not None
        ]
        self.next_poll_ns: dict = {}
        self.h1_seen = False
        self.verdict_count = 0
        self.monitor = Monitor(config, resolve_ll(config), on_verdict=self.emit,
                               on_transition=on_transition)

    def emit(self, verdict: Verdict) -> None:
        self.verdict_count += 1
        if verdict.hypothesis is Hypothesis.H1:
            self.h1_seen = True
        self.write_verdict(verdict)

    def flush(self) -> None:
        for fh in self.outputs:
            fh.flush()

    def _poll(self, t: MonotonicInstant) -> None:
        """Poll each configured provider that is due at t."""
        for which, poller, cadence_ns in self.pollers:
            if t.nanoseconds < self.next_poll_ns.get(which, t.nanoseconds):
                continue
            self.flush()  # no verdict waits on the network
            try:
                measurement = poller()
            except Exception as e:
                print(f"timeguard: {which} poll failed: {e}", file=sys.stderr)
                self.monitor.network(False, t, repeat=True)
            else:
                self.monitor.network(True, t)
                # at the feed instant that polled it: t_mono_rx is host time
                apply = self.monitor.roughtime if which == "rt" else self.monitor.nts
                apply(replace(measurement, t_mono_rx=t))
            self.next_poll_ns[which] = t.nanoseconds + cadence_ns

    def consume(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            name, args = feed_input(line)
            # an epoch with a fix returns its tracking, and is where polls fall due
            if getattr(self.monitor, name)(*args) is not None and self.pollers:
                self._poll(args[0].t_mono)
        except FeedError as e:
            print(f"timeguard: {e}", file=sys.stderr)
        except Exception as e:
            print(f"timeguard: feed line rejected: {e}", file=sys.stderr)

    def follow(self, feed: BinaryIO) -> None:
        """Consume each line of a binary feed, one read1 of up to FEED_CHUNK
        bytes at a time, and flush the outputs before each read."""
        # No verdict waits on the input, and a run flushes once per read, not
        # once per line.  UTF-8 whatever the locale: a byte that is not UTF-8
        # spoils its line only, which is then skipped as unparseable.
        # "\r\n" and "\r" end a line as "\n" does; the last needs no end.
        decoder = io.IncrementalNewlineDecoder(
            codecs.getincrementaldecoder("utf-8")("replace"), translate=True)
        consume, read, rest = self.consume, feed.read1, ""
        while True:
            self.flush()
            chunk = read(FEED_CHUNK)
            lines = decoder.decode(chunk, final=not chunk).split("\n")
            lines[0] = rest + lines[0]
            rest = lines.pop()
            for line in lines:
                consume(line)
            if not chunk:
                break
        consume(rest)


def cmd_live(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    out = _out_dir(args)
    with ExitStack() as files:
        # block-buffered: the session flushes the outputs before live waits
        # on its input or on a provider
        if out is None:
            on_transition = None
            outputs = (sys.stdout,)
        else:
            transitions = files.enter_context(open(out / "transitions.jsonl", "w"))
            on_transition = transition_writer(transitions)
            outputs = (files.enter_context(open(out / f"verdicts.{args.format}", "w")),
                       transitions)
        session = _LiveSession(config, verdict_writer(outputs[0], args.format), on_transition,
                               outputs)
        session.follow(sys.stdin.buffer if args.feed == "-"
                       else files.enter_context(open(args.feed, "rb")))
        session.monitor.finish()
        session.flush()

    print(
        f"live: {session.verdict_count} verdicts, final phase {session.monitor.state.phase.value},"
        f" active source {session.monitor.state.active_time_source}",
        file=sys.stderr,
    )
    return EXIT_ATTACK if session.h1_seen else EXIT_CLEAN


# -- calibration -------------------------------------------------------------


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    name = args.scenario if args.scenario is not None else config.calibration.scenario
    spec = calibration_spec(name)
    outputs = gen_scenario(spec)

    fitted, operational = fit_ll(outputs, config)

    nts_poller = _nts_poller(config)
    if nts_poller is not None:
        history = [nts_poller() for _ in range(30)]
        sigma_source = f"nts server {config.providers.nts_ke_host}"
    else:
        responses = outputs.nts_responses
        history = [responses[k] for k in sorted(responses)]
        sigma_source = f"simulated provider in scenario {spec.name!r}"
    sigma = estimate_server_sigma(history)
    nts_lambda = config.detector.nts_sigma_k * sigma
    # the config loader refuses an nts_lambda_s that is not a positive duration
    try:
        nts_lambda_units = SignedDuration.from_s(nts_lambda).units
    except (OverflowError, TimeRangeError):  # an infinite product, or one past 2^63 s
        raise CalibrationError(f"nts_lambda_s {nts_lambda!r} s is past the duration range: "
                               f"nts_sigma_k {config.detector.nts_sigma_k!r} times "
                               f"sigma {sigma!r} s") from None
    if nts_lambda_units <= 0:
        raise CalibrationError(f"nts_lambda_s {nts_lambda!r} s is not a positive duration: "
                               f"the NTS offsets have zero spread (sigma {sigma!r} s)")

    snippet = "\n".join(
        [
            f"# fitted from {spec.duration_epochs} benign epochs of scenario {spec.name!r}",
            f"# benign quantile at far={config.calibration.far!r}: {fitted.lambda_T!r}",
            f"# operational threshold adds margin {config.calibration.margin!r}",
            "[ll]",
            f"mu0 = {fitted.mu0!r}",
            f"sigma0_sq = {fitted.sigma0_sq!r}",
            f"lambda_t = {operational.lambda_T!r}",
            "",
            f"# sigma {sigma!r} s from {sigma_source}",
            "[detector]",
            f"nts_lambda_s = {nts_lambda!r}",
        ]
    )
    print(snippet)
    out = _out_dir(args)
    if out is not None:
        (out / "calibration.ini").write_text(snippet + "\n")
    return EXIT_CLEAN


# -- benchmarks --------------------------------------------------------------


def cmd_bench_crypto(args: argparse.Namespace) -> int:
    from .bench import BenchUsageError, bench_to_json, format_table, run_bench

    try:
        report = run_bench(iterations=args.iterations)
    except BenchUsageError as e:
        print(f"timeguard: error: {e}", file=sys.stderr)
        return EXIT_ERROR
    print(format_table(report))
    out = _out_dir(args)
    if out is not None:
        (out / "bench.json").write_text(bench_to_json(report) + "\n")
    return EXIT_CLEAN


# -- config ------------------------------------------------------------------


def cmd_config(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    sys.stdout.write(dump_config(config))
    print(f"# sha256 {config_sha256(config)}")
    return EXIT_CLEAN


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigFileError as e:
        print(f"timeguard: config error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        return EXIT_ERROR
    except Exception as e:
        print(f"timeguard: error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""The provider-polls workload's client and servers, and its set-up probe.

    python3 perfbench/polls.py SEED

run as a script, is one fresh client process: it imports the providers,
builds both test servers from SEED, mints the NTS session, makes one
checked round and prints one JSON line with the CLOCK_MONOTONIC instants
at interpreter start and when the first round is done, and its peak
resident memory.  The benchmark times set-up from its spawn to that
instant.  Any failure exits non-zero.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402


class RoundFailed(Exception):
    """A poll or query returned something other than what the server sent."""


class ServerClock:
    """Wraps a server transport and adds up the time spent inside it."""

    def __init__(self) -> None:
        self.ns = 0

    def wrap(self, transport):
        clock = time.perf_counter_ns

        def send(request: bytes) -> bytes:
            t0 = clock()
            try:
                return transport(request)
            finally:
                self.ns += clock() - t0

        return send


@dataclass
class Providers:
    rt_key: object
    rt_transport: object
    midpoint: object  # Timestamp the Roughtime server always reports
    radius: object  # SignedDuration
    session: object  # NtsSession
    nts_transport: object
    server: ServerClock
    target_cookies: int


def build_providers(seed: int, tracer=None) -> Providers:
    """Both test servers with keys and clocks drawn from the seed.

    The Roughtime clock is fixed, so the delegation certificate repeats
    across polls as it does on a real server for hours; each response
    carries a 64-leaf Merkle batch.
    """
    import random

    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
    from timeguard.provider_nts import NtsTestServer
    from timeguard.provider_roughtime import RoughtimeTestServer
    from timeguard.timebase import SignedDuration, Timestamp

    rng = random.Random(seed)
    midpoint_s = 1_600_000_000 + rng.randrange(200_000_000)
    radius_s = 1 + rng.randrange(10)
    rt = RoughtimeTestServer(
        now_unix_s=lambda: midpoint_s,
        radius_s=radius_s,
        batch_nonces=64,
        root_key=Ed25519PrivateKey.from_private_bytes(rng.randbytes(32)),
        delegated_key=Ed25519PrivateKey.from_private_bytes(rng.randbytes(32)),
    )
    nts = NtsTestServer(master_key=rng.randbytes(32))
    rt_send, nts_send = rt.transport, nts.transport
    if tracer is not None:
        rt_send = tracer.wrap(rt_send, "provider_roughtime.server_respond", scope="server")
        nts_send = tracer.wrap(nts_send, "provider_nts.server_handle_ntp", scope="server")
    server = ServerClock()
    session = nts.mint_session()
    return Providers(
        rt_key=rt.server_key,
        rt_transport=server.wrap(rt_send),
        midpoint=Timestamp.from_unix_s(midpoint_s),
        radius=SignedDuration.from_s(radius_s),
        session=session,
        nts_transport=server.wrap(nts_send),
        server=server,
        target_cookies=session.cookie_count(),
    )


def poll_round(p: Providers) -> tuple[int, int]:
    """Client nanoseconds of one Roughtime poll and one NTS query, checked."""
    from timeguard.provider_nts import nts_query
    from timeguard.provider_roughtime import poll

    clock = time.perf_counter_ns
    s0 = p.server.ns
    t0 = clock()
    m = poll(p.rt_key, transport=p.rt_transport)
    t1 = clock()
    s1 = p.server.ns
    n = nts_query(p.session, transport=p.nts_transport, target_cookies=p.target_cookies)
    t2 = clock()
    s2 = p.server.ns
    if m.midpoint != p.midpoint or m.radius != p.radius:
        raise RoundFailed(f"Roughtime poll measured {m.midpoint}/{m.radius}, "
                          f"server reports {p.midpoint}/{p.radius}")
    if n.delay.units < 0:
        raise RoundFailed("NTS query returned a negative delay")
    if p.session.cookie_count() != p.target_cookies:
        raise RoundFailed(f"cookie queue at {p.session.cookie_count()}, "
                          f"target {p.target_cookies}")
    return t1 - t0 - (s1 - s0), t2 - t1 - (s2 - s1)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    poll_round(build_providers(int(sys.argv[1])))
    t_ready = time.monotonic()
    import json

    import tracing

    print(json.dumps({"t_start": T_START, "t_ready": t_ready,
                      "peak_rss_kib": tracing.peak_rss_kib()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

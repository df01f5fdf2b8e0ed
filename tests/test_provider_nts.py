"""Tests for NTS key establishment, packet authentication, and queries."""

import binascii
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from loopback import Wire, ipv6_loopback, nts_ke, udp

from timeguard.cli import udp_transport
from timeguard.detector import CalibrationError, estimate_server_sigma
from timeguard.provider_nts import (
    AEAD_AES_SIV_CMAC_256,
    EF_AUTHENTICATOR,
    EF_COOKIE,
    EF_COOKIE_PLACEHOLDER,
    EF_UNIQUE_ID,
    AuthenticationError,
    CookieError,
    KE_MAX_RESPONSE,
    HandshakeError,
    KeRecord,
    NegotiationError,
    NtsError,
    NtsMeasurement,
    NtsSession,
    NtsTestServer,
    PacketError,
    ReplayError,
    UnreachableError,
    UnsynchronizedError,
    build_ke_request,
    build_nts_request,
    build_ntp_header,
    decode_authenticator,
    decode_ke_records,
    encode_authenticator,
    encode_ef,
    encode_ke_record,
    iter_efs,
    nts_export_keys,
    nts_ke_handshake,
    nts_query,
    offset_delay,
    pack_ntp64,
    parse_ke_response,
    read_ke_records,
    siv_open,
    siv_seal,
    tls13_exporter,
    unpack_ntp64,
)
from timeguard.timebase import FRAC_UNIT, MonotonicInstant, SignedDuration, Timestamp


def unhex(s):
    return binascii.unhexlify("".join(s.split()))


# -- AEAD vectors -----------------------------------------------------------


def test_siv_deterministic_vector():
    # RFC 5297 A.1
    key = unhex("fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    ad = unhex("101112131415161718191a1b1c1d1e1f2021222324252627")
    pt = unhex("112233445566778899aabbccddee")
    expect = unhex("85632d07c6e8f37f950acd320a2ecc9340c02b9690c4dc04daef7f6afe5c")
    assert siv_seal(key, pt, [ad]) == expect
    assert siv_open(key, expect, [ad]) == pt


def test_siv_request_authenticator_vector():
    # captured NTS request: empty plaintext, AD = NTP header + unique-ID +
    # cookie extension fields, 16-byte nonce
    key = unhex("2be26209fdc335d013aeb45aecd91f1aa4e1055b8f7fdae8c592b87d09200b74")
    nonce = unhex("7208a18a82f9a600130d32d05c9d74dd")
    ad = unhex(
        "23000020000000000000000000000000000000000000000000000000"
        "00000000000000000000000040478317 6d76ee40"
        "01040024 62733aee2f65b7078698f4f1b42cf4f8bb7149edd0b8a6d2426a823ca6563ff5"
        "02040068 ea0e3f0d0604300746b5d7c09f9e2a29a785c2b9b6d493971faefc47977295e2"
        "127b7dfddcfa59ed82e24e3294789bb20d7dddf8a5c7d9982ce752f0775ab86e985a57f2"
        "d34cac37d6621199d600a4fdaf6de2b8a70bfdd61b072c0910d5e57a1956a84c"
    )
    expect = unhex("464470e598f324b731647dde6191623e")
    assert siv_seal(key, b"", [ad, nonce]) == expect
    assert siv_open(key, expect, [ad, nonce]) == b""


def test_siv_cookie_vector_decrypts():
    key = unhex("3fc91575cf885a02820a019e846fa2a68c9aa6543f4c1ebabea74ca0d16aeda8")
    nonce = unhex("cd65766f2c8fb4cc6b8d5b7aca60c5ec")
    ct = unhex(
        "a507af99a998d8395e045f75ffa2be8c3b025e7b46a4f2472777e251e4fc36b7"
        "ed1287f362cd54b1152488c5873a6fc70ec582beb3640aaae23038c694939e8d"
        "71c51d88f6a6def90efc99906cd3c2cb"
    )
    assert len(siv_open(key, ct, [nonce])) == 64


def test_siv_shared_key_schedules_seal_and_open_across_threads():
    keys = [bytes([i]) * 32 for i in range(3)]
    failures = []

    def worker(n):
        for j in range(200):
            key, pt, ad = keys[(n + j) % 3], bytes([n, j % 256]) * 9, [b"ad", bytes([j % 256])]
            if siv_open(key, siv_seal(key, pt, ad), ad) != pt:
                failures.append((n, j))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_siv_tamper_rejected():
    key = bytes(32)
    ct = bytearray(siv_seal(key, b"payload!", [b"ad"]))
    ct[3] ^= 0x40
    with pytest.raises(AuthenticationError):
        siv_open(key, bytes(ct), [b"ad"])


# -- TLS exporter -----------------------------------------------------------


def test_tls13_exporter_against_openssl_vector():
    # frozen from a live TLS 1.3 handshake: the native keying-material
    # export of the peer stack produced `expect` for this exporter secret
    secret = unhex(
        "14e2f1aa52233d52ed5c0efc7bf79ce5ed24f5658cce8345b0edd0d1"
        "e736480cf6d55068265ed04917b40828ec26dd48"
    )
    expect = unhex("cfa1f2eb45f167f9273d5181e03dc62a302ca0e10f1211a6a1398c0bc12e99ac")
    out = tls13_exporter(secret, b"EXPORTER-network-time-security", b"", 32, "sha384")
    assert out == expect


def test_nts_export_keys_distinct_and_sized():
    c2s, s2c = nts_export_keys(bytes(48), "sha384")
    assert len(c2s) == len(s2c) == 32
    assert c2s != s2c


# -- NTS-KE records ---------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=0x7FFF),
            st.binary(max_size=32),
            st.booleans(),
        ),
        max_size=8,
    )
)
@settings(max_examples=150)
def test_ke_record_roundtrip(records):
    blob = b"".join(encode_ke_record(t, b, c) for t, b, c in records)
    assert list(decode_ke_records(blob)) == [KeRecord(t, c, b) for t, b, c in records]


def make_response(aead=AEAD_AES_SIV_CMAC_256, cookies=3, extra=()):
    recs = [
        KeRecord(1, True, struct.pack(">H", 0)),
        KeRecord(4, True, struct.pack(">H", aead)),
    ]
    recs += [KeRecord(5, False, bytes([i]) * 16) for i in range(cookies)]
    recs += list(extra)
    recs.append(KeRecord(0, True, b""))
    return recs


def test_parse_ke_response_ok():
    cookies, host, port = parse_ke_response(
        make_response(extra=[KeRecord(7, False, struct.pack(">H", 9123))])
    )
    assert len(cookies) == 3
    assert port == 9123


def test_parse_ke_response_wrong_aead():
    with pytest.raises(NegotiationError):
        parse_ke_response(make_response(aead=99))


def test_parse_ke_response_zero_cookies():
    with pytest.raises(HandshakeError):
        parse_ke_response(make_response(cookies=0))


def test_parse_ke_response_error_record():
    recs = [KeRecord(2, True, struct.pack(">H", 1)), KeRecord(0, True, b"")]
    with pytest.raises(HandshakeError):
        parse_ke_response(recs)


def test_parse_ke_response_unknown_critical():
    with pytest.raises(HandshakeError):
        parse_ke_response(make_response(extra=[KeRecord(0x70, True, b"")]))


@pytest.mark.parametrize("record", [
    *(KeRecord(2, True, body) for body in (b"", b"\x01", b"\x00\x01\x02")),  # Error
    *(KeRecord(7, False, body) for body in (b"", b"\x23", b"\x23\x00\x00")),  # Port
    KeRecord(6, False, b"ntp.example\xff"),  # Server, not ASCII
    KeRecord(6, False, "z\u00fcrich.example".encode()),
])
def test_parse_ke_response_refuses_a_malformed_record_body(record):
    with pytest.raises(HandshakeError):
        parse_ke_response(make_response(extra=[record]))


def test_build_ke_request_parses_back():
    recs = list(decode_ke_records(build_ke_request()))
    assert [r.rec_type for r in recs] == [1, 4, 0]
    assert all(r.critical for r in recs)


class FakeStream:
    """A socket whose recv hands out `data` `step` bytes at a time, then b""."""

    def __init__(self, data, step=4096):
        self.data, self.step, self.reads = data, step, 0

    def recv(self, bufsize):
        chunk = self.data[: min(self.step, bufsize)]
        self.data = self.data[len(chunk) :]
        self.reads += 1
        return chunk


RESPONSE = b"".join(encode_ke_record(r.rec_type, r.body, r.critical) for r in make_response())


def test_read_ke_records_one_byte_per_recv():
    stream = FakeStream(RESPONSE, step=1)
    assert read_ke_records(stream) == make_response()
    assert stream.reads == len(RESPONSE)


@pytest.mark.parametrize("trailer", [
    b"\x00",  # inside a header
    encode_ke_record(5, b"cookie", False)[:7],  # inside a body
    encode_ke_record(5, b"cookie", False),  # a whole record
])
def test_read_ke_records_ignores_bytes_after_end_of_message(trailer):
    assert read_ke_records(FakeStream(RESPONSE + trailer)) == make_response()
    assert read_ke_records(FakeStream(RESPONSE + trailer, step=5)) == make_response()


@pytest.mark.parametrize("cut", [1, 3, 4, 6, len(RESPONSE) - 2])
def test_read_ke_records_close_inside_a_record_is_refused(cut):
    # 1 and 3 end inside the first header, 4 and 6 inside its body, the last inside END's header
    with pytest.raises(HandshakeError):
        read_ke_records(FakeStream(RESPONSE[:cut]))
    with pytest.raises(HandshakeError):
        read_ke_records(FakeStream(RESPONSE[:cut], step=1))


class EndlessStream:
    """A socket whose recv hands out `record` over and over, `step` bytes at a
    time, and never an End of Message."""

    def __init__(self, record, step=4096):
        self.record, self.step, self.sent = record, step, 0

    def recv(self, bufsize):
        n = min(self.step, bufsize)
        start = self.sent % len(self.record)
        chunk = (self.record * (2 + n // len(self.record)))[start : start + n]
        self.sent += n
        return chunk


@pytest.mark.parametrize("record, step", [
    (encode_ke_record(3, b"\x00\x00", False), 4096),  # warnings
    (encode_ke_record(5, b"c" * 100, False), 7),  # cookies, a few bytes at a time
    (encode_ke_record(5, b"c" * 65_535, False), 4096),  # one record past the cap
])
def test_read_ke_records_refuses_a_response_with_no_end_past_the_cap(record, step):
    stream = EndlessStream(record, step)
    with pytest.raises(HandshakeError, match="End of Message"):
        read_ke_records(stream)
    assert KE_MAX_RESPONSE < stream.sent <= KE_MAX_RESPONSE + step


def test_read_ke_records_takes_an_honest_reply_well_inside_the_cap():
    # 8 cookies of 1 KiB, several times what a server sends
    records = make_response(cookies=0, extra=[KeRecord(5, False, bytes([i]) * 1024)
                                              for i in range(8)])
    response = b"".join(encode_ke_record(r.rec_type, r.body, r.critical) for r in records)
    assert 4 * len(response) < KE_MAX_RESPONSE
    assert read_ke_records(FakeStream(response, step=3)) == records


def test_read_ke_records_close_before_end_of_message_is_refused():
    without_end = RESPONSE[:-4]
    assert list(decode_ke_records(without_end)) == make_response()[:-1]
    with pytest.raises(HandshakeError):
        read_ke_records(FakeStream(without_end))
    with pytest.raises(HandshakeError):
        read_ke_records(FakeStream(b""))


# -- NTP timestamps and thetas ----------------------------------------------


def test_ntp64_roundtrip_exact():
    t = Timestamp.from_parts(1_689_120_000, 1 << 63)
    assert unpack_ntp64(pack_ntp64(t), t) == t


def test_ntp64_era_pivot():
    # era 0 runs out in 2036; the instant a word is read near picks its era,
    # the one within 2^31 s of that instant
    t = Timestamp.from_unix_s(2_300_000_000)  # beyond the era-0 range
    word = pack_ntp64(t)
    for near in (t, Timestamp.from_unix_s(t.seconds - 2**31),
                 Timestamp.from_unix_s(t.seconds + 2**31 - 1)):
        assert unpack_ntp64(word, near) == t
    era0 = unpack_ntp64(word, Timestamp.from_unix_s(t.seconds - 2**31 - 1))
    assert era0 == Timestamp.from_unix_s(t.seconds - 2**32)


ROLLOVER_UNIX_S = 2**32 - 2_208_988_800  # 2036-02-07 06:28:16 UTC, NTP era 1 begins


@pytest.mark.parametrize("t1_unix_s, server_unix_s", [
    (2_150_000_000, 2_150_000_000),  # both clocks in era 1
    (ROLLOVER_UNIX_S - 1, ROLLOVER_UNIX_S + 1),  # T1 in era 0, T2 and T3 in era 1
])
def test_query_reads_the_reply_in_the_era_of_t1(t1_unix_s, server_unix_s):
    server = NtsTestServer(clock=lambda: Timestamp.from_unix_s(server_unix_s))
    session = server.mint_session()
    m = nts_query(session, transport=server.transport,
                  clock_utc=lambda: Timestamp.from_unix_s(t1_unix_s))
    assert m.offset == SignedDuration.from_s(server_unix_s - t1_unix_s)
    assert m.delay == SignedDuration(0)


def test_offset_delay_symmetric_identity():
    t = [Timestamp.from_unix_s(v) for v in (0, 5, 6, 11)]
    theta, delta = offset_delay(*t)
    assert theta == SignedDuration(0)
    assert delta == SignedDuration.from_s(10)


def test_offset_delay_asymmetric():
    t = [Timestamp.from_unix_s(v) for v in (0, 5, 5, 8)]
    theta, delta = offset_delay(*t)
    assert theta == SignedDuration.from_s(1)
    assert delta == SignedDuration.from_s(8)


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=4, max_size=4))
@settings(max_examples=100)
def test_offset_antisymmetry(secs):
    t1, t2, t3, t4 = (Timestamp.from_unix_s(s) for s in secs)
    theta_fwd, _ = offset_delay(t1, t2, t3, t4)
    theta_rev, _ = offset_delay(t2, t1, t4, t3)
    assert theta_fwd.units == -theta_rev.units


# -- request/response layer -------------------------------------------------


def fixed_clock(values):
    queue = list(values)
    return lambda: queue.pop(0)


def test_request_layout_and_self_verify():
    server = NtsTestServer()
    session = server.mint_session(num_cookies=2)
    c2s = session.c2s
    req = build_nts_request(session, Timestamp.from_unix_s(100), num_placeholders=2)
    assert session.cookie_count() == 1  # one consumed
    kinds = [t for t, _b, _s, _e in iter_efs(req.data)]
    assert kinds == [
        EF_UNIQUE_ID,
        EF_COOKIE,
        EF_COOKIE_PLACEHOLDER,
        EF_COOKIE_PLACEHOLDER,
        EF_AUTHENTICATOR,
    ]
    for ef_type, body, start, _end in iter_efs(req.data):
        if ef_type == EF_AUTHENTICATOR:
            nonce, ct = decode_authenticator(body)
            assert siv_open(c2s, ct, [req.data[:start], nonce]) == b""


def test_request_empty_queue_raises():
    session = NtsSession(bytes(32), bytes(32), [], "127.0.0.1")
    with pytest.raises(CookieError):
        build_nts_request(session, Timestamp.from_unix_s(0))


def test_query_roundtrip_deterministic_clocks():
    t1 = Timestamp.from_unix_s(100)
    t2 = Timestamp.from_parts(101, 1 << 62)  # 101.25
    t3 = Timestamp.from_parts(101, 1 << 63)  # 101.5
    t4 = Timestamp.from_parts(100, 3 << 61)  # 100.375
    server = NtsTestServer(clock=fixed_clock([t2, t3]))
    session = server.mint_session()
    m = nts_query(
        session,
        transport=server.transport,
        clock_utc=fixed_clock([t1, t4]),
        mono=lambda: MonotonicInstant(7),
    )
    expect_theta, _ = offset_delay(t1, t2, t3, t4)
    assert m.offset == expect_theta
    assert m.offset.to_s() == pytest.approx(1.1875)
    assert m.delay.to_s() == pytest.approx(0.125)
    assert m.t_mono_rx.nanoseconds == 7
    assert session.cookie_count() == 8  # restocked to target


def test_cookie_single_use_and_restock():
    server = NtsTestServer()
    session = server.mint_session(num_cookies=8)
    seen = []

    def recording(request):
        for ef_type, body, _s, _e in iter_efs(request):
            if ef_type == EF_COOKIE:
                seen.append(bytes(body))
        return server.transport(request)

    for _ in range(5):
        nts_query(session, transport=recording, clock_utc=Timestamp.now_system)
        assert session.cookie_count() == 8
    assert len(seen) == 5
    assert len(set(seen)) == 5


def test_query_flipped_ciphertext_rejected():
    wire = Wire(NtsTestServer(), flip=True)
    session = wire.mint_session()
    with pytest.raises(AuthenticationError):
        nts_query(session, transport=wire.transport)


def test_query_wrong_unique_id_rejected():
    # a genuine authenticated reply, to the previous query: its unique
    # identifier is that query's
    wire = Wire(NtsTestServer())
    session = wire.mint_session()
    nts_query(session, transport=wire.transport)
    wire.replay = True
    with pytest.raises(ReplayError):
        nts_query(session, transport=wire.transport)


def test_query_timeout_unreachable():
    wire = Wire(NtsTestServer(), drop=True)
    session = wire.mint_session()
    with pytest.raises(UnreachableError):
        nts_query(session, transport=wire.transport)


def test_every_prefix_and_every_flipped_byte_of_a_reply_is_refused():
    """A reply cut short anywhere, or with one bit of any of its bytes
    flipped, is refused with an NtsError: no measurement, and no cookie
    joins the queue."""
    server = NtsTestServer()
    size = len(server.transport(build_nts_request(server.mint_session(1),
                                                  Timestamp.from_unix_s(0)).data))
    cuts = [lambda reply, n=n: reply[:n] for n in range(size)]
    flips = [lambda reply, i=i: reply[:i] + bytes([reply[i] ^ 1 << i % 8]) + reply[i + 1:]
             for i in range(size)]

    def through(damage):
        def transport(request):
            reply = server.transport(request)
            assert len(reply) == size
            return damage(reply)

        return transport

    session = server.mint_session(num_cookies=1)
    nts_query(session, through(lambda reply: reply), target_cookies=1)
    assert session.cookie_count() == 1  # the spent cookie, replaced
    for damage in cuts + flips:
        session = server.mint_session(num_cookies=1)
        with pytest.raises(NtsError):
            nts_query(session, through(damage), target_cookies=1)
        assert session.cookie_count() == 0


def test_measurement_rejects_negative_delay():
    with pytest.raises(ValueError):
        NtsMeasurement(SignedDuration(0), SignedDuration(-1), MonotonicInstant(0), "x")


def test_response_trailing_ef_rejected():
    server = NtsTestServer()
    session = server.mint_session()

    def appending(request):
        return server.transport(request) + encode_ef(EF_UNIQUE_ID, b"\x00" * 32)

    with pytest.raises(PacketError):
        nts_query(session, transport=appending)


def sealed_reply(s2c: bytes, request: bytes, t: Timestamp, plaintext: bytes = b"",
                 leap: int = 0, stratum: int = 1) -> bytes:
    """An authenticated reply to request, sealed under s2c around plaintext,
    with T2 = T3 = t and the leap indicator and stratum given."""
    unique_id = next(body for kind, body, _s, _e in iter_efs(request) if kind == EF_UNIQUE_ID)
    header = build_ntp_header(mode=4, tx=t, recv=pack_ntp64(t), stratum=stratum)
    ad = bytes([leap << 6 | header[0]]) + header[1:] + encode_ef(EF_UNIQUE_ID, unique_id)
    nonce = b"\x07" * 16
    return ad + encode_authenticator(nonce, siv_seal(s2c, plaintext, [ad, nonce]))


def test_a_reply_with_more_cookies_than_the_target_leaves_the_newest_target():
    server = NtsTestServer()
    session = server.mint_session()
    t = Timestamp.from_unix_s(1_700_000_000)
    cookies = [bytes([i]) * 100 for i in range(30)]
    plaintext = b"".join(encode_ef(EF_COOKIE, c) for c in cookies)

    m = nts_query(session, transport=lambda request: sealed_reply(session.s2c, request, t,
                                                                  plaintext),
                  clock_utc=lambda: t)
    assert m.offset == SignedDuration(0) and m.delay == SignedDuration(0)
    assert session.cookies == cookies[-8:]


@pytest.mark.parametrize("leap, stratum, synchronized", [
    (0, 1, True), (1, 2, True), (2, 15, True),
    (3, 16, False), (3, 1, False), (0, 16, False), (2, 255, False), (0, 0, False),
])
def test_a_reply_from_an_unsynchronized_server_is_refused(leap, stratum, synchronized):
    # a server an hour ahead: its reply, authenticated, vouches for its time
    # only while its header says it is synchronized (RFC 5905 section 7.3)
    session = NtsTestServer().mint_session()
    t = Timestamp.from_unix_s(1_700_000_000)
    ahead = Timestamp(t.units + 3600 * FRAC_UNIT)
    cookie = encode_ef(EF_COOKIE, b"\x05" * 100)

    def query():
        return nts_query(session, lambda request: sealed_reply(session.s2c, request, ahead, cookie,
                                                               leap, stratum),
                         clock_utc=lambda: t)

    if synchronized:
        assert query().offset == SignedDuration(3600 * FRAC_UNIT)
        assert len(session.cookies) == 8
        return
    with pytest.raises(UnsynchronizedError,
                       match=f"unsynchronized: leap indicator {leap}, stratum {stratum}$"):
        query()
    assert len(session.cookies) == 7  # the query spent one and took none
    # authentication comes first: the same header sealed under another key
    # is refused as unauthenticated
    session.s2c, s2c = session.c2s, session.s2c
    with pytest.raises(AuthenticationError):
        nts_query(session, lambda request: sealed_reply(s2c, request, ahead, cookie, leap, stratum),
                  clock_utc=lambda: t)


# -- sigma estimation -------------------------------------------------------


def meas(offset_s):
    return NtsMeasurement(
        SignedDuration.from_s(offset_s), SignedDuration(0), MonotonicInstant(0), "s"
    )


def test_sigma_constant_offsets():
    assert estimate_server_sigma([meas(150e-6)] * 30) == 0.0


def test_sigma_gaussian_offsets():
    rng = np.random.default_rng(5)
    history = [meas(x) for x in rng.normal(150e-6, 50e-6, 2000)]
    assert estimate_server_sigma(history) == pytest.approx(50e-6, rel=0.10)


def test_sigma_insufficient_history():
    with pytest.raises(CalibrationError):
        estimate_server_sigma([meas(0.0)] * 29)


# -- full TLS NTS-KE + UDP query -------------------------------------------


def test_ke_handshake_and_udp_query():
    with nts_ke(NtsTestServer()) as ke:
        session = nts_ke_handshake("127.0.0.1", ke.port, ke.ca_file, 5.0)
        assert session.cookie_count() == 8
        assert len(session.c2s) == len(session.s2c) == 32
        assert session.c2s != session.s2c
        assert session.port == ke.ntp_port
        m = nts_query(session, udp_transport(session.host, session.port, 2.0))
        assert abs(m.offset.to_s()) < 5.0  # same host clock both sides
        assert m.delay.units >= 0
        assert session.cookie_count() == 8


@pytest.mark.skipif(not ipv6_loopback(), reason="this host has no IPv6 loopback")
def test_query_over_udp_on_ipv6_loopback():
    server = NtsTestServer()
    session = server.mint_session()
    with udp(server, "::1") as port:
        session.host, session.port = "::1", port
        m = nts_query(session, udp_transport(session.host, session.port, 2.0))
    assert abs(m.offset.to_s()) < 5.0  # same host clock both sides
    assert session.cookie_count() == 8


@pytest.mark.skipif(not ipv6_loopback(), reason="this host has no IPv6 loopback")
def test_ke_handshake_and_udp_query_on_ipv6_loopback():
    with nts_ke(NtsTestServer(), "::1") as ke:
        session = nts_ke_handshake("::1", ke.port, ke.ca_file, 5.0)
        assert session.cookie_count() == 8
        assert (session.host, session.port) == ("::1", ke.ntp_port)
        m = nts_query(session, udp_transport(session.host, session.port, 2.0))
    assert abs(m.offset.to_s()) < 5.0  # same host clock both sides
    assert session.cookie_count() == 8


def test_ke_handshake_aead_mismatch():
    with nts_ke(NtsTestServer(offer_aead_id=77)) as ke:
        with pytest.raises(NegotiationError):
            nts_ke_handshake("127.0.0.1", ke.port, ke.ca_file, 5.0)


def test_ke_handshake_zero_cookies():
    with nts_ke(NtsTestServer(), send_zero_cookies=True) as ke:
        with pytest.raises(HandshakeError):
            nts_ke_handshake("127.0.0.1", ke.port, ke.ca_file, 5.0)


def test_ke_handshake_untrusted_cert():
    with nts_ke(NtsTestServer()) as ke:
        with pytest.raises(HandshakeError):
            nts_ke_handshake("127.0.0.1", ke.port, None, 5.0)

"""Tests for the Roughtime codec, verification chain, and poll loop."""

import hashlib
import socket
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from loopback import Wire, ipv6_loopback, udp

from timeguard import provider_roughtime
from timeguard.cli import udp_transport
from timeguard.provider_roughtime import (
    DELEGATION_CONTEXT,
    MIN_REQUEST_SIZE,
    RESPONSE_CONTEXT,
    TAG_CERT,
    TAG_DELE,
    TAG_MIDP,
    TAG_NONC,
    TAG_PATH,
    TAG_ROOT,
    TAG_SIG,
    TAG_SREP,
    TAG_VER,
    TAG_ZZZZ,
    VERSION,
    CertSignatureError,
    CodecError,
    DelegationWindowError,
    MerkleError,
    RoughtimeError,
    RoughtimeMeasurement,
    RoughtimeServerKey,
    RoughtimeTestServer,
    UnreachableError,
    build_request,
    decode_message,
    decode_request,
    encode_message,
    frame_packet,
    make_nonce,
    merkle_leaf,
    poll,
    unframe_packet,
    verify_response,
)
from timeguard.timebase import MonotonicInstant, SignedDuration, Timestamp

GOLDEN_NONCE = bytes(range(32))
# frozen once from the codec after hand-checking the layout against the
# framing rules: magic, framed length, offsets ascending multiples of 4,
# tags strictly ascending, version word, nonce verbatim, zero padding
GOLDEN_SHA256 = "7784bce675bf24f863e5bcb396c2173247a3dc3f2a19c9672eaac2359f54d93b"


def test_request_golden_bytes():
    req = build_request(GOLDEN_NONCE)
    assert len(req) == MIN_REQUEST_SIZE
    assert req[:8] == b"ROUGHTIM"
    assert hashlib.sha256(req).hexdigest() == GOLDEN_SHA256


def test_request_roundtrip_nonce():
    req = build_request(GOLDEN_NONCE)
    assert decode_request(req)[TAG_NONC] == GOLDEN_NONCE


def test_requests_differ_only_in_nonce():
    a = build_request(b"\x00" * 32)
    b = build_request(b"\xff" * 32)
    assert len(a) == len(b)
    diff = [i for i in range(len(a)) if a[i] != b[i]]
    # nonce value occupies bytes [12+24+4, 12+24+36) of the framed packet
    assert diff and all(40 <= i < 72 for i in diff)


def test_request_rejects_bad_nonce_length():
    with pytest.raises(CodecError):
        build_request(b"\x00" * 31)


@given(st.binary(min_size=32, max_size=32))
@settings(max_examples=100)
def test_request_equals_the_generic_construction(nonce):
    pairs = {TAG_VER: struct.pack("<I", VERSION), TAG_NONC: nonce, TAG_ZZZZ: b""}
    pad = max(0, MIN_REQUEST_SIZE - len(frame_packet(encode_message(pairs))))
    pairs[TAG_ZZZZ] = b"\x00" * (pad + (-pad) % 4)
    req = build_request(nonce)
    assert req == frame_packet(encode_message(pairs))
    assert len(req) == MIN_REQUEST_SIZE


# -- codec ------------------------------------------------------------------


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.binary(max_size=64).map(lambda b: b + b"\x00" * ((-len(b)) % 4)),
        max_size=8,
    )
)
@settings(max_examples=200)
def test_codec_roundtrip(pairs):
    assert decode_message(encode_message(pairs)) == pairs


def test_decode_rejects_truncation():
    msg = encode_message({TAG_NONC: b"\x00" * 32})
    with pytest.raises(CodecError):
        decode_message(msg[:7])


def test_decode_rejects_unsorted_tags():
    raw = struct.pack("<I", 2) + struct.pack("<I", 4) + struct.pack("<II", 7, 3) + b"\x00" * 8
    with pytest.raises(CodecError):
        decode_message(raw)


def test_decode_rejects_bad_offset():
    raw = struct.pack("<I", 2) + struct.pack("<I", 6) + struct.pack("<II", 1, 2) + b"\x00" * 8
    with pytest.raises(CodecError):
        decode_message(raw)


def reference_decode(data):
    """decode_message as it read one word at a time: the differential oracle."""
    if len(data) < 4:
        raise CodecError("message shorter than its count field")
    (count,) = struct.unpack_from("<I", data, 0)
    header_len = 4 + max(count - 1, 0) * 4 + count * 4
    if count > 0 and len(data) < header_len:
        raise CodecError(f"message truncated: {len(data)} bytes for {count} pairs")
    offsets = [0]
    pos = 4
    for _ in range(max(count - 1, 0)):
        (off,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if off % 4 != 0 or off < offsets[-1]:
            raise CodecError(f"offset {off} not ascending multiple of 4")
        offsets.append(off)
    tags = []
    for _ in range(count):
        (tag,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if tags and tag <= tags[-1]:
            raise CodecError(f"tag {tag:#010x} not strictly ascending")
        tags.append(tag)
    values_len = len(data) - header_len
    if count == 0:
        if values_len != 0:
            raise CodecError("pairless message with trailing bytes")
        return {}
    if offsets[-1] > values_len:
        raise CodecError(f"last offset {offsets[-1]} beyond value region {values_len}")
    bounds = offsets + [values_len]
    body = data[header_len:]
    return {tag: body[bounds[i] : bounds[i + 1]] for i, tag in enumerate(tags)}


def outcome(decode, data):
    try:
        return decode(data)
    except CodecError as e:
        return f"CodecError: {e}"


def assert_decoders_agree(data):
    assert outcome(decode_message, data) == outcome(reference_decode, data)


MESSAGES = st.dictionaries(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.binary(max_size=24).map(lambda b: b + b"\x00" * ((-len(b)) % 4)),
    max_size=6,
).map(encode_message)

# words near the ones a header holds, so a mutation often stays decodable
WORDS = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=64),
    st.sampled_from([2**32 - 1, 2**31, 2**29]),
)


@given(MESSAGES)
@settings(max_examples=150)
def test_decode_agrees_with_the_reference_on_valid_messages_and_every_truncation(msg):
    for end in range(len(msg) + 1):
        assert_decoders_agree(msg[:end])


# random words then a few random bytes, so short counts meet odd tails
RANDOM = st.one_of(
    st.binary(max_size=80),
    st.builds(
        lambda words, tail: struct.pack(f"<{len(words)}I", *words) + tail,
        st.lists(WORDS, max_size=10),
        st.binary(max_size=6),
    ),
)


@given(RANDOM)
@example(b"\x00" * 5)  # a pairless message with one trailing byte
@example(struct.pack("<3I", 2, 4, 7))  # a header cut inside its tags
@example(struct.pack("<4I", 2, 0, 7, 7))  # tied tags
@settings(max_examples=400)
def test_decode_agrees_with_the_reference_on_random_bytes(data):
    assert_decoders_agree(data)


@given(MESSAGES, st.data())
@settings(max_examples=400)
def test_decode_agrees_with_the_reference_on_one_mutated_header_word(msg, data):
    (count,) = struct.unpack_from("<I", msg, 0)
    header = struct.unpack_from(f"<{2 * count}I", msg, 0) if count else (0,)
    i = data.draw(st.integers(min_value=0, max_value=len(header) - 1))
    # another header word, or one off it, ties or inverts an ordering
    near = st.sampled_from(header).flatmap(
        lambda w: st.sampled_from([w, max(w - 1, 0), min(w + 1, 2**32 - 1)])
    )
    word = data.draw(st.one_of(WORDS, near))
    mutated = msg[: 4 * i] + struct.pack("<I", word) + msg[4 * i + 4 :]
    assert_decoders_agree(mutated)


def test_unframe_rejects_bad_magic():
    with pytest.raises(CodecError):
        unframe_packet(b"NOTROUGH" + struct.pack("<I", 0))


def test_unframe_rejects_length_mismatch():
    with pytest.raises(CodecError):
        unframe_packet(b"ROUGHTIM" + struct.pack("<I", 5) + b"\x00" * 4)


# -- verification -----------------------------------------------------------


def run_exchange(server, nonce=None):
    nonce = nonce if nonce is not None else make_nonce()
    resp = server.transport(build_request(nonce))
    return nonce, resp


def test_verify_happy_path():
    server = RoughtimeTestServer(now_unix_s=lambda: 1_689_120_000, radius_s=1)
    nonce, resp = run_exchange(server)
    m = verify_response(resp, nonce, server.server_key, MonotonicInstant(42))
    assert m.midpoint == Timestamp.from_unix_s(1_689_120_000)
    assert m.radius == SignedDuration.from_s(1)
    assert m.t_mono_rx.nanoseconds == 42
    assert m.server_id == server.server_key.fingerprint


def test_single_leaf_root_is_leaf_hash():
    # direct hash recompute: root of a one-request batch is H(0x00 || nonce)
    server = RoughtimeTestServer()
    nonce, resp = run_exchange(server)
    srep = decode_message(unframe_packet(resp))[TAG_SREP]
    root = decode_message(srep)[TAG_ROOT]
    expect = hashlib.sha512(b"\x00" + nonce).digest()[:32]
    assert root == expect == merkle_leaf(nonce)


def test_verify_wrong_longterm_key():
    server = RoughtimeTestServer()
    other = RoughtimeTestServer()
    nonce, resp = run_exchange(server)
    with pytest.raises(CertSignatureError):
        verify_response(resp, nonce, other.server_key, MonotonicInstant(0))


def test_verify_wrong_nonce_merkle_mismatch():
    server = RoughtimeTestServer()
    _, resp = run_exchange(server)
    with pytest.raises(MerkleError):
        verify_response(resp, make_nonce(), server.server_key, MonotonicInstant(0))


def test_verify_midpoint_outside_window():
    server = RoughtimeTestServer(window_s=-10)  # forces MINT > MIDP > MAXT
    nonce, resp = run_exchange(server)
    with pytest.raises(DelegationWindowError):
        verify_response(resp, nonce, server.server_key, MonotonicInstant(0))


def test_verify_multi_leaf_batch():
    server = RoughtimeTestServer(batch_nonces=4)
    nonce, resp = run_exchange(server)
    m = verify_response(resp, nonce, server.server_key, MonotonicInstant(0))
    assert m.radius == SignedDuration.from_s(1)
    path = decode_message(unframe_packet(resp))[TAG_PATH]
    assert len(path) == 2 * 32  # depth-two tree


def test_verify_index_bit_flip_fails():
    server = RoughtimeTestServer(batch_nonces=2)
    nonce, resp = run_exchange(server)
    flipped = bytearray(resp)
    pos = len(resp) - 4  # INDX is the last value in the response
    flipped[pos] ^= 0x01
    with pytest.raises(MerkleError):
        verify_response(bytes(flipped), nonce, server.server_key, MonotonicInstant(0))


def signed_region_spans(resp):
    """Byte spans of SIG, PATH, SREP, and CERT values within the packet."""
    msg = decode_message(unframe_packet(resp))
    spans = []
    for tag in (TAG_SIG, TAG_PATH, TAG_SREP, TAG_CERT):
        value = msg[tag]
        start = resp.find(value)
        assert start > 0
        spans.append((start, start + len(value)))
    return spans


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_bit_flip_in_signed_regions_fails(data):
    server = _FLIP_SERVER
    nonce, resp = _FLIP_EXCHANGE
    spans = signed_region_spans(resp)
    lo, hi = data.draw(st.sampled_from(spans))
    pos = data.draw(st.integers(min_value=lo, max_value=hi - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    # the intact response first, so flips outside CERT meet a cached certificate
    verify_response(resp, nonce, server.server_key, MonotonicInstant(0))
    flipped = bytearray(resp)
    flipped[pos] ^= 1 << bit
    with pytest.raises(RoughtimeError):
        verify_response(bytes(flipped), nonce, server.server_key, MonotonicInstant(0))


_FLIP_SERVER = RoughtimeTestServer(batch_nonces=2)
_FLIP_EXCHANGE = run_exchange(_FLIP_SERVER)


# -- the delegation certificate cache --------------------------------------


def rebuild(server, resp, cert=None, midp=None):
    """resp with its CERT replaced, or its SREP re-signed with another MIDP."""
    msg = decode_message(unframe_packet(resp))
    if cert is not None:
        msg[TAG_CERT] = cert
    if midp is not None:
        srep = decode_message(msg[TAG_SREP])
        srep[TAG_MIDP] = struct.pack("<Q", midp)
        msg[TAG_SREP] = encode_message(srep)
        msg[TAG_SIG] = server.delegated_key.sign(RESPONSE_CONTEXT + msg[TAG_SREP])
    return frame_packet(encode_message(msg))


def warm_exchange(server):
    """One exchange verified once, so its certificate is cached."""
    nonce, resp = run_exchange(server)
    verify_response(resp, nonce, server.server_key, MonotonicInstant(0))
    return nonce, resp


def count_key_loads(monkeypatch):
    """Each public key verify_response loads, i.e. each Ed25519 verify it runs."""
    loads = []
    real = provider_roughtime.Ed25519PublicKey.from_public_bytes

    def counting(data):
        loads.append(bytes(data))
        return real(data)

    monkeypatch.setattr(provider_roughtime.Ed25519PublicKey, "from_public_bytes", counting)
    return loads


def test_cached_delegation_with_a_forged_certificate_signature_fails():
    server, forger = RoughtimeTestServer(), RoughtimeTestServer()
    nonce, resp = warm_exchange(server)
    dele = decode_message(decode_message(unframe_packet(resp))[TAG_CERT])[TAG_DELE]
    forged = encode_message(
        {TAG_SIG: forger.root_key.sign(DELEGATION_CONTEXT + dele), TAG_DELE: dele}
    )
    with pytest.raises(CertSignatureError):
        verify_response(rebuild(server, resp, cert=forged), nonce, server.server_key,
                        MonotonicInstant(0))


def test_cached_certificate_under_another_longterm_key_fails():
    server, other = RoughtimeTestServer(), RoughtimeTestServer()
    nonce, resp = warm_exchange(server)
    with pytest.raises(CertSignatureError):
        verify_response(resp, nonce, other.server_key, MonotonicInstant(0))


def test_a_failed_certificate_is_checked_again(monkeypatch):
    server, other = RoughtimeTestServer(), RoughtimeTestServer()
    warm_exchange(server)
    nonce, resp = run_exchange(server)
    verifies = count_key_loads(monkeypatch)
    for _ in range(2):
        with pytest.raises(CertSignatureError):
            verify_response(resp, nonce, other.server_key, MonotonicInstant(0))
    # each failure ran the long-term verify anew: the failure was not cached
    assert verifies == [other.server_key.public_key] * 2
    m = verify_response(resp, nonce, server.server_key, MonotonicInstant(0))
    assert m.midpoint == Timestamp.from_unix_s(1_689_120_000)


def test_cached_window_still_refuses_a_later_midpoint_outside_it(monkeypatch):
    server = RoughtimeTestServer(window_s=100)
    nonce, resp = warm_exchange(server)
    loads = count_key_loads(monkeypatch)
    for midp in (1_689_120_000 - 101, 1_689_120_000 + 101):
        with pytest.raises(DelegationWindowError):
            verify_response(rebuild(server, resp, midp=midp), nonce, server.server_key,
                            MonotonicInstant(0))
    # the window came from the cache: only the delegated key was loaded
    assert loads == [server.delegated_key.public_key().public_bytes_raw()] * 2
    m = verify_response(rebuild(server, resp, midp=1_689_120_000 + 100), nonce,
                        server.server_key, MonotonicInstant(0))
    assert m.midpoint == Timestamp.from_unix_s(1_689_120_000 + 100)


def test_polls_repeating_a_certificate_verify_it_once(monkeypatch):
    server = RoughtimeTestServer()
    loads = count_key_loads(monkeypatch)
    n = 5
    for _ in range(n):
        poll(server.server_key, transport=server.transport)
    root = server.server_key.public_key
    delegated = server.delegated_key.public_key().public_bytes_raw()
    assert loads == [root] + [delegated] * n


def test_measurement_rejects_negative_radius():
    with pytest.raises(ValueError):
        RoughtimeMeasurement(
            Timestamp.from_unix_s(0), SignedDuration(-1), "x", MonotonicInstant(0)
        )


def test_server_key_validation():
    with pytest.raises(ValueError):
        RoughtimeServerKey(b"\x00" * 31)


# -- poll -------------------------------------------------------------------


def test_poll_in_process():
    server = RoughtimeTestServer()
    m = poll(server.server_key, transport=server.transport)
    assert m.midpoint == Timestamp.from_unix_s(1_689_120_000)


def test_poll_retries_then_unreachable():
    attempts = []

    def dropping(request):
        attempts.append(request)
        raise socket.timeout("dropped")

    server = RoughtimeTestServer()
    with pytest.raises(UnreachableError):
        poll(server.server_key, transport=dropping, retries=3)
    assert len(attempts) == 3


def test_poll_fresh_nonce_per_attempt():
    server = RoughtimeTestServer()
    seen = []

    def flaky(request):
        seen.append(decode_request(request)[TAG_NONC])
        if len(seen) < 3:
            raise socket.timeout("dropped")
        return server.transport(request)

    m = poll(server.server_key, transport=flaky, retries=3)
    assert m.radius == SignedDuration.from_s(1)
    assert len(set(seen)) == 3


def test_poll_replayed_response_rejected():
    wire = Wire(RoughtimeTestServer())
    poll(wire.server_key, transport=wire.transport)
    wire.replay = True
    with pytest.raises(MerkleError):
        poll(wire.server_key, transport=wire.transport)


def test_poll_over_udp():
    server = RoughtimeTestServer()
    with udp(server) as port:
        m = poll(server.server_key, udp_transport("127.0.0.1", port, 2.0))
        assert m.midpoint == Timestamp.from_unix_s(1_689_120_000)


@pytest.mark.skipif(not ipv6_loopback(), reason="this host has no IPv6 loopback")
def test_poll_over_udp_on_ipv6_loopback():
    server = RoughtimeTestServer()
    with udp(server, "::1") as port:
        m = poll(server.server_key, udp_transport("::1", port, 2.0))
        assert m.midpoint == Timestamp.from_unix_s(1_689_120_000)


def test_poll_udp_unreachable():
    server = RoughtimeTestServer()
    with udp(Wire(server, drop=True)) as port:
        with pytest.raises(UnreachableError):
            poll(server.server_key, udp_transport("127.0.0.1", port, 0.05), retries=2)


def test_nonce_uniqueness_bulk():
    draws = 10**6
    assert len({make_nonce() for _ in range(draws)}) == draws

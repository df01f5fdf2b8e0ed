"""NTS-secured NTP client: authenticated fine-grained offset measurements.

Key establishment follows RFC 8915: a TLS 1.3 session on the NTS-KE port
negotiates NTPv4 with AEAD_AES_SIV_CMAC_256, exports the C2S/S2C keys via
the TLS exporter interface, and collects cookies.  Time queries are NTPv4
packets carrying Unique Identifier, NTS Cookie, and NTS Authenticator
extension fields; replies are accepted only when the AEAD tag verifies
and the unique identifier matches.  The runtime's TLS API does not expose
keying-material export directly, so the exporter secret is taken from the
stack's key log and the RFC 8446 exporter derivation is applied here,
hashing with cryptography; the derivation is pinned by test vectors.
nts_ke_handshake alone imports ssl and socket, so a process that only
sends queries loads no TLS stack, and with random bytes from os.urandom
and no hashlib it maps cryptography's OpenSSL alone.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESSIV

from .receiver_feed import NtsMeasurement
from .timebase import MonotonicInstant, SignedDuration, Timestamp

NTS_KE_ALPN = "ntske/1"
DEFAULT_NTP_PORT = 123
NTPV4_PROTOCOL_ID = 0
AEAD_AES_SIV_CMAC_256 = 15

KE_END = 0
KE_NEXT_PROTO = 1
KE_ERROR = 2
KE_WARNING = 3
KE_AEAD = 4
KE_COOKIE = 5
KE_SERVER = 6
KE_PORT = 7
KE_CRITICAL = 0x8000
# the most NTS-KE response bytes read before End of Message; an honest
# reply with 8 cookies comes to a few KiB
KE_MAX_RESPONSE = 64 * 1024

EF_UNIQUE_ID = 0x0104
EF_COOKIE = 0x0204
EF_COOKIE_PLACEHOLDER = 0x0304
EF_AUTHENTICATOR = 0x0404

NTP_UNIX_DELTA = 2_208_988_800
NTP_HEADER_LEN = 48
EXPORTER_LABEL = b"EXPORTER-network-time-security"


class NtsError(Exception):
    """Base class for NTS failures."""


class HandshakeError(NtsError):
    """NTS-KE failed (TLS, record structure, or server error record)."""


class NegotiationError(HandshakeError):
    """Server did not agree on NTPv4 + the requested AEAD."""


class PacketError(NtsError):
    """Malformed NTP packet or extension field."""


class UnsynchronizedError(PacketError):
    """An authenticated reply whose server says its clock is unsynchronized:
    leap indicator 3, stratum 16 or higher, or stratum 0, a kiss-o'-death
    (RFC 5905 section 7.3)."""


class AuthenticationError(NtsError):
    """AEAD verification failed; packet discarded."""


class ReplayError(NtsError):
    """Unique identifier missing or not matching the request."""


class CookieError(NtsError):
    """Cookie queue empty or cookie rejected."""


class UnreachableError(NtsError):
    """No response within the timeout."""


# -- AEAD -------------------------------------------------------------------


@lru_cache(maxsize=8)
def _siv(key: bytes) -> AESSIV:
    """The AES-SIV key schedule of key, built once while key stays in use.

    A session queries under its two keys for hours and the test server
    seals cookies under one master key, so eight entries hold every key
    in use.  A bad key raises ValueError here and is not cached.
    """
    return AESSIV(key)


def siv_seal(key: bytes, plaintext: bytes, components: Sequence[bytes]) -> bytes:
    """AES-SIV over a vector of associated-data components (nonce last)."""
    # memoryview refuses an int, which bytes() would turn into a zero key
    return _siv(bytes(memoryview(key))).encrypt(plaintext, list(components))


def siv_open(key: bytes, ciphertext: bytes, components: Sequence[bytes]) -> bytes:
    try:
        return _siv(bytes(memoryview(key))).decrypt(ciphertext, list(components))
    except (InvalidTag, ValueError):
        # ValueError covers ciphertexts shorter than the SIV tag
        raise AuthenticationError("AEAD tag verification failed") from None


# -- TLS 1.3 exporter -------------------------------------------------------


def hkdf_expand_label(
    secret: bytes, label: bytes, context: bytes, length: int, hash_name: str
) -> bytes:
    """RFC 8446 HKDF-Expand-Label; hash_name is "sha256" or "sha384"."""
    # the exporter alone derives keys, so a query-only process skips this import
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.kdf.hkdf import HKDFExpand

    full = b"tls13 " + label
    info = struct.pack(">H", length) + bytes([len(full)]) + full + bytes([len(context)]) + context
    return HKDFExpand(getattr(hashes, hash_name.upper())(), length, info).derive(secret)


def tls13_exporter(
    exporter_secret: bytes, label: bytes, context: bytes, length: int, hash_name: str
) -> bytes:
    """RFC 8446 exporter: Derive-Secret(secret, label, "") then expand."""
    from cryptography.hazmat.primitives import hashes

    algorithm = getattr(hashes, hash_name.upper())()
    empty_hash, context_hash = hashes.Hash(algorithm), hashes.Hash(algorithm)
    context_hash.update(context)
    derived = hkdf_expand_label(exporter_secret, label, empty_hash.finalize(),
                                algorithm.digest_size, hash_name)
    return hkdf_expand_label(derived, b"exporter", context_hash.finalize(), length, hash_name)


def nts_export_keys(exporter_secret: bytes, hash_name: str) -> tuple[bytes, bytes]:
    """C2S and S2C AES-SIV-CMAC-256 keys per the RFC 8915 exporter context layout."""
    base = struct.pack(">HH", NTPV4_PROTOCOL_ID, AEAD_AES_SIV_CMAC_256)
    c2s = tls13_exporter(exporter_secret, EXPORTER_LABEL, base + b"\x00", 32, hash_name)
    s2c = tls13_exporter(exporter_secret, EXPORTER_LABEL, base + b"\x01", 32, hash_name)
    return c2s, s2c


def hash_for_cipher(cipher_name: str) -> str:
    return "sha384" if cipher_name.endswith("SHA384") else "sha256"


def exporter_secret_from_keylog(path: str) -> bytes:
    secret = None
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 3 and parts[0] == "EXPORTER_SECRET":
                secret = bytes.fromhex(parts[2])
    if secret is None:
        raise HandshakeError("TLS stack logged no exporter secret")
    return secret


# -- NTS-KE records ---------------------------------------------------------


class KeRecord(NamedTuple):
    rec_type: int
    critical: bool
    body: bytes


def encode_ke_record(rec_type: int, body: bytes, critical: bool) -> bytes:
    word = rec_type | (KE_CRITICAL if critical else 0)
    return struct.pack(">HH", word, len(body)) + body


def decode_ke_records(data: bytes) -> Iterator[KeRecord]:
    """The records in data, in order; HandshakeError where data ends inside one."""
    pos = 0
    while pos < len(data):
        if len(data) - pos < 4:
            raise HandshakeError("truncated NTS-KE record header")
        word, blen = struct.unpack_from(">HH", data, pos)
        pos += 4
        if len(data) - pos < blen:
            raise HandshakeError("truncated NTS-KE record body")
        yield KeRecord(word & 0x7FFF, bool(word & KE_CRITICAL), data[pos : pos + blen])
        pos += blen


def build_ke_request() -> bytes:
    return (
        encode_ke_record(KE_NEXT_PROTO, struct.pack(">H", NTPV4_PROTOCOL_ID), True)
        + encode_ke_record(KE_AEAD, struct.pack(">H", AEAD_AES_SIV_CMAC_256), True)
        + encode_ke_record(KE_END, b"", True)
    )


def read_ke_records(sock) -> list[KeRecord]:
    """Read records from a stream through End of Message; bytes after it are
    ignored.  HandshakeError once KE_MAX_RESPONSE bytes came with no End of
    Message."""
    records: list[KeRecord] = []
    buf = b""  # the bytes after the last whole record
    received = 0
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            raise HandshakeError("connection closed before End of Message")
        received += len(chunk)
        if received > KE_MAX_RESPONSE:
            raise HandshakeError(f"no End of Message in {KE_MAX_RESPONSE} bytes")
        buf += chunk
        used = 0
        try:
            for rec in decode_ke_records(buf):
                records.append(rec)
                if rec.rec_type == KE_END:
                    return records
                used += 4 + len(rec.body)
        except HandshakeError:
            pass  # buf ends inside a record: read on
        buf = buf[used:]


def _uint16(body: bytes, name: str) -> int:
    if len(body) != 2:
        raise HandshakeError(f"{name} record body of {len(body)} bytes, not 2")
    return int.from_bytes(body, "big")


def _uint16_list(body: bytes) -> list[int]:
    if len(body) % 2:
        raise HandshakeError("odd-length uint16 list body")
    return list(struct.unpack(f">{len(body) // 2}H", body))


def parse_ke_response(
    records: Sequence[KeRecord],
) -> tuple[list[bytes], Optional[str], Optional[int]]:
    """Validate the negotiation result; returns (cookies, host, port)."""
    next_proto: Optional[list[int]] = None
    aead: Optional[list[int]] = None
    cookies: list[bytes] = []
    host: Optional[str] = None
    port: Optional[int] = None
    for rec in records:
        if rec.rec_type == KE_END:
            break
        if rec.rec_type == KE_ERROR:
            raise HandshakeError(f"server reported error code {_uint16(rec.body, 'Error')}")
        if rec.rec_type == KE_WARNING:
            continue
        if rec.rec_type == KE_NEXT_PROTO:
            next_proto = _uint16_list(rec.body)
        elif rec.rec_type == KE_AEAD:
            aead = _uint16_list(rec.body)
        elif rec.rec_type == KE_COOKIE:
            cookies.append(rec.body)
        elif rec.rec_type == KE_SERVER:
            try:
                host = rec.body.decode("ascii")
            except UnicodeDecodeError:
                raise HandshakeError("Server record is not ASCII") from None
        elif rec.rec_type == KE_PORT:
            port = _uint16(rec.body, "Port")
        elif rec.critical:
            raise HandshakeError(f"unknown critical record type {rec.rec_type}")
    if next_proto != [NTPV4_PROTOCOL_ID]:
        raise NegotiationError(f"next protocol {next_proto} is not NTPv4")
    if aead != [AEAD_AES_SIV_CMAC_256]:
        raise NegotiationError(f"server offered AEAD {aead}, wanted [{AEAD_AES_SIV_CMAC_256}]")
    if not cookies:
        raise HandshakeError("handshake yielded zero cookies")
    return cookies, host, port


# -- NTP packet layer -------------------------------------------------------


def pack_ntp64(ts: Timestamp) -> int:
    sec = (ts.seconds + NTP_UNIX_DELTA) % (1 << 32)
    return (sec << 32) | (ts.fraction >> 32)


def unpack_ntp64(word: int, near: Timestamp) -> Timestamp:
    """The instant an NTP timestamp names in the era that puts it within
    2^31 s of `near` (RFC 5905 section 6): its seconds field wraps every
    2^32 s, first on 2036-02-07."""
    sec = (word >> 32) - NTP_UNIX_DELTA
    sec += ((near.seconds - sec + (1 << 31)) >> 32) << 32
    return Timestamp.from_parts(sec, (word & 0xFFFFFFFF) << 32)


_HEADER = struct.Struct(">BBBb3I4Q")


def build_ntp_header(
    mode: int, tx: Timestamp, origin: int = 0, recv: int = 0, stratum: int = 0
) -> bytes:
    """An NTPv4 header with no leap indicator."""
    return _HEADER.pack((4 << 3) | mode, stratum, 0, 0, 0, 0, 0, 0, origin, recv, pack_ntp64(tx))


def parse_ntp_header(data: bytes) -> tuple[int, int, int, int, int, int, int]:
    """Returns (leap, version, mode, stratum, origin64, recv64, tx64)."""
    if len(data) < NTP_HEADER_LEN:
        raise PacketError(f"packet of {len(data)} bytes shorter than NTP header")
    fields = _HEADER.unpack_from(data, 0)
    li_vn_mode = fields[0]
    return (li_vn_mode >> 6, (li_vn_mode >> 3) & 0x7, li_vn_mode & 0x7, fields[1],
            fields[8], fields[9], fields[10])


def _pad4(data: bytes) -> bytes:
    return data + b"\x00" * ((-len(data)) % 4)


def encode_ef(ef_type: int, body: bytes) -> bytes:
    padded = _pad4(body)
    return struct.pack(">HH", ef_type, 4 + len(padded)) + padded


def iter_efs(data: bytes, start: int = NTP_HEADER_LEN) -> Iterator[tuple[int, bytes, int, int]]:
    """Yields (type, body, start, end) for each extension field."""
    pos = start
    while pos < len(data):
        if len(data) - pos < 4:
            raise PacketError("truncated extension field header")
        ef_type, ef_len = struct.unpack_from(">HH", data, pos)
        if ef_len < 4 or ef_len % 4 or pos + ef_len > len(data):
            raise PacketError(f"bad extension field length {ef_len} at offset {pos}")
        yield ef_type, data[pos + 4 : pos + ef_len], pos, pos + ef_len
        pos += ef_len


def encode_authenticator(nonce: bytes, ciphertext: bytes) -> bytes:
    body = struct.pack(">HH", len(nonce), len(ciphertext)) + _pad4(nonce) + _pad4(ciphertext)
    return encode_ef(EF_AUTHENTICATOR, body)


def decode_authenticator(body: bytes) -> tuple[bytes, bytes]:
    if len(body) < 4:
        raise PacketError("authenticator body too short")
    nonce_len, ct_len = struct.unpack_from(">HH", body, 0)
    nonce_end = 4 + nonce_len + ((-nonce_len) % 4)
    nonce = body[4 : 4 + nonce_len]
    ct = body[nonce_end : nonce_end + ct_len]
    if len(nonce) != nonce_len or len(ct) != ct_len:
        raise PacketError("authenticator truncated")
    return nonce, ct


# -- session and measurements ----------------------------------------------


@dataclass
class NtsSession:
    """Keys, cookie queue, and NTP endpoint from one NTS-KE handshake."""

    c2s: bytes
    s2c: bytes
    cookies: list[bytes]
    host: str
    port: int = DEFAULT_NTP_PORT
    server_id: str = "nts"

    def cookie_count(self) -> int:
        return len(self.cookies)


def offset_delay(
    t1: Timestamp, t2: Timestamp, t3: Timestamp, t4: Timestamp
) -> tuple[SignedDuration, SignedDuration]:
    """theta = ((T2-T1)+(T3-T4))/2, delta = (T4-T1)-(T3-T2)."""
    u1, u2, u3, u4 = t1.units, t2.units, t3.units, t4.units
    return SignedDuration((u2 - u1 + u3 - u4) // 2), SignedDuration(u4 - u1 - u3 + u2)


class NtsRequest(NamedTuple):
    data: bytes
    unique_id: bytes
    t1: Timestamp


def build_nts_request(session: NtsSession, t1: Timestamp, num_placeholders: int = 0) -> NtsRequest:
    """Client packet: header, unique ID, cookie, placeholders, authenticator.

    Consumes one cookie from the session queue; the unique ID and the
    authenticator's nonce are fresh random bytes.
    """
    if not session.cookies:
        raise CookieError("cookie queue empty; re-key via NTS-KE")
    cookie = session.cookies.pop(0)
    unique_id = os.urandom(32)
    nonce = os.urandom(16)
    header = build_ntp_header(mode=3, tx=t1)
    efs = encode_ef(EF_UNIQUE_ID, unique_id) + encode_ef(EF_COOKIE, cookie)
    efs += encode_ef(EF_COOKIE_PLACEHOLDER, b"\x00" * len(cookie)) * num_placeholders
    ad = header + efs
    ct = siv_seal(session.c2s, b"", [ad, nonce])
    return NtsRequest(ad + encode_authenticator(nonce, ct), unique_id, t1)


def parse_nts_response(
    session: NtsSession, request: NtsRequest, data: bytes
) -> tuple[Timestamp, Timestamp, list[bytes]]:
    """Authenticate a reply; returns (T2, T3, new cookies), read in T1's NTP era.

    UnsynchronizedError for an authenticated reply from a server that says
    its clock is unsynchronized; its time vouches for nothing.  The check
    follows authentication, so that a NAK, which has no authenticator,
    still raises AuthenticationError."""
    leap, version, mode, stratum, _origin, recv64, tx64 = parse_ntp_header(data)
    if version != 4 or mode != 4:
        raise PacketError(f"unexpected version/mode {version}/{mode}")
    unique_id: Optional[bytes] = None
    auth_span: Optional[tuple[int, int, bytes]] = None
    for ef_type, body, start, end in iter_efs(data):
        if auth_span is not None:
            raise PacketError("extension field after authenticator")
        if ef_type == EF_UNIQUE_ID:
            unique_id = body[:32]
        elif ef_type == EF_AUTHENTICATOR:
            auth_span = (start, end, body)
    if unique_id is None or unique_id != request.unique_id:
        raise ReplayError("unique identifier missing or mismatched")
    if auth_span is None:
        raise AuthenticationError("response lacks an authenticator")
    start, _end, body = auth_span
    nonce, ct = decode_authenticator(body)
    plaintext = siv_open(session.s2c, ct, [data[:start], nonce])
    if leap == 3 or not 0 < stratum < 16:
        raise UnsynchronizedError(f"server clock unsynchronized: leap indicator {leap}, "
                                  f"stratum {stratum}")
    new_cookies = [
        ef_body for ef_type, ef_body, _s, _e in iter_efs(plaintext, 0) if ef_type == EF_COOKIE
    ]
    return unpack_ntp64(recv64, request.t1), unpack_ntp64(tx64, request.t1), new_cookies


def nts_query(
    session: NtsSession,
    transport: Callable[[bytes], bytes],
    clock_utc: Callable[[], Timestamp] = Timestamp.now_system,
    mono: Callable[[], MonotonicInstant] = MonotonicInstant.now,
    target_cookies: int = 8,
) -> NtsMeasurement:
    """One authenticated time transfer; restocks the cookie queue.

    transport sends to session.host:session.port and raises TimeoutError
    when no reply comes.  The queue keeps at most target_cookies, the
    newest, however many cookies an authenticated reply carries.
    """
    # queue after a successful query: (len - 1) spent + 1 + placeholders new
    placeholders = max(0, target_cookies - len(session.cookies))
    request = build_nts_request(session, clock_utc(), num_placeholders=placeholders)
    try:
        reply = transport(request.data)
    except TimeoutError as e:
        raise UnreachableError(f"no reply from {session.host}:{session.port}") from e
    t4 = clock_utc()
    t_mono_rx = mono()
    t2, t3, new_cookies = parse_nts_response(session, request, reply)
    session.cookies.extend(new_cookies)
    del session.cookies[: max(0, len(session.cookies) - target_cookies)]
    theta, delta = offset_delay(request.t1, t2, t3, t4)
    return NtsMeasurement(theta, delta, t_mono_rx, session.server_id)


# -- NTS-KE client ----------------------------------------------------------


def nts_ke_handshake(
    host: str, port: int, ca_file: Optional[str], timeout_s: float
) -> NtsSession:
    """TLS 1.3 key establishment, trusting ca_file or, if None, the system
    store; returns a ready session."""
    import socket  # the TLS stack: loaded only by a handshake
    import ssl
    import tempfile

    ctx = ssl.create_default_context(cafile=ca_file)
    ctx.minimum_version = ssl.TLSVersion.TLSv1_3
    ctx.set_alpn_protocols([NTS_KE_ALPN])
    with tempfile.TemporaryDirectory(prefix="ntske-") as tmp:
        ctx.keylog_filename = os.path.join(tmp, "keylog")
        try:
            with socket.create_connection((host, port), timeout=timeout_s) as raw:
                with ctx.wrap_socket(raw, server_hostname=host) as tls:
                    if tls.selected_alpn_protocol() != NTS_KE_ALPN:
                        raise HandshakeError("server did not select the NTS-KE ALPN")
                    tls.sendall(build_ke_request())
                    records = read_ke_records(tls)
                    cipher_name = tls.cipher()[0]
        except ssl.SSLError as e:
            raise HandshakeError(f"TLS failure: {e}") from e
        except OSError as e:
            raise UnreachableError(f"cannot reach {host}:{port}: {e}") from e
        secret = exporter_secret_from_keylog(ctx.keylog_filename)
    cookies, ntp_host, ntp_port = parse_ke_response(records)
    c2s, s2c = nts_export_keys(secret, hash_for_cipher(cipher_name))
    return NtsSession(
        c2s=c2s,
        s2c=s2c,
        cookies=cookies,
        host=ntp_host or host,
        port=ntp_port or DEFAULT_NTP_PORT,
        server_id=f"{host}:{port}",
    )


# -- test oracle ------------------------------------------------------------

_COOKIE_AD = b"timeguard cookie v1"
_COOKIE_NONCE_LEN = 8


@dataclass
class NtsTestServer:
    """In-process NTS oracle for tests and benchmarks; it opens no socket.

    `transport` answers an NTP request as an honest server would, and
    `mint_cookie` makes the cookies a key-establishment handshake hands out.
    Cookies seal the per-session keys under a server master key, so the NTP
    side keeps no state between requests.  clock supplies the server's idea
    of UTC.  `tests/loopback.py` serves it over UDP and TLS, and its wire
    drops, replays and corrupts the replies on the way to the client.
    """

    clock: Callable[[], Timestamp] = Timestamp.now_system
    offer_aead_id: int = AEAD_AES_SIV_CMAC_256
    master_key: bytes = field(default_factory=lambda: os.urandom(32))

    # cookie sealing

    def mint_cookie(self, c2s: bytes, s2c: bytes) -> bytes:
        nonce = os.urandom(_COOKIE_NONCE_LEN)
        payload = struct.pack(">HH", self.offer_aead_id, 0) + c2s + s2c
        return nonce + siv_seal(self.master_key, payload, [_COOKIE_AD, nonce])

    def unseal_cookie(self, cookie: bytes) -> tuple[bytes, bytes]:
        nonce, ct = cookie[:_COOKIE_NONCE_LEN], cookie[_COOKIE_NONCE_LEN:]
        try:
            payload = siv_open(self.master_key, ct, [_COOKIE_AD, nonce])
        except AuthenticationError:
            raise CookieError("cookie rejected") from None
        return payload[4:36], payload[36:68]

    def mint_session(self, num_cookies: int = 8) -> NtsSession:
        """Pre-shared-key mode: a valid session without any TLS handshake."""
        c2s, s2c = os.urandom(32), os.urandom(32)
        return NtsSession(
            c2s=c2s,
            s2c=s2c,
            cookies=[self.mint_cookie(c2s, s2c) for _ in range(num_cookies)],
            host="127.0.0.1",
            server_id="nts-test",
        )

    # NTP side

    def transport(self, data: bytes) -> bytes:
        """The authenticated reply to one NTP request."""
        _leap, version, mode, _stratum, _o, _r, client_tx = parse_ntp_header(data)
        if version != 4 or mode != 3:
            raise PacketError(f"unexpected version/mode {version}/{mode}")
        unique_id: Optional[bytes] = None
        cookie: Optional[bytes] = None
        placeholders = 0
        auth_span: Optional[tuple[int, bytes]] = None
        for ef_type, body, start, _end in iter_efs(data):
            if ef_type == EF_UNIQUE_ID:
                unique_id = body[:32]
            elif ef_type == EF_COOKIE and cookie is None:
                cookie = body
            elif ef_type == EF_COOKIE_PLACEHOLDER:
                placeholders += 1
            elif ef_type == EF_AUTHENTICATOR:
                auth_span = (start, body)
        if unique_id is None or cookie is None or auth_span is None:
            raise PacketError("request missing a required extension field")
        c2s, s2c = self.unseal_cookie(cookie)
        start, body = auth_span
        nonce, ct = decode_authenticator(body)
        siv_open(c2s, ct, [data[:start], nonce])
        t2 = self.clock()
        new_cookies = [self.mint_cookie(c2s, s2c) for _ in range(1 + placeholders)]
        plaintext = b"".join(encode_ef(EF_COOKIE, c) for c in new_cookies)
        t3 = self.clock()
        header = build_ntp_header(mode=4, tx=t3, origin=client_tx, recv=pack_ntp64(t2), stratum=1)
        ad = header + encode_ef(EF_UNIQUE_ID, unique_id)
        nonce2 = os.urandom(16)
        return ad + encode_authenticator(nonce2, siv_seal(s2c, plaintext, [ad, nonce2]))

"""Roughtime client: coarse authenticated time with a confidence radius.

Implements the tag-value wire codec, request building, and the full
response verification chain: delegation certificate signature, signed
response signature, Merkle inclusion of the request nonce, and the
delegation validity window.  The client returns a measurement only
after all four checks pass.  A delegation certificate is verified, and
its delegated key loaded, once per long-term key and reused while later
responses repeat its bytes; the response signature, Merkle path and
validity window are checked on every poll.  The wire constants are those
of IETF draft 07.  Every hash comes from cryptography and every nonce
from os.urandom, so a polling process maps cryptography's OpenSSL alone
and not the interpreter's libcrypto, which hashlib and secrets would load.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.hashes import SHA512, Hash

from .receiver_feed import RoughtimeMeasurement
from .timebase import MonotonicInstant, SignedDuration, Timestamp

MAGIC = b"ROUGHTIM"


def make_tag(name: bytes) -> int:
    """Tag constant: ASCII bytes read as a little-endian uint32."""
    if len(name) != 4:
        raise ValueError("tag names are exactly 4 bytes")
    return int.from_bytes(name, "little")


TAG_SIG = make_tag(b"SIG\x00")
TAG_VER = make_tag(b"VER\x00")
TAG_NONC = make_tag(b"NONC")
TAG_DELE = make_tag(b"DELE")
TAG_PATH = make_tag(b"PATH")
TAG_RADI = make_tag(b"RADI")
TAG_PUBK = make_tag(b"PUBK")
TAG_MIDP = make_tag(b"MIDP")
TAG_SREP = make_tag(b"SREP")
TAG_MINT = make_tag(b"MINT")
TAG_ROOT = make_tag(b"ROOT")
TAG_CERT = make_tag(b"CERT")
TAG_MAXT = make_tag(b"MAXT")
TAG_INDX = make_tag(b"INDX")
TAG_ZZZZ = make_tag(b"ZZZZ")


class RoughtimeError(Exception):
    """Base class for Roughtime failures."""


class CodecError(RoughtimeError):
    """Malformed packet or tag structure."""


class CertSignatureError(RoughtimeError):
    """Delegation certificate not signed by the long-term key."""


class ResponseSignatureError(RoughtimeError):
    """Signed response not signed by the delegated key."""


class MerkleError(RoughtimeError):
    """Request nonce not included under the response Merkle root."""


class DelegationWindowError(RoughtimeError):
    """Midpoint outside the delegation validity window."""


class UnreachableError(RoughtimeError):
    """No response within the configured retries."""


# wire constants of IETF draft 07
VERSION = 0x80000007
MIN_REQUEST_SIZE = 1024
HASH_TRUNC = 32
LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"
DELEGATION_CONTEXT = b"RoughTime v1 delegation signature--\x00"
RESPONSE_CONTEXT = b"RoughTime v1 response signature\x00"


# An empty SHA-512 context, never updated: each hash starts from a copy,
# which costs less than building a context.
_SHA512 = Hash(SHA512())


def _digest(data: bytes) -> bytes:
    h = _SHA512.copy()
    h.update(data)
    return h.finalize()[:HASH_TRUNC]


@dataclass(frozen=True)
class RoughtimeServerKey:
    """Long-term server identity plus where and how to reach it."""

    public_key: bytes
    host: str = "127.0.0.1"
    port: int = 2002

    def __post_init__(self) -> None:
        if len(self.public_key) != 32:
            raise ValueError(f"Ed25519 public key must be 32 bytes, got {len(self.public_key)}")

    @cached_property
    def fingerprint(self) -> str:
        return _digest(self.public_key)[:8].hex()


# -- tag-value codec --------------------------------------------------------

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


def encode_message(pairs: dict[int, bytes]) -> bytes:
    """Encode a tag->value map: count, offsets, ascending tags, values."""
    items = sorted(pairs.items())
    for tag, value in items:
        if not (0 <= tag < 1 << 32):
            raise CodecError(f"tag {tag:#x} out of uint32 range")
        if len(value) % 4 != 0:
            raise CodecError(f"value for tag {tag:#010x} not a multiple of 4 bytes")
    out = [struct.pack("<I", len(items))]
    offset = 0
    for _, value in items[:-1]:
        offset += len(value)
        out.append(struct.pack("<I", offset))
    for tag, _ in items:
        out.append(struct.pack("<I", tag))
    for _, value in items:
        out.append(value)
    return b"".join(out)


def decode_message(data: bytes) -> dict[int, bytes]:
    """Inverse of encode_message; raises CodecError on any defect."""
    if len(data) < 4:
        raise CodecError("message shorter than its count field")
    (count,) = _U32.unpack_from(data, 0)
    if count == 0:
        if len(data) != 4:
            raise CodecError("pairless message with trailing bytes")
        return {}
    header_len = 8 * count
    if len(data) < header_len:
        raise CodecError(f"message truncated: {len(data)} bytes for {count} pairs")
    words = struct.unpack_from(f"<{2 * count - 1}I", data, 4)
    offsets, tags = words[: count - 1], words[count - 1 :]
    prev = 0
    for off in offsets:
        if off % 4 != 0 or off < prev:
            raise CodecError(f"offset {off} not ascending multiple of 4")
        prev = off
    prev = -1
    for tag in tags:
        if tag <= prev:
            raise CodecError(f"tag {tag:#010x} not strictly ascending")
        prev = tag
    values_len = len(data) - header_len
    if offsets and offsets[-1] > values_len:
        raise CodecError(f"last offset {offsets[-1]} beyond value region {values_len}")
    bounds = (header_len, *[header_len + off for off in offsets], len(data))
    return {tag: data[a:b] for tag, a, b in zip(tags, bounds, bounds[1:])}


def frame_packet(message: bytes) -> bytes:
    return MAGIC + struct.pack("<I", len(message)) + message


def unframe_packet(packet: bytes) -> bytes:
    if len(packet) < 12 or packet[:8] != MAGIC:
        raise CodecError("missing packet magic")
    (length,) = struct.unpack_from("<I", packet, 8)
    if len(packet) - 12 != length:
        raise CodecError(f"framed length {length} != payload {len(packet) - 12}")
    return packet[12:]


def require_tag(msg: dict[int, bytes], tag: int, size: Optional[int] = None) -> bytes:
    if tag not in msg:
        raise CodecError(f"missing tag {tag:#010x}")
    value = msg[tag]
    if size is not None and len(value) != size:
        raise CodecError(f"tag {tag:#010x} has {len(value)} bytes, expected {size}")
    return value


# -- request ----------------------------------------------------------------


def make_nonce() -> bytes:
    return os.urandom(32)


def _request_template() -> tuple[bytes, bytes]:
    """The request's bytes before and after its nonce.

    A request is VER, NONC and a ZZZZ pad that brings the framed packet
    up to MIN_REQUEST_SIZE, so only the nonce differs between requests.
    """
    mark = b"\xff" * 32  # no other byte of the request is 0xff
    base = {TAG_VER: _U32.pack(VERSION), TAG_NONC: mark, TAG_ZZZZ: b""}
    unpadded = len(frame_packet(encode_message(base)))
    pad = max(0, MIN_REQUEST_SIZE - unpadded)
    pad += (-pad) % 4
    base[TAG_ZZZZ] = b"\x00" * pad
    head, _, tail = frame_packet(encode_message(base)).partition(mark)
    return head, tail


_REQUEST_HEAD, _REQUEST_TAIL = _request_template()


def build_request(nonce: bytes) -> bytes:
    """Tag-value request padded up to the minimum request size."""
    if len(nonce) != 32:
        raise CodecError(f"nonce must be 32 bytes, got {len(nonce)}")
    return _REQUEST_HEAD + nonce + _REQUEST_TAIL


def decode_request(packet: bytes) -> dict[int, bytes]:
    msg = decode_message(unframe_packet(packet))
    require_tag(msg, TAG_NONC, 32)
    return msg


# -- Merkle tree ------------------------------------------------------------


def merkle_leaf(nonce: bytes) -> bytes:
    return _digest(LEAF_PREFIX + nonce)


def merkle_node(left: bytes, right: bytes) -> bytes:
    return _digest(NODE_PREFIX + left + right)


def merkle_root_from_path(nonce: bytes, index: int, path: bytes) -> bytes:
    """Recompute the root from a leaf nonce and its sibling path.

    The hashes of merkle_leaf and merkle_node, written inline.
    """
    if len(path) % HASH_TRUNC != 0:
        raise CodecError(f"PATH length {len(path)} not a multiple of {HASH_TRUNC}")
    h = _SHA512.copy()
    h.update(LEAF_PREFIX + nonce)
    node = h.finalize()[:HASH_TRUNC]
    for i in range(0, len(path), HASH_TRUNC):
        sibling = path[i : i + HASH_TRUNC]
        h = _SHA512.copy()
        h.update(NODE_PREFIX + sibling + node if index & 1 else NODE_PREFIX + node + sibling)
        node = h.finalize()[:HASH_TRUNC]
        index >>= 1
    return node


def merkle_build(leaves: list[bytes]) -> list[list[bytes]]:
    """All tree levels for a batch of leaf hashes, padded to a power of two."""
    if not leaves:
        raise CodecError("empty Merkle batch")
    level = list(leaves)
    while len(level) & (len(level) - 1):
        level.append(b"\x00" * HASH_TRUNC)
    levels = [level]
    while len(level) > 1:
        level = [merkle_node(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


def merkle_path(levels: list[list[bytes]], index: int) -> bytes:
    out = []
    for level in levels[:-1]:
        out.append(level[index ^ 1])
        index >>= 1
    return b"".join(out)


# -- verification -----------------------------------------------------------


@lru_cache(maxsize=16)
def _verify_certificate(
    public_key: bytes, cert_raw: bytes
) -> tuple[Ed25519PublicKey, int, int]:
    """(delegated key, MINT, MAXT) of a delegation certificate signed by
    public_key; the delegated key is PUBK, loaded.

    A server keeps one certificate for hours, so its verdict and its loaded
    key are cached on the exact (key, certificate bytes).  Ed25519
    verification is a deterministic function of those inputs, so a hit
    returns what a fresh verify would.  Failures raise and are not cached.
    """
    cert = decode_message(cert_raw)
    cert_sig = require_tag(cert, TAG_SIG, 64)
    dele_raw = require_tag(cert, TAG_DELE)
    dele = decode_message(dele_raw)
    pubk = require_tag(dele, TAG_PUBK, 32)
    mint = _U64.unpack(require_tag(dele, TAG_MINT, 8))[0]
    maxt = _U64.unpack(require_tag(dele, TAG_MAXT, 8))[0]

    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(
            cert_sig, DELEGATION_CONTEXT + dele_raw
        )
    except InvalidSignature:
        raise CertSignatureError("delegation certificate signature invalid") from None
    return Ed25519PublicKey.from_public_bytes(pubk), mint, maxt


def verify_response(
    resp: bytes,
    nonce: bytes,
    key: RoughtimeServerKey,
    t_mono_rx: MonotonicInstant,
) -> RoughtimeMeasurement:
    """Run the full verification chain over a response packet.

    Order: delegation certificate signature by the long-term key, signed
    response signature by the delegated key, Merkle inclusion of the
    nonce, midpoint inside [MINT, MAXT].  Each failure raises its own
    error type and no measurement is produced.  A certificate is verified
    once per long-term key and reused while later responses carry the
    same bytes; the response signature, the Merkle path and the validity
    window are checked on every call.
    """
    msg = decode_message(unframe_packet(resp))
    sig = require_tag(msg, TAG_SIG, 64)
    path = require_tag(msg, TAG_PATH)
    srep_raw = require_tag(msg, TAG_SREP)
    cert_raw = require_tag(msg, TAG_CERT)
    index = _U32.unpack(require_tag(msg, TAG_INDX, 4))[0]

    delegated, mint, maxt = _verify_certificate(key.public_key, cert_raw)

    try:
        delegated.verify(sig, RESPONSE_CONTEXT + srep_raw)
    except InvalidSignature:
        raise ResponseSignatureError("signed response signature invalid") from None

    srep = decode_message(srep_raw)
    root = require_tag(srep, TAG_ROOT, HASH_TRUNC)
    midp = _U64.unpack(require_tag(srep, TAG_MIDP, 8))[0]
    radi = _U32.unpack(require_tag(srep, TAG_RADI, 4))[0]

    if merkle_root_from_path(nonce, index, path) != root:
        raise MerkleError("request nonce not under response Merkle root")

    if not (mint <= midp <= maxt):
        raise DelegationWindowError(f"midpoint {midp} outside delegation window [{mint}, {maxt}]")

    return RoughtimeMeasurement(
        midpoint=Timestamp.from_unix_s(midp),
        radius=SignedDuration.from_s(radi),
        server_id=key.fingerprint,
        t_mono_rx=t_mono_rx,
    )


# -- poll -------------------------------------------------------------------


def poll(
    server: RoughtimeServerKey, transport: Callable[[bytes], bytes], retries: int = 3
) -> RoughtimeMeasurement:
    """One verified measurement; fresh nonce per attempt, and a new attempt,
    up to `retries`, each time transport raises TimeoutError."""
    last_timeout: Optional[Exception] = None
    for _ in range(max(1, retries)):
        nonce = make_nonce()
        request = build_request(nonce)
        try:
            resp = transport(request)
        except TimeoutError as e:
            last_timeout = e
            continue
        return verify_response(resp, nonce, server, MonotonicInstant.now())
    raise UnreachableError(f"no response from {server.host}:{server.port}") from last_timeout


# -- test oracle ------------------------------------------------------------


@dataclass
class RoughtimeTestServer:
    """In-process Roughtime signing oracle for tests and benchmarks; it opens
    no socket.

    `transport` answers a request as an honest server would and keeps no
    state between requests.  now_unix_s supplies the reported midpoint.
    batch_nonces > 1 answers each request with a multi-leaf Merkle tree so
    PATH is non-trivial.  `tests/loopback.py` serves it over UDP, and its
    wire drops, replays and corrupts the responses on the way to the client.
    """

    now_unix_s: Callable[[], int] = lambda: 1_689_120_000
    radius_s: int = 1
    window_s: int = 86400
    batch_nonces: int = 1
    root_key: Ed25519PrivateKey = field(default_factory=Ed25519PrivateKey.generate)
    delegated_key: Ed25519PrivateKey = field(default_factory=Ed25519PrivateKey.generate)

    @property
    def server_key(self) -> RoughtimeServerKey:
        return RoughtimeServerKey(self.root_key.public_key().public_bytes_raw(), "127.0.0.1", 0)

    def make_cert(self, mint: int, maxt: int) -> bytes:
        dele = encode_message(
            {
                TAG_PUBK: self.delegated_key.public_key().public_bytes_raw(),
                TAG_MINT: _U64.pack(mint),
                TAG_MAXT: _U64.pack(maxt),
            }
        )
        sig = self.root_key.sign(DELEGATION_CONTEXT + dele)
        return encode_message({TAG_SIG: sig, TAG_DELE: dele})

    def transport(self, request: bytes) -> bytes:
        """Signed response for one request, per the server's current clock."""
        nonce = require_tag(decode_request(request), TAG_NONC, 32)
        nonces = [nonce] + [make_nonce() for _ in range(self.batch_nonces - 1)]
        levels = merkle_build([merkle_leaf(n) for n in nonces])
        root = levels[-1][0]
        midp = int(self.now_unix_s())
        srep = encode_message(
            {
                TAG_RADI: _U32.pack(self.radius_s),
                TAG_MIDP: _U64.pack(midp),
                TAG_ROOT: root,
            }
        )
        response = encode_message(
            {
                TAG_SIG: self.delegated_key.sign(RESPONSE_CONTEXT + srep),
                TAG_PATH: merkle_path(levels, 0),
                TAG_SREP: srep,
                TAG_CERT: self.make_cert(midp - self.window_s, midp + self.window_s),
                TAG_INDX: _U32.pack(0),
            }
        )
        return frame_packet(response)

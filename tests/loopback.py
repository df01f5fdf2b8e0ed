"""The network between the clients and the in-process test servers.

`NtsTestServer` and `RoughtimeTestServer` answer every request as honest
in-process oracles.  `Wire` stands between a server and its clients and
does what an on-path attacker can: drop every request, answer with the
previous reply, or flip a bit of a reply's last byte.  The tests that run
the clients' own sockets, the NTS-KE TLS handshake and `live` against real
providers, serve a server or its wire here: `udp` answers datagrams
through its `transport`, on IPv4 or IPv6 loopback, so a wire's faults
apply there too, including ones switched mid-test, and can have another
socket send the client a stray datagram first; `nts_ke` adds an
NTS-KE listener on either loopback with a self-signed certificate for
127.0.0.1 and ::1.  Each is a context manager that closes its sockets and
joins its thread on exit.
"""

import datetime
import ipaddress
import os
import socket
import ssl
import struct
import tempfile
import threading
from contextlib import contextmanager
from typing import Iterator, NamedTuple, Optional

from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.x509.oid import NameOID

from timeguard.provider_nts import (
    KE_AEAD,
    KE_COOKIE,
    KE_END,
    KE_NEXT_PROTO,
    KE_PORT,
    NTPV4_PROTOCOL_ID,
    NTS_KE_ALPN,
    NtsError,
    encode_ke_record,
    exporter_secret_from_keylog,
    hash_for_cipher,
    nts_export_keys,
    read_ke_records,
)
from timeguard.provider_roughtime import RoughtimeError

LOCALHOST = "127.0.0.1"


def _family(host: str) -> socket.AddressFamily:
    return socket.AF_INET6 if ":" in host else socket.AF_INET


class Wire:
    """A server as its clients reach it through an attacker on the path.

    With drop set, every request is lost and the client's transport times
    out; with replay, the answer is the reply to the previous request; with
    flip, the reply comes with the low bit of its last byte flipped.  Each
    is read per request, so a test can switch it mid-test.  Every other
    attribute is the server's.
    """

    def __init__(self, server, drop: bool = False, replay: bool = False,
                 flip: bool = False) -> None:
        self.server = server
        self.drop, self.replay, self.flip = drop, replay, flip
        self.last: Optional[bytes] = None

    def __getattr__(self, name: str):
        return getattr(self.server, name)

    def transport(self, request: bytes) -> bytes:
        if self.drop:
            raise TimeoutError("dropped")
        if self.replay and self.last is not None:
            return self.last
        self.last = reply = self.server.transport(request)
        if self.flip:
            reply = reply[:-1] + bytes([reply[-1] ^ 0x01])
        return reply


def ipv6_loopback() -> bool:
    """Whether this host can bind a UDP socket to ::1."""
    try:
        with socket.socket(socket.AF_INET6, socket.SOCK_DGRAM) as sock:
            sock.bind(("::1", 0))
    except OSError:
        return False
    return True


@contextmanager
def _serving(sock: socket.socket, handle) -> Iterator[None]:
    """Run handle() on a thread until the block exits; sock's 0.1 s timeout
    bounds how long the thread takes to notice."""
    sock.settimeout(0.1)
    done = threading.Event()

    def serve() -> None:
        while not done.is_set():
            try:
                handle()
            except socket.timeout:
                continue
            except OSError:
                return

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join(timeout=2.0)
        sock.close()


@contextmanager
def udp(server, host: str = LOCALHOST, stray: Optional[bytes] = None) -> Iterator[int]:
    """Answer datagrams on a loopback port of host, 127.0.0.1 or ::1, with
    server.transport, a server's or a `Wire`'s; yields the port.  A request
    the transport drops or refuses gets no reply.  With stray set, a second
    socket, as any host on the path can, sends it to the client just before
    each reply."""
    sock = socket.socket(_family(host), socket.SOCK_DGRAM)
    sock.bind((host, 0))
    other = socket.socket(_family(host), socket.SOCK_DGRAM)

    def handle() -> None:
        data, addr = sock.recvfrom(65536)
        try:
            reply = server.transport(data)
            if stray is not None:
                other.sendto(stray, addr)
            sock.sendto(reply, addr)
        except (NtsError, RoughtimeError, OSError):
            pass

    with other, _serving(sock, handle):
        yield sock.getsockname()[1]


def _certificate(directory: str) -> tuple[str, str]:
    """A self-signed certificate for 127.0.0.1 and ::1 and its key, as PEM files."""
    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "timeguard-test")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(days=1))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(
            x509.SubjectAlternativeName([x509.IPAddress(ipaddress.IPv4Address(LOCALHOST)),
                                         x509.IPAddress(ipaddress.IPv6Address("::1"))]),
            critical=False,
        )
        .sign(key, hashes.SHA256())
    )
    cert_path = os.path.join(directory, "cert.pem")
    key_path = os.path.join(directory, "key.pem")
    with open(cert_path, "wb") as fh:
        fh.write(cert.public_bytes(serialization.Encoding.PEM))
    with open(key_path, "wb") as fh:
        fh.write(key.private_bytes(serialization.Encoding.PEM,
                                   serialization.PrivateFormat.PKCS8,
                                   serialization.NoEncryption()))
    return cert_path, key_path


class NtsKe(NamedTuple):
    port: int  # the NTS-KE listener
    ntp_port: int  # the NTP side, which the handshake hands out
    ca_file: str  # the certificate a client must trust


@contextmanager
def nts_ke(server, host: str = LOCALHOST, send_zero_cookies: bool = False) -> Iterator[NtsKe]:
    """An NTS-KE TLS listener for server, an `NtsTestServer` or a `Wire`
    around one, on a loopback port of host, 127.0.0.1 or ::1, with its NTP
    side on `udp` at the same host.

    Each handshake exports fresh keys from its own key log and hands out
    eight cookies minted by server, or none with send_zero_cookies.
    """
    with tempfile.TemporaryDirectory(prefix="ntske-") as tmp, udp(server, host) as ntp_port:
        cert_path, key_path = _certificate(tmp)
        listener = socket.create_server((host, 0), family=_family(host), backlog=4)

        def answer(conn: socket.socket) -> None:
            fd, keylog = tempfile.mkstemp(dir=tmp, prefix="keylog-")
            os.close(fd)
            ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            ctx.minimum_version = ssl.TLSVersion.TLSv1_3
            ctx.load_cert_chain(cert_path, key_path)
            ctx.set_alpn_protocols([NTS_KE_ALPN])
            ctx.keylog_filename = keylog
            conn.settimeout(5.0)
            with ctx.wrap_socket(conn, server_side=True) as tls:
                read_ke_records(tls)
                secret = exporter_secret_from_keylog(keylog)
                c2s, s2c = nts_export_keys(secret, hash_for_cipher(tls.cipher()[0]))
                out = encode_ke_record(KE_NEXT_PROTO, struct.pack(">H", NTPV4_PROTOCOL_ID), True)
                out += encode_ke_record(KE_AEAD, struct.pack(">H", server.offer_aead_id), True)
                out += encode_ke_record(KE_PORT, struct.pack(">H", ntp_port), False)
                if not send_zero_cookies:
                    for _ in range(8):
                        out += encode_ke_record(KE_COOKIE, server.mint_cookie(c2s, s2c), False)
                out += encode_ke_record(KE_END, b"", True)
                tls.sendall(out)

        def handle() -> None:
            conn, _addr = listener.accept()
            try:
                answer(conn)
            except (NtsError, OSError):  # ssl.SSLError is an OSError
                pass
            finally:
                conn.close()

        with _serving(listener, handle):
            yield NtsKe(listener.getsockname()[1], ntp_port, cert_path)

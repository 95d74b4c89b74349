"""The grant exchange: offer file, export key, context binding (AAD),
sealed window payload and grant file.

An offer carries the server's ephemeral public key for one grant id. A grant
carries the client's ephemeral public key plus one value sealed under the
export key of their X25519 agreement: the window's starting chain key and
start date. The context fields ride as AEAD associated data, so any mismatch
or tampering surfaces as an authentication failure on the receiving side.
"""

from __future__ import annotations

from datetime import date
from typing import NamedTuple, Tuple

from .crypto import (
    NONCE_LEN, PREFIX_MAX, SecretKey32, aead_open, aead_seal, kdf, length_prefixed,
)
from .errors import CorruptState, InvalidLength
from .kvfile import (
    b64, b64_field, date_field, format_kv, iso_date, parse_kv, parse_versioned, require,
)

GRANT_VERSION = "1"
_PAYLOAD_LEN = 32 + 10  # chain key || ISO date


class Grant(NamedTuple):
    client_eph_pub: bytes
    box: bytes  # nonce || ciphertext || tag
    server_id: str
    device_id: str
    attest_digest: bytes
    grant_id: str
    grant_date: date


def check_grant_id(grant_id: str) -> str:
    """`grant_id` if an offer may carry it: InvalidLength if longer than the
    2-byte length that prefixes it in the AAD, CorruptState unless it is
    [A-Za-z0-9._-]+."""
    if len(grant_id) > PREFIX_MAX:
        raise InvalidLength(f"grant_id of {len(grant_id)} characters is longer than {PREFIX_MAX}")
    if not grant_id or not all((c.isascii() and c.isalnum()) or c in "._-" for c in grant_id):
        raise CorruptState(f"grant_id {grant_id!r} must be [A-Za-z0-9._-]+")
    return grant_id


def format_offer(grant_id: str, server_eph_pub: bytes) -> str:
    return format_kv([("grant_id", grant_id), ("server_eph_pub", b64(server_eph_pub))])


def parse_offer(text: str) -> Tuple[str, bytes]:
    """(grant id, the server's 32-byte ephemeral public key) of an offer file."""
    fields = parse_kv(text, "offer file")
    return (check_grant_id(require(fields, "grant_id", "offer file")),
            b64_field(fields, "server_eph_pub", "offer file", 32))


def _export_key(z: SecretKey32) -> SecretKey32:
    return SecretKey32(kdf(None, z, b"export-kdf", 32))


def _aad(grant: Grant) -> bytes:
    context = (grant.server_id.encode(), grant.device_id.encode(), grant.attest_digest,
               grant.grant_id.encode(), grant.grant_date.isoformat().encode())
    return b"".join(map(length_prefixed, context))


def seal_window(grant: Grant, z: SecretKey32, chain_key: SecretKey32, start: date) -> Grant:
    """`grant` with its box: `chain_key` and `start` sealed under the export key of `z`."""
    payload = chain_key.bytes + start.isoformat().encode()
    return grant._replace(box=aead_seal(_export_key(z), payload, _aad(grant)))


def open_window(grant: Grant, z: SecretKey32) -> Tuple[SecretKey32, date]:
    """(start chain key, start date) from the box; CorruptState if it opens but
    does not hold a chain key and an ISO date."""
    raw = aead_open(_export_key(z), grant.box, _aad(grant))
    if len(raw) != _PAYLOAD_LEN:
        raise CorruptState(f"grant payload has {len(raw)} bytes, expected {_PAYLOAD_LEN}")
    return SecretKey32(raw[:32]), iso_date(raw[32:].decode("ascii", "replace"), "grant payload")


def format_grant(grant: Grant) -> str:
    return format_kv(
        [
            ("v", GRANT_VERSION),
            ("client_eph_pub", b64(grant.client_eph_pub)),
            ("nonce", b64(grant.box[:NONCE_LEN])),
            ("ciphertext", b64(grant.box[NONCE_LEN:])),
            ("server_id", grant.server_id),
            ("device_id", grant.device_id),
            ("attest_digest", b64(grant.attest_digest)),
            ("grant_id", grant.grant_id),
            ("grant_date", grant.grant_date.isoformat()),
        ]
    )


def parse_grant(text: str) -> Grant:
    fields = parse_versioned(text, "grant file", GRANT_VERSION)
    return Grant(
        client_eph_pub=b64_field(fields, "client_eph_pub", "grant file", 32),
        box=b64_field(fields, "nonce", "grant file", NONCE_LEN)
        + b64_field(fields, "ciphertext", "grant file"),
        server_id=require(fields, "server_id", "grant file"),
        device_id=require(fields, "device_id", "grant file"),
        attest_digest=b64_field(fields, "attest_digest", "grant file", 32),
        grant_id=require(fields, "grant_id", "grant file"),
        grant_date=date_field(fields, "grant_date", "grant file"),
    )

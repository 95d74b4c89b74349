"""Grant container: context binding (AAD), payload layout, file format.

A grant carries an ephemeral public key plus one sealed value whose
plaintext is the window's starting chain key and start date. The context
fields ride as AEAD associated data, so any mismatch or tampering surfaces
as an authentication failure on the receiving side.
"""

from __future__ import annotations

from datetime import date
from typing import NamedTuple

from .crypto import NONCE_LEN, SecretKey32, length_prefixed
from .errors import CorruptState
from .kvfile import b64, b64_field, date_field, format_kv, iso_date, parse_versioned, require

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


def canonical_aad(
    server_id: str,
    device_id: str,
    attest_digest: bytes,
    grant_id: str,
    grant_date: date,
) -> bytes:
    """Length-prefixed field concatenation, fixed order, both sides."""
    return b"".join(
        length_prefixed(part)
        for part in (
            server_id.encode(),
            device_id.encode(),
            attest_digest,
            grant_id.encode(),
            grant_date.isoformat().encode(),
        )
    )


def grant_aad(grant: Grant) -> bytes:
    return canonical_aad(
        grant.server_id,
        grant.device_id,
        grant.attest_digest,
        grant.grant_id,
        grant.grant_date,
    )


def pack_window_payload(chain_key: SecretKey32, start: date) -> bytes:
    return chain_key.bytes + start.isoformat().encode()


def unpack_window_payload(raw: bytes):
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

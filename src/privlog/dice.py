"""Simulated DICE provider.

Stands in for the hardware root: compounds a unique device secret with a
firmware measurement into a CDI, and produces the attestation digest that
grants bind into their context. Any change to the measurement changes
both outputs, which is what ties derived keys to measured device state.
"""

from __future__ import annotations

from typing import NamedTuple

from .crypto import SecretKey32, kdf, length_prefixed
from .errors import CorruptState
from .kvfile import b64, b64_field, format_kv, parse_kv, require

MAX_DEVICE_ID_LEN = 64


class _DeviceIdentityFields(NamedTuple):
    uds: bytes
    measurement: bytes
    device_id: str


class DeviceIdentity(_DeviceIdentityFields):
    __slots__ = ()

    def __new__(cls, uds: bytes, measurement: bytes, device_id: str):
        if len(uds) != 32 or len(measurement) != 32:
            raise CorruptState("uds and measurement must be 32 bytes")
        if not device_id or len(device_id) > MAX_DEVICE_ID_LEN:
            raise CorruptState("device_id must be 1..64 characters")
        if not device_id.isascii() or not device_id.isprintable():
            raise CorruptState("device_id must be printable ASCII")
        return super().__new__(cls, uds, measurement, device_id)

    def __repr__(self) -> str:
        return f"DeviceIdentity(device_id={self.device_id!r}, uds=<redacted>)"


def derive_cdi(identity: DeviceIdentity) -> SecretKey32:
    """Compound device identifier: secret x measurement."""
    return SecretKey32(kdf(identity.uds, identity.measurement, b"dice-cdi", 32))


def attestation_digest(identity: DeviceIdentity) -> bytes:
    """SHA-256 over length-prefixed (device_id, measurement).

    Length prefixes keep distinct (id, measurement) pairs from colliding
    by concatenation. A verifier holding the same inputs recomputes it.
    """
    from cryptography.hazmat.primitives.hashes import SHA256, Hash
    digest = Hash(SHA256())
    digest.update(length_prefixed(identity.device_id.encode()))
    digest.update(length_prefixed(identity.measurement))
    return digest.finalize()


def parse_identity(text: str) -> DeviceIdentity:
    """Parse the identity file format: uds=, measurement=, device_id=."""
    fields = parse_kv(text, "identity file")
    uds = b64_field(fields, "uds", "identity file", 32)
    measurement = b64_field(fields, "measurement", "identity file", 32)
    device_id = require(fields, "device_id", "identity file")
    try:
        return DeviceIdentity(uds=uds, measurement=measurement, device_id=device_id)
    except CorruptState as exc:
        raise CorruptState(f"identity file: {exc}") from exc


def format_identity(identity: DeviceIdentity) -> str:
    return format_kv(
        [
            ("uds", b64(identity.uds)),
            ("measurement", b64(identity.measurement)),
            ("device_id", identity.device_id),
        ]
    )

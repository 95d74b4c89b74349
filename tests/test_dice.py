"""Simulated DICE provider: determinism, sensitivity, file format."""

import base64
import hashlib
import os

import pytest
from hypothesis import given, settings, strategies as st

from privlog.dice import (
    DeviceIdentity,
    attestation_digest,
    derive_cdi,
    format_identity,
    parse_identity,
)
from privlog.errors import CorruptState


def test_cdi_deterministic(identity):
    assert derive_cdi(identity) == derive_cdi(identity)


def test_cdi_golden(golden, identity):
    assert derive_cdi(identity).bytes.hex() == golden["cdi"]["cdi"]


def test_attestation_digest_golden(golden, identity):
    assert attestation_digest(identity).hex() == golden["attestation_digest"]["digest"]
    assert attestation_digest(identity) == attestation_digest(identity)


@settings(max_examples=200)
@given(
    measurement=st.binary(min_size=32, max_size=32),
    device_id=st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=64),
)
def test_attestation_digest_matches_hashlib(measurement, device_id):
    """The digest is SHA-256 over the two length-prefixed fields, recomputed
    here with stdlib hashlib, which privlog does not use."""
    identity = DeviceIdentity(uds=b"\x01" * 32, measurement=measurement, device_id=device_id)
    raw_id = device_id.encode()
    fields = len(raw_id).to_bytes(2, "big") + raw_id + (32).to_bytes(2, "big") + measurement
    assert attestation_digest(identity) == hashlib.sha256(fields).digest()


def test_attestation_digest_varies_with_device_id(identity):
    other = DeviceIdentity(
        uds=identity.uds, measurement=identity.measurement, device_id="other-device"
    )
    assert attestation_digest(other) != attestation_digest(identity)


def test_measurement_sensitivity(identity):
    # Any single-byte change to the measurement must move both outputs.
    base_cdi = derive_cdi(identity).bytes
    base_attest = attestation_digest(identity)
    for _ in range(100):
        idx = os.urandom(1)[0] % 32
        mutated = bytearray(identity.measurement)
        mutated[idx] ^= 1 + os.urandom(1)[0] % 255
        other = DeviceIdentity(
            uds=identity.uds, measurement=bytes(mutated), device_id=identity.device_id
        )
        assert derive_cdi(other).bytes != base_cdi
        assert attestation_digest(other) != base_attest


def test_identity_constraints():
    with pytest.raises(CorruptState, match="uds and measurement must be 32 bytes"):
        DeviceIdentity(uds=b"\x01" * 31, measurement=b"\x02" * 32, device_id="x")
    with pytest.raises(CorruptState, match=r"device_id must be 1\.\.64 characters"):
        DeviceIdentity(uds=b"\x01" * 32, measurement=b"\x02" * 32, device_id="")
    with pytest.raises(CorruptState, match=r"device_id must be 1\.\.64 characters"):
        DeviceIdentity(uds=b"\x01" * 32, measurement=b"\x02" * 32, device_id="a" * 65)
    with pytest.raises(CorruptState, match="device_id must be printable ASCII"):
        DeviceIdentity(uds=b"\x01" * 32, measurement=b"\x02" * 32, device_id="naïve")


def test_identity_repr_hides_uds():
    uds = os.urandom(32)
    identity = DeviceIdentity(uds=uds, measurement=b"\x02" * 32, device_id="golden-device")
    for rendering in (repr(identity), str(identity)):
        for form in (uds.hex(), base64.b64encode(uds).decode(), repr(uds)):
            assert form not in rendering
        assert "redacted" in rendering


def test_identity_file_roundtrip(identity):
    assert parse_identity(format_identity(identity)) == identity


def test_identity_file_errors():
    with pytest.raises(CorruptState):
        parse_identity("uds=!!notb64!!\nmeasurement=AA==\ndevice_id=x\n")
    with pytest.raises(CorruptState):
        parse_identity("uds=AAAA\n")
    with pytest.raises(CorruptState):
        parse_identity("garbage line without equals")

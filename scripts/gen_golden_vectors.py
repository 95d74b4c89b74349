#!/usr/bin/env python3
"""Regenerate tests/data/golden_vectors.json from the reference oracles.

The oracles live in tests/oracles.py and are validated against RFC 5869,
RFC 4231 and RFC 7748 vectors in the test suite. Run this only when a
vector set is added; existing entries must never change.
"""

import hashlib
import json
import sys
from datetime import date
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"
sys.path.insert(0, str(TESTS))

import oracles  # noqa: E402


def build() -> dict:
    """Every golden vector, computed by the oracles."""
    golden = {}

    golden["kdf_zero_ratchet_64"] = oracles.hkdf_sha256(
        b"", b"\x00" * 32, b"ratchet", 64
    ).hex()

    chain_seed = bytes(range(32))
    chain = oracles.ratchet_chain(chain_seed, 30)
    golden["ratchet_chain"] = {
        "seed": chain_seed.hex(),
        "steps": [{"ck": ck.hex(), "mk": mk.hex()} for ck, mk in chain],
    }

    uds = b"\x01" * 32
    measurement = b"\x02" * 32
    device_id = "golden-device"
    cdi = oracles.hkdf_sha256(uds, measurement, b"dice-cdi", 32)
    golden["cdi"] = {
        "uds": uds.hex(),
        "measurement": measurement.hex(),
        "cdi": cdi.hex(),
    }

    def prefixed(raw: bytes) -> bytes:
        return len(raw).to_bytes(2, "big") + raw

    attest = hashlib.sha256(
        prefixed(device_id.encode()) + prefixed(measurement)
    ).digest()
    golden["attestation_digest"] = {
        "device_id": device_id,
        "measurement": measurement.hex(),
        "digest": attest.hex(),
    }

    # Full client bootstrap with every random input pinned.
    server_priv = oracles.clamp_scalar(b"\x42" * 32)
    server_pub = oracles.x25519_public(server_priv)
    init_nonce = b"\x07" * 32
    today = "2024-05-01"

    hash_key = oracles.hkdf_sha256(b"", cdi, b"hmac-key", 32)
    dh_priv = oracles.clamp_scalar(
        oracles.hkdf_sha256(b"", init_nonce, b"dh-init", 32)
    )
    dh_pub = oracles.x25519_public(dh_priv)
    z = oracles.x25519(dh_priv, server_pub)
    root_key = oracles.hkdf_sha256(cdi, z, b"root-key", 32)
    chain_key = oracles.hkdf_sha256(b"", root_key, b"ck-init" + today.encode(), 32)

    golden["client_init"] = {
        "uds": uds.hex(),
        "measurement": measurement.hex(),
        "device_id": device_id,
        "server_priv": server_priv.hex(),
        "server_pub": server_pub.hex(),
        "init_nonce": init_nonce.hex(),
        "today": today,
        "hash_key": hash_key.hex(),
        "dh_priv": dh_priv.hex(),
        "dh_pub": dh_pub.hex(),
        "root_key": root_key.hex(),
        "chain_key": chain_key.hex(),
    }

    # Three days of message keys from the bootstrap chain, as consumed by
    # a client advancing 2024-05-01 .. 2024-05-03.
    mks = oracles.ratchet_chain(chain_key, 3)
    golden["client_init_first_mks"] = {
        "dates": ["2024-05-01", "2024-05-02", "2024-05-03"],
        "mk": [mk.hex() for _, mk in mks],
    }

    golden["pseudonym_token"] = {
        "hash_key": hash_key.hex(),
        "plaintext": "alice@example.com",
        "token": oracles.hmac_trunc16(hash_key, b"alice@example.com").hex(),
    }

    # A v1 grant from that bootstrap: the server offers an ephemeral key,
    # the client answers for [2024-05-02, 2024-05-03] with its own.
    offer_seed = b"\x51" * 32
    grant_seed = b"\x52" * 32
    server_eph_pub = oracles.x25519_public(
        oracles.clamp_scalar(oracles.hkdf_sha256(b"", offer_seed, b"server-ephemeral", 32))
    )
    client_eph_priv = oracles.clamp_scalar(
        oracles.hkdf_sha256(b"", grant_seed, b"export-keygen", 32)
    )
    z = oracles.x25519(client_eph_priv, server_eph_pub)
    start_date, grant_date = "2024-05-02", "2024-05-03"
    server_id, grant_id = "golden-server", "golden-grant"
    golden["grant_v1"] = {
        "offer_seed": offer_seed.hex(),
        "server_eph_pub": server_eph_pub.hex(),
        "grant_seed": grant_seed.hex(),
        "client_eph_pub": oracles.x25519_public(client_eph_priv).hex(),
        "export_key": oracles.hkdf_sha256(b"", z, b"export-kdf", 32).hex(),
        "server_id": server_id,
        "grant_id": grant_id,
        "start_date": start_date,
        "grant_date": grant_date,
        "aad": oracles.grant_aad(
            server_id, device_id, attest, grant_id, date.fromisoformat(grant_date)
        ).hex(),
        "start_chain_key": oracles.ratchet_chain(chain_key, 1)[0][0].hex(),
    }

    return golden


def main() -> None:
    out = TESTS / "data" / "golden_vectors.json"
    out.write_text(json.dumps(build(), indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()

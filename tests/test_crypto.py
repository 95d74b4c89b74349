"""Primitive-level tests against independent oracles and RFC vectors."""

import base64
import importlib.util
import json
import os
import secrets
import sys
import threading
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from privlog.crypto import (
    SecretKey32,
    aead_open,
    aead_seal,
    dh_derive_keypair,
    dh_shared,
    kdf,
    pseudonymize,
    ratchet_step,
)
from privlog.errors import AuthFailure, InvalidLength, WeakKey
from privlog.server import WindowKeys, create_offer

# --- oracle self-checks (published vectors) -----------------------------

RFC5869_CASES = [
    # (ikm, salt, info, length, okm)
    (
        bytes.fromhex("0b" * 22),
        bytes.fromhex("000102030405060708090a0b0c"),
        bytes.fromhex("f0f1f2f3f4f5f6f7f8f9"),
        42,
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865",
    ),
    (
        bytes(range(0x00, 0x50)),
        bytes(range(0x60, 0xB0)),
        bytes(range(0xB0, 0x100)),
        82,
        "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
        "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
        "cc30c58179ec3e87c14c01d5c1f3434f1d87",
    ),
    (bytes.fromhex("0b" * 22), b"", b"", 42,
     "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"),
]

RFC7748_SCALAR_CASES = [
    (
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
    ),
    (
        "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
        "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
    ),
]

RFC7748_DH = {
    "a_priv": "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
    "a_pub": "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a",
    "b_priv": "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
    "b_pub": "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
    "shared": "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742",
}


@pytest.mark.parametrize("ikm,salt,info,length,okm", RFC5869_CASES)
def test_oracle_hkdf_rfc5869(ikm, salt, info, length, okm):
    assert oracles.hkdf_sha256(salt, ikm, info, length).hex() == okm


@pytest.mark.parametrize("k,u,out", RFC7748_SCALAR_CASES)
def test_oracle_x25519_rfc7748(k, u, out):
    assert oracles.x25519(bytes.fromhex(k), bytes.fromhex(u)).hex() == out


def test_oracle_x25519_dh_rfc7748():
    a = bytes.fromhex(RFC7748_DH["a_priv"])
    b = bytes.fromhex(RFC7748_DH["b_priv"])
    assert oracles.x25519_public(a).hex() == RFC7748_DH["a_pub"]
    assert oracles.x25519_public(b).hex() == RFC7748_DH["b_pub"]
    shared = oracles.x25519(a, bytes.fromhex(RFC7748_DH["b_pub"]))
    assert shared.hex() == RFC7748_DH["shared"]
    assert shared == oracles.x25519(b, bytes.fromhex(RFC7748_DH["a_pub"]))


def test_golden_vectors_file_is_what_the_oracles_compute():
    """The committed golden vectors are byte for byte what
    scripts/gen_golden_vectors.py builds from the oracles."""
    root = Path(__file__).resolve().parent.parent
    loader = importlib.util.spec_from_file_location(
        "gen_golden_vectors", root / "scripts" / "gen_golden_vectors.py")
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    committed = (root / "tests" / "data" / "golden_vectors.json").read_bytes()
    assert (json.dumps(script.build(), indent=2) + "\n").encode() == committed


# --- kdf ----------------------------------------------------------------


def test_kdf_zero_ratchet_golden(golden):
    out = kdf(None, b"\x00" * 32, b"ratchet", 64)
    assert out.hex() == golden["kdf_zero_ratchet_64"]
    assert out[:32] != out[32:]


def test_kdf_label_separation():
    k = os.urandom(32)
    assert kdf(None, k, b"a", 32) != kdf(None, k, b"b", 32)


@settings(max_examples=200)
@given(salt=st.binary(min_size=0, max_size=64), ikm=st.binary(min_size=1, max_size=64))
def test_kdf_matches_oracle(salt, ikm):
    assert kdf(salt, ikm, b"root-key", 32) == oracles.hkdf_sha256(salt, ikm, b"root-key", 32)


@pytest.mark.parametrize("bad_len", [0, 15, 65, 128])
def test_kdf_rejects_out_of_range_lengths(bad_len):
    with pytest.raises(InvalidLength):
        kdf(None, b"\x01" * 32, b"x", bad_len)


@pytest.mark.parametrize("ok_len", [16, 32, 64])
def test_kdf_accepts_boundary_lengths(ok_len):
    assert len(kdf(None, b"\x01" * 32, b"x", ok_len)) == ok_len


def test_kdf_accepts_secretkey_arguments():
    k = SecretKey32(b"\x05" * 32)
    assert kdf(k, k, b"label", 32) == kdf(b"\x05" * 32, b"\x05" * 32, b"label", 32)


# --- ratchet ------------------------------------------------------------


def test_ratchet_deterministic():
    ck = SecretKey32(os.urandom(32))
    a = ratchet_step(ck)
    b = ratchet_step(ck)
    assert a[0] == b[0] and a[1] == b[1]


def test_ratchet_golden_chain(golden):
    seed = bytes.fromhex(golden["ratchet_chain"]["seed"])
    ck = SecretKey32(seed)
    for step in golden["ratchet_chain"]["steps"]:
        ck, mk = ratchet_step(ck)
        assert ck.bytes.hex() == step["ck"]
        assert mk.bytes.hex() == step["mk"]


def test_ratchet_one_wayness_proxy():
    # No output ever equals its input over 10^4 random chain keys.
    rng = secrets.SystemRandom()
    for _ in range(10_000):
        raw = rng.getrandbits(256).to_bytes(32, "big")
        ck_next, mk = ratchet_step(SecretKey32(raw))
        assert ck_next.bytes != raw
        assert mk.bytes != raw
        assert mk != ck_next


# --- pseudonymization ---------------------------------------------------


def test_pseudonymize_date_free():
    key = SecretKey32(os.urandom(32))
    assert pseudonymize(key, b"alice@example.com") == pseudonymize(key, b"alice@example.com")


def test_pseudonymize_golden(golden):
    vec = golden["pseudonym_token"]
    key = SecretKey32(bytes.fromhex(vec["hash_key"]))
    assert pseudonymize(key, vec["plaintext"].encode()).hex() == vec["token"]


def test_pseudonymize_distinct_inputs():
    key = SecretKey32(os.urandom(32))
    t1 = pseudonymize(key, b"alice@example.com")
    t2 = pseudonymize(key, b"bob@example.com")
    assert t1 != t2
    assert t1 == oracles.hmac_trunc16(key.bytes, b"alice@example.com")
    assert t2 == oracles.hmac_trunc16(key.bytes, b"bob@example.com")


@settings(max_examples=1000)
@given(key=st.binary(min_size=32, max_size=32), msg=st.binary(max_size=256))
def test_pseudonymize_is_truncated_hmac(key, msg):
    token = pseudonymize(SecretKey32(key), msg)
    assert len(token) == 16
    assert token == oracles.hmac_sha256(key, msg)[:16]


@settings(max_examples=300)
@given(
    keys=st.tuples(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32)),
    calls=st.lists(st.tuples(st.sampled_from((0, 1)), st.binary(min_size=1, max_size=300)),
                   min_size=1, max_size=12),
)
def test_pseudonymize_interleaved_keys_match_oracle(keys, calls):
    """Each call copies the key's kept HMAC context and never consumes it, so
    calls under two keys, in any order and on any value, match the oracle."""
    held = [SecretKey32(k) for k in keys]
    for which, msg in calls:
        assert pseudonymize(held[which], msg) == oracles.hmac_sha256(keys[which], msg)[:16]


def test_pseudonymize_from_two_threads_matches_oracle():
    """Threads sharing one key need no lock: each copies the kept context."""
    raw = b"\x5a" * 32
    key = SecretKey32(raw)
    msgs = [f"user{i}@example.com".encode() for i in range(1000)]
    results = [None, None]

    def derive(slot):
        results[slot] = [pseudonymize(key, m) for m in msgs]

    threads = [threading.Thread(target=derive, args=(slot,)) for slot in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    expected = [oracles.hmac_trunc16(raw, m) for m in msgs]
    assert results == [expected, expected]


# --- AEAD ---------------------------------------------------------------


def test_aead_roundtrip_sizes():
    key = SecretKey32(os.urandom(32))
    box = aead_seal(key, b"\xaa" * 16, b"")
    assert len(box[:12]) == 12
    assert len(box[12:]) == 32
    assert len(box) == 44
    assert aead_open(key, box, b"") == b"\xaa" * 16


def test_aead_fresh_nonces():
    key = SecretKey32(os.urandom(32))
    b1 = aead_seal(key, b"same plaintext")
    b2 = aead_seal(key, b"same plaintext")
    assert b1[:12] != b2[:12]
    assert b1[12:] != b2[12:]


def test_aead_wrong_key():
    k1 = SecretKey32(os.urandom(32))
    k2 = SecretKey32(os.urandom(32))
    box = aead_seal(k1, b"token")
    with pytest.raises(AuthFailure):
        aead_open(k2, box)


def test_aead_aad_flip():
    key = SecretKey32(os.urandom(32))
    box = aead_seal(key, b"token", b"context")
    with pytest.raises(AuthFailure):
        aead_open(key, box, b"contexu")


def test_aead_truncated_ct():
    key = SecretKey32(os.urandom(32))
    box = aead_seal(key, b"token")
    with pytest.raises((AuthFailure, InvalidLength)):
        aead_open(key, box[:-1])
    with pytest.raises(InvalidLength):
        aead_open(key, box[:12] + b"\x00" * 15)
    with pytest.raises(InvalidLength):
        aead_open(key, b"\x00" * 20)


@settings(max_examples=1000, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    plaintext=st.binary(min_size=0, max_size=4096),
    aad=st.binary(min_size=0, max_size=1024),
    mutate_at=st.integers(min_value=0, max_value=1 << 30),
)
def test_aead_roundtrip_and_mutation(key, plaintext, aad, mutate_at):
    sk = SecretKey32(key)
    box = aead_seal(sk, plaintext, aad)
    assert aead_open(sk, box, aad) == plaintext

    blob = bytearray(box + aad)
    idx = mutate_at % len(blob)
    blob[idx] ^= 0x01
    raw, mutated_aad = bytes(blob[: len(box)]), bytes(blob[len(box) :])
    with pytest.raises(AuthFailure):
        aead_open(sk, raw, mutated_aad)


# --- X25519 -------------------------------------------------------------


def test_keypair_deterministic_and_label_separated():
    seed = os.urandom(32)
    p1 = dh_derive_keypair(seed, b"dh-init")
    p2 = dh_derive_keypair(seed, b"dh-init")
    p3 = dh_derive_keypair(seed, b"export-keygen")
    assert p1 == p2
    assert p1 != p3
    # clamped scalar, public key matches the ladder oracle
    assert p1.private == oracles.clamp_scalar(p1.private)
    assert p1.public == oracles.x25519_public(p1.private)


def test_dh_shared_matches_rfc_vectors():
    a = bytes.fromhex(RFC7748_DH["a_priv"])
    b_pub = bytes.fromhex(RFC7748_DH["b_pub"])
    assert dh_shared(a, b_pub).bytes.hex() == RFC7748_DH["shared"]


def test_dh_symmetry_bulk():
    for _ in range(1000):
        p1 = dh_derive_keypair(os.urandom(32), b"t1")
        p2 = dh_derive_keypair(os.urandom(32), b"t2")
        s12 = dh_shared(p1.private, p2.public)
        s21 = dh_shared(p2.private, p1.public)
        assert s12 == s21


def test_dh_shared_matches_oracle():
    for _ in range(25):
        p1 = dh_derive_keypair(os.urandom(32), b"t1")
        p2 = dh_derive_keypair(os.urandom(32), b"t2")
        assert dh_shared(p1.private, p2.public).bytes == oracles.x25519(
            p1.private, p2.public
        )


def test_dh_rejects_low_order_peer():
    pair = dh_derive_keypair(os.urandom(32), b"t")
    with pytest.raises(WeakKey):
        dh_shared(pair.private, b"\x00" * 32)


# --- SecretKey32 hygiene ------------------------------------------------


def _renderings_hide(secret: bytes, *records):
    for record in records:
        for rendering in (repr(record), str(record)):
            for form in (secret.hex(), base64.b64encode(secret).decode(), repr(secret)):
                assert form not in rendering, type(record).__name__


def test_secret_key_never_prints_material():
    raw = os.urandom(32)
    key = SecretKey32(raw)
    for rendering in (repr(key), str(key)):
        assert raw.hex() not in rendering
        assert "redacted" in rendering


def test_records_never_print_private_keys(identity, server_keys, client_state):
    """Every record that holds a private key or secret key renders without it."""
    pair = dh_derive_keypair(os.urandom(32), b"t")
    assert "redacted" in repr(pair) and pair.public.hex() in repr(pair)
    _renderings_hide(pair.private, pair)
    create_offer(server_keys, "g-print", seed=b"\x51" * 32)
    _renderings_hide(server_keys.longterm.private, server_keys, server_keys.longterm)
    _renderings_hide(server_keys.ephemeral["g-print"].private, server_keys)
    for key in client_state[:3]:
        _renderings_hide(key.bytes, client_state)
    day_key = SecretKey32(os.urandom(32))
    window = WindowKeys(grant_id="g-print", days={date(2024, 5, 1): day_key})
    _renderings_hide(day_key.bytes, window)


def test_secret_key_length_enforced():
    with pytest.raises(InvalidLength):
        SecretKey32(b"\x01" * 31)
    with pytest.raises(InvalidLength):
        SecretKey32(b"\x01" * 33)


def test_secret_key_wipe():
    key = SecretKey32(b"\x55" * 32)
    key.wipe()
    assert key.bytes == b"\x00" * 32


def test_wipe_drops_the_cached_cipher():
    """A cipher built before `wipe` must not keep sealing under the old key."""
    raw = b"\x55" * 32
    key = SecretKey32(raw)
    before = aead_seal(key, b"token")
    key.wipe()
    after = aead_seal(key, b"token")
    with pytest.raises(AuthFailure):
        aead_open(SecretKey32(raw), after)
    with pytest.raises(AuthFailure):
        aead_open(key, before)
    assert aead_open(SecretKey32(b"\x00" * 32), after) == b"token"


def test_wipe_drops_the_cached_hmac():
    """An HMAC state keyed before `wipe` must not keep hashing under the old
    key, and no two keys share one, even keys with the same bytes."""
    raw, msg = b"\x55" * 32, b"alice@example.com"
    key, twin = SecretKey32(raw), SecretKey32(raw)
    assert pseudonymize(key, msg) == pseudonymize(key, msg) == oracles.hmac_trunc16(raw, msg)
    assert pseudonymize(twin, msg) == oracles.hmac_trunc16(raw, msg)
    assert key.hmac() is not twin.hmac()
    key.wipe()
    assert pseudonymize(key, msg) == oracles.hmac_trunc16(b"\x00" * 32, msg)
    assert pseudonymize(twin, msg) == oracles.hmac_trunc16(raw, msg)


def test_wipe_sets_the_hmac_context_to_none():
    """`wipe` drops the kept context; a new key with the same bytes builds its
    own and gives the same tokens as before."""
    raw, msgs = b"\x66" * 32, [b"alice@example.com", b"10.0.0.7"]
    key = SecretKey32(raw)
    before = [pseudonymize(key, m) for m in msgs]
    assert key.hmac() is not None
    key.wipe()
    assert key._hmac is None
    assert [pseudonymize(SecretKey32(raw), m) for m in msgs] == before

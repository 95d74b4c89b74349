"""Client engine: bootstrap, chain advance, protection, grants, state io."""

import base64
import contextlib
import os
import random
from datetime import date, timedelta

import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from hypothesis import given, settings, strategies as st

import oracles

from privlog.client import (
    MODE_BATCH,
    MODE_STREAM,
    GrantRequest,
    ProtectSession,
    advance_to,
    create_grant,
    init_client,
    load_state,
    save_state,
)
from privlog.corpus import BenchConfig, generate_corpus
from privlog.crypto import (
    SecretKey32,
    aead_open,
    dh_derive_keypair,
    dh_shared,
    kdf,
    pseudonymize,
    ratchet_step,
)
from privlog.dice import DeviceIdentity
from privlog.errors import (
    AuthFailure,
    CorruptState,
    InvalidWindow,
    OutOfOrderDate,
    UnsupportedVersion,
)
from privlog.kvfile import parse_kv
from privlog.pii import parse_protected_line

DAY1 = date(2024, 5, 1)


def D(n: int) -> date:
    return DAY1 + timedelta(days=n - 1)


def logcat(day: date, msg: str) -> str:
    return f"{day.month:02d}-{day.day:02d} 12:00:00.000  1000  1000 I TestTag: {msg}"


# --- init ----------------------------------------------------------------


def test_init_deterministic(identity, server_keys):
    s1 = init_client(identity, server_keys.longterm.public, DAY1, rng_seed=b"\x07" * 32)
    s2 = init_client(identity, server_keys.longterm.public, DAY1, rng_seed=b"\x07" * 32)
    assert s1 == s2


def test_init_golden_state(golden):
    vec = golden["client_init"]
    identity = DeviceIdentity(
        uds=bytes.fromhex(vec["uds"]),
        measurement=bytes.fromhex(vec["measurement"]),
        device_id=vec["device_id"],
    )
    state = init_client(
        identity,
        bytes.fromhex(vec["server_pub"]),
        date.fromisoformat(vec["today"]),
        rng_seed=bytes.fromhex(vec["init_nonce"]),
    )
    assert state.hash_key.bytes.hex() == vec["hash_key"]
    dh_pair = dh_derive_keypair(bytes.fromhex(vec["init_nonce"]), b"dh-init")
    assert dh_pair.private.hex() == vec["dh_priv"]
    assert dh_pair.public.hex() == vec["dh_pub"]
    assert state.root_key.bytes.hex() == vec["root_key"]
    assert state.chain_key.bytes.hex() == vec["chain_key"]
    assert state.chain_date == state.epoch_date == date.fromisoformat(vec["today"])


def test_grant_golden_vector(golden):
    """A grant from the vector's seeds carries the oracle's ephemeral public
    key and opens, under the oracle's export key and AAD, to the oracle's
    start chain key followed by the ISO start date."""
    from privlog.server import create_offer, keygen

    init, vec = golden["client_init"], golden["grant_v1"]
    identity = DeviceIdentity(
        uds=bytes.fromhex(init["uds"]),
        measurement=bytes.fromhex(init["measurement"]),
        device_id=init["device_id"],
    )
    state = init_client(identity, bytes.fromhex(init["server_pub"]),
                        date.fromisoformat(init["today"]), rng_seed=bytes.fromhex(init["init_nonce"]))
    offer_pub = create_offer(keygen(vec["server_id"]), vec["grant_id"],
                             seed=bytes.fromhex(vec["offer_seed"]))
    assert offer_pub.hex() == vec["server_eph_pub"]
    grant_date = date.fromisoformat(vec["grant_date"])
    req = GrantRequest(offer_pub, date.fromisoformat(vec["start_date"]), vec["server_id"],
                       vec["grant_id"])
    grant, _ = create_grant(advance_to(state, grant_date)[0], req, identity, grant_date,
                            rng_seed=bytes.fromhex(vec["grant_seed"]))
    assert grant.client_eph_pub.hex() == vec["client_eph_pub"]
    payload = ChaCha20Poly1305(bytes.fromhex(vec["export_key"])).decrypt(
        grant.box[:12], grant.box[12:], bytes.fromhex(vec["aad"]))
    assert payload == bytes.fromhex(vec["start_chain_key"]) + vec["start_date"].encode()


def test_init_measurement_changes_keys(identity, server_keys):
    s1 = init_client(identity, server_keys.longterm.public, DAY1, rng_seed=b"\x07" * 32)
    other = DeviceIdentity(
        uds=identity.uds, measurement=b"\x03" * 32, device_id=identity.device_id
    )
    s2 = init_client(other, server_keys.longterm.public, DAY1, rng_seed=b"\x07" * 32)
    assert s1.root_key != s2.root_key
    assert s1.hash_key != s2.hash_key


def test_init_random_nonce_differs(identity, server_keys):
    s1 = init_client(identity, server_keys.longterm.public, DAY1)
    s2 = init_client(identity, server_keys.longterm.public, DAY1)
    assert s1.root_key != s2.root_key
    assert s1.hash_key == s2.hash_key  # depends only on the CDI


# --- chain advance -------------------------------------------------------


def test_advance_zero_days(golden, client_state):
    state, keys = advance_to(client_state, client_state.chain_date)
    assert list(keys) == [client_state.chain_date]
    assert state.chain_date == client_state.chain_date
    # repeatable: the current day's key stays derivable
    again, keys2 = advance_to(state, state.chain_date)
    assert keys2[state.chain_date] == keys[state.chain_date]


def test_advance_three_days_matches_golden(golden):
    vec = golden["client_init"]
    identity = DeviceIdentity(
        uds=bytes.fromhex(vec["uds"]),
        measurement=bytes.fromhex(vec["measurement"]),
        device_id=vec["device_id"],
    )
    state = init_client(
        identity,
        bytes.fromhex(vec["server_pub"]),
        date.fromisoformat(vec["today"]),
        rng_seed=bytes.fromhex(vec["init_nonce"]),
    )
    target = state.epoch_date + timedelta(days=2)
    state2, keys = advance_to(state, target)
    expected = golden["client_init_first_mks"]
    assert [d.isoformat() for d in sorted(keys)] == expected["dates"]
    for day_iso, mk_hex in zip(expected["dates"], expected["mk"]):
        assert keys[date.fromisoformat(day_iso)].bytes.hex() == mk_hex
    assert state2.chain_date == target


def test_advance_rejects_rewind(client_state):
    state, _ = advance_to(client_state, client_state.chain_date + timedelta(days=3))
    with pytest.raises(OutOfOrderDate):
        advance_to(state, client_state.chain_date)


# --- protect_line --------------------------------------------------------


def test_protect_sample_line_shape(identity, server_keys):
    line = (
        "10-15 14:23:47.821  2341  2341 I AuthService: "
        "Login attempt for user alice@example.com from device IMEI:352099001761481"
    )
    state = init_client(
        identity, server_keys.longterm.public, date(2024, 10, 15), rng_seed=b"\x07" * 32
    )
    session = ProtectSession(state, assumed_year=2024)
    out, count = session.protect_line(line)
    assert count == 2
    assert out.startswith(
        "10-15 14:23:47.821  2341  2341 I AuthService: Login attempt for user <PII type=\"EMAIL\">"
    )
    assert '</PII> from device IMEI:<PII type="IMEI">' in out
    assert out.endswith("</PII>")


def test_protect_no_pii_line_unchanged(client_state):
    session = ProtectSession(client_state, assumed_year=2024)
    line = logcat(DAY1, "nothing sensitive at all")
    out, count = session.protect_line(line)
    assert out == line
    assert count == 0


def test_protect_session_refuses_unknown_mode(client_state):
    with pytest.raises(ValueError, match="unknown mode"):
        ProtectSession(client_state, "bulk")


def test_protect_dateless_uses_chain_date(client_state):
    session = ProtectSession(client_state, assumed_year=2024)
    out, count = session.protect_line("no timestamp but mail carol@test.org here")
    assert count == 1
    assert '<PII type="EMAIL">' in out
    # decryptable under the epoch day's key
    _, fields, _ = parse_protected_line(out)
    key = session.day_keys[client_state.chain_date]
    token = aead_open(key, fields[0].box)
    assert token == pseudonymize(client_state.hash_key, b"carol@test.org")


def test_protect_same_line_twice_fresh_ciphertexts(client_state):
    session = ProtectSession(client_state, assumed_year=2024)
    line = logcat(DAY1, "user dave@corp.example logged in")
    out1, _ = session.protect_line(line)
    out2, _ = session.protect_line(line)
    assert out1 != out2
    _, f1, _ = parse_protected_line(out1)
    _, f2, _ = parse_protected_line(out2)
    key = session.day_keys[DAY1]
    assert aead_open(key, f1[0].box) == aead_open(key, f2[0].box)


def test_token_memo_belongs_to_one_hash_key(identity, server_keys, client_state):
    """Sessions on states with different hash keys, one after the other,
    each protect a recurring value to its token under their own key."""
    other = init_client(DeviceIdentity(uds=identity.uds, measurement=b"\x03" * 32,
                                       device_id=identity.device_id),
                        server_keys.longterm.public, DAY1, rng_seed=b"\x07" * 32)
    line = logcat(DAY1, "user dave@corp.example logged in")
    tokens = []
    for state in (client_state, other, client_state):
        session = ProtectSession(state, assumed_year=2024)
        for _ in range(2):
            _, fields, _ = parse_protected_line(session.protect_line(line)[0])
            token = aead_open(session.day_keys[DAY1], fields[0].box)
            assert token == pseudonymize(state.hash_key, b"dave@corp.example")
            tokens.append(token)
    assert tokens[0] != tokens[2]


def test_protect_pre_epoch_skipped(identity, server_keys):
    state = init_client(identity, server_keys.longterm.public, D(5), rng_seed=b"\x07" * 32)
    session = ProtectSession(state, assumed_year=2024)
    assert session.protect_line(logcat(D(2), "old mail eve@test.org")) == (None, 0)


def test_protect_stream_rejects_out_of_order(client_state):
    session = ProtectSession(client_state, mode=MODE_STREAM, assumed_year=2024)
    session.protect_line(logcat(D(3), "x"))
    with pytest.raises(OutOfOrderDate):
        session.protect_line(logcat(D(2), "y"))


def test_protect_batch_tolerates_out_of_order_in_session(client_state):
    session = ProtectSession(client_state, mode=MODE_BATCH, assumed_year=2024)
    session.protect_line(logcat(D(4), "x"))
    out, count = session.protect_line(logcat(D(2), "mail frank@mail.net"))
    assert out is not None and count == 1
    # keys for the whole advanced range stay cached in batch mode
    assert sorted(session.day_keys) == [D(1), D(2), D(3), D(4)]


def test_protect_stream_keeps_only_newest_key(client_state):
    session = ProtectSession(client_state, mode=MODE_STREAM, assumed_year=2024)
    session.protect_line(logcat(D(1), "a"))
    session.protect_line(logcat(D(3), "b"))
    assert list(session.day_keys) == [D(3)]


@pytest.mark.parametrize("mode", [MODE_STREAM, MODE_BATCH])
@pytest.mark.parametrize("density", ["low", "medium", "high"])
def test_protect_wire_bytes_match_oracle_pieces(client_state, monkeypatch, mode, density):
    """With nonces drawn from a seeded generator in field order, each
    protected line equals one built from the oracles: the reference spans,
    HMAC tokens, day keys from the reference ratchet and a ChaCha20-Poly1305
    seal of each token under its day key."""
    lines, _ = generate_corpus(BenchConfig(line_count=300, pii_density=density, day_span=5,
                                           seed=41))
    draws = random.Random(9)
    monkeypatch.setattr(os, "urandom", draws.randbytes)
    nonces = random.Random(9)
    day_keys = [mk for _, mk in oracles.ratchet_chain(client_state.chain_key.bytes, 5)]
    hash_key = client_state.hash_key.bytes
    session = ProtectSession(client_state, mode=mode, assumed_year=2024)
    for line in lines:
        cipher = ChaCha20Poly1305(day_keys[(oracles.extract_date(line, 2024) - DAY1).days])
        spans = oracles.detect_pii(line)
        parts, pos = [], 0
        for label, start, end, text in spans:
            nonce = nonces.randbytes(12)
            box = nonce + cipher.encrypt(nonce, oracles.hmac_trunc16(hash_key, text.encode()), b"")
            parts += [line[pos:start], f'<PII type="{label}">{base64.b64encode(box).decode()}</PII>']
            pos = end
        assert session.protect_line(line) == ("".join(parts) + line[pos:], len(spans))


def test_protect_returns_field_count(client_state):
    session = ProtectSession(client_state, assumed_year=2024)
    msgs = ["a@b.co from 10.0.0.5", "nothing", "imei 352099001761481"]
    counts = [session.protect_line(logcat(DAY1, msg))[1] for msg in msgs]
    assert counts == [2, 0, 1]


def test_protect_year_rollover(identity, server_keys):
    """A year-less `01-01` right after `12-31` belongs to the next year."""
    state = init_client(identity, server_keys.longterm.public, date(2024, 12, 31),
                        rng_seed=b"\x07" * 32)
    session = ProtectSession(state, assumed_year=2024)
    assert session.protect_line(logcat(date(2024, 12, 31), "mail a@b.co"))[1] == 1
    out, count = session.protect_line(logcat(date(2025, 1, 1), "mail a@b.co"))
    assert out is not None and count == 1
    assert session.state.chain_date == date(2025, 1, 1)
    assert session.assumed_year == 2025  # later lines stay in 2025


def test_protect_skips_december_line_before_chain(identity, server_keys):
    """A year-less `12-31` before a 2025-01-02 chain is 2024's, not a year ahead."""
    state = init_client(identity, server_keys.longterm.public, date(2025, 1, 2),
                        rng_seed=b"\x07" * 32)
    session = ProtectSession(state, assumed_year=2025)
    assert session.protect_line(logcat(date(2024, 12, 31), "mail a@b.co")) == (None, 0)
    assert session.protect_line(logcat(date(2025, 1, 2), "mail a@b.co"))[1] == 1
    assert session.state.chain_date == date(2025, 1, 2)


# --- grants ----------------------------------------------------------------


def test_grant_start_at_epoch_covers_epoch_key(identity, server_keys, client_state):
    from privlog.server import accept_grant, create_offer

    _, keys = advance_to(client_state, DAY1)
    offer_pub = create_offer(server_keys, "g-epoch", seed=b"\x31" * 32)
    grant, _ = create_grant(
        client_state,
        GrantRequest(offer_pub, DAY1, "lab-server", "g-epoch"),
        identity,
        DAY1,
        rng_seed=b"\x32" * 32,
    )
    window = accept_grant(server_keys, grant, "lab-server", identity.device_id)
    assert list(window.days) == [DAY1]
    assert window.days[DAY1] == keys[DAY1]


def test_grant_rotates_epoch_and_skips_grant_day(identity, server_keys, client_state):
    from privlog.server import create_offer

    state, _ = advance_to(client_state, D(4))
    offer_pub = create_offer(server_keys, "g1", seed=b"\x31" * 32)
    grant, rotated = create_grant(
        state,
        GrantRequest(offer_pub, D(2), "lab-server", "g1"),
        identity,
        D(4),
        rng_seed=b"\x32" * 32,
    )
    assert rotated.epoch_date == rotated.chain_date == D(5)
    assert rotated.root_key != state.root_key
    assert rotated.chain_key != state.chain_key
    assert rotated.hash_key == state.hash_key

    session = ProtectSession(rotated, assumed_year=2024)
    assert session.protect_line(logcat(D(4), "post grant mail heidi@test.org")) == (None, 0)
    out, count = session.protect_line(logcat(D(5), "new epoch mail heidi@test.org"))
    assert out is not None and count == 1


def test_rotated_state_cannot_reopen_its_grant(identity, server_keys, client_state):
    """Rotation cuts off the window the grant disclosed: no 32-byte value
    in the saved state, used as the grant's X25519 private key with the
    offer's public key, yields an export key that opens the grant."""
    from privlog.server import create_offer

    state, _ = advance_to(client_state, D(4))
    offer_pub = create_offer(server_keys, "g-fs", seed=b"\x31" * 32)
    grant_seed = b"\x32" * 32
    grant, rotated = create_grant(
        state, GrantRequest(offer_pub, D(2), "lab-server", "g-fs"), identity, D(4),
        rng_seed=grant_seed,
    )
    aad = oracles.grant_aad(grant.server_id, grant.device_id, grant.attest_digest,
                            grant.grant_id, grant.grant_date)

    def opens_grant(private: bytes) -> bool:
        k_exp = SecretKey32(kdf(None, dh_shared(private, offer_pub), b"export-kdf", 32))
        try:
            aead_open(k_exp, grant.box, aad)
        except AuthFailure:
            return False
        return True

    # The attack itself: the grant's own ephemeral private key opens it.
    assert opens_grant(dh_derive_keypair(grant_seed, b"export-keygen").private)

    fields = parse_kv(save_state(load_state(save_state(rotated))), "state file")
    assert "dh_priv" not in fields
    candidates = []
    for value in fields.values():
        with contextlib.suppress(ValueError):
            raw = base64.b64decode(value, validate=True)
            if len(raw) == 32:
                candidates.append(raw)
    assert candidates
    assert not any(opens_grant(raw) for raw in candidates)


def test_grant_holder_cannot_reach_the_next_epoch(identity, server_keys, client_state):
    """A grant that starts on the epoch's first day hands out that epoch's
    first chain key. No secret its holder has (that key, the DH secret `z`,
    the export key, a window day key), put through the rotation's own
    derivation with its arguments in either order, gives a root whose
    30-day chain opens a field protected after the rotation."""
    from privlog.grant import open_window
    from privlog.server import accept_grant, create_offer

    state, _ = advance_to(client_state, D(4))
    offer_pub = create_offer(server_keys, "g-next", seed=b"\x31" * 32)
    server_eph = server_keys.ephemeral["g-next"]
    grant, rotated = create_grant(
        state, GrantRequest(offer_pub, DAY1, "lab-server", "g-next"), identity, D(4),
        rng_seed=b"\x32" * 32,
    )
    window = accept_grant(server_keys, grant, "lab-server", identity.device_id)
    z = dh_shared(server_eph.private, grant.client_eph_pub)
    start_ck, _ = open_window(grant, z)
    assert start_ck == client_state.chain_key  # the epoch's first chain key

    session = ProtectSession(rotated, assumed_year=2024)
    boxes = []
    for n in (5, 6, 12, 20, 34):
        out, count = session.protect_line(logcat(D(n), "login alice@example.com ok"))
        assert count == 1
        boxes.extend(field.box for field in parse_protected_line(out)[1])

    secrets = [start_ck, z, SecretKey32(kdf(None, z, b"export-kdf", 32)),
               *window.days.values()]
    keys = []
    for s in secrets:
        for salt, ikm in ((s, z), (z, s)):
            root = SecretKey32(kdf(salt, ikm, b"root-key-rotate", 32))
            keys.append(root)
            for ck in (root, SecretKey32(kdf(None, root, b"ck-init" + D(5).isoformat().encode(),
                                             32))):
                for _ in range(30):
                    keys.append(ck)
                    ck, mk = ratchet_step(ck)
                    keys.append(mk)

    opened = 0
    for box in boxes:
        for key in keys:
            with contextlib.suppress(AuthFailure):
                aead_open(key, box)
                opened += 1
    assert opened == 0


def test_grant_window_bounds(identity, server_keys, client_state):
    from privlog.server import create_offer

    state, _ = advance_to(client_state, D(3))
    offer_pub = create_offer(server_keys, "g2", seed=b"\x31" * 32)

    with pytest.raises(InvalidWindow):  # start before epoch
        create_grant(state, GrantRequest(offer_pub, D(1) - timedelta(days=1), "lab-server", "g2"),
                     identity, D(3))
    with pytest.raises(InvalidWindow):  # start after chain position
        create_grant(state, GrantRequest(offer_pub, D(4), "lab-server", "g2"),
                     identity, D(4))
    with pytest.raises(InvalidWindow):  # chain already past "today"
        create_grant(state, GrantRequest(offer_pub, D(2), "lab-server", "g2"),
                     identity, D(2))


def test_token_stability_across_rotation(identity, server_keys, client_state):
    """The same plaintext yields the same token before and after a rotation."""
    from privlog.server import accept_grant, create_offer, recover_tokens

    line_day2 = logcat(D(2), "login alice@example.com ok")
    line_day9 = logcat(D(9), "login alice@example.com again")

    session = ProtectSession(client_state, assumed_year=2024)
    out_a, _ = session.protect_line(line_day2)

    offer_a = create_offer(server_keys, "g-a", seed=b"\x61" * 32)
    grant_a, rotated = create_grant(
        session.state, GrantRequest(offer_a, D(2), "lab-server", "g-a"),
        identity, D(2), rng_seed=b"\x62" * 32,
    )

    session_b = ProtectSession(rotated, assumed_year=2024)
    out_b, _ = session_b.protect_line(line_day9)
    offer_b = create_offer(server_keys, "g-b", seed=b"\x63" * 32)
    grant_b, _ = create_grant(
        session_b.state, GrantRequest(offer_b, D(9), "lab-server", "g-b"),
        identity, D(9), rng_seed=b"\x64" * 32,
    )

    win_a = accept_grant(server_keys, grant_a, "lab-server", identity.device_id)
    win_b = accept_grant(server_keys, grant_b, "lab-server", identity.device_id)
    ev_a, _ = recover_tokens(win_a, [out_a], 2024)
    ev_b, _ = recover_tokens(win_b, [out_b], 2024)
    assert len(ev_a) == len(ev_b) == 1
    assert ev_a[0].token == ev_b[0].token


# --- no-rewind property ----------------------------------------------------


_PROP_IDENTITY = DeviceIdentity(
    uds=b"\x01" * 32, measurement=b"\x02" * 32, device_id="golden-device"
)


@settings(max_examples=1000, deadline=None)
@given(jumps=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12),
       grant_at=st.integers(min_value=0, max_value=11))
def test_chain_date_never_decreases(jumps, grant_at):
    from privlog.server import create_offer, keygen

    sk = keygen("lab-server", seed=b"\x42" * 32)
    state = init_client(_PROP_IDENTITY, sk.longterm.public, DAY1, rng_seed=b"\x07" * 32)
    watermark = state.chain_date
    for i, jump in enumerate(jumps):
        if i == grant_at:
            offer_pub = create_offer(sk, f"g{i}", seed=b"\x31" * 32)
            _, state = create_grant(
                state,
                GrantRequest(offer_pub, state.chain_date, "lab-server", f"g{i}"),
                _PROP_IDENTITY,
                state.chain_date,
                rng_seed=b"\x32" * 32,
            )
        else:
            state, _ = advance_to(state, state.chain_date + timedelta(days=jump))
        assert state.chain_date >= watermark
        watermark = state.chain_date


# --- state persistence ------------------------------------------------------


def test_state_roundtrip(client_state):
    assert load_state(save_state(client_state)) == client_state


def test_state_roundtrip_after_ops(identity, server_keys, client_state):
    state, _ = advance_to(client_state, D(6))
    assert load_state(save_state(state)) == state


def test_state_tampered_base64(client_state):
    text = save_state(client_state)
    broken = text.replace("root_key=", "root_key=!", 1)
    with pytest.raises(CorruptState):
        load_state(broken)


def test_state_missing_field(client_state):
    text = "\n".join(
        l for l in save_state(client_state).splitlines() if not l.startswith("chain_key=")
    )
    with pytest.raises(CorruptState):
        load_state(text)


def test_state_unsupported_version(client_state):
    text = save_state(client_state).replace("v=1", "v=99", 1)
    with pytest.raises(UnsupportedVersion):
        load_state(text)


def test_state_wrong_length_secret(client_state):
    text = save_state(client_state)
    short = base64.b64encode(b"\x01" * 16).decode()
    lines = [
        f"hash_key={short}" if l.startswith("hash_key=") else l
        for l in text.splitlines()
    ]
    with pytest.raises(CorruptState):
        load_state("\n".join(lines))

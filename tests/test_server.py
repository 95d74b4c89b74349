"""Server side: grant ingestion, window enforcement, recovery, reports."""

import base64
import contextlib
import csv
import io
import os
import tempfile
from datetime import date, timedelta

import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from hypothesis import given, settings, strategies as st

import oracles
from privlog.client import GrantRequest, ProtectSession, advance_to, create_grant, init_client
from privlog.crypto import SecretKey32, aead_open, aead_seal, dh_derive_keypair, dh_shared, kdf
from privlog.errors import (
    AuthFailure,
    ContextMismatch,
    CorruptState,
    InvalidWindow,
    UnsupportedVersion,
)
from privlog.grant import Grant, format_grant, parse_grant
from privlog.pii import PiiType, parse_protected_line
from privlog.server import (
    EVENTS_HEADER_LINE,
    RecoveredEvent,
    WindowKeys,
    accept_grant,
    create_offer,
    keygen,
    linkage_report,
    load_server_keys,
    load_window_keys,
    read_events_csv,
    recover_tokens,
    save_server_keys,
    save_window_keys,
    timeline,
    write_events_csv,
    write_linkage_csv,
    write_timeline_csv,
)

DAY1 = date(2024, 5, 1)


def D(n: int) -> date:
    return DAY1 + timedelta(days=n - 1)


def logcat(day: date, msg: str) -> str:
    return f"{day.month:02d}-{day.day:02d} 12:00:00.000  1000  1000 I TestTag: {msg}"


@pytest.fixture()
def interop(identity, server_keys, client_state):
    """Client advanced through day 7, grant covering days 1..7."""
    state, client_mks = advance_to(client_state, D(7))
    offer_pub = create_offer(server_keys, "g-interop", seed=b"\x51" * 32)
    grant, rotated = create_grant(
        state,
        GrantRequest(offer_pub, D(1), "lab-server", "g-interop"),
        identity,
        D(7),
        rng_seed=b"\x52" * 32,
    )
    return client_mks, grant, rotated


def test_replay_matches_client_keys(identity, server_keys, interop):
    client_mks, grant, _ = interop
    window = accept_grant(server_keys, grant, "lab-server", identity.device_id)
    assert sorted(window.days) == [D(n) for n in range(1, 8)]
    for day, mk in window.days.items():
        assert mk.bytes == client_mks[day].bytes


def test_accept_checks_attestation(identity, server_keys, interop):
    from privlog.dice import attestation_digest

    _, grant, _ = interop
    window = accept_grant(
        server_keys, grant, "lab-server", identity.device_id,
        expected_attest=attestation_digest(identity),
    )
    assert len(window.days) == 7


def test_accept_wrong_expected_device(identity, server_keys, interop):
    _, grant, _ = interop
    with pytest.raises(ContextMismatch):
        accept_grant(server_keys, grant, "lab-server", "some-other-device")
    # offer not consumed by the failed attempt
    window = accept_grant(server_keys, grant, "lab-server", identity.device_id)
    assert len(window.days) == 7


def test_accept_wrong_expected_server(identity, server_keys, interop):
    _, grant, _ = interop
    with pytest.raises(ContextMismatch):
        accept_grant(server_keys, grant, "other-server", identity.device_id)


def test_accept_wrong_expected_attest(identity, server_keys, interop):
    _, grant, _ = interop
    with pytest.raises(ContextMismatch):
        accept_grant(
            server_keys, grant, "lab-server", identity.device_id,
            expected_attest=b"\x00" * 32,
        )


def test_accept_unknown_grant_id(identity, server_keys, interop):
    _, grant, _ = interop
    stranger = grant._replace(grant_id="never-offered")
    with pytest.raises(ContextMismatch):
        accept_grant(server_keys, stranger, "lab-server", identity.device_id)


def test_accept_is_single_use(identity, server_keys, interop):
    _, grant, _ = interop
    accept_grant(server_keys, grant, "lab-server", identity.device_id)
    with pytest.raises(ContextMismatch):
        accept_grant(server_keys, grant, "lab-server", identity.device_id)


@settings(max_examples=1000, deadline=None)
@given(field_idx=st.integers(min_value=0, max_value=4), byte_seed=st.integers(min_value=1, max_value=2**31))
def test_grant_context_tamper_always_auth_failure(field_idx, byte_seed):
    """Flipping any byte of any AAD field breaks authentication."""
    identity_uds = b"\x01" * 32
    from privlog.dice import DeviceIdentity

    identity = DeviceIdentity(uds=identity_uds, measurement=b"\x02" * 32, device_id="golden-device")
    sk = keygen("lab-server", seed=b"\x42" * 32)
    state = init_client(identity, sk.longterm.public, DAY1, rng_seed=b"\x07" * 32)
    offer_pub = create_offer(sk, "g-tamper", seed=b"\x51" * 32)
    grant, _ = create_grant(
        state, GrantRequest(offer_pub, DAY1, "lab-server", "g-tamper"),
        identity, DAY1, rng_seed=b"\x52" * 32,
    )

    if field_idx == 0:
        tampered = grant._replace(server_id="lab-serveR")
    elif field_idx == 1:
        tampered = grant._replace(device_id="golden-devicf")
    elif field_idx == 2:
        digest = bytearray(grant.attest_digest)
        digest[byte_seed % 32] ^= 1 + byte_seed % 255
        tampered = grant._replace(attest_digest=bytes(digest))
    elif field_idx == 3:
        tampered = grant._replace(grant_id="g-tamper")  # same id, flip date below
        tampered = tampered._replace(grant_date=DAY1 + timedelta(days=1 + byte_seed % 30))
    else:
        box = grant.box
        ct = bytearray(box[12:])
        ct[byte_seed % len(ct)] ^= 1 + byte_seed % 255
        tampered = grant._replace(box=box[:12] + bytes(ct))

    with pytest.raises(AuthFailure):
        accept_grant(sk, tampered, tampered.server_id, tampered.device_id,
                     expected_attest=tampered.attest_digest)


def _forged_grant(identity, server_keys, grant_id: str, payload: bytes) -> Grant:
    """A grant for `grant_id`, dated DAY1, whose box seals `payload` under the
    export key of a fresh offer and the context the oracle lays out."""
    offer_pub = create_offer(server_keys, grant_id, seed=b"\x51" * 32)
    eph = dh_derive_keypair(b"\x52" * 32, b"export-keygen")
    k_exp = SecretKey32(kdf(None, dh_shared(eph.private, offer_pub), b"export-kdf", 32))
    aad = oracles.grant_aad("lab-server", identity.device_id, b"\x00" * 32, grant_id, DAY1)
    return Grant(
        client_eph_pub=eph.public,
        box=aead_seal(k_exp, payload, aad),
        server_id="lab-server",
        device_id=identity.device_id,
        attest_digest=b"\x00" * 32,
        grant_id=grant_id,
        grant_date=DAY1,
    )


def test_forged_window_start_rejected(identity, server_keys):
    """A hand-built grant whose window start is after its date is refused."""
    state = init_client(identity, server_keys.longterm.public, DAY1, rng_seed=b"\x07" * 32)
    bad_start = DAY1 + timedelta(days=5)
    forged = _forged_grant(identity, server_keys, "g-forged",
                           state.chain_key.bytes + bad_start.isoformat().encode())
    with pytest.raises(InvalidWindow):
        accept_grant(server_keys, forged, "lab-server", identity.device_id)


@pytest.mark.parametrize("payload", [
    b"\x01" * 41,
    b"\x01" * 32 + b"2024-05-01Z",
    b"\x01" * 32 + b"2024/05/01",
    b"\x01" * 32 + b"2024-13-01",
    b"\x01" * 32 + b"\xff" * 10,
], ids=["short", "long", "slashes", "month-13", "not-ascii"])
def test_malformed_window_payload_is_corrupt_and_keeps_offer(identity, server_keys, payload):
    """A grant whose box authenticates but does not hold a 32-byte chain key
    and a 10-byte ISO date is CorruptState, and its offer stays outstanding."""
    grant = _forged_grant(identity, server_keys, "g-payload", payload)
    with pytest.raises(CorruptState, match="grant payload"):
        accept_grant(server_keys, grant, "lab-server", identity.device_id)
    assert "g-payload" in server_keys.ephemeral


# --- recovery ---------------------------------------------------------------


def _protected_corpus(identity, server_keys, client_state):
    session = ProtectSession(client_state, assumed_year=2024)
    lines = []
    for n in range(1, 8):
        lines.append(session.protect_line(logcat(D(n), f"mail user{n}@test.org seen"))[0])
    offer_pub = create_offer(server_keys, "g-rec", seed=b"\x51" * 32)
    grant, rotated = create_grant(
        session.state, GrantRequest(offer_pub, D(3), "lab-server", "g-rec"),
        identity, D(7), rng_seed=b"\x52" * 32,
    )
    window = accept_grant(server_keys, grant, "lab-server", identity.device_id)
    return lines, window, rotated


def test_recover_window_enforcement(identity, server_keys, client_state):
    lines, window, _ = _protected_corpus(identity, server_keys, client_state)
    events, skipped = recover_tokens(window, lines, 2024)
    assert sorted({e.date for e in events}) == [D(n) for n in range(3, 8)]
    assert len(events) == 5
    assert skipped["lines_out_of_window"] == 2  # days 1-2
    assert skipped["fields_auth_failed"] == 0


def test_recover_no_date_line(identity, server_keys, client_state):
    """A continuation line with no date prefix is sealed under the client's
    chain-date key; recover cannot date it, so it counts and drops it."""
    _, window, _ = _protected_corpus(identity, server_keys, client_state)
    session = ProtectSession(client_state, assumed_year=2024)
    session_lines = [session.protect_line(raw)[0] for raw in (
        f"{D(4).isoformat()} 12:00:00.000 E Mailer: send failed",
        "    at com.example.Mailer.send(user9@test.org)",
        f"{D(4).isoformat()} 12:00:01.000 I Mailer: retry queued",
    )]
    (_, box), = parse_protected_line(session_lines[1])[1]
    assert aead_open(window.days[D(4)], box)
    events, skipped = recover_tokens(window, session_lines, 2024)
    assert events == []
    assert skipped["lines_no_date"] == 1


def test_recover_tampered_field_counts_auth(identity, server_keys, client_state):
    lines, window, _ = _protected_corpus(identity, server_keys, client_state)
    import base64
    import re

    target = lines[3]  # day 4, inside the window
    m = re.search(r'<PII type="EMAIL">([A-Za-z0-9+/=]{60})</PII>', target)
    raw = bytearray(base64.b64decode(m.group(1)))
    raw[20] ^= 0xFF
    tampered = target.replace(m.group(1), base64.b64encode(bytes(raw)).decode())
    events, skipped = recover_tokens(window, [tampered], 2024)
    assert events == []
    assert skipped["fields_auth_failed"] == 1


def test_recover_post_rotation_lines_fail_auth(identity, server_keys, client_state):
    """Lines protected after rotation stay dark even with extended replay."""
    lines, window, rotated = _protected_corpus(identity, server_keys, client_state)
    session = ProtectSession(rotated, assumed_year=2024)
    post_lines = [
        session.protect_line(logcat(D(n), f"mail post{n}@test.org seen"))[0]
        for n in range(8, 11)
    ]
    # Adversarial server: extend the replay far past the granted window.
    extended = dict(window.days)
    ck_like = window.days[max(window.days)]
    day = max(window.days)
    ck = ck_like
    from privlog.crypto import ratchet_step

    for _ in range(400):
        day += timedelta(days=1)
        ck, mk = ratchet_step(ck)
        extended[day] = mk
    big_window = WindowKeys(grant_id=window.grant_id, days=extended)
    events, skipped = recover_tokens(big_window, post_lines, 2024)
    assert events == []
    assert skipped["fields_auth_failed"] == 3


def test_recover_empty_window_skips_everything(identity, server_keys, client_state):
    lines, _, _ = _protected_corpus(identity, server_keys, client_state)
    empty = WindowKeys(grant_id="g-none", days={})
    events, skipped = recover_tokens(empty, lines, 2024)
    assert events == []
    assert skipped["lines_out_of_window"] == len(lines)


def test_recover_malformed_element(identity, server_keys, client_state):
    _, window, _ = _protected_corpus(identity, server_keys, client_state)
    line = logcat(D(3), 'broken <PII type="EMAIL">!!</PII> marker')
    events, skipped = recover_tokens(window, [line], 2024)
    assert events == []
    assert skipped["fields_malformed"] == 1
    assert skipped["lines_no_pii"] == 1


def test_recover_out_of_window_malformed_line_is_not_parsed(identity, server_keys, client_state):
    """A line is read for its date before it is parsed: outside the window,
    its malformed element is never seen."""
    _, window, _ = _protected_corpus(identity, server_keys, client_state)
    line = logcat(D(1), 'broken <PII type="EMAIL">!!</PII> marker')
    events, skipped = recover_tokens(window, [line], 2024)
    assert events == []
    assert skipped["lines_out_of_window"] == 1
    assert skipped["fields_malformed"] == 0
    assert skipped["lines_no_pii"] == 0


def test_recover_parses_only_dated_lines_in_window(identity, server_keys, client_state,
                                                   monkeypatch):
    import privlog.server as server_mod

    lines, window, _ = _protected_corpus(identity, server_keys, client_state)
    parsed = []

    def counting_parse(line):
        parsed.append(line)
        return parse_protected_line(line)

    monkeypatch.setattr(server_mod, "parse_protected_line", counting_parse)
    undated = lines[4][lines[4].index(" I ") :]
    plain = [logcat(D(5), "no fields here"), "no date and no fields"]
    events, skipped = recover_tokens(window, [*plain, undated, *lines], 2024)
    assert parsed == lines[2:]  # days 3-7
    assert len(events) == 5
    assert skipped == {"lines_no_pii": 2, "lines_no_date": 1, "lines_out_of_window": 2,
                       "fields_auth_failed": 0, "fields_malformed": 0}


def test_recover_opens_each_valid_field_of_a_parsed_line_once(identity, server_keys, client_state,
                                                              monkeypatch):
    """`aead_open` runs once per valid element of each parsed line, in line
    order: a line's fields reach the per-line record with none skipped and
    none opened twice, also beside malformed and forged elements."""
    import privlog.server as server_mod

    lines, window, _ = _protected_corpus(identity, server_keys, client_state)
    session = ProtectSession(client_state, assumed_year=2024)
    dense = [session.protect_line(logcat(D(n), f"a{n}@b.co to 10.0.0.{n} and c{n}@d.org"))[0]
             for n in (2, 4, 5)]
    dense[1] = dense[1].replace("I TestTag:", 'I TestTag: <PII type="NAME">x</PII>')
    (_, box), *_ = parse_protected_line(dense[2])[1]
    forged = base64.b64encode(box[:-1] + bytes([box[-1] ^ 1])).decode()
    dense[2] = dense[2].replace(base64.b64encode(box).decode(), forged)
    parsed, opened = [], []

    def counting_parse(line):
        parsed.append(line)
        return parse_protected_line(line)

    def counting_open(key, sealed):
        opened.append(sealed)
        return aead_open(key, sealed)

    monkeypatch.setattr(server_mod, "parse_protected_line", counting_parse)
    monkeypatch.setattr(server_mod, "aead_open", counting_open)
    events, skipped = recover_tokens(window, [*lines, *dense], 2024)
    assert parsed == lines[2:] + dense[1:]  # days 3-7, then days 4 and 5
    assert opened == [f.box for line in parsed for f in parse_protected_line(line)[1]]
    assert len(opened) == 5 + 3 + 3
    assert len(events) == len(opened) - 1
    assert skipped["fields_auth_failed"] == skipped["fields_malformed"] == 1


def test_recover_wrong_length_payload_is_malformed(identity, server_keys, client_state):
    """Canonical base64 of 28 bytes is not a sealed field, so no open is tried."""
    _, window, _ = _protected_corpus(identity, server_keys, client_state)
    payload = base64.b64encode(b"\x05" * 28).decode()
    line = logcat(D(3), f'short <PII type="EMAIL">{payload}</PII> marker')
    events, skipped = recover_tokens(window, [line], 2024)
    assert events == []
    assert skipped["fields_malformed"] == 1
    assert skipped["fields_auth_failed"] == 0
    assert skipped["lines_no_pii"] == 1


def test_recover_year_rollover(identity, server_keys):
    """Logcat lines running from 12-30 to 01-02 all recover, dated across the year."""
    days = [date(2024, 12, 30) + timedelta(days=n) for n in range(4)]
    state = init_client(identity, server_keys.longterm.public, days[0], rng_seed=b"\x07" * 32)
    session = ProtectSession(state, assumed_year=2024)
    # Protect ISO-dated lines, then drop the year: the file a logcat device writes.
    iso_lines = [f"{d.isoformat()} 12:00:00.000  1000  1000 I T: mail u{d.day}@test.org" for d in days]
    lines = [session.protect_line(line)[0][len("2024-"):] for line in iso_lines]
    assert lines[2].startswith("01-01 ")
    offer_pub = create_offer(server_keys, "g-year", seed=b"\x51" * 32)
    grant, _ = create_grant(
        session.state, GrantRequest(offer_pub, days[0], "lab-server", "g-year"),
        identity, days[-1], rng_seed=b"\x52" * 32,
    )
    window = accept_grant(server_keys, grant, "lab-server", identity.device_id)
    events, skipped = recover_tokens(window, lines, 2024)
    assert [e.date for e in events] == days
    assert skipped["lines_out_of_window"] == 0


@pytest.mark.parametrize("year", [2024, 2025])
def test_recover_reads_lines_before_window_in_their_year(identity, server_keys, year):
    """December lines before a January window are out of window, not a year on."""
    days = [date(2024, 12, 30) + timedelta(days=n) for n in range(4)]
    state = init_client(identity, server_keys.longterm.public, days[0], rng_seed=b"\x07" * 32)
    session = ProtectSession(state, assumed_year=2024)
    iso_lines = [f"{d.isoformat()} 12:00:00.000  1000  1000 I T: mail u{d.day}@test.org" for d in days]
    lines = [session.protect_line(line)[0][len("2024-"):] for line in iso_lines]
    offer_pub = create_offer(server_keys, "g-jan", seed=b"\x51" * 32)
    grant, _ = create_grant(
        session.state, GrantRequest(offer_pub, days[2], "lab-server", "g-jan"),
        identity, date(2025, 1, 3), rng_seed=b"\x52" * 32,
    )
    window = accept_grant(server_keys, grant, "lab-server", identity.device_id)
    events, skipped = recover_tokens(window, lines, year)
    assert [e.date for e in events] == days[2:]
    assert skipped["lines_out_of_window"] == 2


def test_recover_template_drops_crlf(identity, server_keys, client_state):
    lines, window, _ = _protected_corpus(identity, server_keys, client_state)
    events, _ = recover_tokens(window, [lines[3] + "\r\n", lines[4] + "\n"], 2024)
    assert len(events) == 2
    # Templates carry no line terminator, whichever one the file used.
    assert [e.template for e in events] == [
        parse_protected_line(lines[3])[0], parse_protected_line(lines[4])[0],
    ]


def test_recovered_tokens_never_contain_plaintext(identity, server_keys, client_state):
    lines, window, _ = _protected_corpus(identity, server_keys, client_state)
    events, _ = recover_tokens(window, lines, 2024)
    for ev in events:
        assert b"test.org" not in ev.token
        assert "user" not in ev.template or "@" not in ev.template


# Day keys of a window over D(1)..D(7); logged days run from D(-2) to D(10),
# all within one year, so no date is re-read in another year.
_RECOVER_KEYS = {D(n): bytes([n]) * 32 for n in range(1, 8)}
_ELEMENT_KINDS = ["valid", "valid", "valid", "other-day", "unknown-label", "28-byte",
                  "non-canonical", "not-base64"]


def _seal(key: bytes, token: bytes, nonce: bytes) -> str:
    return base64.b64encode(nonce + ChaCha20Poly1305(key).encrypt(nonce, token, None)).decode()


def _log_element(kind: str, day: date, label: str, token: bytes, nonce: bytes) -> str:
    key = _RECOVER_KEYS.get(day, _RECOVER_KEYS[D(1)])
    if kind == "other-day":
        key = _RECOVER_KEYS[D(2) if day == D(1) else D(1)]
    payload = _seal(key, token, nonce)
    if kind == "unknown-label":
        label = {"EMAIL": "NAME", "PHONE": "email"}.get(label, "")
    elif kind == "28-byte":
        payload = base64.b64encode(token + nonce).decode()
    elif kind == "non-canonical":  # the same 44 bytes, a padding bit set
        payload = payload[:58] + chr(ord(payload[58]) + 1) + "="
    elif kind == "not-base64":
        payload = payload[:30] + "!" + payload[31:]
    return f'<PII type="{label}">{payload}</PII>'


@st.composite
def _protected_log_line(draw) -> str:
    day = draw(st.sampled_from([D(n) for n in range(-2, 11)]))
    head = draw(st.sampled_from([
        f"{day.isoformat()} 12:00:00.000 I T: ",
        f"{day.month:02d}-{day.day:02d} 12:00:00.000  1000  1000 I T: ",
        "    at com.example.Mailer.send(",
    ]))
    parts = draw(st.lists(
        st.text(alphabet=' ab,"\'é<>/=PI\r', max_size=6)
        | st.builds(_log_element, st.sampled_from(_ELEMENT_KINDS), st.just(day),
                    st.sampled_from([t.value for t in PiiType]),
                    st.binary(min_size=16, max_size=16), st.binary(min_size=12, max_size=12)),
        max_size=5))
    return head + "".join(parts) + draw(st.sampled_from(["\n", "\r\n"]))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_protected_log_line(), max_size=8), cut_last=st.booleans())
def test_recover_matches_reference_recover(lines, cut_last):
    """`recover_tokens` and `write_events_csv`, composed by the `recover`
    CLI, write the reference's events CSV byte for byte and count what it
    counts: valid fields, unknown labels, 28-byte payloads, non-canonical
    base64, fields sealed under another day's key, undated lines, lines
    outside the window, lines without "<PII", CRLF endings and templates
    that need quoting. With no `emit`, the events are the CSV's rows."""
    from privlog.cli import server_main

    if cut_last and lines:
        lines[-1] = lines[-1].rstrip("\n")
    expected, expected_skipped = oracles.recover(_RECOVER_KEYS, lines, 2024)
    window = WindowKeys("g-ref", {day: SecretKey32(key) for day, key in _RECOVER_KEYS.items()})
    events, skipped = recover_tokens(window, lines, 2024)
    assert skipped == expected_skipped
    assert [(e.line_no, e.date, e.pii_type.value, e.token, e.template)
            for e in events] == oracles.read_events_csv(expected)
    with tempfile.TemporaryDirectory() as tmp:
        log, keys, out = (os.path.join(tmp, name) for name in ("prot.log", "window.kv", "events.csv"))
        with open(log, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(lines))
        with open(keys, "w", encoding="utf-8") as fh:
            fh.write(save_window_keys(window))
        summary = io.StringIO()
        with contextlib.redirect_stdout(summary):
            assert server_main(["recover", "--keys", keys, "--in", log, "--out", out,
                                "--year", "2024"]) == 0
        with open(out, "rb") as fh:
            assert fh.read() == expected.encode()
    assert summary.getvalue().splitlines() == [f"recovered {len(events)} tokens -> {out}"] + [
        f"  skipped {reason}: {count}" for reason, count in expected_skipped.items() if count]


# Day keys of a window across new year, 2024-12-28 to 2025-01-04. Read from
# 2024, a year-less January line after a December one moves the running
# year to 2025. Logged days run from 2024-12-24 to 2025-01-08, and four lie
# half a year or more away. A year-less 02-29 is a date in 2024 and none
# in 2025, so it tells which year is running.
_NEW_YEAR_KEYS = {date(2024, 12, 28) + timedelta(days=n): bytes([n + 1]) * 32 for n in range(8)}
_NEW_YEAR_DAYS = [date(2024, 12, 24) + timedelta(days=n) for n in range(16)] + [
    date(2024, 2, 29), date(2024, 7, 1), date(2025, 6, 30), date(2025, 7, 2)]


def _new_year_element(kind: str, day: date, token: bytes, nonce: bytes) -> str:
    """A valid element of `day`, one sealed under the next day's key, or
    one whose payload is not base64."""
    key = _NEW_YEAR_KEYS.get(day + timedelta(days=kind == "other-day"), bytes(32))
    payload = _seal(key, token, nonce)
    if kind == "not-base64":
        payload = payload[:30] + "!" + payload[31:]
    return f'<PII type="EMAIL">{payload}</PII>'


@st.composite
def _new_year_log_line(draw) -> str:
    day = draw(st.sampled_from(_NEW_YEAR_DAYS))
    head = draw(st.sampled_from([
        f"{day.isoformat()} 12:00:00.000 I T: ",
        f"{day.month:02d}-{day.day:02d} 12:00:00.000  1000  1000 I T: ",
        f"{day.month:02d}-{day.day:02d} 12:00:00.000  1000  1000 I T: ",
        "    at com.example.Mailer.send(",
    ]))
    parts = draw(st.lists(
        st.sampled_from(["", " a", "<PII x", ","])
        | st.builds(_new_year_element, st.sampled_from(["valid", "valid", "other-day", "not-base64"]),
                    st.just(day), st.binary(min_size=16, max_size=16),
                    st.binary(min_size=12, max_size=12)),
        max_size=3))
    return head + "".join(parts) + "\n"


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_new_year_log_line(), max_size=12), year=st.sampled_from([2024, 2025]))
def test_recover_from_every_start_line_adds_up_to_one_pass(lines, year):
    """For every k, recovering lines 1 to k-1, then the whole log from
    `start_line=k`, gives one pass's events in order and counters that sum
    to its counters: the lines before `start_line` move the running year
    and the last date as in one pass. The logs mix ISO, undated and
    out-of-window lines, year-less lines across new year and half a year
    away, lines without "<PII" and malformed elements."""
    window = WindowKeys("g-year", {day: SecretKey32(key) for day, key in _NEW_YEAR_KEYS.items()})
    events, skipped = recover_tokens(window, lines, year)
    for k in range(1, len(lines) + 2):
        head, head_skipped = recover_tokens(window, lines[:k - 1], year)
        tail, tail_skipped = recover_tokens(window, lines, year, start_line=k)
        assert head + tail == events
        assert {reason: head_skipped[reason] + tail_skipped[reason] for reason in skipped} == skipped


# --- reports -----------------------------------------------------------------


def _event(line_no, day, token, pii=PiiType.EMAIL, template="t"):
    return RecoveredEvent(line_no=line_no, date=day, pii_type=pii, token=token, template=template)


def test_linkage_groups_and_sorting():
    tok_a, tok_b = b"\x01" * 16, b"\x02" * 16
    events = [
        _event(1, D(1), tok_a),
        _event(2, D(2), tok_a),
        _event(3, D(4), tok_a),
        _event(4, D(2), tok_b),
    ]
    groups = linkage_report(events)
    assert [g.token for g in groups] == [tok_a, tok_b]
    g = groups[0]
    assert (g.count, g.first_date, g.last_date) == (3, D(1), D(4))
    assert sum(g.count for g in groups) == len(events) == 4


def test_linkage_first_date_is_the_earliest_in_any_order():
    tok = b"\x01" * 16
    events = [_event(1, D(3), tok), _event(2, D(5), tok), _event(3, D(1), tok),
              _event(4, D(4), tok)]
    [group] = linkage_report(events)
    assert (group.count, group.first_date, group.last_date) == (4, D(1), D(5))


def test_linkage_tie_broken_by_token_bytes():
    tok_a, tok_b = b"\xff" * 16, b"\x00" * 16
    events = [_event(1, D(1), tok_a), _event(2, D(1), tok_b)]
    assert [g.token for g in linkage_report(events)] == [tok_b, tok_a]


def test_timeline_order_and_unknown_token():
    tok = b"\x03" * 16
    events = [
        _event(9, D(5), tok, template="later"),
        _event(2, D(2), tok, template="earlier"),
        _event(5, D(2), b"\x04" * 16, template="other"),
    ]
    rows = timeline(events, tok)
    assert rows == [(D(2), 2, "earlier"), (D(5), 9, "later")]
    assert timeline(events, b"\x05" * 16) == []



@settings(max_examples=200, deadline=None)
@given(hits=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4), st.sampled_from(["a", 'b, "c"', "é\n"]),
                               st.booleans()), max_size=40),
       run_rows=st.integers(1, 6))
def test_timeline_spilled_runs_match_one_sort(hits, run_rows):
    """Past TIMELINE_RUN_ROWS hits, sorted runs go to a temporary file and
    are merged: the rows are those of one stable sort of every hit."""
    import privlog.server as server_mod

    tok = b"\x03" * 16
    events = [_event(line_no, D(day), tok if mine else b"\x04" * 16, template=template)
              for day, line_no, template, mine in hits]
    expected = sorted(((e.date, e.line_no, e.template) for e in events if e.token == tok),
                      key=lambda row: row[:2])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(server_mod, "TIMELINE_RUN_ROWS", run_rows)
        assert list(timeline(iter(events), tok)) == expected


# --- persistence --------------------------------------------------------------


def test_server_keystore_roundtrip(server_keys):
    create_offer(server_keys, "g-keep", seed=b"\x51" * 32)
    text = save_server_keys(server_keys)
    loaded = load_server_keys(text)
    assert loaded.server_id == server_keys.server_id
    assert loaded.longterm == server_keys.longterm
    assert loaded.ephemeral.keys() == server_keys.ephemeral.keys()
    assert loaded.ephemeral["g-keep"] == server_keys.ephemeral["g-keep"]


def test_window_keys_roundtrip(identity, server_keys, client_state):
    _, window, _ = _protected_corpus(identity, server_keys, client_state)
    loaded = load_window_keys(save_window_keys(window))
    assert loaded.grant_id == window.grant_id
    assert sorted(loaded.days) == sorted(window.days)
    for day in window.days:
        assert loaded.days[day] == window.days[day]


def test_events_csv_roundtrip(identity, server_keys, client_state):
    lines, window, _ = _protected_corpus(identity, server_keys, client_state)
    events, _ = recover_tokens(window, lines, 2024)
    records = []
    recover_tokens(window, lines, 2024, records.append)
    buf = io.StringIO()
    buf.write(EVENTS_HEADER_LINE)
    write_events_csv(records, buf)
    buf.seek(0)
    assert list(read_events_csv(buf)) == events


def _csv_events():
    """Three days, all ten types, four tokens reused, templates that need quoting."""
    tokens = [bytes([i]) * 16 for i in range(4)]
    templates = ["plain <PII#0>", "a, comma", 'a "quote"', 'both, "and" <PII#0>']
    return [
        _event(n, D(1 + n % 3), tokens[n % 4], pii=pii, template=templates[n % 4])
        for n, pii in enumerate(list(PiiType) * 2, start=1)
    ]


def _records(events):
    """One `write_events_csv` line record per event."""
    return [(e.line_no, e.date, e.template, [(e.pii_type, e.token)]) for e in events]


# Templates with every character csv quoting turns on, non-ASCII text and
# leading or trailing spaces.
_CSV_TEMPLATE = st.text(alphabet=',"\r\n \tab<#0>é€\u2028', max_size=12) | st.sampled_from(
    [" lead", "trail ", " both ", "a,b", '"', '""', "\r\n", "é, \"€\"", ""])


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.tuples(_CSV_TEMPLATE, st.integers(1, 3)), max_size=8))
def test_events_csv_bytes_match_per_row_reference(lines):
    """Rows byte-identical to csv.writer's, on fixed templates then one to
    three events per drawn line sharing its template, as recover emits."""
    events = _csv_events()
    records = _records(events)
    for line_no, (template, count) in enumerate(lines, start=100):
        day, pairs = D(1 + line_no % 3), [(list(PiiType)[k], bytes([line_no, k]) * 8)
                                          for k in range(count)]
        records.append((line_no, day, template, pairs))
        events += [_event(line_no, day, token, pii=pii, template=template) for pii, token in pairs]
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["line_no", "date", "pii_type", "token_b64", "template"])
    for ev in events:
        writer.writerow([ev.line_no, ev.date.isoformat(), ev.pii_type.value,
                         base64.b64encode(ev.token).decode(), ev.template])
    got = io.StringIO()
    got.write(EVENTS_HEADER_LINE)
    write_events_csv(records, got)
    assert got.getvalue() == expected.getvalue()
    assert '"a ""quote"""' in got.getvalue()
    assert list(read_events_csv(io.StringIO(got.getvalue()))) == events


@pytest.mark.parametrize("bad", [
    "2024-05-32,EMAIL,AQEBAQEBAQEBAQEBAQEBAQ==",
    "2024-05-01,EMAIL,not base64!",
    "2024-05-01,NAME,AQEBAQEBAQEBAQEBAQEBAQ==",
    "2024-05-01,EMAIL,AQEBAQEBAQEBAQEBAQEBAQE=",
], ids=["date", "token", "type", "token-length"])
def test_events_csv_bad_row_after_good_rows(bad):
    buf = io.StringIO()
    buf.write(EVENTS_HEADER_LINE)
    write_events_csv(_records(_csv_events()), buf)
    with pytest.raises(CorruptState, match="events csv"):
        list(read_events_csv(io.StringIO(buf.getvalue() + f"99,{bad},t\r\n")))


def test_events_csv_cut_inside_its_last_row():
    """A file cut anywhere inside its last row is CorruptState, also where
    the cut leaves a row that parses."""
    buf = io.StringIO()
    buf.write(EVENTS_HEADER_LINE)
    write_events_csv(_records(_csv_events()), buf)
    text = buf.getvalue()
    row_start = text.rindex("\n", 0, len(text) - 1) + 1
    for cut in range(row_start + 1, len(text)):
        with pytest.raises(CorruptState, match="events csv"):
            list(read_events_csv(io.StringIO(text[:cut])))


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode()


# Good rows draw their tokens from a small pool, so the reader's token
# cache is hit, and from fresh bytes, so it is also missed. Pool tokens
# differ only in their last byte, so only the whole text tells them apart.
_TOKEN_POOL = [_b64(bytes(15) + bytes([i])) for i in (0, 1, 2, 255)]
_GOOD_ROW = st.tuples(
    st.integers(1, 10**6),
    st.dates(date(1970, 1, 1), date(2100, 12, 31)).map(date.isoformat),
    st.sampled_from([t.value for t in PiiType]),
    st.sampled_from(_TOKEN_POOL) | st.binary(min_size=16, max_size=16).map(_b64),
    _CSV_TEMPLATE,
)
# Each kind of bad row, as the text of its line.
_BAD_ROW = st.one_of(
    st.builds(lambda raw: f"1,2024-05-01,EMAIL,{_b64(raw)},t\r\n",
              st.binary(min_size=15, max_size=15) | st.binary(min_size=17, max_size=17)),
    st.sampled_from(["not base64!", "AQEBAQEBAQEBAQEBAQEBAQ", "AQEBAQEBAQEBAQEBAQEBA===",
                     "AQEBAQEB AQEBAQEBAQEBAQ==", "\u00e9QEBAQEBAQEBAQEBAQEBAQ=="]).map(
        lambda tok: f"1,2024-05-01,EMAIL,{tok},t\r\n"),
    st.sampled_from(["1_0", " 7", "+7", "007", "\u0667", "0", "-1", ""]).map(
        lambda line_no: f"{line_no},2024-05-01,EMAIL,{_TOKEN_POOL[0]},t\r\n"),
    st.sampled_from(["2024-02-30", "2024-5-01", "20240501", "2024-13-01", "2024-W18-3", ""]).map(
        lambda day: f"1,{day},EMAIL,{_TOKEN_POOL[0]},t\r\n"),
    st.sampled_from(["NAME", "email", "EMAIL ", ""]).map(
        lambda label: f"1,2024-05-01,{label},{_TOKEN_POOL[0]},t\r\n"),
    st.sampled_from([f"1,2024-05-01,EMAIL,{_TOKEN_POOL[0]}\r\n",
                     f"1,2024-05-01,EMAIL,{_TOKEN_POOL[0]},t,u\r\n", "\r\n", "x\r\n"]),
    st.builds(lambda a, c, b: f"1,2024-05-01,EMAIL,{_TOKEN_POOL[0]},{a}{c}{b}\r\n",
              st.text("ab ", max_size=3), st.sampled_from([",", '"', "\r"]), st.text("ab ", max_size=3)),
)


@settings(max_examples=500, deadline=None)
@given(rows=st.lists(_GOOD_ROW, max_size=12), bad=st.none() | _BAD_ROW, data=st.data(),
       cut=st.none() | st.sampled_from(["anywhere", "newline", "no-newline"]),
       cache_size=st.sampled_from([1, 2, 4096]))
def test_read_events_csv_matches_reference_reader(rows, bad, data, cut, cache_size):
    """The reader gives the reference's records, or both refuse the file:
    valid files, files with one bad row, and files cut with or without
    their last newline, under token caches smaller than the file's tokens."""
    import privlog.server as server_mod

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(oracles.EVENTS_COLUMNS)
    writer.writerows(rows)
    lines = out.getvalue().splitlines(keepends=True)
    if bad is not None:
        lines.insert(data.draw(st.integers(1, len(lines)), label="bad at"), bad)
    text = "".join(lines)
    if cut is not None:
        at = data.draw(st.integers(0, len(text)), label="cut at")
        text = text[:at]
        if cut == "newline" and not text.endswith("\n"):
            text += "\n"
        elif cut == "no-newline":
            text = text.rstrip("\n")
    try:
        expected = oracles.read_events_csv(text)
    except ValueError:
        expected = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(server_mod, "TOKEN_CACHE_SIZE", cache_size)
        if expected is None:
            with pytest.raises(CorruptState, match="events csv"):
                list(read_events_csv(io.StringIO(text)))
            return
        got = list(read_events_csv(io.StringIO(text)))
    assert [(e.line_no, e.date, e.pii_type.value, e.token, e.template) for e in got] == expected
    assert all(type(e) is RecoveredEvent and type(e.pii_type) is PiiType for e in got)


def test_read_events_csv_shares_no_cached_token_between_files():
    """Within one read a repeated token is decoded once; a second read of
    the same text decodes it afresh."""
    buf = io.StringIO()
    buf.write(EVENTS_HEADER_LINE)
    write_events_csv(_records(_csv_events()), buf)
    first = list(read_events_csv(io.StringIO(buf.getvalue())))
    second = list(read_events_csv(io.StringIO(buf.getvalue())))
    assert first == second == _csv_events()
    assert first[0].token is first[4].token
    assert all(a.token is not b.token for a, b in zip(first, second))


_KEY = base64.b64encode(b"\x01" * 32).decode()
_GRANT = format_grant(Grant(
    client_eph_pub=b"\x01" * 32, box=b"\x02" * 12 + b"\x03" * 32, server_id="lab-server",
    device_id="pixel-lab", attest_digest=b"\x04" * 32, grant_id="g", grant_date=DAY1,
))
_EVENTS = "line_no,date,pii_type,token_b64,template\n"


@pytest.mark.parametrize("load, text, exc, what", [
    (load_server_keys, f"v=99\nserver_id=s\nlongterm_priv={_KEY}\nlongterm_pub={_KEY}\n",
     UnsupportedVersion, "server keystore"),
    (load_window_keys, f"v=99\ngrant_id=g\nkey.2024-05-01={_KEY}\n",
     UnsupportedVersion, "window keys file"),
    (parse_grant, _GRANT.replace("v=1\n", "v=99\n", 1), UnsupportedVersion, "grant file"),
    (load_window_keys, f"v=1\ngrant_id=g\nkey.2024-13-01={_KEY}\n",
     CorruptState, "window keys file"),
    (lambda text: list(read_events_csv(io.StringIO(text))),
     _EVENTS + f"1,2024-05-32,EMAIL,{base64.b64encode(bytes(16)).decode()},t\n",
     CorruptState, "events csv"),
    (parse_grant, _GRANT.replace("grant_date=2024-05-01", "grant_date=2024-5-1"),
     CorruptState, "grant file"),
    (load_window_keys, f"v=1\ngrant_id=g\nkey.20240501={_KEY}\n",
     CorruptState, "window keys file"),
    (parse_grant, _GRANT.replace("grant_date=2024-05-01", "grant_date=2024-W18-3"),
     CorruptState, "grant file"),
    (load_server_keys, f"v=1\nserver_id=s\nlongterm_priv={_KEY}\nlongterm_pub={_KEY}\n"
     f"eph.g={_KEY},{base64.b64encode(bytes(31)).decode()}\n",
     CorruptState, "an ephemeral entry "),
], ids=["keystore-v99", "window-v99", "grant-v99", "window-date", "events-date", "grant-date",
        "window-date-basic", "grant-date-week", "keystore-eph-short"])
def test_file_checks_reject_bad_version_and_date(load, text, exc, what):
    with pytest.raises(exc, match=what) as info:
        load(text)
    assert exc is UnsupportedVersion or not isinstance(info.value, UnsupportedVersion)


def test_linkage_csv_shape():
    """Rows as csv.writer writes them, most frequent token first."""
    events = [_event(1, D(1), b"\x01" * 16), _event(2, D(2), b"\x01" * 16),
              _event(3, D(3), b"\x02" * 16, pii=PiiType.PHONE)]
    buf = io.StringIO()
    write_linkage_csv(linkage_report(events), buf)
    rows = buf.getvalue().strip().splitlines()
    assert rows[0] == "token_b64,pii_type,count,first_date,last_date"
    assert rows[1].endswith("EMAIL,2,2024-05-01,2024-05-02")
    expected = io.StringIO()
    csv.writer(expected).writerows([
        ["token_b64", "pii_type", "count", "first_date", "last_date"],
        [base64.b64encode(b"\x01" * 16).decode(), "EMAIL", 2, "2024-05-01", "2024-05-02"],
        [base64.b64encode(b"\x02" * 16).decode(), "PHONE", 1, "2024-05-03", "2024-05-03"],
    ])
    assert buf.getvalue() == expected.getvalue()


@settings(max_examples=200, deadline=None)
@given(templates=st.lists(_CSV_TEMPLATE, max_size=6))
def test_timeline_csv_bytes_match_csv_writer(templates):
    rows = [(D(1 + n % 3), n, template) for n, template in enumerate(templates, start=1)]
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["date", "line_no", "template"])
    writer.writerows([day.isoformat(), line_no, template] for day, line_no, template in rows)
    got = io.StringIO()
    write_timeline_csv(rows, got)
    assert got.getvalue() == expected.getvalue()

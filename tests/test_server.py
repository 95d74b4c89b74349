"""Server side: grant ingestion, window enforcement, recovery, reports."""

import base64
import csv
import dataclasses
import io
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from privlog.client import GrantRequest, ProtectSession, advance_to, create_grant, init_client
from privlog.crypto import SecretKey32, aead_open, aead_seal, dh_shared, kdf
from privlog.errors import (
    AuthFailure,
    ContextMismatch,
    CorruptState,
    InvalidWindow,
    UnsupportedVersion,
)
from privlog.grant import Grant, canonical_aad, format_grant, pack_window_payload, parse_grant
from privlog.pii import PiiType, parse_protected_line
from privlog.server import (
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
    stranger = dataclasses.replace(grant, grant_id="never-offered")
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
        tampered = dataclasses.replace(grant, server_id="lab-serveR")
    elif field_idx == 1:
        tampered = dataclasses.replace(grant, device_id="golden-devicf")
    elif field_idx == 2:
        digest = bytearray(grant.attest_digest)
        digest[byte_seed % 32] ^= 1 + byte_seed % 255
        tampered = dataclasses.replace(grant, attest_digest=bytes(digest))
    elif field_idx == 3:
        tampered = dataclasses.replace(grant, grant_id="g-tamper")  # same id, flip date below
        tampered = dataclasses.replace(tampered, grant_date=DAY1 + timedelta(days=1 + byte_seed % 30))
    else:
        box = grant.box
        ct = bytearray(box[12:])
        ct[byte_seed % len(ct)] ^= 1 + byte_seed % 255
        tampered = dataclasses.replace(grant, box=box[:12] + bytes(ct))

    with pytest.raises(AuthFailure):
        accept_grant(sk, tampered, tampered.server_id, tampered.device_id,
                     expected_attest=tampered.attest_digest)


def test_forged_window_start_rejected(identity, server_keys):
    """A hand-built grant whose window start is after its date is refused."""
    state = init_client(identity, server_keys.longterm.public, DAY1, rng_seed=b"\x07" * 32)
    offer_pub = create_offer(server_keys, "g-forged", seed=b"\x51" * 32)

    from privlog.crypto import dh_derive_keypair

    eph = dh_derive_keypair(b"\x52" * 32, b"export-keygen")
    z = dh_shared(eph.private, offer_pub)
    k_exp = SecretKey32(kdf(None, z, b"export-kdf", 32))
    bad_start = DAY1 + timedelta(days=5)
    aad = canonical_aad("lab-server", identity.device_id, b"\x00" * 32, "g-forged", DAY1)
    box = aead_seal(k_exp, pack_window_payload(state.chain_key, bad_start), aad)
    forged = Grant(
        client_eph_pub=eph.public,
        box=box,
        server_id="lab-server",
        device_id=identity.device_id,
        attest_digest=b"\x00" * 32,
        grant_id="g-forged",
        grant_date=DAY1,
    )
    with pytest.raises(InvalidWindow):
        accept_grant(server_keys, forged, "lab-server", identity.device_id)


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
    buf = io.StringIO()
    write_events_csv(events, buf)
    buf.seek(0)
    assert read_events_csv(buf) == events


def _csv_events():
    """Three days, all ten types, four tokens reused, templates that need quoting."""
    tokens = [bytes([i]) * 16 for i in range(4)]
    templates = ["plain <PII#0>", "a, comma", 'a "quote"', 'both, "and" <PII#0>']
    return [
        _event(n, D(1 + n % 3), tokens[n % 4], pii=pii, template=templates[n % 4])
        for n, pii in enumerate(list(PiiType) * 2, start=1)
    ]


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
    for line_no, (template, count) in enumerate(lines, start=100):
        events += [_event(line_no, D(1 + line_no % 3), bytes([line_no, k]) * 8,
                          pii=list(PiiType)[k], template=template) for k in range(count)]
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["line_no", "date", "pii_type", "token_b64", "template"])
    for ev in events:
        writer.writerow([ev.line_no, ev.date.isoformat(), ev.pii_type.value,
                         base64.b64encode(ev.token).decode(), ev.template])
    got = io.StringIO()
    write_events_csv(events, got)
    assert got.getvalue() == expected.getvalue()
    assert '"a ""quote"""' in got.getvalue()
    assert read_events_csv(io.StringIO(got.getvalue())) == events


@pytest.mark.parametrize("bad", [
    "2024-05-32,EMAIL,AQEBAQEBAQEBAQEBAQEBAQ==",
    "2024-05-01,EMAIL,not base64!",
    "2024-05-01,NAME,AQEBAQEBAQEBAQEBAQEBAQ==",
    "2024-05-01,EMAIL,AQEBAQEBAQEBAQEBAQEBAQE=",
], ids=["date", "token", "type", "token-length"])
def test_events_csv_bad_row_after_good_rows(bad):
    buf = io.StringIO()
    write_events_csv(_csv_events(), buf)
    with pytest.raises(CorruptState, match="events csv"):
        read_events_csv(io.StringIO(buf.getvalue() + f"99,{bad},t\r\n"))


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
    (lambda text: read_events_csv(io.StringIO(text)),
     _EVENTS + f"1,2024-05-32,EMAIL,{base64.b64encode(bytes(16)).decode()},t\n",
     CorruptState, "events csv"),
    (parse_grant, _GRANT.replace("grant_date=2024-05-01", "grant_date=2024-5-1"),
     CorruptState, "grant file"),
    (load_window_keys, f"v=1\ngrant_id=g\nkey.20240501={_KEY}\n",
     CorruptState, "window keys file"),
    (parse_grant, _GRANT.replace("grant_date=2024-05-01", "grant_date=2024-W18-3"),
     CorruptState, "grant file"),
], ids=["keystore-v99", "window-v99", "grant-v99", "window-date", "events-date", "grant-date",
        "window-date-basic", "grant-date-week"])
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

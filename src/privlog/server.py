"""Forensic side: grant ingestion, token recovery, linkage analysis.

The server never holds the pseudonym hash key, so everything it recovers
is a 16-byte correlation token: good for equality linkage and timelines,
useless for learning the underlying value. Day keys come from replaying
the one-way chain forward from the granted start key, which structurally
cannot reach any day before the window start.
"""

from __future__ import annotations

import csv
import functools
import secrets
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .crypto import (
    TOKEN_LEN, DhKeyPair, SecretKey32, aead_open, dh_derive_keypair, dh_shared, kdf,
    ratchet_step,
)
from .errors import AuthFailure, ContextMismatch, CorruptState, InvalidLength, InvalidWindow
from .grant import Grant, grant_aad, unpack_window_payload
from .kvfile import (
    b64, b64_decode, b64_field, csv_field, format_kv, iso_date, parse_versioned, require,
)
from .pii import PiiType, extract_date, parse_protected_line, roll_year

KEYSTORE_VERSION = "1"
WINDOW_VERSION = "1"

EVENTS_HEADER = ["line_no", "date", "pii_type", "token_b64", "template"]
LINKAGE_HEADER = ["token_b64", "pii_type", "count", "first_date", "last_date"]
TIMELINE_HEADER = ["date", "line_no", "template"]


@dataclass
class ServerKeys:
    server_id: str
    longterm: DhKeyPair
    ephemeral: Dict[str, DhKeyPair] = field(default_factory=dict)


def keygen(server_id: str, seed: Optional[bytes] = None) -> ServerKeys:
    seed = seed if seed is not None else secrets.token_bytes(32)
    return ServerKeys(
        server_id=server_id,
        longterm=dh_derive_keypair(seed, b"server-longterm"),
    )


def create_offer(keys: ServerKeys, grant_id: str, seed: Optional[bytes] = None) -> bytes:
    """Mint the single-use ephemeral keypair for one grant; returns its public key."""
    if not grant_id or not all(c.isalnum() or c in "._-" for c in grant_id):
        raise InvalidWindow(f"grant_id {grant_id!r} must be [A-Za-z0-9._-]+")
    if grant_id in keys.ephemeral:
        raise InvalidWindow(f"grant_id {grant_id!r} already has an outstanding offer")
    seed = seed if seed is not None else secrets.token_bytes(32)
    pair = dh_derive_keypair(seed, b"server-ephemeral")
    keys.ephemeral[grant_id] = pair
    return pair.public


@dataclass
class WindowKeys:
    grant_id: str
    days: Dict[date, SecretKey32]

    def span(self) -> Tuple[Optional[date], Optional[date]]:
        if not self.days:
            return None, None
        ordered = sorted(self.days)
        return ordered[0], ordered[-1]


def accept_grant(
    keys: ServerKeys,
    grant: Grant,
    expected_server_id: str,
    expected_device_id: str,
    expected_attest: Optional[bytes] = None,
) -> WindowKeys:
    """Open a grant, verify its context, and replay day keys for its window.

    AEAD failure (tampering, wrong ephemeral) raises AuthFailure; a grant
    that authenticates but was issued for a different server/device/
    attestation raises ContextMismatch. The single-use ephemeral keypair
    is consumed only when ingestion fully succeeds.
    """
    eph = keys.ephemeral.get(grant.grant_id)
    if eph is None:
        raise ContextMismatch(f"no outstanding offer for grant {grant.grant_id!r}")
    z = dh_shared(eph.private, grant.client_eph_pub)
    k_exp = SecretKey32(kdf(None, z, b"export-kdf", 32))
    payload = aead_open(k_exp, grant.box, grant_aad(grant))

    if grant.server_id != expected_server_id:
        raise ContextMismatch(
            f"grant is for server {grant.server_id!r}, expected {expected_server_id!r}"
        )
    if grant.device_id != expected_device_id:
        raise ContextMismatch(
            f"grant is from device {grant.device_id!r}, expected {expected_device_id!r}"
        )
    if expected_attest is not None and grant.attest_digest != expected_attest:
        raise ContextMismatch("attestation digest does not match the pinned value")

    start_ck, start = unpack_window_payload(payload)
    if start > grant.grant_date:
        raise InvalidWindow(f"window start {start} after grant date {grant.grant_date}")
    # Consumed only on full success; a failed accept leaves the offer usable.
    del keys.ephemeral[grant.grant_id]

    days: Dict[date, SecretKey32] = {}
    ck = start_ck
    day = start
    while day <= grant.grant_date:
        ck, mk = ratchet_step(ck)
        days[day] = mk
        day += timedelta(days=1)
    return WindowKeys(grant_id=grant.grant_id, days=days)


class RecoveredEvent(NamedTuple):
    line_no: int
    date: date
    pii_type: PiiType
    token: bytes
    template: str


def recover_tokens(
    window: WindowKeys, lines: Iterable[str], assumed_year: int
) -> Tuple[List[RecoveredEvent], Dict[str, int]]:
    """Decrypt every in-window protected field; tally everything else.

    Failures are per field, never fatal: a mixed corpus is expected to
    contain lines outside the window and fields sealed under other
    epochs, and those must not abort recovery of the rest. Year-less
    dates are read as in `ProtectSession`, the first nearest the window's
    first day. Templates exclude a trailing "\n" or "\r\n".
    """
    events: List[RecoveredEvent] = []
    skipped = {
        "lines_no_pii": 0,
        "lines_no_date": 0,
        "lines_out_of_window": 0,
        "fields_auth_failed": 0,
        "fields_malformed": 0,
    }
    year = assumed_year
    last_date = min(window.days, default=date.min)
    for line_no, line in enumerate(lines, start=1):
        line = line.removesuffix("\n").removesuffix("\r")
        template, fields, warnings = parse_protected_line(line)
        skipped["fields_malformed"] += len(warnings)
        if not fields:
            skipped["lines_no_pii"] += 1
            continue
        day = extract_date(line, year)
        if day is None:
            skipped["lines_no_date"] += 1
            continue
        if day != last_date:  # the previous line's date: nothing to re-read
            day, year = roll_year(line, day, year, last_date)
            last_date = day
        key = window.days.get(day)
        if key is None:
            skipped["lines_out_of_window"] += 1
            continue
        for pii_type, box in fields:
            try:
                token = aead_open(key, box)
            except AuthFailure:
                skipped["fields_auth_failed"] += 1
                continue
            events.append(RecoveredEvent(line_no, day, pii_type, token, template))
    return events, skipped


@dataclass
class LinkageGroup:
    token: bytes
    pii_type: PiiType
    count: int
    first_date: date
    last_date: date


def linkage_report(events: List[RecoveredEvent]) -> List[LinkageGroup]:
    """Group events by token; most frequent first, token bytes break ties.

    One pass: each token keeps [its first event's type, count, first
    date, last date].
    """
    by_token: Dict[bytes, list] = {}
    for _, day, pii_type, token, _ in events:
        group = by_token.get(token)
        if group is None:
            by_token[token] = [pii_type, 1, day, day]
            continue
        group[1] += 1
        if day < group[2]:
            group[2] = day
        elif day > group[3]:
            group[3] = day
    groups = [LinkageGroup(token, *group) for token, group in by_token.items()]
    groups.sort(key=lambda g: (-g.count, g.token))
    return groups


def timeline(
    events: List[RecoveredEvent], token: bytes
) -> List[Tuple[date, int, str]]:
    hits = [(ev.date, ev.line_no, ev.template) for ev in events if ev.token == token]
    hits.sort(key=lambda t: (t[0], t[1]))
    return hits


# --- persistence -------------------------------------------------------


def save_server_keys(keys: ServerKeys) -> str:
    rows = [
        ("v", KEYSTORE_VERSION),
        ("server_id", keys.server_id),
        ("longterm_priv", b64(keys.longterm.private)),
        ("longterm_pub", b64(keys.longterm.public)),
    ]
    for grant_id in sorted(keys.ephemeral):
        pair = keys.ephemeral[grant_id]
        rows.append((f"eph.{grant_id}", f"{b64(pair.private)},{b64(pair.public)}"))
    return format_kv(rows)


def load_server_keys(text: str) -> ServerKeys:
    fields = parse_versioned(text, "server keystore", KEYSTORE_VERSION)
    keys = ServerKeys(
        server_id=require(fields, "server_id", "server keystore"),
        longterm=DhKeyPair(
            private=b64_field(fields, "longterm_priv", "server keystore", 32),
            public=b64_field(fields, "longterm_pub", "server keystore", 32),
        ),
    )
    for key, value in fields.items():
        if not key.startswith("eph."):
            continue
        what = f"server keystore: ephemeral entry {key!r}"
        parts = value.split(",")
        if len(parts) != 2:
            raise CorruptState(f"{what} must be two base64 keys joined by ','")
        try:
            pair = DhKeyPair(*(b64_decode(part, what) for part in parts))
        except InvalidLength as exc:
            raise CorruptState(f"{what}: {exc}") from exc
        keys.ephemeral[key[len("eph.") :]] = pair
    return keys


def save_window_keys(window: WindowKeys) -> str:
    rows = [("v", WINDOW_VERSION), ("grant_id", window.grant_id)]
    for day in sorted(window.days):
        rows.append((f"key.{day.isoformat()}", b64(window.days[day].bytes)))
    return format_kv(rows)


def load_window_keys(text: str) -> WindowKeys:
    fields = parse_versioned(text, "window keys file", WINDOW_VERSION)
    days: Dict[date, SecretKey32] = {}
    for key in fields:
        if key.startswith("key."):
            day = iso_date(key[len("key.") :], "window keys file")
            days[day] = SecretKey32(b64_field(fields, key, "window keys file", 32))
    return WindowKeys(grant_id=require(fields, "grant_id", "window keys file"), days=days)


def write_events_csv(events: List[RecoveredEvent], fh) -> None:
    """One row per event, as csv.writer writes it. Each distinct day is
    formatted once, and each line's template is quoted once for all of its
    events, which `recover_tokens` emits one after another."""
    fh.write(",".join(EVENTS_HEADER) + "\r\n")
    iso = functools.cache(date.isoformat)
    template, tail = None, ""
    for line_no, day, pii_type, token, text in events:
        if text != template:
            template, tail = text, csv_field(text) + "\r\n"
        fh.write(f"{line_no},{iso(day)},{pii_type.value},{b64(token)},{tail}")


def read_events_csv(lines: Iterable[str]) -> List[RecoveredEvent]:
    """Events from the lines of a CSV as `write_events_csv` writes it, each
    line with its "\n". A row that does not parse, a token that is not
    16 bytes, or a file that ends inside a quoted field is CorruptState."""
    # A template is a whole protected line, which may be longer than the
    # csv module's default field limit of 128 KiB; 2**31 - 1 fits a C long
    # on every platform.
    csv.field_size_limit(2**31 - 1)
    reader = csv.reader(lines, strict=True)
    # A window has few days and there are ten types: each distinct date and
    # type string is checked once. Tokens need not repeat, so each is decoded.
    day_of = functools.cache(lambda text: iso_date(text, "events csv: date"))
    type_of = functools.cache(PiiType)
    events = []
    try:
        header = next(reader, None)
        if header != EVENTS_HEADER:
            raise CorruptState(f"events csv: unexpected header {header!r}")
        for line_no, day, pii_type, token_b64, template in reader:
            events.append(RecoveredEvent(
                int(line_no), day_of(day), type_of(pii_type),
                b64_decode(token_b64, "events csv: token", TOKEN_LEN), template,
            ))
    except (ValueError, KeyError, csv.Error) as exc:
        raise CorruptState(f"events csv: bad row: {exc}") from exc
    return events


def write_linkage_csv(groups: List[LinkageGroup], fh) -> None:
    """Rows as csv.writer writes them; no field can need quoting."""
    fh.write(",".join(LINKAGE_HEADER) + "\r\n")
    for g in groups:
        fh.write(f"{b64(g.token)},{g.pii_type.value},{g.count},"
                 f"{g.first_date.isoformat()},{g.last_date.isoformat()}\r\n")


def write_timeline_csv(rows: List[Tuple[date, int, str]], fh) -> None:
    """Rows as csv.writer writes them."""
    fh.write(",".join(TIMELINE_HEADER) + "\r\n")
    for day, line_no, template in rows:
        fh.write(f"{day.isoformat()},{line_no},{csv_field(template)}\r\n")

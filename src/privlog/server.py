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
import heapq
import itertools
import marshal
import operator
import tempfile
from binascii import b2a_base64
from collections import deque
from datetime import date, timedelta
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .crypto import (
    TOKEN_LEN, DhKeyPair, SecretKey32, aead_open, dh_derive_keypair, dh_shared, ratchet_step,
)
from .errors import AuthFailure, ContextMismatch, CorruptState, InvalidWindow
from .grant import Grant, check_grant_id, open_window
from .kvfile import (
    b64, b64_decode, b64_field, csv_field, format_kv, iso_date, parse_versioned, require,
)
from .pii import PiiType, extract_date, parse_protected_line

KEYSTORE_VERSION = "1"
WINDOW_VERSION = "1"

EVENTS_HEADER = ["line_no", "date", "pii_type", "token_b64", "template"]
EVENTS_HEADER_LINE = ",".join(EVENTS_HEADER) + "\r\n"
LINKAGE_HEADER = ["token_b64", "pii_type", "count", "first_date", "last_date"]
TIMELINE_HEADER = ["date", "line_no", "template"]


class ServerKeys:
    """The long-term keypair and each outstanding offer's ephemeral keypair,
    by grant id."""

    def __init__(self, server_id: str, longterm: DhKeyPair):
        self.server_id = server_id
        self.longterm = longterm
        self.ephemeral: Dict[str, DhKeyPair] = {}


def keygen(server_id: str, seed: Optional[bytes] = None) -> ServerKeys:
    return ServerKeys(
        server_id=server_id,
        longterm=dh_derive_keypair(seed, b"server-longterm"),
    )


def create_offer(keys: ServerKeys, grant_id: str, seed: Optional[bytes] = None) -> bytes:
    """Mint the single-use ephemeral keypair for one grant; returns its public key."""
    try:
        check_grant_id(grant_id)
    except CorruptState as exc:
        raise InvalidWindow(str(exc)) from exc
    if grant_id in keys.ephemeral:
        raise InvalidWindow(f"grant_id {grant_id!r} already has an outstanding offer")
    pair = dh_derive_keypair(seed, b"server-ephemeral")
    keys.ephemeral[grant_id] = pair
    return pair.public


class WindowKeys:
    """One day key per day of a granted window."""

    def __init__(self, grant_id: str, days: Dict[date, SecretKey32]):
        self.grant_id = grant_id
        self.days = days

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
    that authenticates but holds a malformed payload raises CorruptState,
    and one issued for a different server/device/attestation raises
    ContextMismatch. The single-use ephemeral keypair is consumed only
    when ingestion fully succeeds.
    """
    eph = keys.ephemeral.get(grant.grant_id)
    if eph is None:
        raise ContextMismatch(f"no outstanding offer for grant {grant.grant_id!r}")
    start_ck, start = open_window(grant, dh_shared(eph.private, grant.client_eph_pub))

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


# A record from a 5-tuple, built in C: no Python-level `__new__` per event.
_event = functools.partial(tuple.__new__, RecoveredEvent)


def recover_tokens(
    window: WindowKeys,
    lines: Iterable[str],
    assumed_year: int,
    emit: Optional[Callable[[tuple], object]] = None,
    start_line: int = 1,
) -> Tuple[List[RecoveredEvent], Dict[str, int]]:
    """Decrypt every in-window protected field; tally everything else.

    Failures are per field, never fatal: a mixed corpus is expected to
    contain lines outside the window and fields sealed under other
    epochs, and those must not abort recovery of the rest. Year-less
    dates are read as in `ProtectSession`, the first nearest the window's
    first day. Templates exclude a trailing "\n" or "\r\n".

    Each line is counted under the first rule that stops it:
    - `lines_no_pii`: no "<PII" in the line, which every element starts
      with. The line is neither parsed nor read for its date;
    - `lines_no_date`: no date. `lines_out_of_window`: a date with no
      window key; like every dated line from here on, it moves the
      running year. Neither kind is parsed, so `fields_malformed` counts
      only elements on dated lines inside the window;
    - `lines_no_pii` again: a dated line in the window with no valid
      element. `fields_auth_failed`: each field that does not open.

    Each line with a field that opens goes to `emit` as soon as it is
    done, as one `(line_no, day, template, [(pii_type, token), ...])`
    record with its pairs in line order, and the returned list stays
    empty. With no `emit`, the list holds one RecoveredEvent per pair.
    The counters are complete when the call returns.

    `lines` always starts at the file's first line. The lines before
    `start_line` run through the same rules with no window key, so none
    is parsed; they only move the running year and the last date, and
    their counts are dropped. So a caller that recovers one share of a
    file passes the file's lines up to the share's last, and the share's
    first line as `start_line`, and gets that share's records and
    counters with the line numbers of the whole file.
    """
    records: list = []
    if emit is None:
        emit = records.append
    year = assumed_year
    last_date = min(window.days, default=date.min)
    lines = iter(lines)
    # The lines before `start_line` run with no day keys, and their counts are dropped.
    for days, first, stop in (({}, 1, start_line - 1), (window.days, start_line, None)):
        no_pii = no_date = out_of_window = auth_failed = malformed = 0
        key = days.get(last_date)  # the key of `last_date`, looked up when it changes
        for line_no, line in enumerate(itertools.islice(lines, stop), start=first):
            if "<PII" not in line:
                no_pii += 1
                continue
            line = line.removesuffix("\n").removesuffix("\r")
            day, year = extract_date(line, year, last_date)
            if day is None:
                no_date += 1
                continue
            if day != last_date:
                last_date = day
                key = days.get(day)
            if key is None:
                out_of_window += 1
                continue
            template, fields, warnings = parse_protected_line(line)
            malformed += len(warnings)
            if not fields:
                no_pii += 1
                continue
            opened = []
            for pii_type, box in fields:
                try:
                    opened.append((pii_type, aead_open(key, box)))
                except AuthFailure:
                    auth_failed += 1
            if opened:
                emit((line_no, day, template, opened))
    events = [_event((line_no, day, pii_type, token, template))
              for line_no, day, template, opened in records for pii_type, token in opened]
    return events, {"lines_no_pii": no_pii, "lines_no_date": no_date,
                    "lines_out_of_window": out_of_window, "fields_auth_failed": auth_failed,
                    "fields_malformed": malformed}


class LinkageGroup(NamedTuple):
    token: bytes
    pii_type: PiiType
    count: int
    first_date: date
    last_date: date


def linkage_report(events: Iterable[RecoveredEvent]) -> List[LinkageGroup]:
    """Group events by token; most frequent first, token bytes break ties.

    One pass that holds no event: each token keeps [its first event's
    type, count, first date, last date].
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


# Hits of one token held in memory at once; past this many, each sorted
# run of hits moves to one temporary file and the runs are merged as read.
TIMELINE_RUN_ROWS = 4096
_when = operator.itemgetter(0, 1)


def timeline(
    events: Iterable[RecoveredEvent], token: bytes
) -> Iterable[Tuple[date, int, str]]:
    """The date, line number and template of each event of `token`, by
    date then line number, ties in event order. One pass that keeps only
    those, and at most TIMELINE_RUN_ROWS of them in memory."""
    run_rows, spill, starts, hits = TIMELINE_RUN_ROWS, None, [], []
    for ev in events:
        if ev.token == token:
            hits.append((ev.date, ev.line_no, ev.template))
            if len(hits) == run_rows:
                if spill is None:
                    spill = tempfile.TemporaryFile()
                starts.append(spill.tell())
                hits.sort(key=_when)
                for day, line_no, template in hits:
                    marshal.dump((day.toordinal(), line_no, template), spill)
                hits = []
    hits.sort(key=_when)
    return _merged(spill, starts, run_rows, hits) if starts else hits


def _merged(
    spill, starts: List[int], run_rows: int, hits: list
) -> Iterator[Tuple[date, int, str]]:
    """The spilled runs, each `run_rows` hits from its start in `spill`,
    merged with the last `hits`; each run keeps its own place in the file."""

    def run(pos: int) -> Iterator[Tuple[date, int, str]]:
        for _ in range(run_rows):
            spill.seek(pos)
            ordinal, line_no, template = marshal.load(spill)
            pos = spill.tell()
            yield date.fromordinal(ordinal), line_no, template

    with spill:
        yield from heapq.merge(*map(run, starts), hits, key=_when)


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
        # Named without its key: a secret that lost its '=' reads as one.
        what = "server keystore: an ephemeral entry"
        parts = value.split(",")
        if len(parts) != 2:
            raise CorruptState(f"{what} must be two base64 keys joined by ','")
        keys.ephemeral[key[len("eph.") :]] = DhKeyPair(*(b64_decode(p, what, 32) for p in parts))
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
            day = iso_date(key[len("key.") :], "window keys file: the date of a key. entry")
            days[day] = SecretKey32(b64_field(fields, key, "window keys file", 32))
    return WindowKeys(grant_id=require(fields, "grant_id", "window keys file"), days=days)


# Recovery writes one line's rows per call; a window has few days.
_iso = functools.cache(date.isoformat)
_LABEL = {t: t.value for t in PiiType}
# Distinct tokens `read_events_csv` keeps decoded; tokens past this many
# are decoded again when they recur.
TOKEN_CACHE_SIZE = 4096


def write_events_csv(records: Iterable[tuple], fh) -> None:
    """Each `recover_tokens` line record's rows, one per pair, as csv.writer
    writes them, without the header: write EVENTS_HEADER_LINE once where the
    file is opened. A record's `line_no,date,` head and `,template` tail are
    built once, the template quoted once, and its rows go out in one write."""
    for line_no, day, template, opened in records:
        head = f"{line_no},{_iso(day)},"
        tail = f",{csv_field(template)}\r\n"
        fh.write("".join([f"{head}{_LABEL[pii_type]},{b2a_base64(token, newline=False).decode()}{tail}"
                          for pii_type, token in opened]))


def read_events_csv(lines: Iterable[str]) -> Iterator[RecoveredEvent]:
    """Events from the lines of a CSV as `write_events_csv` writes it, each
    line with its "\n", yielded as they are read. A row that does not
    parse, a token that is not 16 bytes, or a file cut short (inside a
    quoted field, or anywhere a row still parses: its last line has no
    "\n") raises CorruptState when the reader reaches it, so a caller
    that must refuse a bad file reads it to the end before it writes."""
    # A template is a whole protected line, which may be longer than the
    # csv module's default field limit of 128 KiB; 2**31 - 1 fits a C long
    # on every platform.
    csv.field_size_limit(2**31 - 1)
    last = deque([""], maxlen=1)  # `append` returns None: every line passes, the last kept
    reader = csv.reader(itertools.filterfalse(last.append, lines), strict=True)
    # A window has few days and there are ten types: each distinct date and
    # type string is checked once. Tokens recur (a linkage report exists
    # because they do), so each distinct token string is decoded once, by a
    # cache that lives and dies with this call.
    day_of = functools.cache(lambda text: iso_date(text, "events csv: date"))
    type_of = functools.cache(PiiType)
    token_of = functools.lru_cache(TOKEN_CACHE_SIZE)(
        lambda text: b64_decode(text, "events csv: token", TOKEN_LEN))
    try:
        header = next(reader, None)
        if header != EVENTS_HEADER:
            raise CorruptState(f"events csv: unexpected header {header!r}")
        for line_no, day, pii_type, token_b64, template in reader:
            n = int(line_no)
            if n < 1 or str(n) != line_no:  # `int` also takes "+7", " 7", "1_0", "007", "\u0667"
                raise ValueError(f"line number {line_no!r}")
            yield _event((n, day_of(day), type_of(pii_type), token_of(token_b64), template))
    except (ValueError, KeyError, csv.Error) as exc:
        raise CorruptState(f"events csv: bad row: {exc}") from exc
    if not last[0].endswith("\n"):
        raise CorruptState("events csv: the last line has no newline: the file was cut")


def write_linkage_csv(groups: List[LinkageGroup], fh) -> None:
    """Rows as csv.writer writes them; no field can need quoting."""
    fh.write(",".join(LINKAGE_HEADER) + "\r\n")
    for g in groups:
        fh.write(f"{b64(g.token)},{g.pii_type.value},{g.count},"
                 f"{g.first_date.isoformat()},{g.last_date.isoformat()}\r\n")


def write_timeline_csv(rows: Iterable[Tuple[date, int, str]], fh) -> None:
    """Rows as csv.writer writes them."""
    fh.write(",".join(TIMELINE_HEADER) + "\r\n")
    for day, line_no, template in rows:
        fh.write(f"{day.isoformat()},{line_no},{csv_field(template)}\r\n")

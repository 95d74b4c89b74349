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
from .pii import PiiType, date_text, extract_date, parse_protected_line, walk_dates

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
    """Mint the single-use ephemeral keypair for one grant; returns its public
    key. An outstanding offer's key is returned again, and none is minted."""
    try:
        check_grant_id(grant_id)
    except CorruptState as exc:
        raise InvalidWindow(str(exc)) from exc
    if grant_id in keys.ephemeral:  # its offer file may have been lost
        return keys.ephemeral[grant_id].public
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


def _opened(key: SecretKey32, fields: list) -> list:
    """The (type, token) of each field that opens under `key`, in order."""
    opened = []
    for pii_type, box in fields:
        try:
            opened.append((pii_type, aead_open(key, box)))
        except AuthFailure:
            pass
    return opened


def recover_tokens(
    window: WindowKeys,
    lines: Iterable[str],
    assumed_year: int,
    emit: Optional[Callable[[tuple], object]] = None,
    start_line: int = 1,
    prefix: Iterable[bytes] = (),
) -> Tuple[List[RecoveredEvent], Dict[str, int]]:
    """Decrypt every in-window protected field; tally everything else.

    Failures are per field, never fatal. Every line is dated by the
    client's rule (`pii.walk_dates`, README), the first nearest the
    window's first day; a line that starts with the last dated line's
    date text is read in full only where it matters. Templates exclude a
    trailing "\n" or "\r\n". A line counts under the first rule that stops it:
    - `lines_no_pii`: no "<PII". `lines_out_of_window`: a date with no
      window key. Neither is parsed;
    - `lines_no_pii` again: no valid element; `fields_malformed` counts
      the malformed elements of every line parsed;
    - an undated line opens under the last dated line's key, else under
      the first other window key, earliest first, that opens one of its
      fields, and is reported on that key's day; `lines_no_date` if none;
    - `fields_auth_failed`: each other field that does not open.

    Each line with a field that opens goes to `emit` when it is done, as
    one `(line_no, day, template, [(pii_type, token), ...])` record, and
    the returned list stays empty; with no `emit`, it holds one
    RecoveredEvent per pair. `lines` start at the file's line `start_line`,
    after its raw lines `prefix`, which are only walked for their dates.
    """
    records: list = []
    if emit is None:
        emit = records.append
    days = window.days
    year, last, text, _ = walk_dates(prefix, assumed_year, min(days, default=date.min), None, None)
    key = days.get(last)  # the key of `last`, looked up when it changes
    no_pii = no_date = out_of_window = auth_failed = malformed = 0
    for line_no, line in enumerate(lines, start=start_line):
        read = text is None or not line.startswith(text)
        if read:
            day, year = extract_date(line, year, last)
            text = None if day is None else date_text(line)
            if day is not None and day != last:
                last, key = day, days.get(day)
        if "<PII" not in line:
            no_pii += 1
            continue
        if not read:  # the day of `text`, or undated: read in full only where it matters
            day = last if key is not None else extract_date(line, year, last)[0]
        if day is not None and key is None:
            out_of_window += 1
            continue
        template, fields, warnings = parse_protected_line(line.removesuffix("\n").removesuffix("\r"))
        malformed += len(warnings)
        if not fields:
            no_pii += 1
            continue
        opened = _opened(key, fields) if key is not None else []
        if opened:
            day = last
        elif day is None or not read and extract_date(line, year, last)[0] is None:
            for day, other in sorted(days.items()):
                if other is not key and (opened := _opened(other, fields)):
                    break
            else:
                no_date += 1
                continue
        auth_failed += len(fields) - len(opened)
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


_group = functools.partial(tuple.__new__, LinkageGroup)
_TYPE = {t.value: t for t in PiiType}


def merged_linkage(shares: Iterable[list]) -> List[LinkageGroup]:
    """One report from the `linkage_report` groups of each share of the
    events, in file order, with each type as its label and each date as
    its ordinal: counts summed, the earliest first date and the latest last
    date, and the type from the earliest share that holds the token."""
    by_token: Dict[bytes, list] = {}
    for groups in shares:
        for token, label, count, first, last in groups:
            group = by_token.setdefault(token, [label, 0, first, last])
            group[1:] = group[1] + count, min(group[2], first), max(group[3], last)
    day = functools.cache(date.fromordinal)
    groups = [_group((token, _TYPE[label], count, day(first), day(last)))
              for token, (label, count, first, last) in by_token.items()]
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
    run_rows, spill, runs, hits = TIMELINE_RUN_ROWS, None, [], []
    try:
        for ev in events:
            if ev.token == token:
                hits.append((ev.date, ev.line_no, ev.template))
                if len(hits) == run_rows:
                    if spill is None:
                        spill = tempfile.TemporaryFile()
                    hits.sort(key=_when)
                    runs.append((spill.tell(), dump_run(hits, spill)))
                    hits = []
    except BaseException:  # a bad row: the spill is closed now, not when collected
        if spill is not None:
            spill.close()
        raise
    hits.sort(key=_when)
    return merged_runs(spill, runs, hits) if runs else hits


def dump_run(hits: Iterable[Tuple[date, int, str]], fh) -> int:
    """Write sorted timeline `hits` to the binary file `fh` as one run of
    the spill format; how many."""
    count = 0
    for count, (day, line_no, template) in enumerate(hits, start=1):
        marshal.dump((day.toordinal(), line_no, template), fh)
    return count


def merged_runs(spill, runs: List[Tuple[int, int]], hits: list) -> Iterator[Tuple[date, int, str]]:
    """The (start, length) `runs` of `spill`, merged with the last `hits`,
    ties in run order; each run keeps its own place in the file, which is
    closed at the end."""

    def run(pos: int, rows: int) -> Iterator[Tuple[date, int, str]]:
        for _ in range(rows):
            spill.seek(pos)
            ordinal, line_no, template = marshal.load(spill)
            pos = spill.tell()
            yield date.fromordinal(ordinal), line_no, template

    with spill:
        yield from heapq.merge(*itertools.starmap(run, runs), hits, key=_when)


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

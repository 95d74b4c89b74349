"""Correctness checks that share no code with the program under test.

Keys come from the state file through an RFC 5869 HKDF written here on
stdlib `hmac`; tokens are recomputed with stdlib `hmac`; sealed fields
are opened with the `cryptography` package directly; protected elements
are found with a regex of our own. Every check compares against the
corpus's planted truth, so a detection, crypto, encoding, parsing or CSV
bug shows as a failed field.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import hmac
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Dict, List, Optional, Tuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

ELEMENT = re.compile(r'<PII type="([A-Z0-9_]+)">([A-Za-z0-9+/]{59}=)</PII>')
PLACEHOLDER = re.compile(r"<PII#(\d+)>")
LOGCAT_DATE = re.compile(r"(\d\d)-(\d\d) ")


def hkdf_sha256(ikm: bytes, info: bytes, length: int) -> bytes:
    prk = hmac.new(b"\x00" * 32, ikm, hashlib.sha256).digest()
    out, block = b"", b""
    for i in range(1, -(-length // 32) + 1):
        block = hmac.new(prk, block + info + bytes([i]), hashlib.sha256).digest()
        out += block
    return out[:length]


def read_kv(path) -> Dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(l.split("=", 1) for l in fh.read().splitlines() if "=" in l)


@dataclass
class Keys:
    hash_key: bytes
    day_keys: Dict[date, bytes]

    @classmethod
    def from_state_file(cls, path, days: int) -> "Keys":
        """Message keys for `days` days from the state's chain position."""
        kv = read_kv(path)
        ck = base64.b64decode(kv["chain_key"])
        day = date.fromisoformat(kv["chain_date"])
        day_keys = {}
        for _ in range(days):
            x = hkdf_sha256(ck, b"ratchet", 64)
            ck, day_keys[day] = x[:32], x[32:]
            day += timedelta(days=1)
        return cls(base64.b64decode(kv["hash_key"]), day_keys)

    def token(self, text: str) -> bytes:
        return hmac.new(self.hash_key, text.encode("utf-8"), hashlib.sha256).digest()[:16]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 10:
            self.notes.append(note)


def line_date(raw: str, year: int) -> Optional[date]:
    m = LOGCAT_DATE.match(raw)
    return date(year, int(m.group(1)), int(m.group(2))) if m else None


def check_protected(raw_lines, protected_lines, truth_by_line, keys: Keys, year: int, what: str, tally: Tally):
    """Each element must be the planted field at its place, sealed under its day key.

    Substituting the planted values for the elements must give back the
    raw line, so the template keeps every non-PII byte.
    """
    if len(protected_lines) != len(raw_lines):
        tally.fail(1, f"{what}: {len(protected_lines)} lines out, {len(raw_lines)} in")
        return
    aeads = {d: ChaCha20Poly1305(k) for d, k in keys.day_keys.items()}
    for line_no, (raw, prot) in enumerate(zip(raw_lines, protected_lines), start=1):
        planted = truth_by_line.get(line_no, ())
        elements = list(ELEMENT.finditer(prot))
        aead = aeads.get(line_date(raw, year))
        ok = 0
        rebuilt, pos, shift = [], 0, 0
        for k, m in enumerate(elements):
            p = planted[k] if k < len(planted) else None
            rebuilt.append(prot[pos : m.start()])
            pos = m.end()
            if p is None:
                continue
            rebuilt.append(p.text)
            raw_start = m.start() - shift
            shift += (m.end() - m.start()) - len(p.text)
            box = base64.b64decode(m.group(2))
            try:
                token = aead.decrypt(box[:12], box[12:], b"") if aead else None
            except InvalidTag:
                token = None
            if m.group(1) == p.pii_type.value and raw_start == p.start and token == keys.token(p.text):
                ok += 1
        rebuilt.append(prot[pos:])
        bad = (len(planted) - ok) + max(0, len(elements) - len(planted))
        if "".join(rebuilt) != raw:
            bad = max(bad, 1)
        if bad:
            tally.fail(bad, f"{what}: line {line_no}: {bad} field(s) wrong")


def expected_events(raw_lines, truth_by_line, keys: Keys, year: int, window: Tuple[date, date], copies: int):
    """(line_no, date, type, token, value) of every planted field in the window, in order,
    for the protected log concatenated `copies` times."""
    first, last = window
    once = []
    for line_no in sorted(truth_by_line):
        day = line_date(raw_lines[line_no - 1], year)
        if day is not None and first <= day <= last:
            once += [(line_no, day, p.pii_type.value, keys.token(p.text), p.text) for p in truth_by_line[line_no]]
    n = len(raw_lines)
    return [(k * n + e[0], *e[1:]) for k in range(copies) for e in once]


def check_events(path, raw_lines, expected, tally: Tally) -> None:
    """Recovered tokens, dates, types and templates against the planted truth."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    values_by_line = defaultdict(list)
    for line_no, _, _, _, value in expected:
        values_by_line[line_no].append(value)
    tally.attempted += len(expected)

    def right(row, exp) -> bool:
        try:
            line_no, day, label, token_b64, template = row
            values = values_by_line[exp[0]]
            rebuilt = PLACEHOLDER.sub(lambda m: values[int(m.group(1))], template)
            got = (int(line_no), day, label, base64.b64decode(token_b64))
        except (ValueError, IndexError):  # a malformed row or a placeholder with no value
            return False
        return got == (exp[0], exp[1].isoformat(), exp[2], exp[3]) and rebuilt == raw_lines[(exp[0] - 1) % len(raw_lines)]

    ok = sum(right(row, exp) for row, exp in zip(rows, expected))
    if ok != len(expected) or len(rows) != len(expected):
        tally.fail(len(expected) - ok + max(0, len(rows) - len(expected)),
                   f"recover: {ok} of {len(expected)} in-window fields right, {len(rows)} rows")


def check_report(linkage_path, timeline_path, expected, tally: Tally) -> None:
    """Linkage groups and the top token's timeline against the planted truth."""
    counts = Counter(e[3] for e in expected)
    days = defaultdict(list)
    for e in expected:
        days[e[3]].append(e[1])
    with open(linkage_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    wrong = 0 if len(rows) == len(counts) else 1
    tokens = []
    for row in rows:
        try:
            token_b64, _, count, first, last = row
            token = base64.b64decode(token_b64)
            got = (int(count), first, last)
        except ValueError:  # a malformed row
            token, got = b"", None
        tokens.append(token)
        if token not in days or got != (counts[token], min(days[token]).isoformat(), max(days[token]).isoformat()):
            wrong += 1
    top = max(counts.values())
    top_token = tokens[0] if tokens else b""
    if counts.get(top_token) != top:
        wrong += 1
    with open(timeline_path, encoding="utf-8") as fh:
        got = [tuple(l.split(",", 2)[:2]) for l in fh.read().splitlines()[1:]]
    want = [(e[1].isoformat(), str(e[0])) for e in sorted(expected, key=lambda e: (e[1], e[0])) if e[3] == top_token]
    if got != want:
        wrong += 1
    if wrong:
        tally.fail(wrong, f"report: {wrong} linkage/timeline mismatch(es)")

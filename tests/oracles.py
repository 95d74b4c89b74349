"""Independent reference implementations used as test oracles.

The crypto oracles are built from hashlib.sha256 and Python integers only,
so their results do not share a code path with the library under test
(which hashes only through the `cryptography` package). HKDF follows
RFC 5869, HMAC is the raw ipad/opad construction, and x25519 is the
RFC 7748 Montgomery ladder.

The detection oracle is the plain detector: every one of the ten patterns
scanned over every line, then overlaps resolved. privlog's `detect_pii`
must return the same spans while skipping scans that cannot match.

`parse_protected_line` is the reference element parser, written from the
element grammar in the README: it finds each element with one loose
pattern, then checks the label and the payload separately, the payload by
a strict base64 decode to 44 bytes that re-encodes to the same text.
privlog's parser must give the same template, fields and warnings from a
single scan. `fill_template` is the inverse of both.

`read_events_csv` is the reference events-CSV reader: csv.reader, then each
row checked on its own, with no cache and no record type.

`recover` is the reference recovery: the reference parser and date
reader above, each field opened by `cryptography`'s ChaCha20Poly1305
called directly, and each row written by csv.writer. It reads every date
in the year it is given and never rolls the year.

`extract_date` is the reference date reader. It reads a line's prefix
character by character against a shape, with no regex and no cache.

`grant_aad` is the grant's associated data, written from the README's
"File formats", so tests that build or open a grant by hand do not take
its layout from the library.
"""

import base64
import binascii
import csv
import hashlib
import io
import re
from datetime import date

SHA256_BLOCK = 64


def hmac_sha256(key: bytes, msg: bytes) -> bytes:
    if len(key) > SHA256_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(SHA256_BLOCK, b"\x00")
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    inner = hashlib.sha256(ipad + msg).digest()
    return hashlib.sha256(opad + inner).digest()


def hmac_trunc16(key: bytes, msg: bytes) -> bytes:
    return hmac_sha256(key, msg)[:16]


def hkdf_sha256(salt: bytes, ikm: bytes, info: bytes, length: int) -> bytes:
    # RFC 5869: empty salt means a hash-length string of zeros.
    if not salt:
        salt = b"\x00" * 32
    prk = hmac_sha256(salt, ikm)
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = hmac_sha256(prk, block + info + bytes([counter]))
        okm += block
        counter += 1
    return okm[:length]


def ratchet_chain(seed: bytes, steps: int) -> list:
    """Advance the one-way chain `steps` times; returns [(ck, mk), ...]."""
    out = []
    ck = seed
    for _ in range(steps):
        x = hkdf_sha256(b"", ck, b"ratchet", 64)
        ck, mk = x[:32], x[32:]
        out.append((ck, mk))
    return out


# --- RFC 7748 x25519 ---------------------------------------------------

P25519 = 2**255 - 19
A24 = 121665


def clamp_scalar(k: bytes) -> bytes:
    b = bytearray(k)
    b[0] &= 248
    b[31] &= 127
    b[31] |= 64
    return bytes(b)


def _decode_scalar(k: bytes) -> int:
    return int.from_bytes(clamp_scalar(k), "little")


def _decode_u(u: bytes) -> int:
    b = bytearray(u)
    b[31] &= 127
    return int.from_bytes(b, "little") % P25519


def x25519(k: bytes, u: bytes) -> bytes:
    """Scalar multiplication on curve25519, constant-time not required here."""
    x1 = _decode_u(u)
    k_int = _decode_scalar(k)
    x2, z2, x3, z3 = 1, 0, x1, 1
    swap = 0
    for t in reversed(range(255)):
        k_t = (k_int >> t) & 1
        swap ^= k_t
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t
        a = (x2 + z2) % P25519
        aa = a * a % P25519
        b = (x2 - z2) % P25519
        bb = b * b % P25519
        e = (aa - bb) % P25519
        c = (x3 + z3) % P25519
        d = (x3 - z3) % P25519
        da = d * a % P25519
        cb = c * b % P25519
        x3 = (da + cb) % P25519
        x3 = x3 * x3 % P25519
        z3 = (da - cb) % P25519
        z3 = z3 * z3 % P25519
        z3 = z3 * x1 % P25519
        x2 = aa * bb % P25519
        z2 = e * (aa + A24 * e) % P25519
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    return (x2 * pow(z2, P25519 - 2, P25519) % P25519).to_bytes(32, "little")


X25519_BASE = (9).to_bytes(32, "little")


def x25519_public(private: bytes) -> bytes:
    return x25519(private, X25519_BASE)


# --- reference PII detector ----------------------------------------------

# Keyed by the type's label so that nothing here imports privlog.
PII_PATTERNS = {
    "EMAIL": re.compile(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b"),
    "PHONE": re.compile(
        r"(?<!\d)(?:\+\d{1,2}[ .-])?\(?\d{3}\)?[ .-]\d{3}[ .-]\d{4}(?!\d)"
    ),
    "IMEI": re.compile(r"(?<!\d)\d{15}(?!\d)"),
    "MAC": re.compile(r"\b(?:[0-9A-Fa-f]{2}[:-]){5}[0-9A-Fa-f]{2}\b"),
    "IPV4": re.compile(
        r"(?<!\d)(?:(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)\.){3}"
        r"(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)(?!\d)"
    ),
    "IPV6": re.compile(
        r"\b(?:(?:[0-9A-Fa-f]{1,4}:){7}[0-9A-Fa-f]{1,4}"
        r"|(?:[0-9A-Fa-f]{1,4}:){1,6}:(?:[0-9A-Fa-f]{1,4}(?::[0-9A-Fa-f]{1,4}){0,5})?)\b"
    ),
    "URL": re.compile(r"\bhttps?://[^\s<>\"']+"),
    "SSN": re.compile(r"(?<![\d-])\d{3}-\d{2}-\d{4}(?![\d-])"),
    "CREDIT_CARD": re.compile(
        r"(?<![\d-])(?:\d{4}-){3}\d{4}(?![\d-])|(?<!\d)\d{16}(?!\d)"
    ),
    "DEVICE_SERIAL": re.compile(r"\bSN-[A-Z0-9]{10,16}\b"),
}

PII_PRIORITY = (
    "URL", "EMAIL", "IPV6", "IPV4", "MAC", "IMEI", "CREDIT_CARD", "SSN", "PHONE",
    "DEVICE_SERIAL",
)
_PII_PRIORITY_INDEX = {t: i for i, t in enumerate(PII_PRIORITY)}


def detect_pii(line: str) -> list:
    """All ten scans, then longest, earliest, highest-priority span wins.

    Returns (label, start, end, text) tuples sorted by start.
    """
    candidates = []
    for label, pattern in PII_PATTERNS.items():
        for m in pattern.finditer(line):
            candidates.append((label, m.start(), m.end(), m.group()))
    candidates.sort(key=lambda s: (-(s[2] - s[1]), s[1], _PII_PRIORITY_INDEX[s[0]]))
    chosen = []
    for span in candidates:
        if all(span[2] <= kept[1] or span[1] >= kept[2] for kept in chosen):
            chosen.append(span)
    chosen.sort(key=lambda s: s[1])
    return chosen


# --- protected-line template ---------------------------------------------


_ELEMENT = re.compile(r'<PII type="([^"]*)">([^<]*)</PII>')


def parse_protected_line(line: str) -> tuple:
    """(template, [(label, box), ...], warnings) for one protected line."""
    fields, warnings, parts = [], [], []
    pos = 0
    for m in _ELEMENT.finditer(line):
        label, payload = m.group(1), m.group(2)
        if label not in PII_PRIORITY:
            warnings.append(f"Malformed element at {m.start()}: unknown type {label!r}")
            continue
        try:
            box = base64.b64decode(payload, validate=True)
        except ValueError:
            box = b""
        if len(box) != 44 or base64.b64encode(box).decode("ascii") != payload:
            warnings.append(f"Malformed element at {m.start()}: payload is not 44 bytes of base64")
            continue
        parts.append(line[pos : m.start()])
        parts.append(f"<PII#{len(fields)}>")
        fields.append((label, box))
        pos = m.end()
    parts.append(line[pos:])
    return "".join(parts), fields, warnings


def fill_template(template: str, fields: list) -> str:
    """Put `<PII type="LABEL">BASE64</PII>` back for each `<PII#i>` placeholder.

    `fields` are parsed fields: each has `.pii_type.value` (the label) and
    `.box` (the sealed bytes).
    """
    out = template
    for i, field in enumerate(fields):
        payload = base64.b64encode(field.box).decode("ascii")
        element = f'<PII type="{field.pii_type.value}">{payload}</PII>'
        out = out.replace(f"<PII#{i}>", element, 1)
    return out


# --- events CSV ------------------------------------------------------------


EVENTS_COLUMNS = ["line_no", "date", "pii_type", "token_b64", "template"]
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_LINE_NO = re.compile(r"[1-9][0-9]*")  # ASCII decimal of a positive int, as written


def read_events_csv(text: str) -> list:
    """(line_no, date, label, token, template) for each row of an events CSV.

    ValueError for a file that does not end in a newline, a csv syntax
    error, a header other than EVENTS_COLUMNS, a row of another length, a
    line number not written as the ASCII decimal of a positive int with no
    leading zero, a date not written YYYY-MM-DD, a label
    that is not one of the ten, or a token that is not strict base64 of
    exactly 16 bytes.
    """
    if text and not text.endswith("\n"):
        raise ValueError("the last line has no newline")
    try:
        rows = list(csv.reader(io.StringIO(text), strict=True))
    except csv.Error as exc:
        raise ValueError(str(exc)) from exc
    if not rows or rows[0] != EVENTS_COLUMNS:
        raise ValueError("bad header")
    events = []
    for row in rows[1:]:
        if len(row) != len(EVENTS_COLUMNS):
            raise ValueError(f"{len(row)} columns")
        line_no, day, label, token_b64, template = row
        if not _LINE_NO.fullmatch(line_no):
            raise ValueError(f"line number {line_no!r}")
        if not _ISO_DATE.fullmatch(day):
            raise ValueError(f"date {day!r}")
        if label not in PII_PRIORITY:
            raise ValueError(f"label {label!r}")
        token = binascii.a2b_base64(token_b64.encode("ascii"), strict_mode=True)
        if len(token) != 16:
            raise ValueError(f"token of {len(token)} bytes")
        events.append((int(line_no), date.fromisoformat(day), label, token, template))
    return events


SKIP_COUNTERS = ["lines_no_pii", "lines_no_date", "lines_out_of_window", "fields_auth_failed",
                 "fields_malformed"]


def recover(day_keys: dict, lines: list, year: int) -> tuple:
    """(events CSV text with its header, skip counters) for protected log
    `lines` under `day_keys`, a dict of date -> 32-byte key.

    Each line is counted under the first rule that stops it: no "<PII" in
    it, `lines_no_pii`; no date read in `year`, `lines_no_date`; a date with
    no key, `lines_out_of_window`. Other lines lose a trailing "\n", then a
    trailing "\r", and are parsed: each malformed element counts in
    `fields_malformed`, a line with no valid element in `lines_no_pii`, and
    each field that does not open in `fields_auth_failed`. Each field that
    opens is one row, in line order.
    """
    from cryptography.exceptions import InvalidTag
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

    skipped = dict.fromkeys(SKIP_COUNTERS, 0)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(EVENTS_COLUMNS)
    for line_no, line in enumerate(lines, start=1):
        if "<PII" not in line:
            skipped["lines_no_pii"] += 1
            continue
        line = line.removesuffix("\n").removesuffix("\r")
        day = extract_date(line, year)
        if day is None:
            skipped["lines_no_date"] += 1
            continue
        if day not in day_keys:
            skipped["lines_out_of_window"] += 1
            continue
        template, fields, warnings = parse_protected_line(line)
        skipped["fields_malformed"] += len(warnings)
        if not fields:
            skipped["lines_no_pii"] += 1
            continue
        cipher = ChaCha20Poly1305(day_keys[day])
        for label, box in fields:
            try:
                token = cipher.decrypt(box[:12], box[12:], None)
            except InvalidTag:
                skipped["fields_auth_failed"] += 1
                continue
            writer.writerow([line_no, day.isoformat(), label, base64.b64encode(token).decode(),
                             template])
    return out.getvalue(), skipped


# --- log-line dates --------------------------------------------------------


def _starts_with_shape(line: str, shape: str) -> bool:
    """Whether `line` starts with `shape`, where each "D" stands for any
    Unicode decimal digit and every other character for itself."""
    return len(line) >= len(shape) and all(
        c.isdecimal() if s == "D" else c == s for c, s in zip(line, shape)
    )


def _date_or_none(year: int, month: int, day: int):
    try:
        return date(year, month, day)
    except ValueError:
        return None


def extract_date(line: str, assumed_year: int):
    """The date a line starts with, or None.

    `YYYY-MM-DD` not followed by a letter, digit or "_" is read as written;
    `MM-DD HH:MM:SS.mmm` is read in `assumed_year`, which must lie in
    [1970, 9999] (ValueError otherwise). An impossible date is None.
    """
    if not 1970 <= assumed_year <= 9999:
        raise ValueError(f"assumed_year {assumed_year}")
    after = line[10:11]
    if _starts_with_shape(line, "DDDD-DD-DD") and not (after.isalnum() or after == "_"):
        return _date_or_none(int(line[:4]), int(line[5:7]), int(line[8:10]))
    if _starts_with_shape(line, "DD-DD DD:DD:DD.DDD"):
        return _date_or_none(assumed_year, int(line[:2]), int(line[3:5]))
    return None


# --- grant context -----------------------------------------------------------


def grant_aad(server_id: str, device_id: str, attest_digest: bytes, grant_id: str,
              grant_date: date) -> bytes:
    """Server id, device id, attestation digest, grant id and ISO grant date,
    each behind its 2-byte big-endian length, concatenated in that order."""
    fields = (server_id.encode(), device_id.encode(), attest_digest, grant_id.encode(),
              grant_date.isoformat().encode())
    return b"".join(len(field).to_bytes(2, "big") + field for field in fields)

"""PII span detection, log-date extraction, and the protected-line format.

Detection is regex-based over ten field types. Pattern coverage here is a
pipeline stand-in, not a recall guarantee: the contract is that whatever a
pattern matches is protected, byte-for-byte in place, with all other
bytes preserved.

Each pattern has an exact precheck: a condition that every match of the
pattern satisfies. PHONE, the one pattern that can match a space, is
scanned from just before the first phone-shaped digit group. Every other
pattern is scanned only inside the ' '-separated pieces that pass its
precheck, so a piece without '@', '://', 'SN-', enough ':' '-' '.'
separators or a 15-digit run costs no scan. A piece's matches depend on
its text alone, so a piece seen again is looked up, not scanned.

Wire grammar for a protected field, with no interior whitespace:

    <PII type="LABEL">BASE64</PII>

LABEL is one of the ten uppercase type names; BASE64 is the standard,
padded encoding of the 44 bytes nonce || ciphertext || tag that seal a
16-byte token, so always 60 characters. Any other payload is malformed.
"""

from __future__ import annotations

import enum
import functools
import operator
import re
from binascii import a2b_base64, b2a_base64
from datetime import date
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from .errors import PrivlogError

class PiiType(enum.Enum):
    EMAIL = "EMAIL"
    PHONE = "PHONE"
    IMEI = "IMEI"
    MAC = "MAC"
    IPV4 = "IPV4"
    IPV6 = "IPV6"
    URL = "URL"
    SSN = "SSN"
    CREDIT_CARD = "CREDIT_CARD"
    DEVICE_SERIAL = "DEVICE_SERIAL"

    # Members are singletons compared by identity: hash them by identity too,
    # in C, rather than through Enum's Python-level `__hash__`, so a table
    # keyed by type costs a plain dict lookup.
    __hash__ = object.__hash__


# Source of truth for the detection patterns (also tabulated in README).
PATTERNS = {
    PiiType.EMAIL: re.compile(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b"),
    PiiType.PHONE: re.compile(
        r"(?<!\d)(?:\+\d{1,2}[ .-])?\(?\d{3}\)?[ .-]\d{3}[ .-]\d{4}(?!\d)"
    ),
    PiiType.IMEI: re.compile(r"(?<!\d)\d{15}(?!\d)"),
    PiiType.MAC: re.compile(r"\b(?:[0-9A-Fa-f]{2}[:-]){5}[0-9A-Fa-f]{2}\b"),
    PiiType.IPV4: re.compile(
        r"(?<!\d)(?:(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)\.){3}"
        r"(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)(?!\d)"
    ),
    PiiType.IPV6: re.compile(
        r"\b(?:(?:[0-9A-Fa-f]{1,4}:){7}[0-9A-Fa-f]{1,4}"
        r"|(?:[0-9A-Fa-f]{1,4}:){1,6}:(?:[0-9A-Fa-f]{1,4}(?::[0-9A-Fa-f]{1,4}){0,5})?)\b"
    ),
    PiiType.URL: re.compile(r"\bhttps?://[^\s<>\"']+"),
    PiiType.SSN: re.compile(r"(?<![\d-])\d{3}-\d{2}-\d{4}(?![\d-])"),
    PiiType.CREDIT_CARD: re.compile(
        r"(?<![\d-])(?:\d{4}-){3}\d{4}(?![\d-])|(?<!\d)\d{16}(?!\d)"
    ),
    PiiType.DEVICE_SERIAL: re.compile(r"\bSN-[A-Z0-9]{10,16}\b"),
}

# Tie-break order when overlapping candidates have equal length and start.
PRIORITY = (
    PiiType.URL,
    PiiType.EMAIL,
    PiiType.IPV6,
    PiiType.IPV4,
    PiiType.MAC,
    PiiType.IMEI,
    PiiType.CREDIT_CARD,
    PiiType.SSN,
    PiiType.PHONE,
    PiiType.DEVICE_SERIAL,
)
_PRIORITY_INDEX = {t: i for i, t in enumerate(PRIORITY)}


class PiiSpan(NamedTuple):
    pii_type: PiiType
    start: int
    end: int
    text: str


class ProtectedField(NamedTuple):
    pii_type: PiiType
    box: bytes  # nonce || ciphertext || tag, 44 bytes


# A span or a field from a tuple, built in C: no Python-level `__new__` per value.
_span = functools.partial(tuple.__new__, PiiSpan)
new_field = functools.partial(tuple.__new__, ProtectedField)


# Digit shapes for the prechecks. `\d` matches every Unicode decimal digit,
# as the patterns' own `\d` does; `[0-9]` would miss matches. The gate is
# the union of the other two, so one search clears most lines.
_DIGIT_RUN = re.compile(r"\d{15}")
_PHONE_CORE = re.compile(r"\d\d\d\)?[ .-]\d\d\d[ .-]\d\d\d\d")
_DIGIT_GATE = re.compile(r"\d\d\d(?:\d{12}|\)?[ .-]\d\d\d[ .-]\d\d\d\d)")
# On an ASCII line `\d` is `[0-9]`, so the same shapes are plain substrings
# of its byte shape: each digit reads `0`, each of ` .-` reads `_`, `_`
# itself reads ` ` and every other byte stays (README).
_SHAPE = bytes.maketrans(b"0123456789 .-_", b"0000000000___ ")
_CORE, _PAREN_CORE, _RUN = b"000_000_0000", b"000)_000_0000", b"0" * 15
# A logcat header `MM-DD HH:MM:SS.mmm`, a pid and a tid, up to the space after it.
_HEADER = re.compile(r"\d\d-\d\d \d\d:\d\d:\d\d\.\d\d\d(?: +\d{1,14}){0,2}(?= )")
# Each type's bound scan and priority index.
_SCANS = {t: (PATTERNS[t].finditer, _PRIORITY_INDEX[t]) for t in PiiType}


def _ascii_digits(line: str) -> Tuple[bool, int]:
    """On an ASCII line: whether `_DIGIT_GATE` matches, and where the first
    `_PHONE_CORE` match starts, -1 if none."""
    shape = line.encode("ascii").translate(_SHAPE)
    core = shape.find(_CORE)
    paren = shape.find(_PAREN_CORE)
    if core < 0 or 0 <= paren < core:
        core = paren
    # `find`, not `in`: bytes' `in` first tries its operand as an integer.
    return core >= 0 or shape.find(_RUN) >= 0, core


def _token_types(piece: str) -> List[PiiType]:
    """The space-free types whose exact precheck holds on `piece`."""
    colons, dashes = piece.count(":"), piece.count("-")
    digit_run = len(piece) >= 15 and _DIGIT_RUN.search(piece) is not None
    types = []
    if "://" in piece:
        types.append(PiiType.URL)
    if "@" in piece:
        types.append(PiiType.EMAIL)
    # Eight groups, or a compressed "...:" then ":".
    if colons >= 7 or "::" in piece:
        types.append(PiiType.IPV6)
    if piece.count(".") >= 3:
        types.append(PiiType.IPV4)
    if colons + dashes >= 5:
        types.append(PiiType.MAC)
    if digit_run:
        types.append(PiiType.IMEI)
    # Four dashed groups, or 16 digits in a row.
    if dashes >= 3 or digit_run:
        types.append(PiiType.CREDIT_CARD)
    if dashes >= 2:
        types.append(PiiType.SSN)
    if "SN-" in piece:
        types.append(PiiType.DEVICE_SERIAL)
    return types


# The candidates of each piece of at most PIECE_MAX_LEN characters and their
# winners (`_resolve`), at offsets within it and keyed on its whole text
# (README). Emptied once it holds PIECE_CACHE_SIZE pieces. Only ints are kept,
# in tuples, which the garbage collector stops tracking.
PIECE_CACHE_SIZE = 1024
PIECE_MAX_LEN = 64
_PIECES: Dict[str, Tuple[tuple, tuple]] = {}
_NO_MATCH: Tuple[tuple, tuple] = ((), ())
_START = operator.itemgetter(1)


def _resolve(candidates: List[Tuple[int, int, int, int]]) -> Tuple[tuple, tuple]:
    """`candidates` (start - end, start, priority index, end) and those that
    win, in start order: longer spans win, then earlier starts, then the
    fixed priority order. One tuple serves as both if none overlap."""
    if len(candidates) < 2:
        return (tuple(candidates),) * 2 if candidates else _NO_MATCH
    chosen = []
    for candidate in sorted(candidates):
        _, start, _, end = candidate
        for _, s, _, e in chosen:
            if start < e and s < end:
                break
        else:
            chosen.append(candidate)
    chosen.sort(key=_START)
    winners = tuple(chosen)
    return (winners if len(winners) == len(candidates) else tuple(candidates)), winners


def detect_pii(line: str) -> List[PiiSpan]:
    """Every match where its precheck holds, overlaps resolved: longer spans
    win, then earlier starts, then the fixed priority order."""
    dashes = line.count("-")
    cheap = ("@" in line or "://" in line or "SN-" in line or "::" in line or dashes >= 2
             or line.count(":") + dashes >= 5 or line.count(".") >= 3)
    if line.isascii():
        gate, core = _ascii_digits(line)
        if not (cheap or gate):
            return []
    else:
        if not (cheap or _DIGIT_GATE.search(line)):
            return []
        m = _PHONE_CORE.search(line)
        core = m.start() if m else -1
    candidates = []  # (start - end, start, priority index, end)
    # "+dd (" puts at most 5 characters before a PHONE match's core.
    if core >= 0:
        finditer, rank = _SCANS[PiiType.PHONE]
        for m in finditer(line, max(0, core - 5)):
            start, end = m.span()
            candidates.append((start - end, start, rank, end))
    # Only a PHONE match spans a space: without one, each piece's winners are the line's (README).
    spans = None if candidates else []
    # No piece of a logcat header passes a precheck (README): skip them.
    header = _HEADER.match(line)
    pos = header.end() + 1 if header else 0
    # A piece's matches are those of the piece as a string of its own: its
    # start reads as the space before it, its end as the space after.
    for piece in line[pos:].split(" "):
        stop = pos + len(piece)
        # Every space-free match has three characters, one not a letter.
        if stop - pos > 2 and not piece.isalpha():
            found = _PIECES.get(piece)
            if found is None:
                found = []
                for pii_type in _token_types(piece):
                    finditer, rank = _SCANS[pii_type]
                    for m in finditer(piece):
                        start, end = m.span()
                        found.append((start - end, start, rank, end))
                found = _resolve(found)
                if stop - pos <= PIECE_MAX_LEN:
                    if len(_PIECES) >= PIECE_CACHE_SIZE:
                        _PIECES.clear()
                    _PIECES[piece] = found
            if spans is None:
                for length, start, rank, end in found[0]:
                    candidates.append((length, start + pos, rank, end + pos))
            else:
                for _, start, rank, end in found[1]:
                    spans.append(_span((PRIORITY[rank], start + pos, end + pos, piece[start:end])))
        pos = stop + 1
    if spans is not None:
        return spans
    return [_span((PRIORITY[rank], s, e, line[s:e])) for _, s, rank, e in _resolve(candidates)[1]]


# Each captures its month and day as one group: one fewer group to read per line.
_ISO_PREFIX = re.compile(r"^(\d{4})-(\d{2}-\d{2})\b")
_LOGCAT_PREFIX = re.compile(r"^(\d{2}-\d{2}) \d{2}:\d{2}:\d{2}\.\d{3}")
# A year-less date further than this from the previous line's is in another year.
ROLLOVER_DAYS = 182
# The years a year-less date may be read in.
YEAR_MIN, YEAR_MAX = 1970, 9999


@functools.lru_cache(maxsize=1024)
def _date(year: Union[int, str], month_day: str) -> Optional[date]:
    """The date a prefix's digits name, `month_day` as "MM-DD", None if
    impossible. Every line of a day after its first is a cache hit."""
    try:
        return date(int(year), int(month_day[:2]), int(month_day[3:]))
    except ValueError:
        return None


def extract_date(line: str, year: int, last: date) -> Tuple[Optional[date], int]:
    """Date of a log line and the running year after it: ISO prefix as
    written, else logcat MM-DD prefix (year-less) read in `year`.

    A year-less date more than ROLLOVER_DAYS from `last`, the previous
    dated line's, is read in the other year nearest `last` instead, unless
    that year is outside [YEAR_MIN, YEAR_MAX] or has no such day. Only a
    date that passed new year after `last` moves the running year on.
    Returns None when the line starts with neither form or names an
    impossible date. The two forms differ at the third character, so at
    most one matches.
    """
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise ValueError(f"year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
    m = _LOGCAT_PREFIX.match(line)
    if m is None:
        m = _ISO_PREFIX.match(line)
        return (_date(m[1], m[2]) if m else None), year
    day = _date(year, m[1])
    # The previous line's date, a cache hit, is the same object.
    if day is None or day is last or -ROLLOVER_DAYS <= (day - last).days <= ROLLOVER_DAYS:
        return day, year
    other_year = year - 1 if day > last else year + 1
    other = _date(other_year, m[1]) if YEAR_MIN <= other_year <= YEAR_MAX else None
    if other is None:
        return day, year
    return other, max(year, other_year)


def date_text(line: str) -> str:
    """A dated line's date text: `MM-DD`, or `YYYY-MM-DD` (a digit third)."""
    return line[:5] if line[2] == "-" else line[:10]


def walk_dates(lines: Iterable[bytes], year: int, last: date, text: Optional[str],
               latest: Optional[date]) -> Tuple[int, date, Optional[str], Optional[date]]:
    """The running year, last date, date text and latest day after raw UTF-8
    `lines`, as one pass moves them (README). A line that starts with the
    date text is not decoded; a dated line keeps its text unless it is
    before `latest` (if None, always). Bad UTF-8 is replaced: a pass fails there."""
    prefix = text and text.encode()
    for raw in lines:
        if prefix and raw.startswith(prefix):
            continue
        line = raw.decode("utf-8", "replace")
        day, year = extract_date(line, year, last)
        prefix = None
        if day is not None:
            last = day
            if latest is None or day >= latest:
                latest, prefix = latest and day, date_text(line).encode()
    return year, last, prefix and prefix.decode(), latest


_OPEN = {t: f'<PII type="{t.value}">' for t in PiiType}


def encode_protected_line(
    line: str, spans: List[PiiSpan], fields: List[ProtectedField]
) -> str:
    """Replace each span with its protected element; other bytes unchanged.

    `spans` must be in order and disjoint, as `detect_pii` returns them."""
    if len(spans) != len(fields):
        raise PrivlogError(f"{len(spans)} spans but {len(fields)} fields")
    pos = 0
    parts = []
    for (_, start, end, _), (pii_type, box) in zip(spans, fields):
        if start < pos:
            raise PrivlogError(f"span at {start} overlaps or precedes the one before")
        if not 0 <= start < end <= len(line):
            raise PrivlogError(f"span [{start}, {end}) out of bounds")
        parts += (line[pos:start], _OPEN[pii_type], b2a_base64(box, newline=False).decode("ascii"),
                  "</PII>")
        pos = end
    parts.append(line[pos:])
    return "".join(parts)


# Exactly the canonical base64 of 44 bytes: the last data character's two
# low bits are padding and must be zero.
_PAYLOAD = re.compile(r"[A-Za-z0-9+/]{58}[AEIMQUYcgkosw048]=")
_LABELS = {t.value: t for t in PiiType}
# One scan, by `_ELEMENT.split`: the first branch is a valid element (a
# known label and a `_PAYLOAD`), the second any other element, which is
# malformed. The label runs to the first '"' and the payload to the first
# '<' in both, so at any start both branches end in the same place and the
# scan finds the same elements as the second branch alone. Each branch
# captures its own label and payload, and a malformed element is rebuilt
# from its two: a group around the malformed branch instead loses the
# literal-prefix fast path and doubled the split, 1.65 -> 3.43 us per
# emit-dense line of 3.06 elements (in-process, 2-core VM).
_ELEMENT = re.compile(
    rf'<PII type="({"|".join(_LABELS)})">({_PAYLOAD.pattern})</PII>'
    r'|<PII type="([^"]*)">([^<]*)</PII>'
)


def parse_protected_line(
    line: str,
) -> Tuple[str, List[ProtectedField], List[str]]:
    """Extract protected fields; malformed elements stay in the template.

    Returns (template, fields, warnings). The template holds a <PII#i>
    placeholder per recovered field; substituting each field back (as
    `encode_protected_line` renders it) reproduces the input line exactly.
    """
    pieces = _ELEMENT.split(line)
    fields: List[ProtectedField] = []
    warnings: List[str] = []
    it = iter(pieces)
    parts = [next(it)]
    for label, payload, bad_label, bad_payload, text in zip(it, it, it, it, it):
        if label is None:
            n = len(fields) + len(warnings)  # elements before it: 19 literal characters each
            at = sum(map(len, filter(None, pieces[: 5 * n + 1]))) + 19 * n
            problem = (f"unknown type {bad_label!r}" if bad_label not in _LABELS
                       else "payload is not 44 bytes of base64")
            warnings.append(f"Malformed element at {at}: {problem}")
            parts.append(f'<PII type="{bad_label}">{bad_payload}</PII>')
        else:
            parts.append(f"<PII#{len(fields)}>")
            fields.append(new_field((_LABELS[label], a2b_base64(payload))))
        parts.append(text)
    return "".join(parts), fields, warnings

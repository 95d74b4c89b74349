"""Detection, date extraction, and the protected-line wire format."""

import base64
import itertools
import os
import re
import string
from datetime import date

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from privlog.corpus import BenchConfig, generate_corpus
from privlog.errors import InvalidSpans
from privlog.pii import (
    PATTERNS,
    PRIORITY,
    YEAR_MAX,
    YEAR_MIN,
    _DIGIT_GATE,
    _HEADER,
    _PAYLOAD,
    _PIECES,
    _PHONE_CORE,
    _ascii_digits,
    PiiSpan,
    PiiType,
    ProtectedField,
    _date,
    _token_types,
    detect_pii,
    encode_protected_line,
    extract_date,
    parse_protected_line,
    render_field,
)

SAMPLE_LINE = (
    "10-15 14:23:47.821  2341  2341 I AuthService: "
    "Login attempt for user alice@example.com from device IMEI:352099001761481"
)


def test_detect_sample_line():
    spans = detect_pii(SAMPLE_LINE)
    assert [(s.pii_type, s.text) for s in spans] == [
        (PiiType.EMAIL, "alice@example.com"),
        (PiiType.IMEI, "352099001761481"),
    ]
    assert spans[0].start == SAMPLE_LINE.index("alice@")
    assert spans[1].start == SAMPLE_LINE.index("352099001761481")


def test_detect_empty_line():
    assert detect_pii("") == []


def test_detect_url_absorbs_inner_matches():
    line = "fetch https://ex.com/?tok=abc from 10.0.0.5"
    spans = detect_pii(line)
    assert [(s.pii_type, s.start, s.end, s.text) for s in spans] == [
        (PiiType.URL, 6, 29, "https://ex.com/?tok=abc"),
        (PiiType.IPV4, 35, 43, "10.0.0.5"),
    ]
    # nothing else detected inside the URL
    assert len(spans) == 2


def test_detect_is_pure():
    line = "mail bob@test.org ip 192.168.1.20 serial SN-ABCDEF123456"
    assert detect_pii(line) == detect_pii(line)


def test_detect_all_ten_types_have_patterns():
    assert set(PATTERNS) == set(PiiType)
    assert len(PiiType) == 10
    assert set(PRIORITY) == set(PiiType)
    # Pieces that meet every precheck: each type has one, so none is
    # skipped for want of a precheck.
    every_shape = "a@b.co http://h SN- 1.2.3.4 1:2:3:4:5:6:7:8 1-2-3 352099001761481 555-867-5309"
    piece_types = {t for piece in every_shape.split(" ") for t in _token_types(piece)}
    assert piece_types == set(PiiType) - {PiiType.PHONE}
    assert _PHONE_CORE.search(every_shape)


@pytest.mark.parametrize(
    "value,expected",
    [
        ("alice@example.com", PiiType.EMAIL),
        ("555-867-5309", PiiType.PHONE),
        ("352099001761481", PiiType.IMEI),
        ("\u0663" * 15, PiiType.IMEI),  # `\d` matches Arabic-Indic digits too
        ("\uff13" * 15, PiiType.IMEI),  # and fullwidth ones
        ("a4:6b:09:1f:00:ff", PiiType.MAC),
        ("192.168.1.20", PiiType.IPV4),
        ("2001:0db8:85a3:0000:0000:8a2e:0370:7334", PiiType.IPV6),
        ("fe80::1", PiiType.IPV6),
        ("https://example.com/a?b=c", PiiType.URL),
        ("123-45-6789", PiiType.SSN),
        ("4111111111111111", PiiType.CREDIT_CARD),
        ("4111-1111-1111-1111", PiiType.CREDIT_CARD),
        ("SN-7YQ2MKP0XR55", PiiType.DEVICE_SERIAL),
    ],
)
def test_detect_single_values(value, expected):
    line = f"event value {value} logged"
    spans = detect_pii(line)
    assert len(spans) == 1
    assert spans[0].pii_type is expected
    assert spans[0].text == value


def test_overlap_prefers_longer_match():
    # 15 digits inside a URL: only the URL survives.
    line = "go https://h.example/x?imei=352099001761481 now"
    spans = detect_pii(line)
    assert [s.pii_type for s in spans] == [PiiType.URL]


def _as_tuples(spans):
    return [(s.pii_type.value, s.start, s.end, s.text) for s in spans]


@pytest.mark.parametrize("density", ["low", "medium", "high"])
def test_detect_matches_reference_on_corpus(density):
    lines, _ = generate_corpus(
        BenchConfig(line_count=2000, pii_density=density, day_span=5, seed=17)
    )
    for line in lines:
        assert _HEADER.match(line), line  # every line takes the header skip
        assert _as_tuples(detect_pii(line)) == oracles.detect_pii(line)


# Lines of value-shaped pieces and single characters: every character the
# patterns and prechecks turn on, so pieces run into each other and into
# separators. Digit runs mix in Arabic-Indic and fullwidth digits, which
# `\d` matches.
_DIGIT = "0123456789\u0663\uff13"
_HEX = "0123456789abcdefABCDEF"
_WORD = "abcdefxyzABCXYZ0123456789"


def _run(alphabet, lo, hi):
    return st.text(alphabet=alphabet, min_size=lo, max_size=hi)


def _cat(*parts):
    return st.tuples(*[st.just(p) if isinstance(p, str) else p for p in parts]).map("".join)


def _groups(group, seps, lo, hi, last):
    return _cat(st.lists(_cat(group, st.sampled_from(seps)), min_size=lo, max_size=hi).map("".join), last)


_SHAPES = st.one_of(
    _cat(_run(_WORD + "._%+-", 1, 6), "@", _run(_WORD + ".-", 1, 6), ".", _run("abcXYZ", 1, 3)),
    _cat(
        st.sampled_from(["", "(", "+1 ", "+44-", "+\u0663."]), _run(_DIGIT, 3, 3),
        st.sampled_from(["", ")"]), st.sampled_from(" .-_"), _run(_DIGIT, 3, 3),
        st.sampled_from(" .-_"), _run(_DIGIT, 3, 5),
    ),
    _run(_DIGIT, 14, 17),
    _groups(_run(_HEX, 2, 2), [":", "-"], 4, 6, _run(_HEX, 1, 2)),
    _groups(_run("0123456789", 1, 3), ["."], 3, 3, _run("0123456789", 1, 3)),
    _groups(_run(_HEX, 1, 4), [":", "::"], 1, 8, _run(_HEX, 0, 4)),
    _cat(st.sampled_from(["http://", "https://"]), _run(_WORD + "/?=&.:%-", 1, 10)),
    _cat(_run(_DIGIT, 3, 3), "-", _run(_DIGIT, 2, 2), "-", _run(_DIGIT, 4, 4)),
    _groups(_run(_DIGIT, 4, 4), ["-"], 2, 4, _run(_DIGIT, 4, 4)),
    _cat("SN-", _run("ABCXYZ0123456789", 8, 17)),
)
_ADVERSARIAL = st.lists(
    st.one_of(
        _SHAPES,
        st.sampled_from(list(_DIGIT + ":-.()+@_ \t\u00a0" + _HEX) + ["://", "SN-"]),
    ),
    max_size=12,
).map("".join)

_HARD_CASES = (
    "x " + "\u0663" * 15 + " y",
    "call (555) 867-5309 or +1 555.867.5309",
    "fe80::1 and 2001:db8::ff00:42:8329 via a4-6b-09-1f-00-ff",
    "4111-1111-1111-1111-1111 123-45-6789-0 4111111111111111",
    "https://h.example/x?imei=352099001761481&ip=10.0.0.5",
    # Matches that start inside a logcat header, whitespace other than ' '
    # inside a piece, and PHONE's 5-character prefix.
    "05-01 00:00:45.123.4.5 x",
    "05-01 00:00:00.123-45-6789 x",
    "05-01 00:00:00.123 1234 352099001761481 x",  # a 15-digit tid is an IMEI
    "05-01 00:00:00.159 236 1234 x",
    "x 1.2.3.4\t5.6.7.8 y",
    "call +1 (555) 867-5309 now",
    "call +44 (555) 867-5309 now",
    "ip a::b up",  # the shortest piece that holds a match
    # The edges of an ASCII line's byte shape: `_` is not a separator, a
    # `)` core before or after a plain one, and phones in non-ASCII lines.
    "x_555_867_5309 y",
    "x 555)_867_5309 y",
    "tel 555).867.5309 or 555-867-5309",
    "tel 555-867-5309 or 555) 867-5309",
    "\u00e9 555-867-5309",
    "call \u0665\u0665\u0665-\u0668\u0666\u0667-\u0665\u0663\u0660\u0669 now",
    "call (\uff15\uff15\uff15) \uff18\uff16\uff17.\uff15\uff13\uff10\uff19 now",
)


# A logcat header and its near misses: Unicode digits, runs of spaces, pids
# of 15 digits or more or in the shape of a value, a time piece that runs
# on, and no space after it.
_LOGCAT_HEADER = _cat(
    _run(_DIGIT, 2, 2), "-", _run(_DIGIT, 2, 2), " ",
    _run(_DIGIT, 2, 2), ":", _run(_DIGIT, 2, 2), ":", _run(_DIGIT, 2, 2), ".", _run(_DIGIT, 3, 3),
    st.sampled_from(["", "", ".4.5", "-45-6789", "5", ":00", "-"]),
    st.lists(_cat(st.sampled_from([" ", "  ", "   "]), _run(_DIGIT, 1, 17) | _SHAPES),
             max_size=3).map("".join),
    st.sampled_from([" ", " ", "  ", ""]),
)
_HEADED = _cat(_LOGCAT_HEADER, _ADVERSARIAL)


def _with_hard_cases(test):
    for line in _HARD_CASES:
        test = example(line=line)(test)
    return test


@settings(max_examples=1000, deadline=None)
@given(line=_ADVERSARIAL)
@_with_hard_cases
def test_detect_matches_reference_on_adversarial_lines(line):
    assert _as_tuples(detect_pii(line)) == oracles.detect_pii(line)


@settings(max_examples=1000, deadline=None)
@given(line=_HEADED)
def test_detect_matches_reference_after_a_logcat_header(line):
    assert _as_tuples(detect_pii(line)) == oracles.detect_pii(line)


@settings(max_examples=1000, deadline=None)
@given(line=_ADVERSARIAL | _HEADED)
@_with_hard_cases
def test_precheck_holds_for_every_match(line):
    """Every match of every pattern must be scanned, even where overlap
    resolution would discard it. A space-free match lies in one ' '-piece,
    which is not skipped, lies after any logcat header and has a precheck
    that lists the type; a PHONE match starts at most 5 characters before
    the first phone core that the line's own path finds."""
    if line.isascii():
        _, core = _ascii_digits(line)
    else:
        m = _PHONE_CORE.search(line)
        core = m.start() if m else -1
    header = _HEADER.match(line)
    for pii_type, pattern in PATTERNS.items():
        for m in pattern.finditer(line):
            if pii_type is PiiType.PHONE:
                assert 0 <= core <= m.start() + 5, m
                continue
            assert " " not in m.group(), (pii_type, m)
            assert header is None or m.start() > header.end(), (pii_type, m, header)
            start = line.rfind(" ", 0, m.start()) + 1
            end = line.find(" ", m.end())
            piece = line[start:] if end < 0 else line[start:end]
            assert len(piece) > 2 and not piece.isalpha(), (pii_type, piece)
            assert pii_type in _token_types(piece), (pii_type, piece)


def _with_hard_case_edges(test):
    for line in _HARD_CASES:
        test = example(line=line, edge="1")(test)
    return test


@settings(max_examples=1000, deadline=None)
@given(line=_ADVERSARIAL | _HEADED,
       edge=st.sampled_from(list(_DIGIT + ":-.()+@_\t\u00a0" + _HEX + "/SN")))
@_with_hard_case_edges
def test_memoised_scan_equals_a_fresh_one(line, edge):
    """A piece's matches are kept by its whole text, at offsets within it.
    The first piece of `line` recurs at the start of a line, right after a
    logcat header and in the middle of a line, and every other piece at
    three offsets; each piece also recurs with its first or its last
    character replaced by `edge`. From an empty memo (each piece scanned
    and kept, then looked up) and again from a warm one, detection gives
    the reference spans."""
    pieces = line.split(" ")
    lines = (line, f"05-01 10:00:00.000  1000  1000 {line}", f"x {line} y",
             " ".join(edge + p[1:] for p in pieces), " ".join(p[:-1] + edge for p in pieces))
    _PIECES.clear()
    for _ in range(2):
        for text in lines:
            assert _as_tuples(detect_pii(text)) == oracles.detect_pii(text), text


def _ascii_copy(line):
    """`line` with each Unicode digit read as its ASCII digit and every other
    non-ASCII character as `?`: the same digit shapes, on an ASCII line."""
    return "".join(str(int(c)) if c.isdecimal() else c if c.isascii() else "?" for c in line)


@settings(max_examples=1000, deadline=None)
@given(line=_ADVERSARIAL | _HEADED)
@_with_hard_cases
def test_ascii_shape_agrees_with_the_digit_regexes(line):
    """On an ASCII line, the byte shape's gate and first core are exactly
    `_DIGIT_GATE`'s verdict and `_PHONE_CORE`'s first match. A line with
    other characters is checked as its ASCII copy."""
    text = _ascii_copy(line)
    core = _PHONE_CORE.search(text)
    assert _ascii_digits(text) == (_DIGIT_GATE.search(text) is not None,
                                   core.start() if core else -1)


# --- date extraction -----------------------------------------------------


def test_extract_logcat_date():
    assert extract_date(SAMPLE_LINE, 2024, date(2024, 10, 1)) == (date(2024, 10, 15), 2024)


def test_extract_iso_date_ignores_assumed_year():
    assert extract_date("2023-02-28 boot complete", 2024, date(2024, 1, 1)) == (
        date(2023, 2, 28), 2024)


@pytest.mark.parametrize(
    "line",
    [
        "no timestamp here",
        "13-45 10:00:00.000 impossible month",
        "2023-02-29 not a leap year",
        "02-30 10:00:00.000 impossible day",
        "",
    ],
)
def test_extract_date_none(line):
    assert extract_date(line, 2024, date(2024, 1, 1)) == (None, 2024)


def test_extract_date_year_bounds():
    with pytest.raises(ValueError):
        extract_date(SAMPLE_LINE, 1969, date(1970, 1, 1))
    with pytest.raises(ValueError):
        extract_date(SAMPLE_LINE, 10000, date(9999, 12, 31))


# Zero in ASCII, Arabic-Indic, Devanagari, fullwidth and mathematical bold:
# each is followed by its nine other decimal digits, all of which `\d` and
# `int` accept.
_ZEROS = "0٠०０\U0001d7ce"


def _numeral(draw, value: int, width: int) -> str:
    """`value` zero-padded to `width` digits, each from a drawn script."""
    return "".join(chr(ord(draw(st.sampled_from(_ZEROS))) + int(c)) for c in f"{value:0{width}d}")


@st.composite
def _date_line(draw) -> str:
    """An ISO, logcat, undated or garbage line, often a possible or
    impossible date, with one character often put in, changed or cut."""
    month, day = draw(st.sampled_from([(2, 30), (13, 1), (0, 0), (2, 29), (12, 31)])
                      | st.tuples(st.integers(0, 13), st.integers(0, 32)))
    tail = draw(st.sampled_from(["", " boot", "x", "_", "5", "٣", ".1", ":00", "é"])
                | st.text(max_size=4))
    month_day = f"{_numeral(draw, month, 2)}-{_numeral(draw, day, 2)}"
    kind = draw(st.sampled_from(["iso", "logcat", "undated", "garbage"]))
    if kind == "iso":
        year = draw(st.integers(0, 9999) | st.just(2023))
        line = f"{_numeral(draw, year, 4)}-{month_day}{tail}"
    elif kind == "logcat":
        hh, mm, ss, ms = [_numeral(draw, draw(st.integers(0, 99)), width) for width in (2, 2, 2, 3)]
        line = f"{month_day} {hh}:{mm}:{ss}.{ms}{tail}"
    elif kind == "undated":
        line = draw(st.sampled_from(["no timestamp here", " 05-01 12:00:00.000 x",
                                     " 2024-05-01 boot", "5-01 12:00:00.000",
                                     "05/01 12:00:00.000 x", "2024/05/01 boot", ""]))
    else:
        line = draw(st.text(max_size=24))
    if line and draw(st.booleans()):
        at = draw(st.integers(0, min(len(line), 19) - 1))
        put = draw(st.sampled_from(["", "-", " ", "1", "a", "١"]))
        line = line[:at] + put + line[at + draw(st.integers(0, 1)):]
    return line


@settings(max_examples=3000, deadline=None)
@given(line=_date_line(), year=st.integers(YEAR_MIN, YEAR_MAX),
       bad_year=st.integers(max_value=YEAR_MIN - 1) | st.integers(min_value=YEAR_MAX + 1))
def test_extract_date_matches_oracle(line, year, bad_year):
    """Read twice from an empty cache after a line of the same date, the
    date equals the oracle's and the running year stays: once built and
    once a cache hit. An out-of-range year stays a ValueError while the
    cache holds the line's date."""
    expected = oracles.extract_date(line, year)
    last = expected or date(year, 1, 1)
    _date.cache_clear()
    assert extract_date(line, year, last) == (expected, year)
    assert extract_date(line, year, last) == (expected, year)
    info = _date.cache_info()
    assert (info.misses, info.hits) in ((0, 0), (1, 1))
    with pytest.raises(ValueError):
        oracles.extract_date(line, bad_year)
    with pytest.raises(ValueError):
        extract_date(line, bad_year, last)


@pytest.mark.parametrize("line, last, year, expected", [
    ("01-01 10:00:00.000 x", date(2024, 12, 31), 2024, (date(2025, 1, 1), 2025)),
    ("12-31 10:00:00.000 x", date(2025, 1, 1), 2025, (date(2024, 12, 31), 2025)),
    ("06-15 10:00:00.000 x", date(2024, 1, 1), 2024, (date(2024, 6, 15), 2024)),
    ("2024-01-01 boot", date(2024, 12, 31), 2024, (date(2024, 1, 1), 2024)),
    ("02-29 10:00:00.000 x", date(2024, 9, 30), 2024, (date(2024, 2, 29), 2024)),
    ("12-31 10:00:00.000 x", date(1970, 1, 1), 1970, (date(1970, 12, 31), 1970)),
    ("01-01 10:00:00.000 x", date(9999, 12, 31), 9999, (date(9999, 1, 1), 9999)),
    ("    at com.example.Main.run(", date(2024, 12, 31), 2024, (None, 2024)),
], ids=["new-year", "year-before", "within", "iso", "no-feb-29", "year-floor", "year-ceiling",
        "undated"])
def test_extract_date_reads_nearest_year(line, last, year, expected):
    """A year-less date more than half a year from `last` is read in the
    other year, if that year is in range and has the day; only a date past
    new year moves the running year on."""
    assert extract_date(line, year, last) == expected


# --- wire format ---------------------------------------------------------


def _random_field(pii_type=PiiType.EMAIL) -> ProtectedField:
    return ProtectedField(
        pii_type=pii_type,
        box=os.urandom(12) + os.urandom(32),
    )


def test_encode_zero_spans_identity():
    line = "nothing sensitive here 123"
    assert encode_protected_line(line, [], []) == line


def test_encode_sample_line_shape():
    spans = detect_pii(SAMPLE_LINE)
    fields = [_random_field(s.pii_type) for s in spans]
    out = encode_protected_line(SAMPLE_LINE, spans, fields)
    assert out.startswith("10-15 14:23:47.821  2341  2341 I AuthService: Login attempt for user ")
    assert '<PII type="EMAIL">' in out
    assert '<PII type="IMEI">' in out
    assert out.count("</PII>") == 2
    # non-PII bytes preserved verbatim
    assert " from device IMEI:" in out


def test_encoded_payload_is_60_chars():
    field = _random_field()
    rendered = render_field(field)
    m = re.fullmatch(r'<PII type="EMAIL">([A-Za-z0-9+/=]+)</PII>', rendered)
    assert m and len(m.group(1)) == 60


def test_encode_rejects_overlap():
    line = "abcdefghij"
    spans = [
        PiiSpan(PiiType.EMAIL, 0, 5, "abcde"),
        PiiSpan(PiiType.EMAIL, 3, 8, "defgh"),
    ]
    fields = [_random_field(), _random_field()]
    with pytest.raises(InvalidSpans):
        encode_protected_line(line, spans, fields)


def test_encode_rejects_spans_out_of_order():
    """Spans must come in order, as `detect_pii` returns them; none is re-sorted."""
    line = "abcdefghij"
    spans = [PiiSpan(PiiType.EMAIL, 6, 9, "ghi"), PiiSpan(PiiType.EMAIL, 0, 3, "abc")]
    with pytest.raises(InvalidSpans):
        encode_protected_line(line, spans, [_random_field(), _random_field()])


def test_encode_rejects_span_past_the_end():
    with pytest.raises(InvalidSpans):
        encode_protected_line("abc", [PiiSpan(PiiType.EMAIL, 1, 4, "bc")], [_random_field()])


def test_encode_rejects_misaligned_counts():
    with pytest.raises(InvalidSpans):
        encode_protected_line("abc", [PiiSpan(PiiType.EMAIL, 0, 3, "abc")], [])


def test_parse_no_markers():
    line = "plain old log line"
    template, fields, warnings = parse_protected_line(line)
    assert (template, fields, warnings) == (line, [], [])


def test_parse_truncated_base64_is_warning():
    line = '<PII type="EMAIL">notvalid!base64</PII> rest'
    template, fields, warnings = parse_protected_line(line)
    assert fields == []
    assert len(warnings) == 1
    assert "Malformed" in warnings[0]
    assert template == line  # untouched


def test_parse_unknown_label_is_warning():
    payload = base64.b64encode(os.urandom(44)).decode()
    line = f'<PII type="NOPE">{payload}</PII>'
    template, fields, warnings = parse_protected_line(line)
    assert fields == []
    assert len(warnings) == 1
    assert template == line


@pytest.mark.parametrize("size", [10, 28, 43, 45])
def test_parse_short_payload_is_warning(size):
    """Canonical base64 of any length but 44 bytes is a malformed element."""
    payload = base64.b64encode(os.urandom(size)).decode()
    line = f'<PII type="EMAIL">{payload}</PII>'
    template, fields, warnings = parse_protected_line(line)
    assert fields == []
    assert len(warnings) == 1
    assert template == line


_B64_ALPHABET = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/="


def _canonical_44(payload: str) -> bool:
    """The check `_PAYLOAD` replaces: strict decode to 44 bytes that re-encode to `payload`."""
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError:
        return False
    return len(raw) == 44 and base64.b64encode(raw).decode("ascii") == payload


@settings(max_examples=1000, deadline=None)
@given(
    raw=st.binary(min_size=44, max_size=44),
    edits=st.lists(
        st.tuples(st.integers(min_value=0), st.sampled_from(_B64_ALPHABET + "-_ \n\xe9")),
        max_size=3,
    ),
    resize=st.integers(min_value=-4, max_value=4),
    tail=st.text(alphabet=_B64_ALPHABET, min_size=4, max_size=4),
)
def test_payload_form_is_the_canonical_check(raw, edits, resize, tail):
    chars = list(base64.b64encode(raw).decode("ascii"))
    for i, c in edits:
        chars[i % len(chars)] = c
    payload = "".join(chars)
    payload = payload[:resize] if resize < 0 else payload + tail[:resize]
    assert bool(_PAYLOAD.fullmatch(payload)) == _canonical_44(payload)


def test_payload_form_last_two_characters():
    prefix = base64.b64encode(os.urandom(44)).decode("ascii")[:58]
    for a, b in itertools.product(_B64_ALPHABET, repeat=2):
        payload = prefix + a + b
        assert bool(_PAYLOAD.fullmatch(payload)) == _canonical_44(payload), payload


_KNOWN_LABELS = st.sampled_from([t.value for t in PiiType])
_ODD_LABELS = st.sampled_from(["", "NOPE", "email", "EMAIL ", "IPV4X", "PII"]) | st.text(
    alphabet='AEZ_<"> ', max_size=6)


@st.composite
def _payloads(draw):
    """Base64 of 43, 44 or 45 bytes, as encoded or with one character
    changed: a non-canonical last character, a stray '<' or '"', or any."""
    raw = draw(st.binary(min_size=43, max_size=45))
    chars = list(base64.b64encode(raw).decode("ascii"))
    edit = draw(st.sampled_from(["none", "last", "stray", "any"]))
    if edit == "last" and len(raw) == 44:
        chars[58] = draw(st.sampled_from(string.ascii_letters + string.digits + "+/"))
    elif edit in ("stray", "any"):
        i = draw(st.integers(min_value=0, max_value=len(chars)))
        chars.insert(i, draw(st.sampled_from('<"' if edit == "stray" else _B64_ALPHABET)))
    return "".join(chars)


def _element(label, payload):
    return st.tuples(label, payload).map(lambda lp: f'<PII type="{lp[0]}">{lp[1]}</PII>')


_VALID_ELEMENT = _element(
    _KNOWN_LABELS, st.binary(min_size=44, max_size=44).map(lambda b: base64.b64encode(b).decode()))
_ANY_ELEMENT = _element(_KNOWN_LABELS | _ODD_LABELS, _payloads())
# Text between elements may hold the grammar's own characters and pieces of it.
_ELEMENT_GAPS = st.text(alphabet='ab <>"/=PIé', max_size=8) | st.sampled_from(
    ['<PII type="', '">', "</PII>", "<", '"', '<PII type="EMAIL">'])


@settings(max_examples=1000, deadline=None)
@given(st.lists(_VALID_ELEMENT | _ANY_ELEMENT | _ELEMENT_GAPS, max_size=8))
@example(["x", f'<PII type="EMAIL">{base64.b64encode(bytes(44)).decode()}</PII>'] * 2)
def test_parse_matches_reference_parser(pieces):
    """Template, fields and warnings (text and position) equal the two-step
    reference's, on valid, unknown-label, wrong-length, non-canonical and
    stray-character elements, adjacent or not."""
    line = "".join(pieces)
    template, fields, warnings = parse_protected_line(line)
    assert (template, [(f.pii_type.value, f.box) for f in fields], warnings) == (
        oracles.parse_protected_line(line)
    )


# Near misses of an element's opening, each one character from "<PII".
_NEAR_MISSES = st.sampled_from(["<PI", "<pii", "<Pii", "< PII", "<PIl", "PII type=", "</PII>",
                                '">', "<", "PII"])


@settings(max_examples=1000, deadline=None)
@given(st.lists(_NEAR_MISSES | _ELEMENT_GAPS.filter(lambda g: "<PII" not in g)
                | _VALID_ELEMENT.map(lambda e: e[:1] + e[2:])
                | _VALID_ELEMENT.map(lambda e: e.replace("<PII", "<pII")), max_size=8))
def test_parse_without_element_opening_is_identity(pieces):
    """Every element starts with "<PII": a line without it parses to itself
    with no field and no warning, so recovery may skip its parse."""
    line = "".join(pieces)
    assume("<PII" not in line)
    assert parse_protected_line(line) == (line, [], [])


_SAFE_TEXT = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="<"),
    max_size=40,
)


@settings(max_examples=1000, deadline=None)
@given(
    segments=st.lists(_SAFE_TEXT, min_size=1, max_size=6),
    payload=st.data(),
)
def test_wire_roundtrip_property(segments, payload):
    """encode -> parse recovers the fields and preserves every other byte."""
    n_fields = len(segments) - 1
    types = [payload.draw(st.sampled_from(list(PiiType))) for _ in range(n_fields)]
    fields = [
        ProtectedField(
            pii_type=t,
            box=payload.draw(st.binary(min_size=12, max_size=12))
            + payload.draw(st.binary(min_size=32, max_size=32)),
        )
        for t in types
    ]
    # Build a raw line interleaving segments with fake span texts.
    spans = []
    line_parts = [segments[0]]
    pos = len(segments[0])
    for i, field in enumerate(fields):
        span_text = f"V{i}x"
        spans.append(PiiSpan(field.pii_type, pos, pos + len(span_text), span_text))
        line_parts.append(span_text)
        pos += len(span_text)
        line_parts.append(segments[i + 1])
        pos += len(segments[i + 1])
    line = "".join(line_parts)

    encoded = encode_protected_line(line, spans, fields)
    template, parsed, warnings = parse_protected_line(encoded)
    assert warnings == []
    assert parsed == fields
    assert oracles.fill_template(template, parsed) == encoded

    # Non-PII preservation: strip elements from the encoded line and span
    # texts from the raw line; the residues must be byte-identical.
    residue_encoded = re.sub(r'<PII type="[A-Z0-9_]+">[A-Za-z0-9+/=]*</PII>', "\x00", encoded)
    residue_raw = line
    for span in reversed(spans):
        residue_raw = residue_raw[: span.start] + "\x00" + residue_raw[span.end :]
    assert residue_encoded == residue_raw

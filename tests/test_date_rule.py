"""One date rule for both engines: recover opens every field that protect
sealed on a day of the window, whatever lines lie between them.

Item 3's two cases, the batch late line, and a differential test that
draws ISO, year-less and undated lines, protects them in stream and batch
mode, serially and split, and recovers them serially and split, checked
against the date rule as the README states it (`oracles.read_dates`).
"""

from datetime import date, timedelta

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from privlog.client import MODE_BATCH, MODE_STREAM, ProtectSession, advance_to, init_client
from privlog.dice import DeviceIdentity
from privlog.errors import OutOfOrderDate
from privlog.server import WindowKeys, keygen, recover_tokens

_HEAD = "12:00:00.000  1000  1000 I T:"


_IDENTITY = DeviceIdentity(uds=b"\x01" * 32, measurement=b"\x02" * 32, device_id="dates")
_SERVER_PUB = keygen("lab-server", seed=b"\x42" * 32).longterm.public


def _state(epoch: date):
    return init_client(_IDENTITY, _SERVER_PUB, epoch, rng_seed=b"\x07" * 32)


def _window(state, first: date, last: date) -> WindowKeys:
    """The day keys of [first, last], derived from `state` as a grant's are."""
    keys = advance_to(state, last)[1]
    return WindowKeys("g-dates", {day: key for day, key in keys.items() if day >= first})


def _protect(state, mode: str, lines: list, shares: int = 1) -> list:
    """`lines` protected in `shares` sessions, each walking the lines before
    its share as the CLI's share runner does; pre-epoch lines dropped."""
    cuts = [len(lines) * k // shares for k in range(shares + 1)]
    out = []
    for start, stop in zip(cuts, cuts[1:]):
        session = ProtectSession(state, mode, 2024)
        if start:
            session.walk([line.encode() + b"\n" for line in lines[:start]])
        out += [session.protect_line(line)[0] for line in lines[start:stop]]
    return [line for line in out if line is not None]


def _recover(window: WindowKeys, lines: list, shares: int = 1) -> tuple:
    """Events and counters of `lines` recovered in `shares` shares, each
    walking the lines before it, summed as the CLI sums them."""
    cuts = [len(lines) * k // shares for k in range(shares + 1)]
    events, skipped = [], {}
    for start, stop in zip(cuts, cuts[1:]):
        walk = {"start_line": start + 1, "prefix": [line.encode() for line in lines[:start]]}
        got, counts = recover_tokens(window, lines[start:stop], 2024, **(walk if start else {}))
        events += got
        skipped = {reason: skipped.get(reason, 0) + n for reason, n in counts.items()}
    return [(e.line_no, e.date, e.token) for e in events], skipped


def _tokens(state, values) -> list:
    return [oracles.hmac_trunc16(state.hash_key.bytes, v.encode()) for v in values]


def test_year_roll_recovers_both_fields():
    """Lines without a field between two that have one still move the year:
    `01-02` after `12-31` is 2025-01-02."""
    state = _state(date(2024, 5, 30))
    raw = [f"06-01 {_HEAD} mail a@b.com", f"09-15 {_HEAD} idle", f"12-31 {_HEAD} idle",
           f"01-02 {_HEAD} mail d@e.com"]
    window = _window(state, date(2024, 5, 30), date(2025, 1, 2))
    events, skipped = _recover(window, _protect(state, MODE_BATCH, raw))
    a, d = _tokens(state, ["a@b.com", "d@e.com"])
    assert events == [(1, date(2024, 6, 1), a), (4, date(2025, 1, 2), d)]
    assert skipped["lines_out_of_window"] == 0


def test_undated_line_recovers_all_three_fields():
    state = _state(date(2024, 6, 1))
    raw = [f"2024-06-01 {_HEAD} mail a@b.com", "    at com.example.Mailer.send(x@y.org)",
           f"2024-06-02 {_HEAD} mail c@d.com"]
    window = _window(state, date(2024, 6, 1), date(2024, 6, 2))
    events, skipped = _recover(window, _protect(state, MODE_STREAM, raw))
    assert events == list(zip([1, 2, 3], [date(2024, 6, 1)] * 2 + [date(2024, 6, 2)],
                              _tokens(state, ["a@b.com", "x@y.org", "c@d.com"])))
    assert skipped["lines_no_date"] == 0


@pytest.mark.parametrize("shares", [1, 2, 3])
def test_batch_late_line_then_undated_line_with_its_date_text(shares):
    """In batch mode a late `04-28` line leaves the chain on 05-01, so the
    undated `04-28 boot` line after it is sealed under 05-01: recover
    reports it on that day, serially and split."""
    state = _state(date(2024, 4, 25))
    raw = [f"05-01 {_HEAD} wake", f"04-28 {_HEAD} late", "04-28 boot mail a@b.com"]
    window = _window(state, date(2024, 4, 25), date(2024, 5, 1))
    protected = _protect(state, MODE_BATCH, raw, shares)
    events, skipped = _recover(window, protected, shares)
    assert events == [(3, date(2024, 5, 1), _tokens(state, ["a@b.com"])[0])]
    assert skipped == {"lines_no_pii": 2, "lines_no_date": 0, "lines_out_of_window": 0,
                       "fields_auth_failed": 0, "fields_malformed": 0}


_VALUES = ["a@b.com", "x@y.org", "c@d.net", "u1@ex.io"]
# Day steps between lines: the same day, the next, a late line, a jump that
# crosses a quarter or half a year (year-less lines more than 182 days on
# are read a year back), and new year from any start in December.
_STEPS = [0, 0, 0, 1, 1, 2, -2, 40, 100, 120, 183, 200]


@st.composite
def _drawn_log(draw) -> tuple:
    """(raw lines, the values of each): an ISO first line, then lines of
    each form. An undated line may start with the last line's date text."""
    day = draw(st.sampled_from([date(2024, 5, 1), date(2024, 12, 29), date(2024, 11, 20)]))
    lines, values = [f"{day.isoformat()} {_HEAD} start"], [[]]
    for _ in range(draw(st.integers(1, 12))):
        day += timedelta(days=draw(st.sampled_from(_STEPS)))
        vals = draw(st.lists(st.sampled_from(_VALUES), max_size=2))
        body = " ".join(["mail", *vals])
        form = draw(st.sampled_from(["iso", "year-less", "year-less", "undated", "text"]))
        lines.append({"iso": f"{day.isoformat()} {_HEAD} {body}",
                      "year-less": f"{day.month:02d}-{day.day:02d} {_HEAD} {body}",
                      "undated": f"    at boot({body})",
                      "text": f"{day.month:02d}-{day.day:02d} boot {body}"}[form])
        values.append(vals)
    return lines, values


@settings(max_examples=60, deadline=None)
@given(log=_drawn_log(), first=st.integers(0, 400), length=st.integers(0, 300))
def test_every_field_sealed_in_the_window_comes_back(log, first, length):
    """Each field sealed on a window day comes back with that day and its
    token; each other line with a field counts once, as out of the window
    (dated) or without a date (undated). The client's day of each line is
    the README's rule: its date, or the chain date if undated. The epoch is
    the earliest date read, so no line is pre-epoch."""
    raw, values = log
    days, _ = oracles.read_dates(raw, 2024, date(2024, 1, 1))
    epoch = min(day for day in days if day is not None)
    assume(epoch.year >= 2024)
    state = _state(epoch)
    window = _window(state, epoch + timedelta(days=first),
                     epoch + timedelta(days=first + length))
    sealed, chain = [], epoch
    for day in days:
        chain = max(chain, day or chain)
        sealed.append(day or chain)
    expected = [(n, day, token) for n, (day, vals) in enumerate(zip(sealed, values), start=1)
                if day in window.days for token in _tokens(state, vals)]
    outside = [(day, d) for day, d, vals in zip(sealed, days, values)
               if vals and day not in window.days]
    counts = {"lines_no_pii": sum(not vals for vals in values),
              "lines_no_date": sum(d is None for _, d in outside),
              "lines_out_of_window": sum(d is not None for _, d in outside),
              "fields_auth_failed": 0, "fields_malformed": 0}
    for mode in (MODE_STREAM, MODE_BATCH):
        for protect_shares in (1, 2, 3):
            try:
                protected = _protect(state, mode, raw, protect_shares)
            except OutOfOrderDate:
                assert mode == MODE_STREAM
                continue
            for shares in (1, 2, 3):
                assert _recover(window, protected, shares) == (expected, counts)

"""The protocol's life cycle against `oracles.ProtocolModel`.

A hypothesis state machine runs the CLI commands in a temporary
directory: protect a drawn batch of ISO, year-less and undated lines,
offer, grant, grant again on the same offer, accept, recover and report
on what it recovers, take a snapshot of the state file, and try an
accepted window's keys on later epochs. `report` and `--timeline` run in
a drawn number of shares, 1 to 3, forced as scripts/gen_transcript.py
forces them. After each step it checks:

- the server opens exactly the fields whose day lies in an accepted
  window of their epoch, and counts every other line or field once;
- the same value gives the same token across rotations;
- each token's count, first date and last date in the linkage report,
  and the order of its timeline, are the model's;
- no snapshot of the state, ratcheted 400 steps from each key it holds,
  opens a field of an earlier epoch (forward secrecy);
- no accepted window's day keys, each ratcheted 400 steps, open a field
  of a later epoch (post-compromise security). Each try takes the
  window's last day key and one drawn day key, and one field of each
  later day: a day's key opens all of its fields or none.
"""

import base64
import contextlib
import csv
import io
import os
import shutil
import tempfile
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

import oracles
import privlog.cli as cli_mod
from privlog.cli import client_main, server_main
from privlog.dice import DeviceIdentity, format_identity

EPOCH = date(2024, 5, 1)
_HEAD = "12:00:00.000  1000  1000 I T:"
_VALUES = ["a@b.com", "x@y.org", "c@d.net"]
# Never backwards, and never more than 182 days from one line to the next:
# a year-less date is read as written, across new year too, unless undated
# lines before it widen the gap from the last dated line past 182 days; it
# is then read a year early and falls, which only batch mode may protect.
# The ISO first line of a batch anchors both engines' first date.
_STEPS = [0, 0, 1, 2, 40, 100, 120]


@st.composite
def _batch(draw) -> tuple:
    """(first day's offset from the chain date, [(step, form, values)])."""
    lines = draw(st.lists(st.tuples(st.sampled_from(_STEPS),
                                    st.sampled_from(["iso", "year-less", "undated", "text"]),
                                    st.lists(st.sampled_from(_VALUES), max_size=2)),
                          min_size=1, max_size=6))
    return draw(st.integers(0, 3)), lines


def _kv(path: Path) -> dict:
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def _opener(keys, boxes) -> str:
    """The first of the (name, key) `keys` that opens one of `boxes`, or None."""
    for name, key in keys:
        cipher = ChaCha20Poly1305(key)
        for box in boxes:
            try:
                cipher.decrypt(box[:12], box[12:], None)
            except InvalidTag:
                continue
            return name
    return None


class ProtocolMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.dir = Path(tempfile.mkdtemp(prefix="privlog-model-"))
        self.model = oracles.ProtocolModel(EPOCH, 2024)
        self.tokens = {}
        self.logs = 0
        self.offer = self.grant_file = None
        identity = DeviceIdentity(uds=b"\x11" * 32, measurement=b"\x22" * 32, device_id="dev")
        (self.dir / "identity.kv").write_text(format_identity(identity))
        assert self.server("keygen", "--keystore", "server.kv") == 0
        pub = _kv(self.dir / "server.kv")["longterm_pub"]
        (self.dir / "client.cfg").write_text(
            f"identity={self.dir / 'identity.kv'}\nstate={self.dir / 'state.kv'}\n"
            f"server_pub={pub}\nassumed_year=2024\n")
        assert self.client("init", "--today", EPOCH.isoformat()) == 0

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _run(self, main, argv) -> int:
        """`main(argv)` in the machine's directory; its stdout is kept."""
        cwd, out = os.getcwd(), io.StringIO()
        os.chdir(self.dir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                return main(argv)
        finally:
            os.chdir(cwd)
            self.stdout = out.getvalue()

    def client(self, *argv) -> int:
        return self._run(client_main, ["--config", "client.cfg", *argv])

    def server(self, *argv) -> int:
        return self._run(server_main, list(argv))

    def report(self, *argv, shares: int) -> list:
        """The rows after the header of `report` run in `shares` shares, to stdout."""
        cpu = min(os.sched_getaffinity(0))
        with mock.patch.object(cli_mod, "SPLIT_MIN_EVENTS_BYTES",
                               0 if shares > 1 else cli_mod.SPLIT_MIN_EVENTS_BYTES), \
                mock.patch.object(cli_mod, "_share_cpus", lambda: [cpu] * shares):
            assert self.server("report", "--events", "events.csv", *argv) == 0
        return list(csv.reader(io.StringIO(self.stdout)))[1:]

    @rule(batch=_batch(), mode=st.sampled_from(["stream", "batch"]))
    def protect(self, batch, mode):
        offset, drawn = batch
        day = self.model.chain + timedelta(days=offset)
        lines, values = [f"{day.isoformat()} {_HEAD} start"], [[]]
        for step, form, vals in drawn:
            day += timedelta(days=step)
            body = " ".join(["mail", *vals])
            lines.append({"iso": f"{day.isoformat()} {_HEAD} {body}",
                          "year-less": f"{day.month:02d}-{day.day:02d} {_HEAD} {body}",
                          "undated": f"    at boot({body})",
                          "text": f"{day.month:02d}-{day.day:02d} boot {body}"}[form])
            values.append(vals)
        if day.year > 2025:
            return
        self.logs += 1
        log = f"log{self.logs}"
        (self.dir / f"{log}.raw").write_text("".join(line + "\n" for line in lines))
        expected = self.model.protect(log, lines, values, mode == "stream")
        code = self.client("protect", "--in", f"{log}.raw", "--out", f"{log}.prot", "--mode", mode)
        assert code == (0 if expected else 3)

    @precondition(lambda self: self.offer is None)
    @rule()
    def offer(self):
        self.offer = f"g{len(self.model.windows) + 1}"
        assert self.server("offer", "--keystore", "server.kv", "--grant-id", self.offer,
                           "--out", "offer.kv") == 0

    @precondition(lambda self: self.offer is not None and self.grant_file is None)
    @rule(start=st.integers(0, 30))
    def grant(self, start):
        first = min(self.model.epoch_date + timedelta(days=start), self.model.chain)
        assert self.client("grant", "--server-offer", "offer.kv", "--start", first.isoformat(),
                           "--today", self.model.chain.isoformat(), "--out", "grant.kv") == 0
        self.grant_file = (self.dir / "grant.kv").read_bytes()
        self.model.grant(self.offer, first, self.model.chain)

    @precondition(lambda self: self.grant_file is not None)
    @rule()
    def grant_again(self):
        (self.dir / "grant.kv").unlink()
        assert self.client("grant", "--server-offer", "offer.kv", "--start", "2024-05-01",
                           "--today", "2024-05-01", "--out", "grant.kv") == 0
        assert (self.dir / "grant.kv").read_bytes() == self.grant_file

    @precondition(lambda self: self.grant_file is not None)
    @rule(shares=st.integers(1, 3))
    def accept(self, shares):
        assert self.server("accept", "--keystore", "server.kv", "--grant", "grant.kv",
                           "--expect-device", "dev", "--out", f"{self.offer}.window") == 0
        self.offer = self.grant_file = None
        self.recover(shares)

    @rule(shares=st.integers(1, 3))
    def recover(self, shares):
        accepted = [g for g in self.model.windows if (self.dir / f"{g}.window").exists()]
        for log in self.model.logs:
            for g in accepted:
                assert self.server("recover", "--keys", f"{g}.window", "--in", f"{log}.prot",
                                   "--out", "events.csv", "--year", "2024") == 0
                events = oracles.read_events_csv((self.dir / "events.csv").read_text())
                expected, skipped = self.model.recover(log, g)
                counted = [line.split()[1:] for line in self.stdout.splitlines()[1:]]
                assert {reason[:-1]: int(n) for reason, n in counted} == \
                    {reason: n for reason, n in skipped.items() if n}
                assert [(n, day) for n, day, _, _, _ in events] == [(n, d) for n, d, _ in expected]
                for (_, _, value), (_, _, _, token, _) in zip(expected, events):
                    assert self.tokens.setdefault(value, token) == token
                if expected:
                    self.check_report(expected, shares)

    def check_report(self, expected: list, shares: int) -> None:
        """The linkage report and each token's timeline of events.csv, whose
        fields are the model's `expected`."""
        hits = {}
        for line_no, day, value in expected:
            hits.setdefault(base64.b64encode(self.tokens[value]).decode(), []).append((day, line_no))
        self.report("--out", "linkage.csv", shares=shares)
        linkage = list(csv.reader(io.StringIO((self.dir / "linkage.csv").read_text())))[1:]
        assert {token: (int(count), first, last) for token, _, count, first, last in linkage} == \
            {token: (len(days), min(days)[0].isoformat(), max(days)[0].isoformat())
             for token, days in hits.items()}
        for token, days in hits.items():
            rows = self.report("--timeline", token, shares=shares)
            assert [(day, int(line_no)) for day, line_no, _ in rows] == \
                [(day.isoformat(), line_no) for day, line_no in sorted(days)]

    @rule(pick=st.integers(0, 10**6))
    def snapshot(self, pick):
        self.compromise(pick)
        state = _kv(self.dir / "state.kv")
        boxes = []
        for log, lines in self.model.logs.items():
            prot = (self.dir / f"{log}.prot").read_text().splitlines()
            for (_, _, _, epoch, _), line in zip(lines, prot):
                if epoch < self.model.epoch:
                    boxes += [box for _, box in oracles.parse_protected_line(line)[1]]
        if not boxes:
            return
        for name in ("root_key", "hash_key", "chain_key"):
            keys = [(name, mk) for _, mk in oracles.ratchet_chain(base64.b64decode(state[name]), 400)]
            assert _opener(keys, boxes) is None, f"state's {name} opens a field of an earlier epoch"

    def compromise(self, pick: int) -> None:
        """Try an accepted window's day keys, drawn by `pick`, on later epochs."""
        accepted = [g for g in self.model.windows if (self.dir / f"{g}.window").exists()]
        if not accepted:
            return
        window = accepted[pick % len(accepted)]
        epoch = self.model.windows[window][0]
        boxes = {}  # one field of each later day
        for log, lines in self.model.logs.items():
            prot = (self.dir / f"{log}.prot").read_text().splitlines()
            for (_, _, day, line_epoch, values), line in zip(lines, prot):
                if line_epoch > epoch and values:
                    boxes.setdefault((line_epoch, day), oracles.parse_protected_line(line)[1][0][1])
        if not boxes:
            return
        days = sorted((key, base64.b64decode(value))
                      for key, value in _kv(self.dir / f"{window}.window").items()
                      if key.startswith("key."))
        for day, key in {days[-1], days[pick % len(days)]}:
            keys = [(day, mk) for _, mk in oracles.ratchet_chain(key, 400)]
            opener = _opener(keys, boxes.values())
            assert opener is None, f"{window}'s {opener} opens a field of a later epoch"


TestProtocol = ProtocolMachine.TestCase
TestProtocol.settings = settings(max_examples=100, stateful_step_count=20, deadline=None)

"""The protocol's life cycle against `oracles.ProtocolModel`.

A hypothesis state machine runs the CLI commands in a temporary
directory: protect a drawn batch of ISO, year-less and undated lines,
offer, grant, grant again on the same offer, accept, recover and take a
snapshot of the state file. After each accept, recover and snapshot it
checks:

- the server opens exactly the fields whose day lies in an accepted
  window of their epoch, and counts every other line or field once;
- the same value gives the same token across rotations;
- no snapshot of the state, ratcheted 400 steps from each key it holds,
  opens a field of an earlier epoch.
"""

import base64
import contextlib
import io
import os
import shutil
import tempfile
from datetime import date, timedelta
from pathlib import Path

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

import oracles
from privlog.cli import client_main, server_main
from privlog.dice import DeviceIdentity, format_identity

EPOCH = date(2024, 5, 1)
_HEAD = "12:00:00.000  1000  1000 I T:"
_VALUES = ["a@b.com", "x@y.org", "c@d.net"]
# Never backwards, and never more than 182 days: every year-less date is
# read as written, across new year too, and the ISO first line of a batch
# anchors both engines' first date.
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
        expected = self.model.protect(log, lines, values)
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
    @rule()
    def accept(self):
        assert self.server("accept", "--keystore", "server.kv", "--grant", "grant.kv",
                           "--expect-device", "dev", "--out", f"{self.offer}.window") == 0
        self.offer = self.grant_file = None
        self.recover()

    @rule()
    def recover(self):
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

    @rule()
    def snapshot(self):
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
            for _, mk in oracles.ratchet_chain(base64.b64decode(state[name]), 400):
                cipher = ChaCha20Poly1305(mk)
                for box in boxes:
                    try:
                        cipher.decrypt(box[:12], box[12:], None)
                    except InvalidTag:
                        continue
                    raise AssertionError(f"state's {name} opens a field of an earlier epoch")


TestProtocol = ProtocolMachine.TestCase
TestProtocol.settings = settings(max_examples=100, stateful_step_count=15, deadline=None)

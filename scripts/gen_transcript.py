#!/usr/bin/env python3
"""Write tests/data/transcript.json: the bytes one run of the CLI chain writes.

The chain runs in-process in a temporary directory, under a fixed device
identity and an `os.urandom` replaced by a seeded stream, so every key,
nonce and file comes out the same on every run. Each process forked for a
share reseeds the stream from the number of forks so far, so that no two
processes draw the same nonces, as no two draw them in a real run:

- `keygen`, then `init` on EPOCH;
- `protect` of each input in stream and batch mode, serially and forced
  into 2 and 3 shares, each from the state `init` wrote;
- `offer`, `grant` over [EPOCH, GRANT_DAY], `grant` again on the same
  offer, `accept`;
- `recover` of every protected output, serially, and of each input's
  serial stream output split into 2 and 3 shares;
- `report` and `--timeline` on each input's serial stream events, serially
  and forced into 2 and 3 shares, each to the same output, and `state`.

The inputs are small `generate_corpus` logs at each density and
hand-written lines: CRLF endings, an unterminated last line, undated
lines, a year roll, pre-epoch lines, a late line in batch mode, and raw
text shaped like a placeholder or an element.

Each command's entry holds its exit code, the SHA-256 of its stdout (with
`protect`'s latency line masked) and the SHA-256 of every file it wrote
or replaced. tests/test_transcript.py runs the chain again and compares.
The transcript detects change; it does not judge what is right. A change
that means to alter bytes regenerates it and names each entry that
changed:

    PYTHONPATH=src python3 scripts/gen_transcript.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPT = ROOT / "tests" / "data" / "transcript.json"

SEED = 19
EPOCH, GRANT_DAY = "2024-04-25", "2025-01-03"
_HEAD = "12:00:00.000  1000  1000 I T:"
# The hand-written inputs. Each line's date is after EPOCH unless it says pre-epoch.
HAND_WRITTEN = {
    "crlf": (f"05-01 {_HEAD} mail alice@example.com\r\n"
             f"05-01 {_HEAD} no field\r\n"
             f"05-02 {_HEAD} raw <PII#0> and <PII type=\"EMAIL\">AAAA</PII> bob@example.org\r\n"
             f"05-02 {_HEAD} unterminated 10.0.0.7"),
    "undated": (f"2024-06-01 {_HEAD} mail a@b.com\n"
                "    at com.example.Mailer.send(x@y.org)\n"
                f"2024-06-02 {_HEAD} mail c@d.com\n"),
    "year_roll": (f"06-01 {_HEAD} mail a@b.com\n"
                  f"09-15 {_HEAD} idle\n"
                  f"12-31 {_HEAD} idle\n"
                  f"01-02 {_HEAD} mail d@e.com\n"),
    "pre_epoch": (f"04-20 {_HEAD} mail old@example.com\n"
                  f"2024-04-24 {_HEAD} mail older@example.com\n"
                  f"04-25 {_HEAD} mail new@example.com\n"),
    # Stream mode refuses the late line; batch mode seals the undated
    # line after it under the chain date, 05-01.
    "late_line": (f"05-01 {_HEAD} wake\n"
                  f"04-28 {_HEAD} late\n"
                  f"04-28 boot mail a@b.com\n"),
}
_LATENCY = re.compile(r"^latency .*$", re.MULTILINE)


def inputs() -> dict:
    """Each input's name and bytes: three corpora, then the hand-written."""
    from privlog.corpus import BenchConfig, generate_corpus

    logs = {}
    for seed, density in enumerate(("low", "medium", "high"), start=1):
        lines, _ = generate_corpus(BenchConfig(line_count=24, pii_density=density, day_span=3,
                                               seed=seed))
        logs[density] = "\n".join(lines) + "\n"
    logs.update(HAND_WRITTEN)
    return {name: text.encode() for name, text in logs.items()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Stream:
    """`os.urandom`'s stand-in: a seeded stream, which each forked child
    reseeds from the count of forks that the parent advances."""

    active = None  # the stream of the chain that runs now

    def __init__(self):
        self.rng, self.forks = random.Random(SEED), 0

    @classmethod
    def before_fork(cls):
        if cls.active:
            cls.active.forks += 1

    @classmethod
    def in_child(cls):
        if cls.active:
            cls.active.rng.seed(f"{SEED} fork {cls.active.forks}")


os.register_at_fork(before=_Stream.before_fork, after_in_child=_Stream.in_child)


class _Chain:
    """Runs commands in the current directory and records each one."""

    def __init__(self):
        self.entries = {}

    def _files(self) -> dict:
        return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in Path().iterdir()}

    def run(self, name: str, main, argv: list, shares: int = 1) -> int:
        import privlog.cli as cli_mod

        before = self._files()
        stdout = io.StringIO()
        cpu = min(os.sched_getaffinity(0))
        with mock.patch.object(cli_mod, "SPLIT_MIN_BYTES", 0 if shares > 1 else cli_mod.SPLIT_MIN_BYTES), \
                mock.patch.object(cli_mod, "SPLIT_MIN_EVENTS_BYTES",
                                  0 if shares > 1 else cli_mod.SPLIT_MIN_EVENTS_BYTES), \
                mock.patch.object(cli_mod, "_share_cpus", lambda: [cpu] * shares), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        written = {f: _sha(Path(f).read_bytes())
                   for f, seen in sorted(self._files().items()) if before.get(f) != seen}
        self.entries[name] = {"exit": code,
                              "stdout": _sha(_LATENCY.sub("latency", stdout.getvalue()).encode()),
                              "files": written}
        return code


def run_chain(workdir: Path) -> dict:
    """Run the chain in the empty directory `workdir`; each entry by name."""
    from privlog.cli import client_main, server_main
    from privlog.dice import DeviceIdentity, format_identity
    from privlog.kvfile import parse_kv

    stream = _Stream.active = _Stream()
    chain = _Chain()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch("os.urandom", stream.rng.randbytes):
            client = lambda *argv: [*("--config", "client.cfg"), *argv]  # noqa: E731
            identity = DeviceIdentity(uds=b"\x11" * 32, measurement=b"\x22" * 32,
                                      device_id="pixel-lab")
            Path("identity.kv").write_text(format_identity(identity))
            chain.run("keygen", server_main, ["keygen", "--keystore", "server.kv",
                                              "--server-id", "lab-server"])
            server_pub = parse_kv(Path("server.kv").read_text())["longterm_pub"]
            Path("client.cfg").write_text(
                f"identity=identity.kv\nstate=state.kv\nserver_pub={server_pub}\n"
                "server_id=lab-server\nassumed_year=2024\n")
            chain.run("init", client_main, client("init", "--today", EPOCH))
            state0 = Path("state.kv").read_bytes()

            logs = inputs()
            protected = []
            for name, data in logs.items():
                Path(f"{name}.log").write_bytes(data)
                for mode in ("stream", "batch"):
                    for shares in (1, 2, 3):
                        out = f"{name}.{mode}.{shares}.prot"
                        Path("state.kv").write_bytes(state0)
                        chain.run(f"protect {out}", client_main,
                                  client("protect", "--in", f"{name}.log", "--out", out,
                                         "--mode", mode), shares)
                        protected.append(out)

            chain.run("offer", server_main, ["offer", "--keystore", "server.kv",
                                             "--grant-id", "g1", "--out", "offer.kv"])
            grant = client("grant", "--server-offer", "offer.kv", "--start", EPOCH,
                           "--today", GRANT_DAY, "--out", "grant.kv")
            chain.run("grant", client_main, grant)
            chain.run("grant again", client_main, grant)
            chain.run("accept", server_main, ["accept", "--keystore", "server.kv", "--grant",
                                              "grant.kv", "--expect-device", "pixel-lab",
                                              "--out", "window.kv"])

            for prot in protected:
                if Path(prot).exists():
                    chain.run(f"recover {prot}", server_main,
                              ["recover", "--keys", "window.kv", "--in", prot,
                               "--out", f"{prot}.csv"])
            for name in logs:
                prot = f"{name}.stream.1.prot"
                if not Path(prot).exists():
                    continue
                for shares in (2, 3):
                    chain.run(f"recover {prot} in {shares}", server_main,
                              ["recover", "--keys", "window.kv", "--in", prot,
                               "--out", f"{prot}.{shares}.csv"], shares)
                events = f"{prot}.csv"
                for shares in (1, 2, 3):
                    at = f" in {shares}" if shares > 1 else ""
                    chain.run(f"report {events}{at}", server_main,
                              ["report", "--events", events, "--out", f"{prot}.linkage.csv"],
                              shares)
                    rows = Path(f"{prot}.linkage.csv").read_text().splitlines()
                    if len(rows) > 1:
                        token = rows[1].split(",")[0]
                        chain.run(f"timeline {events}{at}", server_main,
                                  ["report", "--events", events, "--timeline", token], shares)
                        chain.run(f"timeline {events} to file{at}", server_main,
                                  ["report", "--events", events, "--timeline", token,
                                   "--out", f"{prot}.timeline.csv"], shares)
            chain.run("state", client_main, client("state"))
    finally:
        _Stream.active = None
        os.chdir(cwd)
    return chain.entries


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entries = run_chain(Path(tmp))
    TRANSCRIPT.write_text(json.dumps(entries, indent=1, sort_keys=False) + "\n")
    print(f"{len(entries)} entries -> {TRANSCRIPT.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()

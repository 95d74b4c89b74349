"""File-level CLI round trips and the stable exit-code contract."""

import ast
import base64
import csv
import importlib
import io
import re
from collections import Counter
from datetime import date, timedelta
from pathlib import Path

import pytest

from privlog.cli import client_main, server_main
from privlog.corpus import BenchConfig, write_corpus
from privlog.crypto import dh_derive_keypair
from privlog.dice import DeviceIdentity, format_identity
from privlog.errors import CorruptState
from privlog.kvfile import b64, parse_kv
from privlog.pii import PiiType
from privlog.server import RecoveredEvent, load_server_keys, write_events_csv

DAY1 = date(2024, 5, 1)
SEED_A = "07" * 32
SEED_B = "21" * 32
SEED_C = "33" * 32
STATE_KEYS = {"v", "root_key", "hash_key", "chain_key", "chain_date", "epoch_date"}


def D(n: int) -> date:
    return DAY1 + timedelta(days=n - 1)


@pytest.fixture()
def ws(tmp_path):
    """Workspace with identity, server keystore, and client config on disk."""
    identity = DeviceIdentity(uds=b"\x11" * 32, measurement=b"\x22" * 32, device_id="pixel-lab")
    (tmp_path / "identity.kv").write_text(format_identity(identity))

    assert server_main([
        "keygen", "--keystore", str(tmp_path / "server.kv"),
        "--server-id", "lab-server", "--seed", SEED_B,
    ]) == 0
    server_pub = parse_kv((tmp_path / "server.kv").read_text(), "ks")["longterm_pub"]

    (tmp_path / "client.cfg").write_text(
        f"identity={tmp_path / 'identity.kv'}\n"
        f"state={tmp_path / 'state.kv'}\n"
        f"server_pub={server_pub}\n"
        "server_id=lab-server\n"
        "assumed_year=2024\n"
    )
    return tmp_path


def _client(ws, *args):
    return client_main(["--config", str(ws / "client.cfg"), *args])


def test_full_cli_roundtrip(ws, capsys):
    cfg = BenchConfig(line_count=300, pii_density="medium", day_span=5, seed=1001)
    write_corpus(cfg, ws / "raw.log", ws / "raw.truth.csv")

    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    assert _client(ws, "protect", "--in", str(ws / "raw.log"),
                   "--out", str(ws / "protected.log")) == 0

    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "case-7", "--out", str(ws / "offer.kv"), "--seed", SEED_C,
    ]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"),
                   "--start", D(2).isoformat(), "--today", D(5).isoformat(),
                   "--out", str(ws / "grant.kv"), "--seed", SEED_C) == 0

    assert server_main([
        "accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
        "--expect-device", "pixel-lab", "--out", str(ws / "window.kv"),
    ]) == 0
    assert server_main([
        "recover", "--keys", str(ws / "window.kv"), "--in", str(ws / "protected.log"),
        "--out", str(ws / "events.csv"), "--year", "2024",
    ]) == 0

    events_rows = (ws / "events.csv").read_text().strip().splitlines()
    assert events_rows[0] == "line_no,date,pii_type,token_b64,template"
    # window covers days 2..5: exactly the planted fields in range recover
    from privlog.pii import extract_date
    from privlog.corpus import read_truth

    raw_lines = (ws / "raw.log").read_text().splitlines()
    window_days = {D(n) for n in range(2, 6)}
    expected = sum(
        1 for p in read_truth(ws / "raw.truth.csv")
        if extract_date(raw_lines[p.line_no - 1], 2024) in window_days
    )
    assert len(events_rows) - 1 == expected > 0

    assert server_main([
        "report", "--events", str(ws / "events.csv"), "--out", str(ws / "linkage.csv"),
    ]) == 0
    linkage_rows = (ws / "linkage.csv").read_text().strip().splitlines()
    assert linkage_rows[0] == "token_b64,pii_type,count,first_date,last_date"
    assert len(linkage_rows) > 1
    top_token = linkage_rows[1].split(",")[0]

    capsys.readouterr()
    assert server_main([
        "report", "--events", str(ws / "events.csv"), "--timeline", top_token,
    ]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "date,line_no,template"
    assert len(out) >= 2

    # protect again after the grant: the new epoch starts day 6, and the
    # old window opens nothing from it (disjoint key epochs)
    (ws / "raw2.log").write_text(
        "05-06 08:00:00.000  1000  1000 I AuthService: back with mail alice@example.com\n"
    )
    assert _client(ws, "protect", "--in", str(ws / "raw2.log"),
                   "--out", str(ws / "protected2.log")) == 0
    assert '<PII type="EMAIL">' in (ws / "protected2.log").read_text()
    assert server_main([
        "recover", "--keys", str(ws / "window.kv"), "--in", str(ws / "protected2.log"),
        "--out", str(ws / "events2.csv"), "--year", "2024",
    ]) == 0
    assert (ws / "events2.csv").read_text().strip().splitlines() == [
        "line_no,date,pii_type,token_b64,template"
    ]


def test_protect_empty_file(ws):
    (ws / "empty.log").write_text("")
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    assert _client(ws, "protect", "--in", str(ws / "empty.log"),
                   "--out", str(ws / "empty.out")) == 0
    assert (ws / "empty.out").read_text() == ""


def test_state_subcommand_shows_no_secrets(ws, capsys):
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    capsys.readouterr()
    assert _client(ws, "state") == 0
    out = capsys.readouterr().out
    state_fields = parse_kv((ws / "state.kv").read_text(), "state")
    assert set(state_fields) == STATE_KEYS
    for secret_field in ("root_key", "hash_key", "chain_key"):
        assert state_fields[secret_field] not in out
    assert "chain_date=2024-05-01" in out
    assert "epoch_date=2024-05-01" in out


def test_state_file_with_dh_pair_and_init_nonce_loads_and_drops_them(ws):
    """A state file that still carries `dh_priv=`, `dh_pub=` and
    `init_nonce=` loads and protects; the next save leaves them out."""
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    lines = (ws / "state.kv").read_text().splitlines(keepends=True)
    seed = bytes.fromhex(SEED_A)
    pair = dh_derive_keypair(seed, b"dh-init")
    (ws / "state.kv").write_text("".join([
        *lines[:3], f"dh_priv={b64(pair.private)}\n", f"dh_pub={b64(pair.public)}\n",
        *lines[3:], f"init_nonce={b64(seed)}\n",
    ]))
    (ws / "raw.log").write_text("05-01 10:00:00.000  1000  1000 I T: mail a@b.co\n")
    assert _client(ws, "protect", "--in", str(ws / "raw.log"), "--out", str(ws / "out.log")) == 0
    assert '<PII type="EMAIL">' in (ws / "out.log").read_text()
    assert set(parse_kv((ws / "state.kv").read_text(), "state")) == STATE_KEYS


def test_exit_code_invalid_window(ws):
    assert _client(ws, "init", "--today", D(3).isoformat(), "--seed", SEED_A) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-bad", "--out", str(ws / "offer.kv"), "--seed", SEED_C,
    ]) == 0
    # start before the epoch
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"),
                   "--start", D(1).isoformat(), "--today", D(3).isoformat(),
                   "--out", str(ws / "grant.kv")) == 2
    assert not (ws / "grant.kv").exists()


def test_exit_code_out_of_order(ws, capsys):
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    raw = ws / "ooo.log"
    raw.write_text(
        "05-03 10:00:00.000  1000  1000 I T: mail a@b.co\n"
        "05-02 10:00:00.000  1000  1000 I T: mail c@d.co\n"
    )
    capsys.readouterr()
    assert _client(ws, "protect", "--in", str(raw), "--out", str(ws / "ooo.out")) == 3
    err = capsys.readouterr().err
    assert "line 2" in err and "--mode batch" in err
    assert not (ws / "ooo.out").exists()
    # batch mode succeeds on the same input
    assert _client(ws, "protect", "--in", str(raw), "--out", str(ws / "ooo.out"),
                   "--mode", "batch") == 0


def test_exit_code_auth_failure_on_tampered_grant(ws):
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-tamper", "--out", str(ws / "offer.kv"), "--seed", SEED_C,
    ]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"),
                   "--start", DAY1.isoformat(), "--today", DAY1.isoformat(),
                   "--out", str(ws / "grant.kv")) == 0
    text = (ws / "grant.kv").read_text()
    ct = parse_kv(text, "g")["ciphertext"]
    raw = bytearray(base64.b64decode(ct))
    raw[5] ^= 0xFF
    (ws / "grant.kv").write_text(
        text.replace(ct, base64.b64encode(bytes(raw)).decode())
    )
    assert server_main([
        "accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
        "--expect-device", "pixel-lab", "--out", str(ws / "window.kv"),
    ]) == 4


def test_exit_code_corrupt_on_short_grant_ciphertext(ws):
    """A grant ciphertext too short for a tag is a corrupt file, not exit 1."""
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-short", "--out", str(ws / "offer.kv"), "--seed", SEED_C,
    ]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"),
                   "--start", DAY1.isoformat(), "--today", DAY1.isoformat(),
                   "--out", str(ws / "grant.kv")) == 0
    text = (ws / "grant.kv").read_text()
    ct = parse_kv(text, "g")["ciphertext"]
    short = base64.b64encode(base64.b64decode(ct)[:10]).decode()
    (ws / "grant.kv").write_text(text.replace(ct, short))
    assert server_main([
        "accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
        "--expect-device", "pixel-lab", "--out", str(ws / "window.kv"),
    ]) == 6
    assert not (ws / "window.kv").exists()


def test_exit_code_context_mismatch(ws):
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-ctx", "--out", str(ws / "offer.kv"), "--seed", SEED_C,
    ]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"),
                   "--start", DAY1.isoformat(), "--today", DAY1.isoformat(),
                   "--out", str(ws / "grant.kv")) == 0
    assert server_main([
        "accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
        "--expect-device", "wrong-device", "--out", str(ws / "window.kv"),
    ]) == 5


def test_exit_code_corrupt_state(ws):
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    (ws / "state.kv").write_text("v=1\nroot_key=notb64\n")
    assert _client(ws, "state") == 6


def test_exit_code_corrupt_identity(ws):
    good = (ws / "identity.kv").read_text()
    missing = "".join(l + "\n" for l in good.splitlines() if not l.startswith("measurement="))
    uds = parse_kv(good, "identity")["uds"]
    short_uds = good.replace(uds, base64.b64encode(b"\x11" * 31).decode())
    for text in (missing, short_uds):
        (ws / "identity.kv").write_text(text)
        assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 6


def test_exit_code_unsupported_version(ws):
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    text = (ws / "state.kv").read_text().replace("v=1", "v=99")
    (ws / "state.kv").write_text(text)
    assert _client(ws, "state") == 6


def test_recover_with_empty_window(ws):
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    raw = ws / "one.log"
    raw.write_text("05-01 10:00:00.000  1000  1000 I T: mail a@b.co\n")
    assert _client(ws, "protect", "--in", str(raw), "--out", str(ws / "one.out")) == 0
    (ws / "window.kv").write_text("v=1\ngrant_id=g-empty\n")
    assert server_main([
        "recover", "--keys", str(ws / "window.kv"), "--in", str(ws / "one.out"),
        "--out", str(ws / "events.csv"), "--year", "2024",
    ]) == 0
    assert (ws / "events.csv").read_text().strip().splitlines() == [
        "line_no,date,pii_type,token_b64,template"
    ]


def test_init_refuses_overwrite(ws):
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 6
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A,
                   "--force") == 0


def test_offer_refuses_duplicate_grant_id(ws):
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "dup", "--out", str(ws / "o1.kv"), "--seed", SEED_C,
    ]) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "dup", "--out", str(ws / "o2.kv"), "--seed", SEED_C,
    ]) == 2


def _crash_at_write(monkeypatch, crash_at, run):
    """Run `run` with the CLI's `crash_at`-th atomic_write raising OSError."""
    import privlog.cli as cli_mod

    real_atomic_write = cli_mod.atomic_write
    calls = {"n": 0}

    def crashing(path, text):
        calls["n"] += 1
        if calls["n"] == crash_at:
            raise OSError("injected crash")
        real_atomic_write(path, text)

    monkeypatch.setattr(cli_mod, "atomic_write", crashing)
    with pytest.raises(OSError):
        run()
    monkeypatch.setattr(cli_mod, "atomic_write", real_atomic_write)


def test_grant_crash_atomicity(ws, monkeypatch):
    """A crash between the state rotation and the grant write must never
    leave both the old epoch on disk and a released grant file."""
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-crash", "--out", str(ws / "offer.kv"), "--seed", SEED_C,
    ]) == 0
    state_before = (ws / "state.kv").read_text()

    for crash_at in (1, 2):  # 1: state write, 2: grant write
        (ws / "state.kv").write_text(state_before)
        (ws / "grant.kv").unlink(missing_ok=True)
        _crash_at_write(monkeypatch, crash_at, lambda: _client(
            ws, "grant", "--server-offer", str(ws / "offer.kv"),
            "--start", DAY1.isoformat(), "--today", DAY1.isoformat(),
            "--out", str(ws / "grant.kv")))

        state_now = (ws / "state.kv").read_text()
        grant_released = (ws / "grant.kv").exists()
        old_epoch_on_disk = state_now == state_before
        assert not (grant_released and old_epoch_on_disk)


def test_atomic_write_leaves_no_partial_file(ws, monkeypatch):
    import privlog.kvfile as kv

    target = ws / "atomic.kv"
    target.write_text("original")
    files_before = set(ws.iterdir())
    monkeypatch.setattr(kv.os, "replace", lambda *a: (_ for _ in ()).throw(OSError("boom")))
    with pytest.raises(OSError):
        kv.atomic_write(target, "replacement")
    assert target.read_text() == "original"
    assert set(ws.iterdir()) == files_before, "temp file left behind"


def test_report_crash_mid_write_keeps_previous_output(ws, monkeypatch):
    """An output CSV streams into a temp file: a writer that raises part
    way leaves the previous file byte-identical and no temp file behind."""
    import privlog.server as server_mod

    with open(ws / "events.csv", "w", encoding="utf-8", newline="") as fh:
        write_events_csv([], fh)
    target = ws / "linkage.csv"
    target.write_bytes(b"token_b64,pii_type\r\nprevious,run\r\n")
    files_before = set(ws.iterdir())

    def crashing(report, fh):
        fh.write("token_b64,pii_type,count,first_date,last_date\r\n")
        raise OSError("injected crash")

    monkeypatch.setattr(server_mod, "write_linkage_csv", crashing)
    with pytest.raises(OSError):
        server_main(["report", "--events", str(ws / "events.csv"), "--out", str(target)])
    assert target.read_bytes() == b"token_b64,pii_type\r\nprevious,run\r\n"
    assert set(ws.iterdir()) == files_before, "temp file left behind"


def test_accept_crash_never_loses_window(ws, monkeypatch):
    """Saving the keystore consumes the one-time offer, and the client has
    already rotated: a crash must never leave the offer consumed while no
    window file exists, or the window is lost for good."""
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-accept", "--out", str(ws / "offer.kv"), "--seed", SEED_C,
    ]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"),
                   "--start", DAY1.isoformat(), "--today", DAY1.isoformat(),
                   "--out", str(ws / "grant.kv")) == 0
    keystore_before = (ws / "server.kv").read_text()
    assert "eph.g-accept=" in keystore_before

    for crash_at in (1, 2):
        (ws / "server.kv").write_text(keystore_before)
        (ws / "window.kv").unlink(missing_ok=True)
        _crash_at_write(monkeypatch, crash_at, lambda: server_main([
            "accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
            "--expect-device", "pixel-lab", "--out", str(ws / "window.kv"),
        ]))

        offer_consumed = "eph.g-accept=" not in (ws / "server.kv").read_text()
        assert not (offer_consumed and not (ws / "window.kv").exists()), f"crash at write {crash_at}"


def test_protect_rejects_invalid_utf8(ws, capsys):
    """Bytes that are not UTF-8 must stop protect, not be rewritten as U+FFFD."""
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    state_before = (ws / "state.kv").read_bytes()
    raw = ws / "latin1.log"
    raw.write_bytes(
        b"05-01 10:00:00.000  1000  1000 I T: mail a@b.co\n"
        b"05-01 10:00:01.000  1000  1000 I T: caf\xe9 open\n"
    )
    assert _client(ws, "protect", "--in", str(raw), "--out", str(ws / "latin1.out")) == 6
    assert not (ws / "latin1.out").exists()
    assert (ws / "state.kv").read_bytes() == state_before
    assert "line 2 is not valid UTF-8" in capsys.readouterr().err


def test_recover_rejects_invalid_utf8(ws, capsys):
    (ws / "window.kv").write_text("v=1\ngrant_id=g-utf8\n")
    (ws / "bad.out").write_bytes(b"05-01 10:00:00.000  1000  1000 I T: caf\xe9\n")
    assert server_main([
        "recover", "--keys", str(ws / "window.kv"), "--in", str(ws / "bad.out"),
        "--out", str(ws / "events.csv"), "--year", "2024",
    ]) == 6
    assert not (ws / "events.csv").exists()
    assert "line 1" in capsys.readouterr().err


def _protected_one_line(ws):
    """init, then protect one line to one.out; returns the events CSV of an empty window."""
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    (ws / "one.log").write_text("05-01 10:00:00.000  1000  1000 I T: mail a@b.co\n")
    assert _client(ws, "protect", "--in", str(ws / "one.log"), "--out", str(ws / "one.out")) == 0
    (ws / "window.kv").write_text("v=1\ngrant_id=g-files\n")
    with open(ws / "events.csv", "w", encoding="utf-8", newline="") as fh:
        write_events_csv([], fh)


_TOKEN = base64.b64encode(b"\x07" * 16).decode()

_FILE_CASES = {
    "protect-in": lambda ws, p: _client(ws, "protect", "--in", p, "--out", str(ws / "x.out")),
    "recover-in": lambda ws, p: server_main([
        "recover", "--keys", str(ws / "window.kv"), "--in", p, "--out", str(ws / "x.csv")]),
    "report-events": lambda ws, p: server_main(
        ["report", "--events", p, "--out", str(ws / "x.csv")]),
    "timeline-events": lambda ws, p: server_main(
        ["report", "--events", p, "--timeline", _TOKEN]),
    "protect-out": lambda ws, p: _client(
        ws, "protect", "--in", str(ws / "one.log"), "--out", p),
    "recover-out": lambda ws, p: server_main([
        "recover", "--keys", str(ws / "window.kv"), "--in", str(ws / "one.out"), "--out", p]),
    "report-out": lambda ws, p: server_main(
        ["report", "--events", str(ws / "events.csv"), "--out", p]),
    "timeline-out": lambda ws, p: server_main(
        ["report", "--events", str(ws / "events.csv"), "--timeline", _TOKEN, "--out", p]),
}


@pytest.mark.parametrize("case", sorted(_FILE_CASES))
def test_missing_file_or_directory_exits_6(ws, capsys, case):
    """An input that does not exist, or an output in a directory that does
    not, is CorruptState naming the path given, not a traceback."""
    _protected_one_line(ws)
    path = str(ws / "nodir" / "file")
    capsys.readouterr()
    assert _FILE_CASES[case](ws, path) == 6
    err = capsys.readouterr().err
    assert err.startswith("error CorruptState: ") and repr(path) in err
    assert ".tmp" not in err
    assert not (ws / "nodir").exists()
    assert not list(ws.glob(".x.*.tmp"))


# The CLI chain from init to report, one step a line; a word with a file
# suffix names a file in the workspace.
_CHAIN = [
    ("client", f"init --today 2024-05-01 --seed {SEED_A}"),
    ("client", "protect --in raw.log --out prot.log"),
    ("server", f"offer --keystore server.kv --grant-id g-chain --out offer.kv --seed {SEED_C}"),
    ("client", "grant --server-offer offer.kv --start 2024-05-01 --today 2024-05-02 --out grant.kv"),
    ("server", "accept --keystore server.kv --grant grant.kv --expect-device pixel-lab --out window.kv"),
    ("server", "recover --keys window.kv --in prot.log --out events.csv"),
    ("server", "report --events events.csv --out linkage.csv"),
]
_RAW_LOG = (
    "05-01 10:00:00.000  1000  1000 I T: mail a@b.co\n"
    "05-02 10:00:00.000  1000  1000 I T: mail c@d.co\n"
)


def _step(ws, n: int) -> int:
    side, command = _CHAIN[n]
    argv = [str(ws / w) if re.fullmatch(r"\w+\.(cfg|kv|log|csv)", w) else w for w in command.split()]
    return _client(ws, *argv) if side == "client" else server_main(argv)


_INPUTS = {  # input kind: (its file, the chain step that reads it)
    "config": ("client.cfg", 1),
    "identity": ("identity.kv", 1),
    "state": ("state.kv", 1),
    "raw-log": ("raw.log", 1),
    "keystore": ("server.kv", 2),
    "offer": ("offer.kv", 3),
    "grant": ("grant.kv", 4),
    "window-keys": ("window.kv", 5),
    "protected-log": ("prot.log", 5),
    "events-csv": ("events.csv", 6),
}


@pytest.mark.parametrize("kind", list(_INPUTS))
def test_input_not_utf8_exits_6(ws, capsys, kind):
    """A byte that is not UTF-8 in any input file is CorruptState naming the
    file and the line: no traceback, no output, no state or keystore change."""
    name, step = _INPUTS[kind]
    words = _CHAIN[step][1].split()
    out = ws / words[words.index("--out") + 1]
    (ws / "raw.log").write_text(_RAW_LOG)
    for n in range(step):
        assert _step(ws, n) == 0
    path = ws / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = b"\xe9" + lines[1]
    path.write_bytes(b"".join(lines))
    kept = {f: (ws / f).read_bytes() for f in ("state.kv", "server.kv")}
    capsys.readouterr()
    assert _step(ws, step) == 6
    err = capsys.readouterr().err
    assert err.startswith("error CorruptState: ")
    assert repr(str(path)) in err and "line 2 " in err
    assert not out.exists()
    assert not list(ws.glob(".*.tmp"))
    assert {f: (ws / f).read_bytes() for f in kept} == kept


def test_report_reads_back_a_140k_character_line(ws):
    """`recover` writes a template of any length, and `report` and
    `--timeline` read it back: the csv module's default field limit is 128 KiB."""
    filler = " ".join(["word"] * 28_000)
    (ws / "raw.log").write_text(_RAW_LOG.replace("a@b.co", f"a@b.co {filler}"))
    for n in range(len(_CHAIN)):
        assert _step(ws, n) == 0
    assert len((ws / "prot.log").read_text().splitlines()[0]) > 140_000
    assert (ws / "linkage.csv").read_text().count("\n") == 3  # header and two tokens
    token = (ws / "events.csv").read_text().split("\n")[1].split(",")[3]  # line 1's
    assert server_main(["report", "--events", str(ws / "events.csv"), "--timeline", token,
                        "--out", str(ws / "timeline.csv")]) == 0
    assert filler in (ws / "timeline.csv").read_text()


@pytest.mark.skipif(not Path("/proc/self/mem").exists(), reason="needs Linux /proc")
def test_input_read_error_names_the_line(ws, capsys):
    """An input that opens but cannot be read is CorruptState naming the line:
    reading /proc/self/mem at offset 0 fails with EIO."""
    (ws / "window.kv").write_text("v=1\ngrant_id=g-eio\n")
    assert server_main(["recover", "--keys", str(ws / "window.kv"), "--in", "/proc/self/mem",
                        "--out", str(ws / "x.csv"), "--year", "2024"]) == 6
    assert "cannot read input '/proc/self/mem' line 1: " in capsys.readouterr().err
    assert not (ws / "x.csv").exists()


@pytest.mark.parametrize("timeline", [[], ["--timeline", _TOKEN]], ids=["linkage", "timeline"])
def test_report_cut_inside_quoted_template_exits_6(ws, capsys, timeline):
    """An events CSV that ends inside a quoted template is CorruptState, not
    a row with a shorter template."""
    with open(ws / "events.csv", "w", encoding="utf-8", newline="") as fh:
        write_events_csv([RecoveredEvent(1, DAY1, PiiType.EMAIL, b"\x07" * 16,
                                         'uid=1000, msg "hi" <PII#0>')], fh)
    text = (ws / "events.csv").read_bytes()
    (ws / "cut.csv").write_bytes(text[:text.index(b"msg")])
    capsys.readouterr()
    assert server_main(["report", "--events", str(ws / "cut.csv"),
                        "--out", str(ws / "x.csv"), *timeline]) == 6
    assert "events csv" in capsys.readouterr().err
    assert not (ws / "x.csv").exists()


def test_exit_code_bad_expect_attest(ws):
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-attest", "--out", str(ws / "offer.kv"), "--seed", SEED_C,
    ]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"),
                   "--start", DAY1.isoformat(), "--today", DAY1.isoformat(),
                   "--out", str(ws / "grant.kv")) == 0
    assert server_main([
        "accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
        "--expect-device", "pixel-lab", "--expect-attest", "not*base64",
        "--out", str(ws / "window.kv"),
    ]) == 6
    assert not (ws / "window.kv").exists()


def test_exit_code_bad_timeline_token(ws, capsys):
    (ws / "events.csv").write_text("line_no,date,pii_type,token_b64,template\n")
    # Non-ASCII text makes b64decode raise a plain ValueError, not binascii.Error;
    # "AAAA" is base64 of 3 bytes, and a token is 16.
    for token in ("not*base64", "töken", "AAAA"):
        capsys.readouterr()
        assert server_main([
            "report", "--events", str(ws / "events.csv"), "--timeline", token,
        ]) == 6
        out, err = capsys.readouterr()
        assert out == "" and "--timeline token" in err


def test_protect_preserves_line_endings(ws, capsys):
    """CRLF, a lone CR and a last line with no newline come out as they went in."""
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    raw = (
        b"05-01 10:00:00.000  1000  1000 I T: mail a@b.co hello\r\n"
        b"05-01 10:00:01.000  1000  1000 I T: a\rb\n"
        b"05-01 10:00:02.000  1000  1000 I T: last-no-newline"
    )
    (ws / "crlf.log").write_bytes(raw)
    capsys.readouterr()
    assert _client(ws, "protect", "--in", str(ws / "crlf.log"), "--out", str(ws / "crlf.out")) == 0
    assert "protected 3 lines (1 fields)" in capsys.readouterr().out
    out = (ws / "crlf.out").read_bytes()
    assert re.sub(rb'<PII type="EMAIL">[A-Za-z0-9+/=]{60}</PII>', b"a@b.co", out) == raw


def test_protect_one_line_prints_equal_percentiles(ws, capsys):
    """One sample: median, p95 and p99 are that sample (quantiles needs two)."""
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    (ws / "one.log").write_text("05-01 10:00:00.000  1000  1000 I T: mail a@b.co\n")
    capsys.readouterr()
    assert _client(ws, "protect", "--in", str(ws / "one.log"), "--out", str(ws / "one.out")) == 0
    m = re.search(r"latency median/p95/p99: (\S+) / (\S+) / (\S+) ms", capsys.readouterr().out)
    assert m and m.group(1) == m.group(2) == m.group(3)


def test_protect_without_year_reads_dates_nearest_today(ws):
    """A device idle for 300 days protects today's year-less lines as today's."""
    cfg = ws / "client.cfg"
    cfg.write_text(cfg.read_text().replace("assumed_year=2024\n", ""))
    today = date.today()
    last_use = today - timedelta(days=300)
    assert _client(ws, "init", "--today", last_use.isoformat(), "--seed", SEED_A) == 0
    (ws / "raw.log").write_text(f"{today:%m-%d} 10:00:00.000  1000  1000 I T: mail a@b.co\n")
    assert _client(ws, "protect", "--in", str(ws / "raw.log"), "--out", str(ws / "raw.out")) == 0
    assert parse_kv((ws / "state.kv").read_text(), "state")["chain_date"] == today.isoformat()


@pytest.mark.parametrize("year", [[], ["--year", "2025"]], ids=["default", "2025"])
def test_recover_december_lines_before_january_window(ws, year):
    """Lines from 12-30 to 01-02 under a window from 2025-01-01: January recovers."""
    assert _client(ws, "init", "--today", "2024-12-30", "--seed", SEED_A) == 0
    (ws / "raw.log").write_text("".join(
        f"{day} 10:00:00.000  1000  1000 I T: mail a@b.co\n"
        for day in ["12-30", "12-31", "01-01", "01-02"]
    ))
    assert _client(ws, "protect", "--in", str(ws / "raw.log"), "--out", str(ws / "prot.log")) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-year", "--out", str(ws / "offer.kv"), "--seed", SEED_C,
    ]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"), "--start", "2025-01-01",
                   "--today", "2025-01-03", "--out", str(ws / "grant.kv")) == 0
    assert server_main([
        "accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
        "--expect-device", "pixel-lab", "--out", str(ws / "window.kv"),
    ]) == 0
    assert server_main([
        "recover", "--keys", str(ws / "window.kv"), "--in", str(ws / "prot.log"),
        "--out", str(ws / "events.csv"), *year,
    ]) == 0
    rows = (ws / "events.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["2025-01-01", "2025-01-02"]


_PUB32 = base64.b64encode(b"\x01" * 32).decode()


@pytest.mark.parametrize("entry, cause", [
    (_PUB32, "two base64 keys"),
    (f"not*base64,{_PUB32}", "not valid base64"),
    (f"{base64.b64encode(bytes(30)).decode()},{_PUB32}", "32 bytes"),
], ids=["no-comma", "bad-base64", "30-byte-key"])
def test_bad_ephemeral_entry_is_corrupt_state(ws, capsys, entry, cause):
    keystore = ws / "server.kv"
    keystore.write_text(keystore.read_text() + f"eph.g-old={entry}\n")
    with pytest.raises(CorruptState, match=cause):
        load_server_keys(keystore.read_text())
    assert server_main([
        "offer", "--keystore", str(keystore), "--grant-id", "g-new", "--out", str(ws / "offer.kv"),
    ]) == 6
    assert "eph.g-old" in capsys.readouterr().err


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_timeline_is_valid_csv(ws, capsys, to_file):
    """A template holding ',' and '"' reads back as one column, unchanged."""
    template = 'uid=1000, msg "hi" <PII#0>'
    token = b"\x07" * 16
    with open(ws / "events.csv", "w", encoding="utf-8", newline="") as fh:
        write_events_csv([RecoveredEvent(1, DAY1, PiiType.EMAIL, token, template)], fh)
    argv = ["report", "--events", str(ws / "events.csv"), "--timeline", base64.b64encode(token).decode()]
    if to_file:
        argv += ["--out", str(ws / "timeline.csv")]
    capsys.readouterr()
    assert server_main(argv) == 0
    text = (ws / "timeline.csv").read_bytes().decode() if to_file else capsys.readouterr().out
    assert list(csv.reader(io.StringIO(text))) == [
        ["date", "line_no", "template"], ["2024-05-01", "1", template],
    ]


def test_recover_bad_year_exits_6(ws):
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    (ws / "one.log").write_text("05-01 10:00:00.000  1000  1000 I T: mail a@b.co\n")
    assert _client(ws, "protect", "--in", str(ws / "one.log"), "--out", str(ws / "one.out")) == 0
    (ws / "window.kv").write_text("v=1\ngrant_id=g-year\n")
    for year in ("0", "abc"):
        assert server_main([
            "recover", "--keys", str(ws / "window.kv"), "--in", str(ws / "one.out"),
            "--out", str(ws / "events.csv"), "--year", year,
        ]) == 6
        assert not (ws / "events.csv").exists()


def test_recover_early_window_without_year_exits_6(ws):
    """With no --year, the window's first year is checked like the flag."""
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    (ws / "one.log").write_text("05-01 10:00:00.000  1000  1000 I T: mail a@b.co\n")
    assert _client(ws, "protect", "--in", str(ws / "one.log"), "--out", str(ws / "one.out")) == 0
    key = base64.b64encode(b"\x01" * 32).decode()
    (ws / "window.kv").write_text(f"v=1\ngrant_id=g-early\nkey.1960-01-01={key}\n")
    assert server_main([
        "recover", "--keys", str(ws / "window.kv"), "--in", str(ws / "one.out"),
        "--out", str(ws / "events.csv"),
    ]) == 6
    assert not (ws / "events.csv").exists()


def test_init_rejects_basic_format_today(ws):
    assert _client(ws, "init", "--today", "20240501", "--seed", SEED_A) == 6
    assert not (ws / "state.kv").exists()


@pytest.mark.parametrize("config_year, argv", [
    ("abc", ["state"]),
    ("abc", ["protect", "--in", "one.log", "--out", "one.out"]),
    ("2024", ["--year", "0", "protect", "--in", "one.log", "--out", "one.out"]),
], ids=["config-state", "config-protect", "flag-protect"])
def test_client_bad_year_exits_6(ws, config_year, argv):
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    state_before = (ws / "state.kv").read_bytes()
    (ws / "one.log").write_text("05-01 10:00:00.000  1000  1000 I T: mail a@b.co\n")
    cfg = ws / "client.cfg"
    cfg.write_text(cfg.read_text().replace("assumed_year=2024", f"assumed_year={config_year}"))
    argv = [str(ws / a) if a.startswith("one.") else a for a in argv]
    assert _client(ws, *argv) == 6
    assert not (ws / "one.out").exists()
    assert (ws / "state.kv").read_bytes() == state_before


def _trace_targets():
    """`TARGETS` of perfbench/tracing.py, read without importing perfbench."""
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(tracing.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS in perfbench/tracing.py")


def test_every_trace_target_is_called(ws, monkeypatch):
    """perfbench patches each target by the name its caller imported; a
    call made some other way would bypass the patch and read as 0 calls."""
    calls = Counter()
    for target, attr, _ in _trace_targets():
        module, _, cls = target.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner

        def counted(*args, _fn=getattr(owner, attr), _key=f"{target}.{attr}", **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    write_corpus(BenchConfig(line_count=100, pii_density="medium", day_span=3, seed=5),
                 ws / "raw.log", ws / "raw.truth.csv")
    assert _client(ws, "init", "--today", DAY1.isoformat(), "--seed", SEED_A) == 0
    assert _client(ws, "protect", "--in", str(ws / "raw.log"), "--out", str(ws / "prot.log")) == 0
    assert server_main(["offer", "--keystore", str(ws / "server.kv"), "--grant-id", "g-trace",
                        "--out", str(ws / "offer.kv"), "--seed", SEED_C]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"), "--start", DAY1.isoformat(),
                   "--today", D(3).isoformat(), "--out", str(ws / "grant.kv")) == 0
    assert server_main(["accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
                        "--expect-device", "pixel-lab", "--out", str(ws / "window.kv")]) == 0
    assert server_main(["recover", "--keys", str(ws / "window.kv"), "--in", str(ws / "prot.log"),
                        "--out", str(ws / "events.csv")]) == 0
    assert server_main(["report", "--events", str(ws / "events.csv"),
                        "--out", str(ws / "linkage.csv")]) == 0
    token = (ws / "linkage.csv").read_text().splitlines()[1].split(",")[0]
    assert server_main(["report", "--events", str(ws / "events.csv"), "--timeline", token]) == 0

    assert {f"{t}.{a}" for t, a, _ in _trace_targets()} - set(calls) == set()

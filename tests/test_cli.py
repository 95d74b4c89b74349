"""File-level CLI round trips and the stable exit-code contract."""

import ast
import base64
import contextlib
import csv
import fcntl
import importlib
import io
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import privlog
from privlog import client as client_mod
from privlog.cli import client_main, server_main
from privlog.client_cli import _BUCKETS, _bucket, _percentiles
from privlog.corpus import BenchConfig, generate_corpus
from privlog.crypto import SecretKey32, aead_open, aead_seal, dh_derive_keypair
from privlog.dice import DeviceIdentity, format_identity
from privlog.errors import AuthFailure, CorruptState
from privlog.kvfile import b64, parse_kv
from privlog.pii import PiiType
from privlog.server import (
    EVENTS_HEADER_LINE, WindowKeys, load_server_keys, save_window_keys, write_events_csv,
)

DAY1 = date(2024, 5, 1)
STATE_KEYS = {"v", "root_key", "hash_key", "chain_key", "chain_date", "epoch_date"}
# A state that a grant rotated also holds that grant, for `grant` to write again.
PENDING_GRANT_KEYS = {"pending_offer", "pending_grant"}
_SHORT_KEY = base64.b64encode(b"\x09" * 31).decode()  # one byte short of an X25519 key


def D(n: int) -> date:
    return DAY1 + timedelta(days=n - 1)


@pytest.fixture()
def ws(tmp_path):
    """Workspace with identity, server keystore, and client config on disk."""
    identity = DeviceIdentity(uds=b"\x11" * 32, measurement=b"\x22" * 32, device_id="pixel-lab")
    (tmp_path / "identity.kv").write_text(format_identity(identity))

    assert server_main([
        "keygen", "--keystore", str(tmp_path / "server.kv"),
        "--server-id", "lab-server",
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


def _write_log(path: Path, cfg: BenchConfig):
    """`cfg`'s corpus as a raw log at `path`; returns its planted truth."""
    lines, truth = generate_corpus(cfg)
    path.write_text("\n".join(lines) + "\n")
    return truth


def test_full_cli_roundtrip(ws, capsys):
    cfg = BenchConfig(line_count=300, pii_density="medium", day_span=5, seed=1001)
    truth = _write_log(ws / "raw.log", cfg)

    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    assert _client(ws, "protect", "--in", str(ws / "raw.log"),
                   "--out", str(ws / "protected.log")) == 0

    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "case-7", "--out", str(ws / "offer.kv"),
    ]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"),
                   "--start", D(2).isoformat(), "--today", D(5).isoformat(),
                   "--out", str(ws / "grant.kv")) == 0

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
    raw_lines = (ws / "raw.log").read_text().splitlines()
    window_days = {D(n) for n in range(2, 6)}
    expected = sum(
        1 for p in truth
        if oracles.extract_date(raw_lines[p.line_no - 1], 2024) in window_days
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
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    assert _client(ws, "protect", "--in", str(ws / "empty.log"),
                   "--out", str(ws / "empty.out")) == 0
    assert (ws / "empty.out").read_text() == ""


def test_state_subcommand_shows_no_secrets(ws, capsys):
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
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
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    lines = (ws / "state.kv").read_text().splitlines(keepends=True)
    seed = bytes(range(32))
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
    assert _client(ws, "init", "--today", D(3).isoformat()) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-bad", "--out", str(ws / "offer.kv"),
    ]) == 0
    # start before the epoch
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"),
                   "--start", D(1).isoformat(), "--today", D(3).isoformat(),
                   "--out", str(ws / "grant.kv")) == 2
    assert not (ws / "grant.kv").exists()


def test_exit_code_out_of_order(ws, capsys):
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
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


def _tampered_grant_accept(ws) -> list:
    """The `accept` arguments for a grant whose ciphertext has one byte flipped."""
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-tamper", "--out", str(ws / "offer.kv"),
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
    return ["accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
            "--expect-device", "pixel-lab", "--out", str(ws / "window.kv")]


def test_exit_code_auth_failure_on_tampered_grant(ws):
    assert server_main(_tampered_grant_accept(ws)) == 4


def test_exit_code_corrupt_on_short_grant_ciphertext(ws):
    """A grant ciphertext too short for a tag is a corrupt file, not exit 1."""
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-short", "--out", str(ws / "offer.kv"),
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
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-ctx", "--out", str(ws / "offer.kv"),
    ]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"),
                   "--start", DAY1.isoformat(), "--today", DAY1.isoformat(),
                   "--out", str(ws / "grant.kv")) == 0
    assert server_main([
        "accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
        "--expect-device", "wrong-device", "--out", str(ws / "window.kv"),
    ]) == 5


def test_exit_code_corrupt_state(ws):
    assert _client(ws, "init", "--today", D(2).isoformat()) == 0
    good = (ws / "state.kv").read_text()
    chain_before_epoch = good.replace(f"chain_date={D(2)}", f"chain_date={DAY1}")
    for text in ("v=1\nroot_key=notb64\n", chain_before_epoch):
        (ws / "state.kv").write_text(text)
        assert _client(ws, "state") == 6


def test_exit_code_corrupt_identity(ws):
    good = (ws / "identity.kv").read_text()
    missing = "".join(l + "\n" for l in good.splitlines() if not l.startswith("measurement="))
    uds = parse_kv(good, "identity")["uds"]
    short_uds = good.replace(uds, base64.b64encode(b"\x11" * 31).decode())
    long_id = good.replace("device_id=pixel-lab", "device_id=" + "d" * 65)
    for text in (missing, short_uds, long_id):
        (ws / "identity.kv").write_text(text)
        assert _client(ws, "init", "--today", DAY1.isoformat()) == 6
        assert not (ws / "state.kv").exists()


@pytest.mark.parametrize("dropped", ["identity", "state", "server_pub"])
def test_config_without_a_required_entry_exits_6(ws, capsys, dropped):
    """`init` given no identity file, no state path or no server key, in the
    config or by a flag, exits 6 naming the config entry, and writes nothing."""
    cfg = ws / "client.cfg"
    cfg.write_text("".join(line for line in cfg.read_text().splitlines(keepends=True)
                           if not line.startswith(f"{dropped}=")))
    before = {p.name: p.read_bytes() for p in ws.iterdir()}
    capsys.readouterr()
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 6
    err = capsys.readouterr().err
    assert err.startswith("error CorruptState: ") and f"{dropped}=" in err
    assert {p.name: p.read_bytes() for p in ws.iterdir()} == before


def test_config_comments_and_blank_lines_are_skipped(ws):
    cfg = ws / "client.cfg"
    lines = cfg.read_text().splitlines(keepends=True)
    cfg.write_text("# device config\n\n" + lines[0] + "   \n  # state= commented out\n"
                   + "".join(lines[1:]))
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    assert (ws / "state.kv").exists()


def test_keygen_refuses_existing_keystore(ws):
    keystore = (ws / "server.kv").read_bytes()
    argv = ["keygen", "--keystore", str(ws / "server.kv"), "--server-id", "lab-server"]
    assert server_main(argv) == 6
    assert (ws / "server.kv").read_bytes() == keystore
    assert server_main([*argv, "--force"]) == 0
    assert (ws / "server.kv").read_bytes() != keystore


def test_protect_skips_pre_epoch_lines(ws, capsys):
    """Lines dated before the epoch are counted and left out of the output."""
    assert _client(ws, "init", "--today", D(2).isoformat()) == 0
    (ws / "raw.log").write_text(
        "05-01 10:00:00.000  1000  1000 I T: mail a@b.co\n"
        "05-02 10:00:00.000  1000  1000 I T: mail c@d.co\n"
        "05-01 11:00:00.000  1000  1000 I T: no mail\n"
    )
    capsys.readouterr()
    assert _client(ws, "protect", "--in", str(ws / "raw.log"), "--out", str(ws / "out.log")) == 0
    out = capsys.readouterr().out
    assert f"protected 1 lines (1 fields) -> {ws / 'out.log'}" in out
    assert "skipped 2 pre-epoch lines" in out
    protected = (ws / "out.log").read_text().splitlines()
    assert len(protected) == 1 and protected[0].startswith("05-02 ")


def test_exit_code_unsupported_version(ws):
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    text = (ws / "state.kv").read_text().replace("v=1", "v=99")
    (ws / "state.kv").write_text(text)
    assert _client(ws, "state") == 6


def test_recover_with_empty_window(ws):
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
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
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 6
    assert _client(ws, "init", "--today", DAY1.isoformat(),
                   "--force") == 0


def test_offer_refuses_a_bad_grant_id(ws):
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "dup", "--out", str(ws / "o1.kv"),
    ]) == 0
    keystore = (ws / "server.kv").read_bytes()
    # Letters outside [A-Za-z0-9._-] that `str.isalnum` accepts, and an id
    # too long for the 2-byte length that prefixes it in the AAD.
    for grant_id in ("\u00e9\u00b2", "a" * 0x10000):
        assert server_main([
            "offer", "--keystore", str(ws / "server.kv"),
            "--grant-id", grant_id, "--out", str(ws / "o2.kv"),
        ]) == 2
        assert (ws / "server.kv").read_bytes() == keystore
        assert not (ws / "o2.kv").exists()


def _killed_at_rename(name: str, run) -> int:
    """Run `run` in a forked child that ends with `os._exit(137)` at the
    rename onto a file called `name`, leaving what a kill there leaves;
    the child's exit code."""
    pid = os.fork()
    if pid == 0:
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == name:
                os._exit(137)
            real_replace(src, dst)

        try:
            os.replace = replace
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                run()
        finally:
            os._exit(0)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def test_a_killed_protect_leaves_no_earlier_epoch_beside_the_state(ws):
    """A kill at the state's rename leaves its temp file, with the epoch's
    root key, beside the state. The next command that writes the state
    removes it before it reads the state, so after the grant no file in
    the directory holds the old epoch's root."""
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    (ws / "raw.log").write_text("05-01 10:00:00.000  1000  1000 I T: mail a@b.com\n"
                                    "05-02 10:00:00.000  1000  1000 I T: mail c@d.org\n")
    root = parse_kv((ws / "state.kv").read_text())["root_key"]
    assert _killed_at_rename("state.kv", lambda: _client(
        ws, "protect", "--in", str(ws / "raw.log"), "--out", str(ws / "prot.log"))) == 137
    assert [p.name for p in ws.glob(".state.kv.*.tmp")] != []
    assert server_main(["offer", "--keystore", str(ws / "server.kv"), "--grant-id", "g1",
                        "--out", str(ws / "offer.kv")]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"), "--start",
                   DAY1.isoformat(), "--today", D(2).isoformat(), "--out", str(ws / "grant.kv")) == 0
    assert [p.name for p in ws.glob(".*.tmp")] == []
    assert not any(root in p.read_text() for p in ws.iterdir() if p.is_file())


def test_offer_run_again_after_a_kill_writes_the_same_offer(ws):
    """Killed at the offer file's rename, `offer` has saved the new
    ephemeral key and written no offer. Run again with the same grant id,
    it writes the offer from that key, mints none and exits 0, and the
    grant id can still be answered."""
    offer = ["offer", "--keystore", str(ws / "server.kv"), "--grant-id", "g1",
             "--out", str(ws / "offer.kv")]
    assert _killed_at_rename("offer.kv", lambda: server_main(offer)) == 137
    keystore = (ws / "server.kv").read_bytes()
    assert not (ws / "offer.kv").exists() and b"eph.g1=" in keystore
    assert server_main(offer) == 0
    assert (ws / "server.kv").read_bytes() == keystore
    eph_pub = parse_kv(keystore.decode())["eph.g1"].split(",")[1]
    assert parse_kv((ws / "offer.kv").read_text())["server_eph_pub"] == eph_pub
    assert server_main(offer) == 0 and (ws / "server.kv").read_bytes() == keystore
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"), "--start",
                   DAY1.isoformat(), "--today", DAY1.isoformat(), "--out", str(ws / "grant.kv")) == 0
    assert server_main(["accept", "--keystore", str(ws / "server.kv"), "--grant",
                        str(ws / "grant.kv"), "--expect-device", "pixel-lab",
                        "--out", str(ws / "window.kv")]) == 0


def _crash_at_write(monkeypatch, crash_at, run):
    """Run `run` with the CLI's `crash_at`-th file write raising OSError:
    an `atomic_write` before it writes, an `atomic_writer` before it
    replaces its file. Writes count in the order they complete."""
    import privlog.client_cli
    import privlog.server_cli

    cli_mods = (privlog.client_cli, privlog.server_cli)
    real_atomic_write, real_atomic_writer = privlog.kvfile.atomic_write, privlog.kvfile.atomic_writer
    calls = {"n": 0}

    def crash_if_due():
        calls["n"] += 1
        if calls["n"] == crash_at:
            raise OSError("injected crash")

    def crashing(path, text):
        crash_if_due()
        real_atomic_write(path, text)

    @contextlib.contextmanager
    def crashing_writer(path):
        with real_atomic_writer(path) as fh:
            yield fh
            crash_if_due()

    for cli_mod in cli_mods:
        monkeypatch.setattr(cli_mod, "atomic_write", crashing)
        monkeypatch.setattr(cli_mod, "atomic_writer", crashing_writer)
    with pytest.raises(OSError):
        run()
    for cli_mod in cli_mods:
        monkeypatch.setattr(cli_mod, "atomic_write", real_atomic_write)
        monkeypatch.setattr(cli_mod, "atomic_writer", real_atomic_writer)


def test_grant_crash_atomicity(ws, monkeypatch):
    """A crash between the state rotation and the grant write must never
    leave both the old epoch on disk and a released grant file. After a
    crash at the grant write, the rotated state holds the grant: `grant` on
    the same offer writes it again, byte for byte, and exits 0, so accept
    and recover open the old epoch's fields. The next grant replaces it."""
    (ws / "raw.log").write_text("05-01 10:00:00.000  1000  1000 I T: mail alice@example.com\n")
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    assert _client(ws, "protect", "--in", str(ws / "raw.log"), "--out", str(ws / "prot.log")) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-crash", "--out", str(ws / "offer.kv"),
    ]) == 0
    state_before = (ws / "state.kv").read_text()
    grant = ["grant", "--server-offer", str(ws / "offer.kv"), "--start", DAY1.isoformat(),
             "--today", DAY1.isoformat(), "--out", str(ws / "grant.kv")]

    for crash_at in (1, 2):  # 1: state write, 2: grant write
        (ws / "state.kv").write_text(state_before)
        (ws / "grant.kv").unlink(missing_ok=True)
        _crash_at_write(monkeypatch, crash_at, lambda: _client(ws, *grant))

        state_now = (ws / "state.kv").read_text()
        grant_released = (ws / "grant.kv").exists()
        old_epoch_on_disk = state_now == state_before
        assert not (grant_released and old_epoch_on_disk)

    rotated = (ws / "state.kv").read_bytes()
    assert set(parse_kv(rotated.decode(), "state")) == STATE_KEYS | PENDING_GRANT_KEYS
    assert not (ws / "grant.kv").exists()
    assert _client(ws, *grant) == 0
    released = (ws / "grant.kv").read_bytes()
    assert _client(ws, *grant) == 0
    assert (ws / "grant.kv").read_bytes() == released
    assert (ws / "state.kv").read_bytes() == rotated
    assert server_main(["accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
                        "--expect-device", "pixel-lab", "--out", str(ws / "window.kv")]) == 0
    assert _recover(ws, "prot.log", "events.csv") == 0
    rows = (ws / "events.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1:3] for row in rows] == [[DAY1.isoformat(), "EMAIL"]]

    assert server_main(["offer", "--keystore", str(ws / "server.kv"), "--grant-id", "g-next",
                        "--out", str(ws / "offer2.kv")]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer2.kv"), "--start", D(2).isoformat(),
                   "--today", D(2).isoformat(), "--out", str(ws / "grant2.kv")) == 0
    pending = parse_kv((ws / "state.kv").read_text(), "state")["pending_grant"]
    assert base64.b64decode(pending) == (ws / "grant2.kv").read_bytes() != released


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
        fh.write(EVENTS_HEADER_LINE)
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
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-accept", "--out", str(ws / "offer.kv"),
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
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
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
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    (ws / "one.log").write_text("05-01 10:00:00.000  1000  1000 I T: mail a@b.co\n")
    assert _client(ws, "protect", "--in", str(ws / "one.log"), "--out", str(ws / "one.out")) == 0
    (ws / "window.kv").write_text("v=1\ngrant_id=g-files\n")
    with open(ws / "events.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(EVENTS_HEADER_LINE)
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
    "init-state-lock": lambda ws, p: _client(
        ws, "--state", p, "init", "--force", "--today", DAY1.isoformat()),
    "keygen-keystore-lock": lambda ws, p: server_main(
        ["keygen", "--keystore", p, "--server-id", "lab-server"]),
}


@pytest.mark.parametrize("case", sorted(_FILE_CASES))
def test_missing_file_or_directory_exits_6(ws, capsys, case):
    """An input that does not exist, or an output, a state or a keystore
    (whose lock file is made first) in a directory that does not, is
    CorruptState naming the path given, not a traceback."""
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
    ("client", "init --today 2024-05-01"),
    ("client", "protect --in raw.log --out prot.log"),
    ("server", "offer --keystore server.kv --grant-id g-chain --out offer.kv"),
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


# One value of each type, each planted on a line of its own on both days.
_PLANTED = ["carol.hidden@example.org", "555-867-5309", "352099001761481", "a4:6b:09:1f:00:ff",
            "10.20.30.40", "2001:0db8:85a3:0000:0000:8a2e:0370:7334",
            "https://h.example/x?tok=s3cr3t", "123-45-6789", "4111111111111111", "SN-7YQ2MKP0XR55"]
# A line of a file the CLIs keep whose value is a secret: a state key, the
# UDS, a server private key (an ephemeral entry's first half) or a day key.
_SECRET_LINE = re.compile(r"^(root_key|hash_key|chain_key|uds|longterm_priv|eph\.[\w.-]+|key\.[\d-]+)"
                          r"=([^,\n]*).*\n", re.M)


def _secrets_in(ws) -> set:
    """The secrets in the workspace's key files. An ephemeral entry joined
    to its key reads as an empty value, which is no secret."""
    return {raw for name in ("identity.kv", "state.kv", "server.kv", "other.kv", "window.kv")
            if (ws / name).exists()
            for m in _SECRET_LINE.finditer((ws / name).read_text())
            if (raw := base64.b64decode(m.group(2)))}


def test_no_command_prints_a_planted_value_or_a_secret(ws, capsys):
    """Every command, and every exit 6 on a state, keystore, identity or
    window keys file with a secret line cut, stripped of its key or joined
    to it, prints on stdout and stderr neither a planted plaintext nor the
    raw, hex or base64 form (or a prefix of one) of the UDS, the CDI, a
    state key, a day key or a server private key."""
    from privlog.dice import derive_cdi, parse_identity

    (ws / "raw.log").write_text("".join(
        f"{day} 10:00:{n:02d}.000  1000  1000 I T: value {value} seen\n"
        for day in ("05-01", "05-02") for n, value in enumerate(_PLANTED)))
    secrets = {derive_cdi(parse_identity((ws / "identity.kv").read_text())).bytes}
    printed = []

    def run(outcome, call):
        capsys.readouterr()
        assert call() == outcome
        printed.extend(capsys.readouterr())
        secrets.update(_secrets_in(ws))

    for n in range(len(_CHAIN)):
        run(0, lambda: _step(ws, n))
    run(0, lambda: _client(ws, "state"))
    run(0, lambda: server_main(["keygen", "--keystore", str(ws / "other.kv")]))
    run(0, lambda: server_main(["offer", "--keystore", str(ws / "server.kv"), "--grant-id", "g-more",
                                "--out", str(ws / "offer2.kv")]))
    groups = (ws / "linkage.csv").read_text().splitlines()[1:]
    assert len(groups) == len(_PLANTED)
    for group in groups:
        run(0, lambda: server_main(["report", "--events", str(ws / "events.csv"),
                                    "--timeline", group.split(",")[0]]))

    readers = {
        "state.kv": lambda: _client(ws, "state"),
        "identity.kv": lambda: _client(ws, "state"),
        "server.kv": lambda: server_main(["offer", "--keystore", str(ws / "server.kv"),
                                          "--grant-id", "g-x", "--out", str(ws / "x.kv")]),
        "window.kv": lambda: server_main(["recover", "--keys", str(ws / "window.kv"),
                                          "--in", str(ws / "prot.log"), "--out", str(ws / "x.csv")]),
    }
    for name, reader in readers.items():
        good = (ws / name).read_text()
        for line in (m.group(0) for m in _SECRET_LINE.finditer(good)):
            # Stripped of its key, cut short, or joined to its key: a secret
            # that lost its first '=' keeps its padding, so it reads as a key.
            for bad in (line.partition("=")[2].replace("=", ""), line[:-5] + "\n",
                        line.replace("=", "", 1)):
                (ws / name).write_text(good.replace(line, bad))
                run(6, reader)
        (ws / name).write_text(good)

    text = "".join(printed)
    assert [value for value in _PLANTED if value in text] == []
    assert len(secrets) > 10
    leaked = [raw for raw in secrets
              if raw.decode("latin-1") in text or raw.hex()[:32] in text or b64(raw)[:24] in text]
    assert leaked == []


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
        fh.write(EVENTS_HEADER_LINE)
        write_events_csv([(1, DAY1, 'uid=1000, msg "hi" <PII#0>',
                           [(PiiType.EMAIL, b"\x07" * 16)])], fh)
    text = (ws / "events.csv").read_bytes()
    (ws / "cut.csv").write_bytes(text[:text.index(b"msg")])
    capsys.readouterr()
    assert server_main(["report", "--events", str(ws / "cut.csv"),
                        "--out", str(ws / "x.csv"), *timeline]) == 6
    assert "events csv" in capsys.readouterr().err
    assert not (ws / "x.csv").exists()


@pytest.mark.parametrize("timeline", [[], ["--timeline", _TOKEN]], ids=["linkage", "timeline"])
def test_report_cut_inside_unquoted_template_exits_6(ws, capsys, timeline):
    """An events CSV whose last line has no newline was cut, even where the
    cut leaves a row that parses: it is CorruptState, not a shorter template."""
    with open(ws / "events.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(EVENTS_HEADER_LINE)
        write_events_csv([(1, DAY1, "mail <PII#0> sent to the relay",
                           [(PiiType.EMAIL, b"\x07" * 16)])], fh)
    text = (ws / "events.csv").read_bytes()
    (ws / "cut.csv").write_bytes(text[:text.index(b"sent")])
    capsys.readouterr()
    assert server_main(["report", "--events", str(ws / "cut.csv"),
                        "--out", str(ws / "x.csv"), *timeline]) == 6
    out, err = capsys.readouterr()
    assert "events csv" in err and "newline" in err
    assert out == ""
    assert not (ws / "x.csv").exists()


def test_exit_code_bad_expect_attest(ws, capsys):
    """An `--expect-attest` that is not base64, or not 32 bytes of it, is
    CorruptState naming the flag; no window is written, the offer stays."""
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-attest", "--out", str(ws / "offer.kv"),
    ]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"),
                   "--start", DAY1.isoformat(), "--today", DAY1.isoformat(),
                   "--out", str(ws / "grant.kv")) == 0
    keystore = (ws / "server.kv").read_bytes()
    for attest in ("not*base64", _SHORT_KEY):
        capsys.readouterr()
        assert server_main([
            "accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
            "--expect-device", "pixel-lab", "--expect-attest", attest,
            "--out", str(ws / "window.kv"),
        ]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error CorruptState: ") and "--expect-attest" in err
        assert not (ws / "window.kv").exists()
        assert (ws / "server.kv").read_bytes() == keystore


def test_short_offer_key_exits_6(ws, capsys):
    """A `server_eph_pub=` of 31 bytes in an offer file is CorruptState
    naming the field: the state does not rotate and no grant is written."""
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    (ws / "offer.kv").write_text(f"grant_id=g-short\nserver_eph_pub={_SHORT_KEY}\n")
    state = (ws / "state.kv").read_bytes()
    capsys.readouterr()
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"),
                   "--start", DAY1.isoformat(), "--today", DAY1.isoformat(),
                   "--out", str(ws / "grant.kv")) == 6
    err = capsys.readouterr().err
    assert err.startswith("error CorruptState: ") and "server_eph_pub" in err
    assert (ws / "state.kv").read_bytes() == state
    assert not (ws / "grant.kv").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_init_short_server_pub_exits_6(ws, capsys, via):
    """A server long-term key of 31 bytes, from `--server-pub` or from the
    config's `server_pub=`, is CorruptState naming it; no state is written."""
    argv = ["init", "--today", DAY1.isoformat()]
    if via == "flag":
        argv = ["--server-pub", _SHORT_KEY, *argv]
    else:
        cfg = (ws / "client.cfg").read_text()
        server_pub = parse_kv(cfg, "cfg")["server_pub"]
        (ws / "client.cfg").write_text(cfg.replace(server_pub, _SHORT_KEY))
    capsys.readouterr()
    assert _client(ws, *argv) == 6
    err = capsys.readouterr().err
    assert err.startswith("error CorruptState: ") and "server_pub" in err
    assert not (ws / "state.kv").exists()


_ZERO_KEY = base64.b64encode(bytes(32)).decode()  # a low-order X25519 point
_LONG = "a" * 70_000  # longer than a 2-byte length prefix can hold


@pytest.mark.parametrize("command, field, value, cause", [
    ("init", "server_pub", _ZERO_KEY, "weak"),
    ("grant", "server_eph_pub", _ZERO_KEY, "weak"),
    ("grant", "grant_id", _LONG, "longer than"),
    ("grant", "grant_id", "g\u00e9", "must be [A-Za-z0-9._-]+"),
    ("grant", "grant_id", "", "must be [A-Za-z0-9._-]+"),
    ("accept", "client_eph_pub", _ZERO_KEY, "weak"),
    ("accept", "server_id", _LONG, "longer than"),
], ids=["init-weak-server_pub", "grant-weak-server_eph_pub", "grant-long-grant_id",
        "grant-non-ascii-grant_id", "grant-empty-grant_id",
        "accept-weak-client_eph_pub", "accept-long-server_id"])
def test_rejected_input_exits_6_and_writes_nothing(ws, capsys, command, field, value, cause):
    """`field=` set to `value` in the file `command` reads (config, offer or
    grant) is a rejected input: CorruptState, exit 6, a message naming
    `cause`, and every file in the workspace, the state and the keystore
    among them, stays as it was. An offer's grant id is held to the rule
    the server's `offer` keeps, so an offer no server could have made
    rotates nothing."""
    def swap(path):
        text = path.read_text()
        old = parse_kv(text, "f")[field]
        path.write_text(text.replace(f"{field}={old}\n", f"{field}={value}\n"))

    init = ["init", "--today", DAY1.isoformat()]
    grant = ["grant", "--server-offer", str(ws / "offer.kv"), "--start", DAY1.isoformat(),
             "--today", DAY1.isoformat(), "--out", str(ws / "grant.kv")]
    accept = ["accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
              "--expect-device", "pixel-lab", "--out", str(ws / "window.kv")]
    if command == "init":
        swap(ws / "client.cfg")
        run = lambda: _client(ws, *init)
    else:
        assert _client(ws, *init) == 0
        assert server_main(["offer", "--keystore", str(ws / "server.kv"), "--grant-id", "g-bad",
                            "--out", str(ws / "offer.kv")]) == 0
        if command == "grant":
            swap(ws / "offer.kv")
            run = lambda: _client(ws, *grant)
        else:
            assert _client(ws, *grant) == 0
            swap(ws / "grant.kv")
            run = lambda: server_main(accept)
    before = {p.name: p.read_bytes() for p in ws.iterdir()}
    capsys.readouterr()
    assert run() == 6
    err = capsys.readouterr().err
    assert err.startswith("error CorruptState: ") and cause in err
    assert {p.name: p.read_bytes() for p in ws.iterdir()} == before


def _files(ws) -> dict:
    """Each file under `ws` by its relative path, with its bytes; None for a directory."""
    return {str(p.relative_to(ws)): p.read_bytes() if p.is_file() else None
            for p in ws.rglob("*")}


_PATH_CASES = ["identity-nul", "state-nul", "protect-out-dir", "offer-out-dir",
               "keygen-keystore-dir", "grant-out-dir"]


@pytest.mark.parametrize("case", _PATH_CASES)
def test_unusable_path_exits_6_and_writes_nothing(ws, capsys, case):
    """A path with a NUL byte in the client config, or an output that is an
    existing directory, exits 6 naming the path, with no traceback; every
    file stays as it was: an `--out` is refused before anything is written,
    so `offer` does not write its keystore. The same grant to a usable path
    then succeeds."""
    cfg = ws / "client.cfg"
    out = ws / "out.d"
    out.mkdir()
    raw = ws / "raw.log"
    raw.write_text("2024-05-01 12:00:00.000 I T: mail a@b.org\n")
    offer = ["offer", "--keystore", str(ws / "server.kv"), "--grant-id", "g-path"]
    grant = ["grant", "--server-offer", str(ws / "offer.kv"), "--start", DAY1.isoformat(),
             "--today", DAY1.isoformat(), "--out"]
    if case.endswith("-nul"):
        key = case[: -len("-nul")]
        path = str(ws / f"{key}\x00.kv")
        fields = parse_kv(cfg.read_text(), "cfg")
        cfg.write_text(cfg.read_text().replace(f"{key}={fields[key]}\n", f"{key}={path}\n"))
        run = lambda: _client(ws, "init", "--today", DAY1.isoformat())
    else:
        path = str(out)
        assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
        if case == "protect-out-dir":
            run = lambda: _client(ws, "protect", "--in", str(raw), "--out", path)
        elif case == "offer-out-dir":
            run = lambda: server_main([*offer, "--out", path])
        elif case == "keygen-keystore-dir":
            run = lambda: server_main(["keygen", "--keystore", path, "--force"])
        else:
            assert server_main([*offer, "--out", str(ws / "offer.kv")]) == 0
            run = lambda: _client(ws, *grant, path)
    before = _files(ws)
    capsys.readouterr()
    assert run() == 6
    err = capsys.readouterr().err
    assert err.startswith("error CorruptState: ") and repr(path) in err
    assert "Traceback" not in err and ".tmp" not in err
    assert _files(ws) == before
    if case == "grant-out-dir":
        assert _client(ws, *grant, str(ws / "grant.kv")) == 0


def _init_and_offer(ws) -> None:
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    assert server_main(["offer", "--keystore", str(ws / "server.kv"), "--grant-id", "g-1",
                        "--out", str(ws / "offer.kv")]) == 0


@pytest.mark.parametrize("command", ["init", "grant", "keygen", "offer"])
def test_seed_is_a_usage_error(ws, capsys, command):
    """No command takes a key seed: `--seed` is an argparse usage error that
    exits 2 and writes nothing, and the same command without it exits 0."""
    if command != "init":
        _init_and_offer(ws)
    run, argv = {
        "init": (lambda a: _client(ws, *a), ["init", "--today", DAY1.isoformat()]),
        "grant": (lambda a: _client(ws, *a), [
            "grant", "--server-offer", str(ws / "offer.kv"), "--start", DAY1.isoformat(),
            "--today", DAY1.isoformat(), "--out", str(ws / "grant.kv")]),
        "keygen": (server_main, ["keygen", "--keystore", str(ws / "other.kv")]),
        "offer": (server_main, ["offer", "--keystore", str(ws / "server.kv"), "--grant-id", "g-2",
                                "--out", str(ws / "offer2.kv")]),
    }[command]
    before = {p.name: p.read_bytes() for p in ws.iterdir()}
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--seed", "07" * 32])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in ws.iterdir()} == before
    assert run(argv) == 0


@pytest.mark.parametrize("server_id", ["ops ", "ops\t", "ops\nv=9", "ops\rx", "ops\u2028x"],
                         ids=["space", "tab", "newline", "carriage-return", "line-separator"])
@pytest.mark.parametrize("command", ["keygen", "grant"])
def test_server_id_its_file_cannot_hold_exits_6(ws, capsys, command, server_id):
    """A `--server-id` that the keystore or the grant file would not read
    back as written exits 6 naming the field: no file is written, and a
    refused grant leaves the state byte-identical, so no epoch is lost."""
    if command == "keygen":
        run = lambda: server_main(["keygen", "--keystore", str(ws / "other.kv"),
                                   "--server-id", server_id])
    else:
        _init_and_offer(ws)
        run = lambda: _client(ws, "--server-id", server_id, "grant", "--server-offer",
                              str(ws / "offer.kv"), "--start", DAY1.isoformat(),
                              "--today", DAY1.isoformat(), "--out", str(ws / "grant.kv"))
    before = {p.name: p.read_bytes() for p in ws.iterdir()}
    capsys.readouterr()
    assert run() == 6
    err = capsys.readouterr().err
    assert err.startswith("error CorruptState: ") and "'server_id'" in err
    assert {p.name: p.read_bytes() for p in ws.iterdir()} == before


def test_readme_exit_codes_match_error_classes():
    """Every error class sets its own `exit_code`, one class per code, and
    the README's "Exit codes" paragraph lists, as `N` ClassName, each class
    and no pair that is not a class's code."""
    from privlog import errors

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = re.search(r"^Exit codes.*?(?=\n\n)", readme, re.M | re.S).group(0)
    listed = [(int(code), name) for code, name in re.findall(r"`(\d+)`\s+([A-Z]\w*)", paragraph)]
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.PrivlogError)}
    assert [name for name, cls in classes.items() if "exit_code" not in vars(cls)] == []
    own = [(cls.exit_code, name) for name, cls in classes.items()]
    assert len({code for code, _ in own}) == len(own) == 7
    assert [pair for pair in own if pair not in listed] == []
    assert [(code, name) for code, name in listed
            if name not in classes or classes[name].exit_code != code] == []


_LONG_OPTION = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


def _help(main, argv, capsys) -> str:
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main([*argv, "--help"])
    return capsys.readouterr().out


def test_readme_names_every_cli_option(capsys):
    """The README's CLI section names each long option of each command, as
    `--help` lists it, and no option that no command has."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.search(r"^## CLI walkthrough\n(.*?)^## ", readme, re.M | re.S).group(1)
    options = set()
    for main in (client_main, server_main):
        top = _help(main, [], capsys)
        commands = re.search(r"\{([\w,]+)\}", top).group(1).split(",")
        for text in [top, *(_help(main, [c], capsys) for c in commands)]:
            options |= set(_LONG_OPTION.findall(text))
    options.discard("--help")
    assert options == set(_LONG_OPTION.findall(section))


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
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
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
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    (ws / "one.log").write_text("05-01 10:00:00.000  1000  1000 I T: mail a@b.co\n")
    capsys.readouterr()
    assert _client(ws, "protect", "--in", str(ws / "one.log"), "--out", str(ws / "one.out")) == 0
    m = re.search(r"latency median/p95/p99: (\S+) / (\S+) / (\S+) ms", capsys.readouterr().out)
    assert m and m.group(1) == m.group(2) == m.group(3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**40) | st.integers(min_value=0, max_value=200),
                min_size=1, max_size=50))
def test_latency_percentiles_within_a_sixty_fourth(samples):
    """Each percentile is within 1/64 of the sample of its nearest rank."""
    counts = [0] * _BUCKETS
    for ns in samples:
        counts[_bucket(ns)] += 1
    ordered = sorted(samples)
    percents = (50, 95, 99)
    for p, value in zip(percents, _percentiles(counts, percents)):
        exact = ordered[max(1, math.ceil(len(samples) * p / 100)) - 1]
        assert abs(value - exact) <= exact / 64


def test_protect_without_year_reads_dates_nearest_today(ws):
    """A device idle for 300 days protects today's year-less lines as today's."""
    cfg = ws / "client.cfg"
    cfg.write_text(cfg.read_text().replace("assumed_year=2024\n", ""))
    today = date.today()
    last_use = today - timedelta(days=300)
    assert _client(ws, "init", "--today", last_use.isoformat()) == 0
    (ws / "raw.log").write_text(f"{today:%m-%d} 10:00:00.000  1000  1000 I T: mail a@b.co\n")
    assert _client(ws, "protect", "--in", str(ws / "raw.log"), "--out", str(ws / "raw.out")) == 0
    assert parse_kv((ws / "state.kv").read_text(), "state")["chain_date"] == today.isoformat()


@pytest.mark.parametrize("year", [[], ["--year", "2025"]], ids=["default", "2025"])
def test_recover_december_lines_before_january_window(ws, year):
    """Lines from 12-30 to 01-02 under a window from 2025-01-01: January recovers."""
    assert _client(ws, "init", "--today", "2024-12-30") == 0
    (ws / "raw.log").write_text("".join(
        f"{day} 10:00:00.000  1000  1000 I T: mail a@b.co\n"
        for day in ["12-30", "12-31", "01-01", "01-02"]
    ))
    assert _client(ws, "protect", "--in", str(ws / "raw.log"), "--out", str(ws / "prot.log")) == 0
    assert server_main([
        "offer", "--keystore", str(ws / "server.kv"),
        "--grant-id", "g-year", "--out", str(ws / "offer.kv"),
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
    (f"{base64.b64encode(bytes(30)).decode()},{_PUB32}", "has 30 bytes, expected 32"),
], ids=["no-comma", "bad-base64", "30-byte-key"])
def test_bad_ephemeral_entry_is_corrupt_state(ws, capsys, entry, cause):
    keystore = ws / "server.kv"
    keystore.write_text(keystore.read_text() + f"eph.g-old={entry}\n")
    with pytest.raises(CorruptState, match=cause):
        load_server_keys(keystore.read_text())
    assert server_main([
        "offer", "--keystore", str(keystore), "--grant-id", "g-new", "--out", str(ws / "offer.kv"),
    ]) == 6
    err = capsys.readouterr().err
    assert "an ephemeral entry " in err and "g-old" not in err


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_timeline_is_valid_csv(ws, capsys, to_file):
    """A template holding ',' and '"' reads back as one column, unchanged."""
    template = 'uid=1000, msg "hi" <PII#0>'
    token = b"\x07" * 16
    with open(ws / "events.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(EVENTS_HEADER_LINE)
        write_events_csv([(1, DAY1, template, [(PiiType.EMAIL, token)])], fh)
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
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
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
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
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
    assert _client(ws, "init", "--today", "20240501") == 6
    assert not (ws / "state.kv").exists()


@pytest.mark.parametrize("config_year, argv", [
    ("abc", ["state"]),
    ("abc", ["protect", "--in", "one.log", "--out", "one.out"]),
    ("2024", ["--year", "0", "protect", "--in", "one.log", "--out", "one.out"]),
], ids=["config-state", "config-protect", "flag-protect"])
def test_client_bad_year_exits_6(ws, config_year, argv):
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
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
    call made some other way would bypass the patch and read as 0 calls.
    Each engine reads a line's date in one traced call, once per line that
    does not start with the date text of the line before (every line here
    is dated, in order and inside the epoch, so that is the last dated
    line's): `protect` on each input line and a serial `recover` on each
    protected line, "<PII" or not, by the one date rule."""
    calls = Counter()
    for target, attr, _ in _trace_targets():
        module, _, cls = target.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner

        def counted(*args, _fn=getattr(owner, attr), _key=f"{target}.{attr}", **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    _write_log(ws / "raw.log", BenchConfig(line_count=100, pii_density="medium", day_span=3,
                                           seed=5))
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    assert _client(ws, "protect", "--in", str(ws / "raw.log"), "--out", str(ws / "prot.log")) == 0
    assert server_main(["offer", "--keystore", str(ws / "server.kv"), "--grant-id", "g-trace",
                        "--out", str(ws / "offer.kv")]) == 0
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
    raw = (ws / "raw.log").read_text().splitlines()
    dates = [oracles.extract_date(line, 2024) for line in raw]
    assert None not in dates and dates == sorted(dates) and dates[0] >= DAY1
    new_text = [n == 0 or line[:5] != raw[n - 1][:5] for n, line in enumerate(raw)]
    assert calls["privlog.client.extract_date"] == sum(new_text) == len(set(dates)) < len(raw)
    assert calls["privlog.server.extract_date"] == sum(new_text)


# --- the read side streams ------------------------------------------------


def _investigate(ws, raw: str, start: date, today: date) -> None:
    """init on DAY1, protect `raw` to prot.log, then a grant for
    [start, today] accepted into window.kv."""
    (ws / "raw.log").write_text(raw)
    assert _client(ws, "init", "--today", DAY1.isoformat()) == 0
    assert _client(ws, "protect", "--in", str(ws / "raw.log"), "--out", str(ws / "prot.log")) == 0
    assert server_main(["offer", "--keystore", str(ws / "server.kv"), "--grant-id", "g-read",
                        "--out", str(ws / "offer.kv")]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"), "--start", start.isoformat(),
                   "--today", today.isoformat(), "--out", str(ws / "grant.kv")) == 0
    assert server_main(["accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
                        "--expect-device", "pixel-lab", "--out", str(ws / "window.kv")]) == 0


def _dense_investigation(ws) -> None:
    _write_log(ws / "corpus.log", BenchConfig(line_count=300, pii_density="high", day_span=3,
                                              seed=13))
    _investigate(ws, (ws / "corpus.log").read_text(), DAY1, D(3))


def _recover(ws, infile: str, out: str) -> int:
    return server_main(["recover", "--keys", str(ws / "window.kv"), "--in", str(ws / infile),
                        "--out", str(ws / out), "--year", "2024"])


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        assert run() == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_recover_and_report_memory_stays_flat(ws):
    """`recover` holds one line's events and `report` one group per distinct
    token: on the same log repeated 8 times, neither peak grows by half."""
    _dense_investigation(ws)
    (ws / "prot8.log").write_bytes((ws / "prot.log").read_bytes() * 8)
    assert _recover(ws, "prot.log", "warm.csv") == 0  # first-call caches out of the figures
    peaks = {}
    for name in ("prot", "prot8"):
        peaks[f"recover-{name}"] = _peak_bytes(lambda: _recover(ws, f"{name}.log", f"{name}.csv"))
        peaks[f"report-{name}"] = _peak_bytes(lambda: server_main(
            ["report", "--events", str(ws / f"{name}.csv"), "--out", str(ws / f"{name}.linkage.csv")]))
    assert (ws / "prot8.csv").stat().st_size > 7 * (ws / "prot.csv").stat().st_size
    for step in ("recover", "report"):
        assert peaks[f"{step}-prot8"] < 1.5 * peaks[f"{step}-prot"], peaks


def _no_trace_of_the_run(ws, capsys, target, before: bytes) -> str:
    """Asserts a failed run left no output and no temp file; returns stderr."""
    out, err = capsys.readouterr()
    assert err.startswith("error CorruptState: ")
    assert out == ""
    assert target.read_bytes() == before
    assert not list(ws.glob(".*.tmp"))
    return err


def test_recover_late_bad_byte_keeps_previous_events(ws, capsys):
    """A byte that is not UTF-8 on the last input line, after many rows went
    out: exit 6, the previous events CSV as it was, no temp file, no summary."""
    _dense_investigation(ws)
    prot = (ws / "prot.log").read_bytes()
    (ws / "late.log").write_bytes(prot + b"05-03 10:00:00.000  1000  1000 I T: caf\xe9\n")
    target = ws / "events.csv"
    target.write_bytes(b"line_no,date\r\nprevious,run\r\n")
    capsys.readouterr()
    assert _recover(ws, "late.log", "events.csv") == 6
    err = _no_trace_of_the_run(ws, capsys, target, b"line_no,date\r\nprevious,run\r\n")
    assert f"line {len(prot.splitlines()) + 1} is not valid UTF-8" in err
    assert _recover(ws, "prot.log", "whole.csv") == 0
    assert (ws / "whole.csv").stat().st_size > 64 * 1024  # past any write buffer


@pytest.mark.parametrize("timeline", [[], ["--timeline"], ["--timeline", "--out"]],
                         ids=["linkage", "timeline-stdout", "timeline-out"])
def test_report_late_corrupt_row_keeps_previous_output(ws, capsys, timeline):
    """A corrupt last row of a long events CSV: exit 6 before any output,
    the previous output as it was, no temp file, nothing on stdout."""
    _dense_investigation(ws)
    assert _recover(ws, "prot.log", "events.csv") == 0
    events = (ws / "events.csv").read_text(encoding="utf-8")
    rows = events.splitlines()
    token = rows[1].split(",")[3]
    (ws / "late.csv").write_text(events + f"9999,2024-05-32,EMAIL,{token},t\r\n", encoding="utf-8")
    target = ws / "linkage.csv"
    target.write_bytes(b"token_b64\r\nprevious\r\n")
    argv = ["report", "--events", str(ws / "late.csv")]
    if timeline:
        argv += ["--timeline", token]
    if timeline != ["--timeline"]:
        argv += ["--out", str(target)]
    capsys.readouterr()
    assert server_main(argv) == 6
    _no_trace_of_the_run(ws, capsys, target, b"token_b64\r\nprevious\r\n")
    assert len(rows) > 500


def test_recover_summary_matches_library_counts(ws, capsys):
    """The CLI's summary counts what `recover_tokens` counts, on a log with
    lines out of the window, undated, tampered, malformed and PII-free."""
    raw = "".join(
        f"05-0{day} 10:00:0{n}.000  1000  1000 I T: mail u{day}{n}@b.co and 10.0.0.{n}\n"
        for day in (1, 2, 3) for n in range(3)
    ) + "    at com.example.Mailer.send(user9@test.org)\n" \
        "05-03 11:00:00.000  1000  1000 I T: nothing to see\n"
    _investigate(ws, raw, D(2), D(3))
    lines = (ws / "prot.log").read_text().splitlines(keepends=True)
    payload = re.search(r'<PII type="EMAIL">([^<]{60})</PII>', lines[4]).group(1)
    flipped = payload[:20] + ("A" if payload[20] != "A" else "B") + payload[21:]
    lines[4] = lines[4].replace(payload, flipped)
    lines.append(f'    at <PII type="EMAIL">{flipped}</PII>\n')  # undated: no key opens it
    lines[5] = lines[5].replace("mail ", 'mail <PII type="EMAIL">short</PII> ', 1)
    (ws / "mixed.log").write_text("".join(lines))

    from privlog.server import load_window_keys, recover_tokens

    window = load_window_keys((ws / "window.kv").read_text())
    with open(ws / "mixed.log", encoding="utf-8", newline="") as fh:
        events, skipped = recover_tokens(window, fh, 2024)
    assert all(skipped.values()), skipped  # every reason occurs
    capsys.readouterr()
    assert _recover(ws, "mixed.log", "events.csv") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"recovered {len(events)} tokens -> {ws / 'events.csv'}"
    assert out[1:] == [f"  skipped {reason}: {count}" for reason, count in skipped.items()]
    assert (ws / "events.csv").read_text().count("\n") == len(events) + 1


@pytest.mark.parametrize("argv, what", [
    (["--timeline", "AAAA"], "--timeline token"),
    ([], "--out"),
], ids=["short-token", "no-out"])
def test_report_checks_arguments_before_reading(ws, capsys, argv, what):
    """A bad --timeline token or a missing --out is named before the events
    file is opened: here that file does not exist."""
    assert server_main(["report", "--events", str(ws / "missing.csv"), *argv]) == 6
    out, err = capsys.readouterr()
    assert out == "" and what in err and "missing.csv" not in err


# Stdlib hashing maps a second OpenSSL beside the one in `cryptography`.
STDLIB_HASHING = ["_hashlib", "hashlib", "hmac", "secrets"]


def test_cli_imports_no_dataclasses_or_serialization():
    """Both CLIs start without the `dataclasses` import chain (`inspect`,
    `ast`, `dis`, `tokenize`), without `cryptography`'s serialization
    package, which reaches it through its `ssh` module, and without stdlib
    hashing."""
    env = dict(os.environ, PYTHONPATH=str(Path(privlog.__file__).parents[1]))
    unwanted = ["dataclasses", "cryptography.hazmat.primitives.serialization", "statistics",
                *STDLIB_HASHING]
    code = ("import privlog.cli, privlog.client_cli, privlog.server_cli, sys; "
            f"print([m for m in {unwanted!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_cli_commands_load_no_stdlib_hashing(ws):
    """Every command runs in one child without loading stdlib hashing or
    `secrets`; an import-only check misses a module a command loads late."""
    _write_log(ws / "raw.log", BenchConfig(line_count=60, pii_density="high", day_span=3, seed=5))
    cfg, ks = ["--config", str(ws / "client.cfg")], ["--keystore", str(ws / "server.kv")]
    p = {name: str(ws / name) for name in
         ("raw.log", "protected.log", "offer.kv", "grant.kv", "window.kv", "events.csv",
          "linkage.csv", "other.kv")}
    commands = [
        ("client", [*cfg, "init", "--today", D(1).isoformat()]),
        ("client", [*cfg, "protect", "--in", p["raw.log"], "--out", p["protected.log"]]),
        ("server", ["keygen", "--keystore", p["other.kv"]]),
        ("server", ["offer", *ks, "--grant-id", "case-1", "--out", p["offer.kv"]]),
        ("client", [*cfg, "grant", "--server-offer", p["offer.kv"], "--start", D(1).isoformat(),
                    "--today", D(3).isoformat(), "--out", p["grant.kv"]]),
        ("server", ["accept", *ks, "--grant", p["grant.kv"], "--expect-device", "pixel-lab",
                    "--out", p["window.kv"]]),
        ("server", ["recover", "--keys", p["window.kv"], "--in", p["protected.log"],
                    "--out", p["events.csv"], "--year", "2024"]),
        ("server", ["report", "--events", p["events.csv"], "--out", p["linkage.csv"]]),
        ("server", ["report", "--events", p["events.csv"], "--timeline", "TOP-TOKEN"]),
        ("client", [*cfg, "state"]),
    ]
    code = f"""
import sys
from privlog.cli import client_main, server_main
for who, argv in {commands!r}:
    if argv[-1] == "TOP-TOKEN":
        argv[-1] = open({p["linkage.csv"]!r}).read().splitlines()[1].split(",")[0]
    assert (client_main if who == "client" else server_main)(argv) == 0, argv
print("loaded", [m for m in {STDLIB_HASHING!r} if m in sys.modules])
"""
    env = dict(os.environ, PYTHONPATH=str(Path(privlog.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert "date,line_no,template" in out.stdout
    assert out.stdout.splitlines()[-1] == "loaded []"


def _child(code: str) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter that imports privlog from these sources."""
    env = dict(os.environ, PYTHONPATH=str(Path(privlog.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)


_RUN_SERVER_COMMANDS = """
import sys
from privlog.cli import server_main
for argv in {argvs!r}:
    if argv[-1] == "TOP-TOKEN":
        argv[-1] = open({linkage!r}).read().splitlines()[1].split(",")[0]
    assert server_main(argv) == 0, argv
print("loaded", sorted(m for m in sys.modules if m.split(".")[0] == "cryptography"))
"""
_X25519 = "cryptography.hazmat.primitives.asymmetric.x25519"
_HKDF = "cryptography.hazmat.primitives.kdf.hkdf"
_AEAD = "cryptography.hazmat.primitives.ciphers.aead"


# Run first in a child: `report` splits any events CSV into 2 shares.
_SPLIT_REPORT = """
import os
import privlog.cli as cli
cli.SPLIT_MIN_EVENTS_BYTES = 0
cli._share_cpus = lambda: [min(os.sched_getaffinity(0))] * 2
"""


def test_forensic_commands_load_only_the_cryptography_they_call(ws):
    """`report` and `report --timeline` run in one child that loads no
    `cryptography` module at all, split into shares or not; a `recover`
    child loads the AEAD but neither X25519 nor HKDF, which only the grant
    exchange needs."""
    _dense_investigation(ws)
    p = {name: str(ws / name) for name in ("window.kv", "prot.log", "events.csv", "linkage.csv")}
    recover = ["recover", "--keys", p["window.kv"], "--in", p["prot.log"], "--out", p["events.csv"],
               "--year", "2024"]
    reports = [["report", "--events", p["events.csv"], "--out", p["linkage.csv"]],
               ["report", "--events", p["events.csv"], "--timeline", "TOP-TOKEN"]]

    out = _child(_RUN_SERVER_COMMANDS.format(argvs=[recover], linkage=p["linkage.csv"]))
    assert out.returncode == 0, out.stderr
    loaded = ast.literal_eval(out.stdout.splitlines()[-1].removeprefix("loaded "))
    assert _AEAD in loaded
    assert _X25519 not in loaded and _HKDF not in loaded

    for split in ("", _SPLIT_REPORT):
        out = _child(split + _RUN_SERVER_COMMANDS.format(argvs=reports, linkage=p["linkage.csv"]))
        assert out.returncode == 0, out.stderr
        assert "date,line_no,template" in out.stdout
        assert out.stdout.splitlines()[-1] == "loaded []"


_RUN_ONE_SIDE = """
import sys
from privlog.cli import {main}
for argv in {argvs!r}:
    if argv[-1] == "TOP-TOKEN":
        argv[-1] = open({linkage!r}).read().splitlines()[1].split(",")[0]
    assert {main}(argv) == 0, argv
print("defined in", sorted(m for m, mod in list(sys.modules.items()) if m.split(".")[0] == "privlog"
                           and any(hasattr(mod, name) for name in {other_side!r})))
print("loaded", [m for m in ("privlog.client", "privlog.dice", "privlog.server") if m in sys.modules])
"""


def test_each_cli_loads_only_its_own_engine(ws):
    """Every client command runs in one child that never imports
    `privlog.server` or any module defining a server command or recover's
    share; every server command runs in another that never imports
    `privlog.client`, `privlog.dice` or any module defining a client
    command, protect's share or its latency histogram. The split into
    shares itself is shared, in `privlog.cli`."""
    _write_log(ws / "raw.log", BenchConfig(line_count=60, pii_density="high", day_span=3, seed=5))
    assert server_main(["offer", "--keystore", str(ws / "server.kv"), "--grant-id", "case-1",
                        "--out", str(ws / "offer.kv")]) == 0
    cfg, ks = ["--config", str(ws / "client.cfg")], ["--keystore", str(ws / "server.kv")]
    p = {name: str(ws / name) for name in
         ("raw.log", "protected.log", "offer.kv", "offer2.kv", "grant.kv", "window.kv",
          "events.csv", "linkage.csv", "other.kv")}
    client_argvs = [
        [*cfg, "init", "--today", D(1).isoformat()],
        [*cfg, "protect", "--in", p["raw.log"], "--out", p["protected.log"]],
        [*cfg, "grant", "--server-offer", p["offer.kv"], "--start", D(1).isoformat(),
         "--today", D(3).isoformat(), "--out", p["grant.kv"]],
        [*cfg, "state"],
    ]
    server_argvs = [
        ["keygen", "--keystore", p["other.kv"]],
        ["offer", *ks, "--grant-id", "case-2", "--out", p["offer2.kv"]],
        ["accept", *ks, "--grant", p["grant.kv"], "--expect-device", "pixel-lab",
         "--out", p["window.kv"]],
        ["recover", "--keys", p["window.kv"], "--in", p["protected.log"], "--out", p["events.csv"],
         "--year", "2024"],
        ["report", "--events", p["events.csv"], "--out", p["linkage.csv"]],
        ["report", "--events", p["events.csv"], "--timeline", "TOP-TOKEN"],
    ]
    for main, argvs, loaded, other_side in (
            ("client_main", client_argvs, ["privlog.client", "privlog.dice"],
             ["_cmd_recover", "_recover_share"]),
            ("server_main", server_argvs, ["privlog.server"],
             ["_cmd_protect", "_protect_share", "_bucket"])):
        out = _child(_RUN_ONE_SIDE.format(main=main, argvs=argvs, linkage=p["linkage.csv"],
                                          other_side=other_side))
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-2:] == ["defined in []", f"loaded {loaded}"]


def test_installed_entry_points_resolve():
    """Each `[project.scripts]` target in pyproject.toml resolves in a fresh
    interpreter and prints its usage for `--help`, exiting 0."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert sorted(scripts) == ["privlog-client", "privlog-server"]
    for name, target in scripts.items():
        module, func = target.split(":")
        out = _child(f"import importlib, sys\nsys.argv = [{name!r}, '--help']\n"
                     f"getattr(importlib.import_module({module!r}), {func!r})()")
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith(f"usage: {name} "), out.stdout


def test_sources_parse_as_python_3_10():
    """pyproject.toml promises Python 3.10: every source under src/, tests/
    and scripts/ parses with 3.10's grammar, on whichever Python runs this."""
    root = Path(__file__).resolve().parents[1]
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text()
    paths = sorted(p for top in ("src", "tests", "scripts") for p in (root / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _own_files_ws(ws) -> None:
    """A grant accepted into window.kv; then grant2.kv answering a second
    offer, not yet accepted, and offer3.kv, not yet answered."""
    _dense_investigation(ws)
    ks = ["--keystore", str(ws / "server.kv")]
    assert server_main(["offer", *ks, "--grant-id", "g-2", "--out", str(ws / "offer2.kv")]) == 0
    assert _client(ws, "grant", "--server-offer", str(ws / "offer2.kv"), "--start", D(4).isoformat(),
                   "--today", D(4).isoformat(), "--out", str(ws / "grant2.kv")) == 0
    assert server_main(["offer", *ks, "--grant-id", "g-3", "--out", str(ws / "offer3.kv")]) == 0
    (ws / "id-link.kv").symlink_to(ws / "identity.kv")
    (ws / "dir-link").symlink_to(ws)


_INIT = ["init", "--force", "--today", D(1).isoformat()]
_GRANT3 = ["grant", "--server-offer", "{ws}/offer3.kv", "--start", D(5).isoformat(),
           "--today", D(5).isoformat()]
_ACCEPT2 = ["accept", "--keystore", "{ws}/server.kv", "--grant", "{ws}/grant2.kv",
            "--expect-device", "pixel-lab"]


@pytest.mark.parametrize("side, argv, flag", [
    ("client", ["protect", "--in", "{ws}/raw.log", "--out", "{ws}/state.kv"], "--state"),
    ("client", ["protect", "--in", "{ws}/raw.log", "--out", "{ws}/dir-link/state.kv"], "--state"),
    ("client", ["protect", "--in", "{ws}/raw.log", "--out", "{ws}/identity.kv"], "--identity"),
    ("client", ["--identity", "{ws}/id-link.kv", "protect", "--in", "{ws}/raw.log",
                "--out", "{ws}/identity.kv"], "--identity"),
    ("client", ["protect", "--in", "{ws}/raw.log", "--out", "{ws}/client.cfg"], "--config"),
    ("client", [*_GRANT3, "--out", "{ws}/state.kv"], "--state"),
    ("client", ["--state", "{ws}/identity.kv", *_INIT], "--identity"),
    ("client", ["--state", "{ws}/client.cfg", *_INIT], "--config"),
    ("client", [*_GRANT3, "--out", "{ws}/offer3.kv"], "--server-offer"),
    ("server", ["offer", "--keystore", "{ws}/server.kv", "--grant-id", "g-4",
                "--out", "{ws}/server.kv"], "--keystore"),
    ("server", [*_ACCEPT2, "--out", "{ws}/server.kv"], "--keystore"),
    ("server", [*_ACCEPT2, "--out", "{ws}/grant2.kv"], "--grant"),
    ("server", ["recover", "--keys", "{ws}/window.kv", "--in", "{ws}/prot.log",
                "--out", "{ws}/window.kv"], "--keys"),
    ("client", ["protect", "--in", "{ws}/raw.log", "--out", "{ws}/state.kv.lock"], "--state"),
    ("client", ["protect", "--in", "{ws}/raw.log", "--out", "{ws}/dir-link/state.kv.lock"],
     "--state"),
    ("client", [*_GRANT3, "--out", "{ws}/state.kv.lock"], "--state"),
    ("server", ["offer", "--keystore", "{ws}/server.kv", "--grant-id", "g-4",
                "--out", "{ws}/server.kv.lock"], "--keystore"),
    ("server", [*_ACCEPT2, "--out", "{ws}/server.kv.lock"], "--keystore"),
], ids=["protect-state", "protect-state-dir-link", "protect-identity",
        "protect-identity-link", "protect-config", "grant-state", "init-identity", "init-config",
        "grant-offer", "offer-keystore", "accept-keystore", "accept-grant",
        "recover-keys", "protect-state-lock", "protect-state-lock-dir-link", "grant-state-lock",
        "offer-keystore-lock", "accept-keystore-lock"])
def test_out_that_is_a_commands_own_file_is_refused(ws, capsys, side, argv, flag):
    """An --out (or init's --state) whose write would replace the config,
    identity, state, keystore, grant, offer or window keys the command
    takes, or the lock file of the state or keystore it locks, by its own
    path, through a linked directory or through a symlink the command
    reads, exits 6 naming both flags, and no file changes. A lock file
    replaced while its command held it would let a second command lock
    the new file and run beside the first."""
    _own_files_ws(ws)
    files = {path: path.read_bytes() for path in ws.iterdir() if path.is_file()}
    locks = {path: path.stat().st_ino for path in ws.glob("*.lock")}
    assert sorted(path.name for path in locks) == ["server.kv.lock", "state.kv.lock"]
    capsys.readouterr()
    argv = [arg.format(ws=ws) for arg in argv]
    code = _client(ws, *argv) if side == "client" else server_main(argv)
    err = capsys.readouterr().err
    assert code == 6, err
    assert err.startswith("error CorruptState: --") and f" and {flag} " in err
    assert {path: path.read_bytes() for path in ws.iterdir() if path.is_file()} == files
    assert {path: path.stat().st_ino for path in ws.glob("*.lock")} == locks


@pytest.mark.parametrize("side, argv, flag", [
    ("client", ["protect", "--in", "{ws}/raw.log", "--out", "{ws}/held.kv.lock"], "--out"),
    ("client", [*_GRANT3, "--out", "{ws}/held.kv.lock"], "--out"),
    ("client", ["--state", "{ws}/held.kv.lock", *_INIT], "--state"),
    ("server", ["keygen", "--keystore", "{ws}/held.kv.lock", "--force"], "--keystore"),
    ("server", ["offer", "--keystore", "{ws}/server.kv", "--grant-id", "g-4",
                "--out", "{ws}/held.kv.lock"], "--out"),
    ("server", [*_ACCEPT2, "--out", "{ws}/held.kv.lock"], "--out"),
    ("server", ["recover", "--keys", "{ws}/window.kv", "--in", "{ws}/prot.log",
                "--out", "{ws}/held.kv.lock"], "--out"),
    ("server", ["report", "--events", "{ws}/events.csv", "--out", "{ws}/held.kv.lock"], "--out"),
    ("server", ["report", "--events", "{ws}/events.csv", "--timeline", _TOKEN,
                "--out", "{ws}/held.kv.lock"], "--out"),
], ids=["protect", "grant", "init", "keygen", "offer", "accept", "recover", "report",
        "report-timeline"])
def test_out_named_like_a_lock_file_is_refused(ws, capsys, side, argv, flag):
    """An --out (or init's --state, or keygen's --keystore) whose name ends
    in ".lock" may be the lock file that another command holds for its own
    state or keystore: replacing it would let a third command lock the new
    file and run beside the holder. It exits 6 naming the flag, before
    anything is written, rotated or consumed, and the held lock file keeps
    its inode."""
    _own_files_ws(ws)
    assert _recover(ws, "prot.log", "events.csv") == 0
    held = ws / "held.kv.lock"
    with open(held, "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        files = {path: path.read_bytes() for path in ws.iterdir() if path.is_file()}
        inode = held.stat().st_ino
        capsys.readouterr()
        argv = [arg.format(ws=ws) for arg in argv]
        code = _client(ws, *argv) if side == "client" else server_main(argv)
        err = capsys.readouterr().err
        assert code == 6, err
        assert err.startswith(f"error CorruptState: {flag} ") and "ends in '.lock'" in err
        assert {path: path.read_bytes() for path in ws.iterdir() if path.is_file()} == files
        assert held.stat().st_ino == inode


def test_out_may_be_a_link_to_a_commands_file(ws):
    """A write replaces the entry at --out, not the file behind it: a
    symlink or a hard link to the state or the window keys may be the
    output, and the file it named keeps its bytes."""
    _dense_investigation(ws)
    assert _client(ws, "init", "--force", "--today", DAY1.isoformat()) == 0  # a fresh epoch
    (ws / "state-link.kv").symlink_to(ws / "state.kv")
    assert _client(ws, "protect", "--in", str(ws / "raw.log"),
                   "--out", str(ws / "state-link.kv")) == 0
    assert not (ws / "state-link.kv").is_symlink()
    assert '<PII type="' in (ws / "state-link.kv").read_text()
    assert _client(ws, "state") == 0

    keys = (ws / "window.kv").read_bytes()
    os.link(ws / "window.kv", ws / "keys-link.kv")
    assert _recover(ws, "prot.log", "keys-link.kv") == 0
    assert (ws / "window.kv").read_bytes() == keys
    assert (ws / "keys-link.kv").read_bytes() != keys


@pytest.mark.parametrize("via", ["fifo", "symlink-to-fifo"])
def test_out_that_is_a_special_file_is_refused(ws, capsys, via):
    """An output whose entry is a FIFO, or a symlink to one, exits 6 naming
    it before anything is written, and the entry stays as it was: `report`
    (linkage and timeline), `protect`, whose state does not advance, and
    `offer`, whose keystore mints no key. A write replaces the entry at its
    path, so without the check a run as root replaced /dev/stdout."""
    _dense_investigation(ws)
    assert _recover(ws, "prot.log", "events.csv") == 0
    fifo = ws / "pipe"
    os.mkfifo(fifo)
    out = fifo if via == "fifo" else ws / "link"
    if via != "fifo":
        out.symlink_to(fifo)
    runs = [
        lambda: server_main(["report", "--events", str(ws / "events.csv"), "--out", str(out)]),
        lambda: server_main(["report", "--events", str(ws / "events.csv"), "--timeline", _TOKEN,
                             "--out", str(out)]),
        lambda: _client(ws, "protect", "--in", str(ws / "raw.log"), "--out", str(out)),
        lambda: server_main(["offer", "--keystore", str(ws / "server.kv"), "--grant-id", "g-fifo",
                             "--out", str(out)]),
    ]
    before = {p.name: p.read_bytes() for p in ws.iterdir() if p.is_file()}
    for run in runs:
        capsys.readouterr()
        assert run() == 6
        out_, err = capsys.readouterr()
        assert err == f"error CorruptState: cannot write {str(out)!r}: it is not a regular file\n"
        assert out_ == ""
        assert stat.S_ISFIFO(os.stat(out).st_mode) and out.is_symlink() == (via != "fifo")
        assert {p.name: p.read_bytes() for p in ws.iterdir() if p.is_file()} == before
        assert not list(ws.glob(".*.tmp"))


def test_out_may_be_the_input_a_command_streams(ws):
    """`protect --in`, `recover --in` and `report --events` are read to their
    end before the output replaces them, so each may be the --out path;
    `protect` split into shares too, each of which reads the input from
    its start."""
    _dense_investigation(ws)
    for shares in (1, 3):
        assert _client(ws, "init", "--force", "--today", DAY1.isoformat()) == 0  # a fresh epoch
        (ws / "log").write_bytes((ws / "raw.log").read_bytes())
        with _split_into(shares):
            assert _client(ws, "protect", "--in", str(ws / "log"), "--out", str(ws / "log")) == 0
        protected = (ws / "log").read_text().splitlines()
        assert len(protected) == len((ws / "raw.log").read_text().splitlines())
        assert sum('<PII type="' in line for line in protected) > 0
        assert [_ELEMENT_TEXT.sub("", line) for line in protected] == \
            [_ELEMENT_TEXT.sub("", line) for line in (ws / "prot.log").read_text().splitlines()]

    assert _recover(ws, "prot.log", "events.csv") == 0
    (ws / "rows").write_bytes((ws / "prot.log").read_bytes())
    assert _recover(ws, "rows", "rows") == 0
    assert (ws / "rows").read_bytes() == (ws / "events.csv").read_bytes()

    assert server_main(["report", "--events", str(ws / "events.csv"),
                        "--out", str(ws / "linkage.csv")]) == 0
    assert server_main(["report", "--events", str(ws / "rows"), "--out", str(ws / "rows")]) == 0
    assert (ws / "rows").read_bytes() == (ws / "linkage.csv").read_bytes()


def test_lazy_cryptography_failure_paths_raise_privlog_errors(ws):
    """In a fresh interpreter, where no cipher has been built and no
    `cryptography` module is loaded, a forged 44-byte box is AuthFailure,
    and `accept` of a tampered grant exits 4 naming AuthFailure."""
    out = _child("""
import sys
from privlog.crypto import SecretKey32, aead_open
from privlog.errors import AuthFailure
assert not [m for m in sys.modules if m.split(".")[0] == "cryptography"]
try:
    aead_open(SecretKey32(bytes(range(32))), bytes(44))
except AuthFailure as exc:
    print(type(exc).__name__)
""")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "AuthFailure\n"

    argv = _tampered_grant_accept(ws)
    out = _child(f"import sys\nfrom privlog.cli import server_main\nsys.exit(server_main({argv!r}))")
    assert out.returncode == 4, out.stderr
    assert out.stderr.startswith("error AuthFailure:")
    assert not (ws / "window.kv").exists()


# --- recover splits a large input, one share per CPU ------------------------

# Day keys of a window across new year, 2024-12-28 to 2025-01-04. Read with
# --year 2024, a year-less January line after a December one moves the
# running year to 2025.
_NEW_YEAR_KEYS = {date(2024, 12, 28) + timedelta(days=n): bytes([n + 1]) * 32 for n in range(8)}
# Logged days: around new year, and mid-year days half a year or more away,
# which move the running year differently in the year it stands at.
_LOGGED_DAYS = [date(2024, 12, 24) + timedelta(days=n) for n in range(16)] + [
    date(2024, 7, 1), date(2025, 6, 30), date(2025, 7, 2)]


def _new_year_window(path: Path) -> None:
    days = {day: SecretKey32(key) for day, key in _NEW_YEAR_KEYS.items()}
    path.write_text(save_window_keys(WindowKeys("g-split", days)))


def _new_year_element(kind: str, day: date, label: str, token: bytes) -> str:
    """A valid element of `day`, one sealed under another day's key, or a
    malformed one (a payload that is not base64, or one of 28 bytes)."""
    other = kind == "other-day"
    key = _NEW_YEAR_KEYS.get(day + timedelta(days=1) if other else day, bytes(32))
    payload = b64(aead_seal(SecretKey32(key), token))
    if kind == "not-base64":
        payload = payload[:30] + "!" + payload[31:]
    elif kind == "28-byte":
        payload = b64(token + bytes(12))
    return f'<PII type="{label}">{payload}</PII>'


def _new_year_line(day: date, year_less: bool, body: str, ending: str) -> str:
    head = f"{day.month:02d}-{day.day:02d} 12:00:00.000  1000  1000 I T: " if year_less \
        else f"{day.isoformat()} 12:00:00.000 I T: "
    return head + body + ending


@st.composite
def _split_log_line(draw) -> str:
    day = draw(st.sampled_from(_LOGGED_DAYS))
    parts = draw(st.lists(
        st.text(alphabet=' ab,"é<>/=PI\r', max_size=5)
        | st.builds(_new_year_element, st.sampled_from(["valid", "valid", "other-day", "not-base64",
                                                        "28-byte"]),
                    st.just(day), st.sampled_from([t.value for t in PiiType]),
                    st.binary(min_size=16, max_size=16)),
        max_size=4))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    if draw(st.integers(0, 5)) == 0:  # undated
        return "    at com.example.Mailer.send(" + "".join(parts) + ending
    return _new_year_line(day, draw(st.booleans()), "".join(parts), ending)


@contextlib.contextmanager
def _split_into(shares: int):
    """`protect`, `recover` and `report` split any input into `shares`
    shares, all pinned to this process's first CPU; one share is the serial
    path. Yields `privlog.cli`."""
    import privlog.cli as cli_mod

    cpu = min(os.sched_getaffinity(0))
    with mock.patch.object(cli_mod, "SPLIT_MIN_BYTES", 0), \
            mock.patch.object(cli_mod, "SPLIT_MIN_EVENTS_BYTES", 0), \
            mock.patch.object(cli_mod, "_share_cpus", lambda: [cpu] * shares):
        yield cli_mod


def _recover_split(tmp: Path, shares: int) -> tuple:
    """Exit code, stdout, stderr and events-CSV bytes (None if none) of
    `recover` on tmp/prot.log under `_split_into(shares)`."""
    out = tmp / "events.csv"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with _split_into(shares), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = server_main(["recover", "--keys", str(tmp / "window.kv"), "--in",
                            str(tmp / "prot.log"), "--out", str(out), "--year", "2024"])
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else None


def _assert_no_process_left(tmp: Path, mask: set) -> None:
    """Every child reaped, the CPU mask as it was, no temp file in `tmp`."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == mask
    assert not list(tmp.glob(".*.tmp"))


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_split_log_line(), max_size=12), cut_last=st.booleans(),
       shares=st.sampled_from([2, 3]))
def test_recover_split_matches_serial(lines, cut_last, shares):
    """`recover` split into 2 or 3 shares writes the serial run's events CSV
    byte for byte, prints its summary and exits with its code, on logs that
    mix lines without "<PII", undated, out-of-window and year-less lines
    across new year, malformed elements, CRLF endings and a last line
    without "\\n"; fewer lines than shares too."""
    if cut_last and lines:
        lines[-1] = lines[-1].rstrip("\n")
    mask = os.sched_getaffinity(0)
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        _new_year_window(tmp / "window.kv")
        (tmp / "prot.log").write_bytes("".join(lines).encode())
        serial = _recover_split(tmp, 1)
        assert serial[0] == 0, serial
        assert _recover_split(tmp, shares) == serial
        _assert_no_process_left(tmp, mask)


@pytest.mark.parametrize("shares", [2, 3, 5])
@pytest.mark.parametrize("days, dates", [
    ([(12, 30), (12, 31), (1, 1), (1, 2)], ["2024-12-30", "2024-12-31", "2025-01-01", "2025-01-02"]),
    ([(12, 30), (1, 2), (7, 1), (12, 31)], ["2024-12-30", "2025-01-02", "2024-12-31"]),
], ids=["roll-at-cut", "mid-year-after-roll"])
def test_recover_split_at_the_new_year_roll(tmp_path, shares, days, dates):
    """A share that starts at line 3 reads its dates in the running year of
    the lines before it. In the first log, line 3 is the first January line
    after December ones, which moves the year to 2025. In the second, the
    year is 2025 from line 2 on: line 3 is 2025-07-01, out of the window,
    and line 4 then reads as 2024-12-31; read from 2024 instead, line 3
    would be 2024-07-01 and line 4 2023-12-31. Five shares of four lines
    leave some shares empty."""
    _new_year_window(tmp_path / "window.kv")
    lines = []
    for month, day in days:
        when = date(2024 if month == 12 else 2025, month, day)
        element = _new_year_element("valid", when, "EMAIL", bytes([day]) * 16)
        lines.append(_new_year_line(when, True, element, "\n"))
    assert len({len(line) for line in lines}) == 1  # so two shares cut at line 3
    (tmp_path / "prot.log").write_text("".join(lines))
    serial = _recover_split(tmp_path, 1)
    assert [row.split(",")[1] for row in serial[3].decode().splitlines()[1:]] == dates
    with _split_into(shares) as cli_mod:
        assert 3 in [start for _, start in cli_mod._shares(str(tmp_path / "prot.log"))]
    assert _recover_split(tmp_path, shares) == serial


@pytest.mark.parametrize("bad_line", ["first", "last"])
def test_recover_split_bad_byte_fails_as_serial(ws, bad_line):
    """A line that is not UTF-8, in share 0 or in the last of 3 shares:
    exit 6 and the serial run's stderr, naming the same line; no events
    CSV, no temp file, no child process left, the CPU mask restored."""
    _dense_investigation(ws)
    lines = (ws / "prot.log").read_bytes().splitlines(keepends=True)
    at = 1 if bad_line == "first" else len(lines) - 1
    lines[at] = lines[at].replace(b" ", b" caf\xe9 ", 1)
    (ws / "prot.log").write_bytes(b"".join(lines))
    mask = os.sched_getaffinity(0)
    serial = _recover_split(ws, 1)
    assert serial[0] == 6
    assert f"line {at + 1} is not valid UTF-8" in serial[2]
    assert _recover_split(ws, 3) == serial
    assert not (ws / "events.csv").exists()
    _assert_no_process_left(ws, mask)


def test_recover_split_child_without_result_fails(ws, monkeypatch):
    """A child that dies before it sends its result fails the run: exit
    non-zero, no events CSV, no temp file, no child process left, the CPU
    mask restored."""
    import privlog.server as server_mod

    _dense_investigation(ws)
    parent, write = os.getpid(), server_mod.write_events_csv

    def dies_in_a_child(records, fh):
        if os.getpid() != parent:
            os._exit(3)
        write(records, fh)

    monkeypatch.setattr(server_mod, "write_events_csv", dies_in_a_child)
    mask = os.sched_getaffinity(0)
    code, stdout, stderr, events = _recover_split(ws, 3)
    assert code != 0
    assert stdout == ""
    assert "ended with status 3 and no result" in stderr
    assert events is None
    _assert_no_process_left(ws, mask)


# --- report splits a large events CSV too -----------------------------------

_TOKENS = [bytes([n]) * 16 for n in range(1, 4)]


def _report_split(tmp: Path, shares: int, timeline: bool = False, out: bool = True) -> tuple:
    """Exit code, stdout, stderr and output bytes (None if none) of `report`
    on tmp/events.csv under `_split_into(shares)`: the linkage report, or
    the timeline of the first of `_TOKENS`, to tmp/out.csv or stdout."""
    target = tmp / "out.csv"
    target.unlink(missing_ok=True)
    argv = ["report", "--events", str(tmp / "events.csv")]
    if timeline:
        argv += ["--timeline", b64(_TOKENS[0])]
    if out:
        argv += ["--out", str(target)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with _split_into(shares), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = server_main(argv)
    return code, stdout.getvalue(), stderr.getvalue(), target.read_bytes() if target.exists() else None


def _assert_report_split_as_serial(tmp: Path, shares: int) -> list:
    """Every form of `report` on tmp/events.csv in `shares` shares is the
    serial run's, and leaves no process, CPU mask or temp file behind;
    the serial results, linkage first."""
    mask = os.sched_getaffinity(0)
    serial = []
    for timeline, out in ((False, True), (True, True), (True, False)):
        serial.append(_report_split(tmp, 1, timeline, out))
        assert _report_split(tmp, shares, timeline, out) == serial[-1]
    _assert_no_process_left(tmp, mask)
    return serial


def _events_text(rows, pii_types=(PiiType.EMAIL,)) -> str:
    """An events CSV of the (line_no, day, token, template) `rows`, as
    `recover` writes it; the type of each row's token cycles through
    `pii_types`."""
    fh = io.StringIO(newline="")
    fh.write(EVENTS_HEADER_LINE)
    write_events_csv([(n, day, template, [(pii_types[i % len(pii_types)], token)])
                      for i, (n, day, token, template) in enumerate(rows)], fh)
    return fh.getvalue()


def _csv_rows(csv_bytes: bytes) -> list:
    """The rows after the header of a CSV, as csv.reader reads them."""
    return list(csv.reader(io.StringIO(csv_bytes.decode(), newline="")))[1:]


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(1, 4), st.sampled_from([D(1), D(2), D(3)]),
                               st.sampled_from(_TOKENS), st.text(alphabet='a,"\n', max_size=4)),
                     max_size=14),
       shares=st.sampled_from([2, 3]), run_rows=st.integers(1, 3))
def test_report_split_matches_serial(rows, shares, run_rows):
    """`report` and `--timeline` split into 2 or 3 shares write the serial
    run's linkage CSV, timeline CSV and stdout, and exit with its code, on
    events CSVs whose tokens recur across shares, whose (date, line_no)
    repeat, so that ties fall across shares, and whose templates hold ','
    '"' and "\\n", so that a share may end inside a quoted field; a token
    has more hits than TIMELINE_RUN_ROWS, made small, and its type in the
    linkage report is that of its first row."""
    import privlog.server as server_mod

    with tempfile.TemporaryDirectory() as name, \
            mock.patch.object(server_mod, "TIMELINE_RUN_ROWS", run_rows):
        tmp = Path(name)
        (tmp / "events.csv").write_text(_events_text(rows, (PiiType.EMAIL, PiiType.IPV4)),
                                        newline="")
        linkage, timeline, _ = _assert_report_split_as_serial(tmp, shares)
        assert linkage[0] == timeline[0] == 0, (linkage, timeline)
        hits = sorted((day, n, i) for i, (n, day, token, _) in enumerate(rows) if token == _TOKENS[0])
        assert [row[:2] for row in _csv_rows(timeline[3])] == \
            [[day.isoformat(), str(n)] for day, n, _ in hits]


def test_report_split_ties_and_spilled_runs(tmp_path, monkeypatch):
    """Tokens in every share, the same (date, line_no) in every share and
    more hits than TIMELINE_RUN_ROWS: the split writes the serial run's
    bytes, ties in file order, and counts each token once over all shares."""
    import privlog.server as server_mod

    monkeypatch.setattr(server_mod, "TIMELINE_RUN_ROWS", 4)
    rows = [(n % 5 + 1, D(3 - n // 3 % 3), _TOKENS[n % 3], f"tie {n}") for n in range(90)]
    (tmp_path / "events.csv").write_text(_events_text(rows), newline="")
    for shares in (2, 3):
        with _split_into(shares) as cli_mod:
            assert len(cli_mod._shares(str(tmp_path / "events.csv"))) == shares
        linkage, timeline, stdout = _assert_report_split_as_serial(tmp_path, shares)
    assert linkage[1].startswith("3 token groups over 90 events")
    assert [row[2:] for row in _csv_rows(linkage[3])] == [["30", D(1).isoformat(),
                                                             D(3).isoformat()]] * 3
    got = [(row[0], int(row[1]), row[2]) for row in _csv_rows(timeline[3])]
    assert got == sorted(got, key=lambda row: row[:2])
    assert [t for _, _, t in got] == [t for _, _, t in sorted(
        ((day.isoformat(), n, t) for n, day, token, t in rows if token == _TOKENS[0]),
        key=lambda row: row[:2])]
    assert stdout[1].encode() == timeline[3]


def test_report_split_reads_a_quoted_newline_across_shares_again(tmp_path):
    """A template holding "\\n" that spans the cut between two shares: share 0
    ends inside the quoted field, so `report` reads the file again in one
    share and writes the serial run's bytes."""
    rows = [(1, D(1), _TOKENS[0], "x" * 40)] * 3 + [(2, D(2), _TOKENS[0], "a\n" * 200)] + \
        [(3, D(3), _TOKENS[1], "y")] * 3
    (tmp_path / "events.csv").write_text(_events_text(rows), newline="")
    lines = (tmp_path / "events.csv").read_bytes().splitlines(keepends=True)
    with _split_into(2) as cli_mod:
        (_, _), (_, start) = cli_mod._shares(str(tmp_path / "events.csv"))
    assert lines[start - 2] == b"a\n"  # the cut falls inside the quoted template
    linkage, timeline, _ = _assert_report_split_as_serial(tmp_path, 2)
    assert linkage[0] == timeline[0] == 0
    assert _csv_rows(timeline[3])[3] == [D(2).isoformat(), "2", "a\n" * 200]


def test_report_split_runs_no_share_that_a_long_line_leaves_empty(tmp_path):
    """A line that spans two cuts leaves the share between them no line:
    it is not run, and `report` in the shares left writes the serial run's
    bytes."""
    rows = [(1, D(1), _TOKENS[0], "x" * 600)] + [(n, D(2), _TOKENS[n % 3], "t") for n in range(2, 6)]
    (tmp_path / "events.csv").write_text(_events_text(rows), newline="")
    with _split_into(3) as cli_mod:
        assert [start for _, start in cli_mod._shares(str(tmp_path / "events.csv"))] == [1, 2, 2]
    linkage, timeline, _ = _assert_report_split_as_serial(tmp_path, 3)
    assert linkage[1].startswith("3 token groups over 5 events")
    assert len(_csv_rows(timeline[3])) == 2


@pytest.mark.parametrize("case", ["bad-rows", "cut-last-line", "bad-byte-late"])
def test_report_split_fails_as_serial(tmp_path, case):
    """A bad row in share 0 and another in share 1 fail with share 0's
    error; a last line cut short, and a line that is not UTF-8 in the last
    share, fail as one pass does, naming the same line. Exit 6, no output,
    no temp file, no child left, the CPU mask restored."""
    mask = os.sched_getaffinity(0)
    text = _events_text([(n, D(1 + n % 3), _TOKENS[n % 3], f"t{n}") for n in range(1, 60)])
    lines = text.encode().splitlines(keepends=True)
    if case == "bad-rows":
        lines[5] = lines[5].replace(b"2024", b"2O24", 1)
        lines[-5] = lines[-5].replace(b",", b";", 1)
    elif case == "cut-last-line":
        lines[-1] = lines[-1][:-3]  # the row still parses
    else:
        lines[-3] = lines[-3].replace(b"t", b"caf\xe9", 1)
    (tmp_path / "events.csv").write_bytes(b"".join(lines))
    for shares in (2, 3):
        with _split_into(shares) as cli_mod:
            starts = [start for _, start in cli_mod._shares(str(tmp_path / "events.csv"))]
        assert starts[1] - 1 > 6 and starts[-1] - 1 < len(lines) - 5
        for timeline, out in ((False, True), (True, True), (True, False)):
            serial = _report_split(tmp_path, 1, timeline, out)
            assert serial[0] == 6 and serial[1] == "" and serial[3] is None, serial
            assert _report_split(tmp_path, shares, timeline, out) == serial
        _assert_no_process_left(tmp_path, mask)
    expected = {"bad-rows": "is not an ISO date", "cut-last-line": "the file was cut",
                "bad-byte-late": f"line {len(lines) - 2} is not valid UTF-8"}[case]
    assert expected in serial[2]


# --- protect splits a large input too ---------------------------------------

_SPLIT_EPOCH = date(2024, 12, 28)
# Logged days: before the epoch, around new year, and half a year away.
_PROTECT_DAYS = [date(2024, 12, 24) + timedelta(days=n) for n in range(14)] + [
    date(2025, 6, 30), date(2025, 7, 2)]
_BODIES = ["mail alice@example.com to 10.1.2.3", "call +1 415 555 0100 now",
           "mac 00:1a:2b:3c:4d:5e", "nothing to hide", "bob@example.org, é"]
_ELEMENT_TEXT = re.compile(r'<PII type="(\w+)">([A-Za-z0-9+/=]+)</PII>')


@st.composite
def _protect_log(draw) -> str:
    lines = draw(st.lists(st.tuples(
        st.sampled_from(_PROTECT_DAYS), st.sampled_from(["iso", "year-less", "year-less", "undated"]),
        st.sampled_from(_BODIES), st.sampled_from(["\n", "\r\n"])), max_size=10))
    if draw(st.booleans()):  # in order, so that stream mode gets past the first lines
        lines.sort()
    text = [_new_year_line(day, kind == "year-less", body, ending) if kind != "undated"
            else f"    at com.example.Mailer.send({body}){ending}"
            for day, kind, body, ending in lines]
    if text and draw(st.booleans()):
        text[-1] = text[-1].rstrip("\n")
    return "".join(text)


_SPLIT_FILES: dict = {}


def _split_files() -> dict:
    """An identity and a state at _SPLIT_EPOCH, and the state's day keys to
    the last day a drawn log can reach; made once. A year-less line is read
    at most one year past the running year and moves it on by at most one,
    so a log of at most 10 lines read from 2024 stays inside 2034."""
    if not _SPLIT_FILES:
        identity = DeviceIdentity(uds=b"\x31" * 32, measurement=b"\x32" * 32, device_id="split")
        state = client_mod.init_client(identity, dh_derive_keypair(b"\x33" * 32, b"srv").public,
                                       _SPLIT_EPOCH)
        _SPLIT_FILES.update({"identity.kv": format_identity(identity),
                             "state.kv": client_mod.save_state(state),
                             "keys": client_mod.advance_to(state, date(2034, 12, 31))[1]})
    return _SPLIT_FILES


def _opened(protected: bytes) -> list:
    """The lines of a protected log, each element replaced by its type, the
    day whose key opens it and its token."""
    keys = _split_files()["keys"]

    def open_element(m):
        box = base64.b64decode(m[2])
        for day, key in keys.items():
            with contextlib.suppress(AuthFailure):
                return f"[{m[1]} {day} {aead_open(key, box).hex()}]"
        raise AssertionError(f"no day key opens {m[0]}")

    return [_ELEMENT_TEXT.sub(open_element, line)
            for line in protected.decode().splitlines(keepends=True)]


def _protect_split(tmp: Path, shares: int, mode: str = "stream") -> tuple:
    """Exit code, stdout without its latency line, stderr, state bytes and
    output bytes (None if none) of `protect` on tmp/raw.log under
    `_split_into(shares)`, from the state in tmp/state0.kv."""
    (tmp / "state.kv").write_bytes((tmp / "state0.kv").read_bytes())
    out = tmp / "prot.log"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with _split_into(shares), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = client_main(["--identity", str(tmp / "identity.kv"), "--state", str(tmp / "state.kv"),
                            "--year", "2024", "protect", "--in", str(tmp / "raw.log"),
                            "--out", str(out), "--mode", mode])
    printed = "".join(line for line in stdout.getvalue().splitlines(keepends=True)
                      if not line.startswith("latency "))
    return (code, printed, stderr.getvalue(), (tmp / "state.kv").read_bytes(),
            out.read_bytes() if out.exists() else None)


def _protect_ws(tmp: Path, raw: bytes) -> None:
    files = _split_files()
    (tmp / "identity.kv").write_text(files["identity.kv"])
    (tmp / "state0.kv").write_text(files["state.kv"])
    (tmp / "raw.log").write_bytes(raw)


@settings(max_examples=100, deadline=None)
@given(log=_protect_log(), shares=st.sampled_from([2, 3]),
       mode=st.sampled_from(["stream", "batch"]))
@example(log="".join(_new_year_line(day, year_less, "mail alice@example.com to 10.1.2.3", "\n")
                     for day, year_less in ((date(2025, 6, 30), False), (date(2024, 12, 24), True),
                                            (date(2025, 1, 1), True))),
         shares=2, mode="stream")  # rolls into 2026
def test_protect_split_matches_serial(log, shares, mode):
    """`protect` split into 2 or 3 shares saves the serial run's state byte
    for byte, prints its summary, exits with its code and stderr, and
    writes its lines: each element, once opened, has the same type, day key
    and token. The logs mix ISO, year-less and undated lines, pre-epoch
    lines, a new-year roll, a jump of half a year, CRLF endings and a last
    line without "\\n"; fewer lines than shares too."""
    mask = os.sched_getaffinity(0)
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        _protect_ws(tmp, log.encode())
        serial = _protect_split(tmp, 1, mode)
        split = _protect_split(tmp, shares, mode)
        assert split[:4] == serial[:4]
        assert (split[4] is None) == (serial[4] is None)
        if serial[4] is not None:
            assert _opened(split[4]) == _opened(serial[4])
        _assert_no_process_left(tmp, mask)


@pytest.mark.parametrize("shares", [2, 3])
def test_protect_split_writes_no_nonce_twice(tmp_path, shares):
    """Each share draws its own nonces after the fork: across the shares of
    a split `protect`, every element's nonce is distinct."""
    body = "mail alice@example.com to 10.1.2.3 from 00:1a:2b:3c:4d:5e"
    _protect_ws(tmp_path, "".join(_new_year_line(_SPLIT_EPOCH + timedelta(days=n // 20), False,
                                                 body, "\n") for n in range(60)).encode())
    code, _, _, _, out = _protect_split(tmp_path, shares)
    assert code == 0
    nonces = [base64.b64decode(m[2])[:12] for m in _ELEMENT_TEXT.finditer(out.decode())]
    assert len(nonces) == 180 and len(set(nonces)) == len(nonces)


def _protect_failure_ws(tmp: Path, lines: list) -> None:
    _protect_ws(tmp, "".join(lines).encode())
    with _split_into(3) as cli_mod:
        assert len({start for _, start in cli_mod._shares(str(tmp / "raw.log"))}) == 3


def _dated_lines(count: int) -> list:
    return [_new_year_line(_SPLIT_EPOCH + timedelta(days=n * 3 // count), False,
                           "mail alice@example.com", "\n") for n in range(count)]


def _assert_protect_failed(tmp: Path, result: tuple, code: int, mask: set) -> None:
    assert result[0] == code
    assert result[3] == (tmp / "state0.kv").read_bytes()
    assert result[4] is None
    _assert_no_process_left(tmp, mask)


def test_protect_split_out_of_order_in_the_last_share(tmp_path):
    """A stream-mode line dated before the chain, in the last of 3 shares:
    exit 3 and the serial run's stderr, naming the line in the whole file
    and pointing to --mode batch; no output, no temp file, the state
    unchanged, no child left, the CPU mask restored."""
    lines = _dated_lines(30)
    lines[-1] = _new_year_line(_SPLIT_EPOCH, False, "mail alice@example.com", "\n")
    _protect_failure_ws(tmp_path, lines)
    mask = os.sched_getaffinity(0)
    serial = _protect_split(tmp_path, 1)
    assert "line 30: " in serial[2] and "--mode batch" in serial[2]
    split = _protect_split(tmp_path, 3)
    assert split == serial
    _assert_protect_failed(tmp_path, split, 3, mask)


@pytest.mark.parametrize("bad_line", ["first", "last"])
def test_protect_split_bad_byte_fails_as_serial(tmp_path, bad_line):
    """A line that is not UTF-8, in share 0 or in the last of 3 shares:
    exit 6 and the serial run's stderr, naming the same line; no output,
    no temp file, the state unchanged, no child left, the CPU mask
    restored."""
    lines = _dated_lines(30)
    at = 1 if bad_line == "first" else len(lines) - 1
    _protect_failure_ws(tmp_path, lines)
    raw = (tmp_path / "raw.log").read_bytes().splitlines(keepends=True)
    raw[at] = raw[at].replace(b" ", b" caf\xe9 ", 1)
    (tmp_path / "raw.log").write_bytes(b"".join(raw))
    mask = os.sched_getaffinity(0)
    serial = _protect_split(tmp_path, 1)
    assert f"line {at + 1} is not valid UTF-8" in serial[2]
    split = _protect_split(tmp_path, 3)
    assert split == serial
    _assert_protect_failed(tmp_path, split, 6, mask)


def test_protect_split_child_without_result_fails(tmp_path, monkeypatch):
    """A child that dies before it sends its result fails the run: exit 1
    naming its status, no output, no temp file, the state unchanged, no
    child left, the CPU mask restored."""
    _protect_failure_ws(tmp_path, _dated_lines(30))
    parent, protect_line = os.getpid(), client_mod.ProtectSession.protect_line

    def dies_in_a_child(self, line):
        if os.getpid() != parent:
            os._exit(3)
        return protect_line(self, line)

    monkeypatch.setattr(client_mod.ProtectSession, "protect_line", dies_in_a_child)
    mask = os.sched_getaffinity(0)
    result = _protect_split(tmp_path, 3)
    assert result[1] == ""
    assert "ended with status 3 and no result" in result[2]
    _assert_protect_failed(tmp_path, result, 1, mask)


@pytest.mark.parametrize("command", ["protect", "recover"])
def test_split_child_that_raises_another_error_fails(ws, capfd, monkeypatch, command):
    """A child that ends on an error that is not a PrivlogError, here a
    RuntimeError on a line of the last of 3 shares, prints its traceback
    and sends no result: exit 1, no output, no temp file, the state
    unchanged, no child left, the CPU mask restored."""
    import privlog.server as server_mod

    def fails_on_the_marked_line(real):
        def call(line):
            if line.endswith(" boom"):
                raise RuntimeError("boom in the last share")
            return real(line)
        return call

    out = ws / "x.out"
    if command == "protect":
        lines = _dated_lines(30)
        lines[-1] = lines[-1].replace("\n", " boom\n")
        _protect_failure_ws(ws, lines)
        (ws / "state.kv").write_bytes((ws / "state0.kv").read_bytes())
        monkeypatch.setattr(client_mod, "detect_pii", fails_on_the_marked_line(client_mod.detect_pii))
        main, argv = client_main, ["--identity", str(ws / "identity.kv"), "--state",
                                   str(ws / "state.kv"), "--year", "2024", "protect",
                                   "--in", str(ws / "raw.log"), "--out", str(out)]
    else:
        _dense_investigation(ws)
        lines = (ws / "prot.log").read_text().splitlines(keepends=True)
        at = max(i for i, line in enumerate(lines) if "<PII" in line)
        lines[at] = lines[at].replace("\n", " boom\n")
        (ws / "prot.log").write_text("".join(lines))
        monkeypatch.setattr(server_mod, "parse_protected_line",
                            fails_on_the_marked_line(server_mod.parse_protected_line))
        main, argv = server_main, ["recover", "--keys", str(ws / "window.kv"), "--in",
                                   str(ws / "prot.log"), "--out", str(out), "--year", "2024"]
    state = (ws / "state.kv").read_bytes()
    mask = os.sched_getaffinity(0)
    capfd.readouterr()
    with _split_into(3):
        code = main(argv)
    stdout, stderr = capfd.readouterr()
    assert code == 1, stderr
    assert stdout == ""
    assert "Traceback (most recent call last)" in stderr
    assert "RuntimeError: boom in the last share" in stderr
    assert "ended with status 1 and no result" in stderr
    assert not out.exists()
    assert (ws / "state.kv").read_bytes() == state
    _assert_no_process_left(ws, mask)


# --- one writer at a time for each state file and keystore ------------------

def test_grant_while_protect_holds_the_state_is_refused(ws, capsys, monkeypatch):
    """A `grant` run while `protect` holds the state (here from inside its
    first `protect_line`) exits 7 naming LockHeld and writes nothing; the
    state ends as `protect` leaves it, at the old epoch and the log's last
    day. Without the lock, the grant rotated the state and `protect` then
    saved the old epoch over the rotation."""
    _init_and_offer(ws)
    (ws / "raw.log").write_text("".join(
        f"{D(n).isoformat()} 12:00:00.000 I T: mail a@b.org\n" for n in (1, 2, 3)))
    grant = ["grant", "--server-offer", str(ws / "offer.kv"), "--start", D(1).isoformat(),
             "--today", D(1).isoformat(), "--out", str(ws / "grant.kv")]
    inner = []
    protect_line = client_mod.ProtectSession.protect_line

    def grant_first(self, line):
        if not inner:
            inner.append(_client(ws, *grant))
        return protect_line(self, line)

    monkeypatch.setattr(client_mod.ProtectSession, "protect_line", grant_first)
    capsys.readouterr()
    assert _client(ws, "protect", "--in", str(ws / "raw.log"), "--out", str(ws / "prot.log")) == 0
    assert inner == [7]
    assert "error LockHeld: " in capsys.readouterr().err
    assert not (ws / "grant.kv").exists()
    state = parse_kv((ws / "state.kv").read_text(), "state")
    assert (state["epoch_date"], state["chain_date"]) == (D(1).isoformat(), D(3).isoformat())
    monkeypatch.undo()
    grant[grant.index("--today") + 1] = D(3).isoformat()
    assert _client(ws, *grant) == 0  # the lock ends with the command


def test_offer_while_accept_holds_the_keystore_is_refused(ws, capsys, monkeypatch):
    """An `offer` run while `accept` holds the keystore (here from inside
    `accept_grant`) exits 7 naming LockHeld and writes nothing; the
    keystore ends as `accept` leaves it, its offer consumed. Without the
    lock, `accept` saved the keystore it loaded and lost the new offer."""
    import privlog.server as server_mod

    _init_and_offer(ws)
    assert _client(ws, "grant", "--server-offer", str(ws / "offer.kv"), "--start", D(1).isoformat(),
                   "--today", D(1).isoformat(), "--out", str(ws / "grant.kv")) == 0
    offer = ["offer", "--keystore", str(ws / "server.kv"), "--grant-id", "g-2",
             "--out", str(ws / "offer2.kv")]
    inner = []
    accept_grant = server_mod.accept_grant

    def offer_first(*args):
        inner.append(server_main(offer))
        return accept_grant(*args)

    monkeypatch.setattr(server_mod, "accept_grant", offer_first)
    capsys.readouterr()
    assert server_main(["accept", "--keystore", str(ws / "server.kv"), "--grant", str(ws / "grant.kv"),
                        "--expect-device", "pixel-lab", "--out", str(ws / "window.kv")]) == 0
    assert inner == [7]
    assert "error LockHeld: " in capsys.readouterr().err
    assert not (ws / "offer2.kv").exists()
    assert not [key for key in parse_kv((ws / "server.kv").read_text(), "ks")
                if key.startswith("eph.")]
    monkeypatch.undo()
    assert server_main(offer) == 0

"""Operator CLIs: privlog-client and privlog-server.

Files are the interchange between the two sides; there is no transport
here. Exit codes are stable for scripting: 0 ok, 2 InvalidWindow,
3 OutOfOrderDate, 4 AuthFailure, 5 ContextMismatch, 6 CorruptState,
1 anything else.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from contextlib import nullcontext
from datetime import date
from pathlib import Path
from time import perf_counter_ns
from typing import Iterator, List, Optional

from . import client as client_mod
from . import server as server_mod
from .crypto import TOKEN_LEN
from .dice import DeviceIdentity, attestation_digest, parse_identity
from .errors import CorruptState, OutOfOrderDate, PrivlogError, exit_code_for
from .grant import format_grant, parse_grant
from .kvfile import (
    atomic_write, atomic_writer, b64, b64_decode, format_kv, iso_date, parse_kv, require,
)
from .pii import YEAR_MAX, YEAR_MIN


def _fail(exc: PrivlogError) -> int:
    print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
    return exit_code_for(exc)


def _read_lines(path: str, what: str) -> Iterator[str]:
    """Lines of a UTF-8 file, split at "\n" only and untranslated, each with
    its "\n" if it has one. A file that cannot be read, or a byte that is
    not UTF-8, is CorruptState naming `what`, the path and the line."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CorruptState(f"cannot read {what} {path!r}: {exc}") from exc
    line_no = 0
    # UTF-8 never encodes a newline inside a character: lines decode alone.
    try:
        with fh:
            for line_no, raw in enumerate(fh, start=1):
                yield raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptState(f"{what} {path!r} line {line_no} is not valid UTF-8") from exc
    except OSError as exc:  # raised reading the line after the last one yielded
        raise CorruptState(f"cannot read {what} {path!r} line {line_no + 1}: {exc}") from exc


def _read(path: str, what: str) -> str:
    return "".join(_read_lines(path, what))


def _parse_year(value: Optional[str], what: str) -> Optional[int]:
    """A year for year-less dates, from a flag or the config; None stays None."""
    if value is None:
        return None
    try:
        year = int(value)
    except ValueError as exc:
        raise CorruptState(f"{what} {value!r} is not a year") from exc
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise CorruptState(f"{what} {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
    return year


def _parse_seed(value: Optional[str]) -> Optional[bytes]:
    if value is None:
        return None
    try:
        seed = bytes.fromhex(value)
    except ValueError as exc:
        raise CorruptState("seed must be hex") from exc
    if len(seed) != 32:
        raise CorruptState("seed must be 32 bytes of hex")
    return seed


# --- client ------------------------------------------------------------


class ClientConfig:
    def __init__(self, args):
        fields = {}
        if args.config:
            fields = parse_kv(_read(args.config, "config"), "config file")
        identity_path = (
            args.identity
            or os.environ.get("PRIVLOG_IDENTITY_FILE")
            or fields.get("identity")
        )
        if not identity_path:
            raise CorruptState("no identity file: set identity= in config or --identity")
        self.identity: DeviceIdentity = parse_identity(_read(identity_path, "identity file"))

        self.state_path = (
            args.state or os.environ.get("PRIVLOG_STATE_FILE") or fields.get("state")
        )
        if not self.state_path:
            raise CorruptState("no state path: set state= in config or --state")

        server_pub_b64 = args.server_pub or fields.get("server_pub")
        self.server_pub: Optional[bytes] = None
        if server_pub_b64:
            self.server_pub = b64_decode(server_pub_b64, "server_pub")

        self.server_id = args.server_id or fields.get("server_id") or "server"
        if args.year is not None:
            self.assumed_year = _parse_year(args.year, "--year")
        else:
            self.assumed_year = _parse_year(fields.get("assumed_year"), "config assumed_year")

    def load_state(self) -> client_mod.ClientState:
        return client_mod.load_state(_read(self.state_path, "state file"))

    def save_state(self, state: client_mod.ClientState) -> None:
        atomic_write(self.state_path, client_mod.save_state(state))


def _cmd_init(args) -> int:
    cfg = ClientConfig(args)
    if cfg.server_pub is None:
        raise CorruptState("init needs server_pub= in config or --server-pub")
    if Path(cfg.state_path).exists() and not args.force:
        raise CorruptState(f"state file {cfg.state_path!r} exists; use --force to re-init")
    today = iso_date(args.today, "--today") if args.today else date.today()
    state = client_mod.init_client(
        cfg.identity, cfg.server_pub, today, rng_seed=_parse_seed(args.seed)
    )
    cfg.save_state(state)
    print(f"initialized state for {cfg.identity.device_id} at epoch {today.isoformat()}")
    return 0


def _latency_line(samples: List[int]) -> str:
    if len(samples) < 2:  # statistics.quantiles needs two samples
        median = p95 = p99 = samples[0]
    else:
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        median, p95, p99 = statistics.median(samples), cuts[94], cuts[98]
    return f"latency median/p95/p99: {median / 1e6:.4f} / {p95 / 1e6:.4f} / {p99 / 1e6:.4f} ms"


def _cmd_protect(args) -> int:
    cfg = ClientConfig(args)
    today = date.today()  # with no year given, year-less dates are read nearest today
    near = today if cfg.assumed_year is None else None
    session = client_mod.ProtectSession(
        cfg.load_state(), args.mode, cfg.assumed_year or today.year, near
    )
    latencies: List[int] = []
    fields = 0
    skipped_pre_epoch = 0
    with atomic_writer(args.outfile) as out:
        for line_no, raw in enumerate(_read_lines(args.infile, "input"), start=1):
            line = raw.removesuffix("\n")
            t0 = perf_counter_ns()
            try:
                protected, count = session.protect_line(line)
            except OutOfOrderDate as exc:
                hint = " (--mode batch takes lines out of order within one run)"
                raise OutOfOrderDate(
                    f"input {args.infile!r} line {line_no}: {exc}"
                    + (hint if args.mode == client_mod.MODE_STREAM else "")
                ) from exc
            latencies.append(perf_counter_ns() - t0)
            fields += count
            if protected is None:
                skipped_pre_epoch += 1
            else:
                out.write(protected + raw[len(line):])
    cfg.save_state(session.state)

    print(f"protected {len(latencies) - skipped_pre_epoch} lines ({fields} fields) "
          f"-> {args.outfile}")
    if skipped_pre_epoch:
        print(f"skipped {skipped_pre_epoch} pre-epoch lines")
    if latencies:
        print(_latency_line(latencies))
    return 0


def _cmd_grant(args) -> int:
    cfg = ClientConfig(args)
    state = cfg.load_state()
    offer = parse_kv(_read(args.server_offer, "offer file"), "offer file")
    grant_id = require(offer, "grant_id", "offer file")
    server_eph_pub = b64_decode(
        require(offer, "server_eph_pub", "offer file"), "offer file: server_eph_pub"
    )

    today = iso_date(args.today, "--today") if args.today else date.today()
    req = client_mod.GrantRequest(
        server_pub=server_eph_pub,
        start_date=iso_date(args.start, "--start"),
        server_id=cfg.server_id,
        grant_id=grant_id,
    )
    grant, rotated = client_mod.create_grant(
        state, req, cfg.identity, today, rng_seed=_parse_seed(args.seed)
    )
    # Rotate before releasing the grant: a crash in between loses the
    # grant but can never leave a state able to re-issue this epoch.
    cfg.save_state(rotated)
    atomic_write(args.outfile, format_grant(grant))
    print(
        f"grant {grant_id} for [{req.start_date.isoformat()}, {today.isoformat()}] "
        f"-> {args.outfile}; new epoch {rotated.epoch_date.isoformat()}"
    )
    return 0


def _cmd_state(args) -> int:
    cfg = ClientConfig(args)
    state = cfg.load_state()
    print(f"device_id={cfg.identity.device_id}")
    print(f"epoch_date={state.epoch_date.isoformat()}")
    print(f"chain_date={state.chain_date.isoformat()}")
    print(f"attest_digest={b64(attestation_digest(cfg.identity))}")
    return 0


def client_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="privlog-client", description="Device-side log protection."
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--identity", help="device identity file (overrides config)")
    parser.add_argument("--state", help="state file path (overrides config)")
    parser.add_argument("--server-pub", help="server long-term public key, base64")
    parser.add_argument("--server-id", help="server identifier for grants")
    parser.add_argument("--year", help="year of year-less dates (default: today's)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="derive fresh state from the device identity")
    p.add_argument("--today", help="override current date (YYYY-MM-DD)")
    p.add_argument("--seed", help="32-byte hex seed for deterministic init")
    p.add_argument("--force", action="store_true", help="overwrite existing state")
    p.set_defaults(func=_cmd_init)

    p = sub.add_parser("protect", help="protect a raw log file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--mode", choices=(client_mod.MODE_STREAM, client_mod.MODE_BATCH),
                   default=client_mod.MODE_STREAM)
    p.set_defaults(func=_cmd_protect)

    p = sub.add_parser("grant", help="issue a time-window grant and rotate")
    p.add_argument("--server-offer", required=True, help="offer file from the server")
    p.add_argument("--start", required=True, help="window start date (YYYY-MM-DD)")
    p.add_argument("--today", help="override current date (YYYY-MM-DD)")
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--seed", help="32-byte hex seed for deterministic grant keys")
    p.set_defaults(func=_cmd_grant)

    p = sub.add_parser("state", help="print non-secret state fields")
    p.set_defaults(func=_cmd_state)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrivlogError as exc:
        return _fail(exc)


# --- server ------------------------------------------------------------


def _load_keystore(path: str) -> server_mod.ServerKeys:
    return server_mod.load_server_keys(_read(path, "keystore"))


def _cmd_keygen(args) -> int:
    if Path(args.keystore).exists() and not args.force:
        raise CorruptState(f"keystore {args.keystore!r} exists; use --force to replace")
    keys = server_mod.keygen(args.server_id, seed=_parse_seed(args.seed))
    atomic_write(args.keystore, server_mod.save_server_keys(keys))
    print(f"server_id={keys.server_id}")
    print(f"longterm_pub={b64(keys.longterm.public)}")
    return 0


def _cmd_offer(args) -> int:
    keys = _load_keystore(args.keystore)
    pub = server_mod.create_offer(keys, args.grant_id, seed=_parse_seed(args.seed))
    atomic_write(args.keystore, server_mod.save_server_keys(keys))
    atomic_write(
        args.outfile,
        format_kv([("grant_id", args.grant_id), ("server_eph_pub", b64(pub))]),
    )
    print(f"offer {args.grant_id} -> {args.outfile}")
    return 0


def _cmd_accept(args) -> int:
    keys = _load_keystore(args.keystore)
    grant = parse_grant(_read(args.grant, "grant file"))
    expect_attest = None
    if args.expect_attest:
        expect_attest = b64_decode(args.expect_attest, "--expect-attest")
    window = server_mod.accept_grant(
        keys, grant, keys.server_id, args.expect_device, expect_attest
    )
    # Window first: saving the keystore consumes the one-time offer, and
    # the client has already rotated, so a crash in between must leave
    # the offer usable rather than the window lost.
    atomic_write(args.outfile, server_mod.save_window_keys(window))
    atomic_write(args.keystore, server_mod.save_server_keys(keys))
    first, last = window.span()
    print(
        f"accepted grant {window.grant_id}: {len(window.days)} day keys "
        f"[{first.isoformat()} .. {last.isoformat()}] -> {args.outfile}"
    )
    return 0


def _cmd_recover(args) -> int:
    window = server_mod.load_window_keys(_read(args.keys, "window keys file"))
    first, _ = window.span()
    default = str((first or date.today()).year)
    year = _parse_year(args.year, "--year") or _parse_year(default, "window start year")
    events, skipped = server_mod.recover_tokens(window, _read_lines(args.infile, "input"), year)
    with atomic_writer(args.outfile) as fh:
        server_mod.write_events_csv(events, fh)
    print(f"recovered {len(events)} tokens -> {args.outfile}")
    for reason, count in skipped.items():
        if count:
            print(f"  skipped {reason}: {count}")
    return 0


def _cmd_report(args) -> int:
    events = server_mod.read_events_csv(_read_lines(args.events, "events csv"))
    if args.timeline:
        token = b64_decode(args.timeline, "--timeline token", TOKEN_LEN)
        rows = server_mod.timeline(events, token)
        out = atomic_writer(args.outfile) if args.outfile else nullcontext(sys.stdout)
        with out as fh:
            server_mod.write_timeline_csv(rows, fh)
        return 0
    if not args.outfile:
        raise CorruptState("report needs --out (or --timeline TOKEN)")
    groups = server_mod.linkage_report(events)
    with atomic_writer(args.outfile) as fh:
        server_mod.write_linkage_csv(groups, fh)
    print(f"{len(groups)} token groups over {len(events)} events -> {args.outfile}")
    return 0


def server_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="privlog-server", description="Forensic-side grant handling and recovery."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="create the long-term keypair")
    p.add_argument("--keystore", required=True)
    p.add_argument("--server-id", default="server")
    p.add_argument("--seed", help="32-byte hex seed for deterministic keys")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("offer", help="mint an ephemeral keypair for one grant")
    p.add_argument("--keystore", required=True)
    p.add_argument("--grant-id", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--seed", help="32-byte hex seed for deterministic keys")
    p.set_defaults(func=_cmd_offer)

    p = sub.add_parser("accept", help="ingest a grant into window keys")
    p.add_argument("--keystore", required=True)
    p.add_argument("--grant", required=True)
    p.add_argument("--expect-device", required=True)
    p.add_argument("--expect-attest", help="pinned attestation digest, base64")
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_accept)

    p = sub.add_parser("recover", help="decrypt tokens from a protected log")
    p.add_argument("--keys", required=True, help="window keys file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--year", help="year of year-less dates (default: the window's first)")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("report", help="linkage report or per-token timeline")
    p.add_argument("--events", required=True)
    p.add_argument("--out", dest="outfile")
    p.add_argument("--timeline", help="token (base64) to print a timeline for")
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrivlogError as exc:
        return _fail(exc)


def client_entry() -> None:
    sys.exit(client_main())


def server_entry() -> None:
    sys.exit(server_main())

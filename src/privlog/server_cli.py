"""privlog-server's commands: keygen, offer, accept, recover and report.

`cli.server_main` imports this module when it runs, so a server process
loads no client command code (see cli.py).
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import sys
import tempfile
from contextlib import nullcontext
from datetime import date
from pathlib import Path
from typing import Dict, Tuple

from . import cli, server as server_mod
from .cli import _and_lock, _check_out, _in_shares, _locked, _parse_year, _read, _read_lines
from .crypto import TOKEN_LEN, load_modules
from .errors import CorruptState
from .grant import format_offer, parse_grant
from .kvfile import atomic_write, atomic_writer, b64, b64_decode


def _load_keystore(path: str) -> server_mod.ServerKeys:
    return server_mod.load_server_keys(_read(path, "keystore"))


def _cmd_keygen(args) -> int:
    _check_out(args.keystore, [], "--keystore")
    keys = server_mod.keygen(args.server_id)
    text = server_mod.save_server_keys(keys)
    with _locked(args.keystore):
        if Path(args.keystore).exists() and not args.force:
            raise CorruptState(f"keystore {args.keystore!r} exists; use --force to replace")
        atomic_write(args.keystore, text)
    print(f"server_id={keys.server_id}")
    print(f"longterm_pub={b64(keys.longterm.public)}")
    return 0


def _cmd_offer(args) -> int:
    _check_out(args.outfile, _and_lock("--keystore", args.keystore))
    with _locked(args.keystore):
        keys = _load_keystore(args.keystore)
        pub = server_mod.create_offer(keys, args.grant_id)
        atomic_write(args.keystore, server_mod.save_server_keys(keys))
        atomic_write(args.outfile, format_offer(args.grant_id, pub))
    print(f"offer {args.grant_id} -> {args.outfile}")
    return 0


def _cmd_accept(args) -> int:
    _check_out(args.outfile, [*_and_lock("--keystore", args.keystore), ("--grant", args.grant)])
    with _locked(args.keystore):
        keys = _load_keystore(args.keystore)
        grant = parse_grant(_read(args.grant, "grant file"))
        expect_attest = None
        if args.expect_attest:
            expect_attest = b64_decode(args.expect_attest, "--expect-attest", 32)
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


def _recover_share(window, year: int, prefix, lines, start: int, fh) -> Tuple[int, Dict[str, int]]:
    """Recover input `lines` from line `start`, after the `prefix` before
    them, their rows to `fh`; the tokens recovered and the skip counters."""
    recovered = 0

    def emit(record):
        nonlocal recovered
        recovered += len(record[3])
        server_mod.write_events_csv((record,), fh)

    _, skipped = server_mod.recover_tokens(window, lines, year, emit, start, prefix)
    return recovered, skipped


def _cmd_recover(args) -> int:
    """Recover the input's tokens into the events CSV, in one share of the
    input per CPU (see `cli._in_shares`); the CSV, the summary and any error
    are those of one pass."""
    _check_out(args.outfile, [("--keys", args.keys)])
    window = server_mod.load_window_keys(_read(args.keys, "window keys file"))
    first, _ = window.span()
    default = str((first or date.today()).year)
    year = _parse_year(args.year, "--year") or _parse_year(default, "window start year")
    load_modules()  # once, before any share forks
    with atomic_writer(args.outfile) as fh:
        fh.write(server_mod.EVENTS_HEADER_LINE)
        outcomes = _in_shares(args.infile, fh, functools.partial(_recover_share, window, year))
    recovered = sum(tokens for tokens, _ in outcomes)
    skipped = {reason: sum(counts[reason] for _, counts in outcomes) for reason in outcomes[0][1]}
    print(f"recovered {recovered} tokens -> {args.outfile}")
    for reason, count in skipped.items():
        if count:
            print(f"  skipped {reason}: {count}")
    return 0


def _report_share(token, prefix, lines, start: int, fh):
    """Check the events CSV's rows from line `start` on and reduce them: with
    no `token`, to its linkage groups, each date as its ordinal and each type
    as its label; else to the timeline of `token`, one sorted run written to
    the empty `fh` in the spill format, returned as (its bytes, its rows)."""
    collections.deque(prefix, maxlen=0)
    if start > 1:
        lines = itertools.chain([server_mod.EVENTS_HEADER_LINE], lines)
    events = server_mod.read_events_csv(lines)
    if token is None:
        return [(tok, pii_type.value, count, first.toordinal(), last.toordinal())
                for tok, pii_type, count, first, last in server_mod.linkage_report(events)]
    rows = server_mod.dump_run(server_mod.timeline(events, token), fh.buffer)
    return fh.buffer.tell(), rows


def _cmd_report(args) -> int:
    """Report on the events CSV in one share of it per CPU (see
    `cli._in_shares`), merged in file order; the output, the summary and any
    error are those of one pass."""
    # Arguments are checked before the events file is read, and that file
    # is read to its end before any output is opened.
    token = None
    if args.timeline:
        token = b64_decode(args.timeline, "--timeline token", TOKEN_LEN)
    elif not args.outfile:
        raise CorruptState("report needs --out (or --timeline TOKEN)")
    if args.outfile:
        _check_out(args.outfile, [])
    share = functools.partial(_report_share, token)
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as runs:
        try:
            outcomes = _in_shares(args.events, runs, share, "events csv",
                                  cli.SPLIT_MIN_EVENTS_BYTES)
        except CorruptState as exc:
            # A share that ends inside a quoted field (a template holding
            # "\n") fails as a file cut there: read it again in one share,
            # whose run starts the file again.
            if not str(exc).endswith("unexpected end of data"):
                raise
            runs.seek(0)
            outcomes = [share((), _read_lines(args.events, "events csv"), 1, runs)]
        if token is not None:
            sizes, counts = zip(*outcomes)
            starts = itertools.accumulate(sizes, initial=0)
            rows = server_mod.merged_runs(runs.buffer, list(zip(starts, counts)), [])
            out = atomic_writer(args.outfile) if args.outfile else nullcontext(sys.stdout)
            with out as fh:
                server_mod.write_timeline_csv(rows, fh)
            return 0
    groups = server_mod.merged_linkage(outcomes)
    with atomic_writer(args.outfile) as fh:
        server_mod.write_linkage_csv(groups, fh)
    total = sum(g.count for g in groups)
    print(f"{len(groups)} token groups over {total} events -> {args.outfile}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privlog-server", description="Forensic-side grant handling and recovery."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="create the long-term keypair")
    p.add_argument("--keystore", required=True)
    p.add_argument("--server-id", default="server")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("offer", help="mint an ephemeral keypair for one grant")
    p.add_argument("--keystore", required=True)
    p.add_argument("--grant-id", required=True)
    p.add_argument("--out", dest="outfile", required=True)
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

    return parser

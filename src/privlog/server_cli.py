"""privlog-server's commands: keygen, offer, accept, recover and report.

`cli.server_main` imports this module when it runs, so a server process
loads no client command code (see cli.py).
"""

from __future__ import annotations

import argparse
import itertools
import marshal
import os
import stat
import sys
import tempfile
from contextlib import ExitStack, nullcontext
from datetime import date
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import errors, server as server_mod
from .cli import _check_out, _parse_year, _read, _read_lines
from .crypto import TOKEN_LEN
from .errors import CorruptState, PrivlogError
from .grant import format_offer, parse_grant
from .kvfile import atomic_write, atomic_writer, b64, b64_decode


def _load_keystore(path: str) -> server_mod.ServerKeys:
    return server_mod.load_server_keys(_read(path, "keystore"))


def _cmd_keygen(args) -> int:
    if Path(args.keystore).exists() and not args.force:
        raise CorruptState(f"keystore {args.keystore!r} exists; use --force to replace")
    keys = server_mod.keygen(args.server_id)
    atomic_write(args.keystore, server_mod.save_server_keys(keys))
    print(f"server_id={keys.server_id}")
    print(f"longterm_pub={b64(keys.longterm.public)}")
    return 0


def _cmd_offer(args) -> int:
    _check_out(args.outfile, [("--keystore", args.keystore)])
    keys = _load_keystore(args.keystore)
    pub = server_mod.create_offer(keys, args.grant_id)
    atomic_write(args.keystore, server_mod.save_server_keys(keys))
    atomic_write(args.outfile, format_offer(args.grant_id, pub))
    print(f"offer {args.grant_id} -> {args.outfile}")
    return 0


def _cmd_accept(args) -> int:
    _check_out(args.outfile, [("--keystore", args.keystore), ("--grant", args.grant)])
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


# A regular input smaller than this is recovered in one process. Below it,
# forking a process per CPU and walking each to its share cost about as much
# as the split saves (measured on a 2-CPU VM; see the README).
RECOVER_SPLIT_MIN_BYTES = 512 * 1024
# The input is counted and the children's rows are copied in reads of this
# many bytes, so this process holds little more than one line's record.
_SPLIT_READ = 1 << 13


def _share_cpus() -> List[int]:
    """The CPUs this process may use, in order: one share of the input each.
    One where the system cannot tell."""
    if not hasattr(os, "sched_getaffinity"):
        return [0]
    return sorted(os.sched_getaffinity(0))


def _shares(path: str) -> List[Tuple[int, int]]:
    """The (CPU, first line) of each share `recover` splits `path` into: one
    per CPU of `_share_cpus`, of about equal bytes, each starting at the line
    that holds its first byte. One share alone, whose CPU is unused, when a
    split cannot help: one CPU, an input that is not a regular file or is
    smaller than RECOVER_SPLIT_MIN_BYTES, or one that cannot be read here
    (the one pass over it then names the line that fails)."""
    cpus = _share_cpus()
    try:
        st = os.stat(path)
        if len(cpus) < 2 or not stat.S_ISREG(st.st_mode) or st.st_size < RECOVER_SPLIT_MIN_BYTES:
            return [(cpus[0], 1)]
        starts = [1]
        newlines = pos = 0
        with open(path, "rb") as fh:
            for share in range(1, len(cpus)):
                cut = st.st_size * share // len(cpus)
                while pos < cut and (chunk := fh.read(min(cut - pos, _SPLIT_READ))):
                    newlines += chunk.count(b"\n")
                    pos += len(chunk)
                starts.append(newlines + 1)
    except OSError:
        return [(cpus[0], 1)]
    return list(zip(cpus, starts))


def _recover_share(window, path: str, year: int, start: int, stop: Optional[int],
                   fh) -> Tuple[int, Dict[str, int]]:
    """Recover input lines `start` to `stop` (to the end if None), their rows
    to `fh`; the tokens recovered and the skip counters. The lines before
    `start` are read too: they set the running year, and a read error names
    its line in the whole file."""
    recovered = 0

    def emit(record):
        nonlocal recovered
        recovered += len(record[3])
        server_mod.write_events_csv((record,), fh)

    # A share that stops early leaves the reader suspended; it closes its
    # file when it is freed, on return.
    lines = itertools.islice(_read_lines(path, "input"), stop)
    _, skipped = server_mod.recover_tokens(window, lines, year, emit, start)
    return recovered, skipped


def _fork_share(stack: ExitStack, window, path: str, year: int, cpu: int, start: int,
                stop: Optional[int]) -> list:
    """Start a child that recovers one share pinned to `cpu`; returns
    [pid, start, rows, result]. The child writes its rows to `rows`, an
    unlinked temporary file, then its tokens and counters, or its error's
    class name and message, to the pipe read by `result`, and ends with
    `os._exit` on every path; one that ends another way sends nothing.
    `stack` closes both files and, unless `_join_share` reaped the child,
    kills and reaps it. The CLI starts no thread, so forking it is safe."""
    rows = stack.enter_context(tempfile.TemporaryFile())
    r, w = os.pipe()
    result = stack.enter_context(open(r, "rb"))
    with open(w, "wb") as pipe:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                try:
                    os.sched_setaffinity(0, {cpu})
                    with open(rows.fileno(), "w", encoding="utf-8", newline="",
                              closefd=False) as fh:
                        outcome = _recover_share(window, path, year, start, stop, fh)
                except PrivlogError as exc:
                    outcome = (type(exc).__name__, str(exc))
                pipe.write(marshal.dumps(outcome))
                pipe.flush()
                code = 0
            except BaseException:  # any other error: its traceback, and no result
                sys.excepthook(*sys.exc_info())
            finally:
                os._exit(code)
    child = [pid, start, rows, result]
    stack.callback(_reap, child)
    return child


def _reap(child: list) -> None:
    """Kill and reap a child of `_fork_share` that `_join_share` did not reap."""
    if child[0] is not None:
        from signal import SIGKILL  # only a failed run needs it

        os.kill(child[0], SIGKILL)
        os.waitpid(child[0], 0)


def _join_share(child: list, fh) -> Tuple[int, Dict[str, int]]:
    """Wait for a child of `_fork_share`, then append its rows to `fh`;
    its tokens and counters. Its error is raised here, as the same class
    with the same message."""
    pid, start, rows, result = child
    outcome = result.read()
    status = os.waitpid(pid, 0)[1]
    child[0] = None
    if not outcome:
        raise PrivlogError(f"the process recovering input lines from {start} on ended "
                           f"with status {os.waitstatus_to_exitcode(status)} and no result")
    outcome = marshal.loads(outcome)
    if isinstance(outcome[0], str):
        name, message = outcome
        raise getattr(errors, name)(message)
    fh.flush()
    rows.seek(0)
    while chunk := rows.read(_SPLIT_READ):
        fh.buffer.write(chunk)
    return outcome


def _cmd_recover(args) -> int:
    """Recover the input's tokens into the events CSV, in one share of the
    input per CPU (see `_shares`). Share 0 runs in this process, pinned to
    its CPU, and writes straight into the CSV. Each later share runs in a
    child forked for it and pinned to its own CPU (see `_fork_share`); its
    rows follow in share order once share 0 is done. So the CSV, the summary
    and any error are those of one pass over the input. When this process
    fails, it kills and reaps every child before it raises, and its CPU mask
    is restored on every path."""
    _check_out(args.outfile, [("--keys", args.keys)])
    window = server_mod.load_window_keys(_read(args.keys, "window keys file"))
    first, _ = window.span()
    default = str((first or date.today()).year)
    year = _parse_year(args.year, "--year") or _parse_year(default, "window start year")
    shares = _shares(args.infile)
    stops = [start - 1 for _, start in shares[1:]] + [None]
    children: List[list] = []
    with atomic_writer(args.outfile) as fh, ExitStack() as stack:
        fh.write(server_mod.EVENTS_HEADER_LINE)
        if len(shares) > 1:
            if window.days:  # the cipher module is imported once, before the forks
                next(iter(window.days.values())).aead()
            stack.callback(os.sched_setaffinity, 0, os.sched_getaffinity(0))
            for (cpu, start), stop in zip(shares[1:], stops[1:]):
                children.append(_fork_share(stack, window, args.infile, year, cpu, start, stop))
            os.sched_setaffinity(0, {shares[0][0]})
        recovered, skipped = _recover_share(window, args.infile, year, 1, stops[0], fh)
        for child in children:
            tokens, counts = _join_share(child, fh)
            recovered += tokens
            skipped = {reason: count + counts[reason] for reason, count in skipped.items()}
    print(f"recovered {recovered} tokens -> {args.outfile}")
    for reason, count in skipped.items():
        if count:
            print(f"  skipped {reason}: {count}")
    return 0


def _cmd_report(args) -> int:
    # Arguments are checked before the events file is read, and that file
    # is read to its end before any output is opened.
    token = None
    if args.timeline:
        token = b64_decode(args.timeline, "--timeline token", TOKEN_LEN)
    elif not args.outfile:
        raise CorruptState("report needs --out (or --timeline TOKEN)")
    events = server_mod.read_events_csv(_read_lines(args.events, "events csv"))
    if token is not None:
        rows = server_mod.timeline(events, token)
        out = atomic_writer(args.outfile) if args.outfile else nullcontext(sys.stdout)
        with out as fh:
            server_mod.write_timeline_csv(rows, fh)
        return 0
    groups = server_mod.linkage_report(events)
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

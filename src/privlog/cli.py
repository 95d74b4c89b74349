"""Operator CLIs: privlog-client and privlog-server.

Files are the interchange between the two sides; there is no transport
here. A command exits 0, or with the `exit_code` of the error that ends it
(see errors.py).
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
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import errors
from .crypto import TOKEN_LEN
from .errors import CorruptState, OutOfOrderDate, PrivlogError
from .grant import format_grant, format_offer, parse_grant, parse_offer
from .kvfile import atomic_write, atomic_writer, b64, b64_decode, iso_date, parse_kv
from .pii import YEAR_MAX, YEAR_MIN


def _run(parser: argparse.ArgumentParser, argv: Optional[List[str]]) -> int:
    """Parse `argv` and run its command; an error ends it on stderr with its class's code."""
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrivlogError as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


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


# --- client ------------------------------------------------------------


class ClientConfig:
    def __init__(self, args):
        fields = {}
        if args.config:
            fields = parse_kv(_read(args.config, "config"), "config file")
        identity_path = args.identity or fields.get("identity")
        if not identity_path:
            raise CorruptState("no identity file: set identity= in config or --identity")
        self.identity = dice.parse_identity(_read(identity_path, "identity file"))

        self.state_path = args.state or fields.get("state")
        if not self.state_path:
            raise CorruptState("no state path: set state= in config or --state")

        server_pub_b64 = args.server_pub or fields.get("server_pub")
        self.server_pub: Optional[bytes] = None
        if server_pub_b64:
            self.server_pub = b64_decode(server_pub_b64, "server_pub", 32)

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
    state = client_mod.init_client(cfg.identity, cfg.server_pub, today)
    cfg.save_state(state)
    print(f"initialized state for {cfg.identity.device_id} at epoch {today.isoformat()}")
    return 0


# Protect's latency histogram. A duration below 2**6 ns has a bucket of
# its own; past that, each power of two splits into 2**5 buckets, so a
# bucket is at most 1/32 as wide as its smallest value. 2**11 buckets
# cover every duration below 2**69 ns.
_SUB_BITS = 5
_BUCKETS = 64 << _SUB_BITS


def _bucket(ns: int) -> int:
    # 63 is 2**(_SUB_BITS + 1) - 1: every duration below 64 ns shifts by 0,
    # as `max(..., 0)` would make it, without the cost of a call per line.
    shift = (ns | 63).bit_length() - _SUB_BITS - 1
    return (shift << _SUB_BITS) + (ns >> shift)


def _bucket_value(index: int) -> float:
    """The middle of the bucket's whole values: within 1/64 of any of them."""
    shift = max((index >> _SUB_BITS) - 1, 0)
    low = (index - (shift << _SUB_BITS)) << shift
    return low + ((1 << shift) - 1) / 2


def _percentiles(counts: List[int], percents: Sequence[int]) -> List[float]:
    """For each of the ascending `percents`, the sample of nearest rank, as
    the middle of its bucket."""
    n = sum(counts)
    ranks = [max(1, -(-n * p // 100)) for p in percents]
    values: List[float] = []
    seen = 0
    for index, count in enumerate(counts):
        seen += count
        while len(values) < len(ranks) and seen >= ranks[len(values)]:
            values.append(_bucket_value(index))
    return values


def _latency_line(counts: List[int]) -> str:
    median, p95, p99 = _percentiles(counts, (50, 95, 99))
    return f"latency median/p95/p99: {median / 1e6:.4f} / {p95 / 1e6:.4f} / {p99 / 1e6:.4f} ms"


def _cmd_protect(args) -> int:
    cfg = ClientConfig(args)
    today = date.today()  # with no year given, year-less dates are read nearest today
    near = today if cfg.assumed_year is None else None
    session = client_mod.ProtectSession(
        cfg.load_state(), args.mode, cfg.assumed_year or today.year, near
    )
    latencies = [0] * _BUCKETS
    line_no = fields = 0
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
            latencies[_bucket(perf_counter_ns() - t0)] += 1
            fields += count
            if protected is None:
                skipped_pre_epoch += 1
            else:
                out.write(protected + raw[len(line):])
    cfg.save_state(session.state)

    print(f"protected {line_no - skipped_pre_epoch} lines ({fields} fields) "
          f"-> {args.outfile}")
    if skipped_pre_epoch:
        print(f"skipped {skipped_pre_epoch} pre-epoch lines")
    if line_no:
        print(_latency_line(latencies))
    return 0


def _cmd_grant(args) -> int:
    cfg = ClientConfig(args)
    state = cfg.load_state()
    grant_id, offer_pub = parse_offer(_read(args.server_offer, "offer file"))
    today = iso_date(args.today, "--today") if args.today else date.today()
    req = client_mod.GrantRequest(
        server_pub=offer_pub,
        start_date=iso_date(args.start, "--start"),
        server_id=cfg.server_id,
        grant_id=grant_id,
    )
    grant, rotated = client_mod.create_grant(state, req, cfg.identity, today)
    # Format the grant before rotating, so one its file cannot hold rotates
    # nothing. Rotate before releasing it: a crash in between loses the
    # grant but can never leave a state able to re-issue this epoch.
    grant_text = format_grant(grant)
    cfg.save_state(rotated)
    atomic_write(args.outfile, grant_text)
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
    print(f"attest_digest={b64(dice.attestation_digest(cfg.identity))}")
    return 0


def client_main(argv: Optional[List[str]] = None) -> int:
    # Each entry point imports only its own side's engine, so no client command
    # loads the server's code and no server command the client's or `dice`.
    global client_mod, dice
    from . import client as client_mod, dice

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
    p.set_defaults(func=_cmd_grant)

    p = sub.add_parser("state", help="print non-secret state fields")
    p.set_defaults(func=_cmd_state)

    return _run(parser, argv)


# --- server ------------------------------------------------------------


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
    keys = _load_keystore(args.keystore)
    pub = server_mod.create_offer(keys, args.grant_id)
    atomic_write(args.keystore, server_mod.save_server_keys(keys))
    atomic_write(args.outfile, format_offer(args.grant_id, pub))
    print(f"offer {args.grant_id} -> {args.outfile}")
    return 0


def _cmd_accept(args) -> int:
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


def server_main(argv: Optional[List[str]] = None) -> int:
    global server_mod
    from . import server as server_mod

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

    return _run(parser, argv)


def client_entry() -> None:
    sys.exit(client_main())


def server_entry() -> None:
    sys.exit(server_main())

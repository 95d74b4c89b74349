"""Operator CLIs: privlog-client and privlog-server.

Files are the interchange between the two sides; there is no transport
here. A command exits 0, or with the `exit_code` of the error that ends it
(see errors.py). Each side's commands live in a module of their own
(client_cli.py, server_cli.py), which its entry point imports when it
runs: a client process loads no server code, and a server process no
client code or `dice`. What both sides share is here: the error exit,
the line reader, the year flag, the --out check, the writer's lock and
the split of a large input into one share per CPU (`_in_shares`).
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import glob
import itertools
import marshal
import os
import stat
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, TextIO, Tuple

from . import errors
from .errors import CorruptState, LockHeld, PrivlogError
from .pii import YEAR_MAX, YEAR_MIN


def _run(parser: argparse.ArgumentParser, argv: Optional[List[str]]) -> int:
    """Parse `argv` and run its command; an error ends it on stderr with its class's code."""
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrivlogError as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


def _read_lines(path: str, what: str, raw: int = 0) -> Iterator:
    """Lines of a UTF-8 file, split at "\n" only and untranslated, each with
    its "\n" if it has one: str, but the first `raw` lines as read, bytes.
    A file that cannot be read, or a byte that is not UTF-8, is
    CorruptState naming `what`, the path and the line."""
    try:
        fh = open(path, "rb")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise CorruptState(f"cannot read {what} {path!r}: {exc}") from exc
    line_no = raw
    # UTF-8 never encodes a newline inside a character: lines decode alone.
    try:
        with fh:
            yield from itertools.islice(fh, raw)
            for line_no, line in enumerate(fh, start=raw + 1):
                yield line.decode("utf-8")
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


def _entry(path: str) -> str:
    """The directory entry that an atomic write to `path` replaces: its
    directory resolved, its last name as given, as a symlink there is
    replaced and not followed."""
    p = Path(path)
    return os.path.join(os.path.realpath(p.parent), p.name)


def _check_out(outfile: str, files: Sequence[Tuple[str, Optional[str]]],
               flag: str = "--out") -> None:
    """Refuse an output `outfile` (given as `flag`) whose write would replace
    one of the (flag, path) `files` a command reads, rotates or consumes:
    the entry at that path, or the file a symlink there points to. Either
    would lose a key, a state or the command's own result. A hard link to
    one of them, or a symlink to one of them at `outfile`, is replaced
    alone and may be the output. Run before any file is written. The one
    input a command streams to its end before its output's rename may
    share the path. A name that ends in ".lock" is refused too: it may be
    the lock file of another command's state or keystore (see `_locked`),
    which a write would replace while that command holds it. So is an
    entry that no write may replace (`kvfile.check_replaceable`)."""
    for name, path in files:
        try:
            same = path is not None and _entry(outfile) in (_entry(path), os.path.realpath(path))
        except ValueError:  # a NUL byte in either path: the open that fails names it
            same = False
        if same:
            raise CorruptState(f"{flag} {outfile!r} and {name} {path!r} are the same file")
    if os.path.basename(outfile).endswith(".lock"):
        raise CorruptState(f"{flag} {outfile!r} ends in '.lock', the name of a lock file")
    # Imported here: at the top, it raised recover's peak RSS by about 0.15
    # MB when the modules compile from source (no bytecode cache).
    from .kvfile import check_replaceable

    check_replaceable(outfile)


def _and_lock(flag: str, path: str) -> List[Tuple[str, str]]:
    """`_check_out`'s (flag, path) pairs for a file the command locks: the
    file and its lock file (see `_locked`), which no output may replace."""
    return [(flag, path), (f"{flag} lock", path + ".lock")]


@contextlib.contextmanager
def _locked(path: str) -> Iterator[None]:
    """Hold an exclusive lock on the file `path` + ".lock", beside the
    entry a write to `path` replaces, for the block: one command at a
    time reads, changes and writes a state or a keystore. A command that
    finds it held fails at once with LockHeld. The lock file is created
    if missing and never removed. The lock ends when the last descriptor
    of its open file closes, so a forked child, which ends by `os._exit`
    and never unlocks, leaves it held. Holding it, it removes each temp
    file of `path` that only a killed writer can have left (README)."""
    try:
        if os.path.isdir(path):  # its write would be refused: make no lock beside it
            raise CorruptState(f"cannot write {path!r}: it is a directory")
        lock = _entry(path) + ".lock"
        fd = os.open(lock, os.O_RDWR | os.O_CREAT, 0o600)
    except OSError as exc:
        raise CorruptState(f"cannot lock {path!r}: {exc.strerror}") from exc
    except ValueError as exc:  # a NUL byte in the path
        raise CorruptState(f"cannot lock {path!r}: {exc}") from exc
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError as exc:
        os.close(fd)
        raise LockHeld(f"{path!r} is in use: another command holds {lock!r}") from exc
    try:
        # `atomic_writer`'s temp names: 8 random characters between these.
        temps = glob.escape(f"{os.path.dirname(lock)}/.{Path(path).name}.") + "?" * 8 + ".tmp"
        for stale in glob.glob(temps):
            with contextlib.suppress(OSError):
                os.unlink(stale)
        yield
    finally:
        os.close(fd)


# A regular input smaller than this is read in one process. Below it,
# forking a process per CPU and walking each to its share cost about as much
# as the split saves (measured on a 2-CPU VM; see the README).
SPLIT_MIN_BYTES = 512 * 1024
# The same for `report`'s events CSV, whose rows cost less to read than
# lines cost to protect or recover: its split breaks even at about 1 MiB
# and gains 4% at 1.5 MiB (see the README).
SPLIT_MIN_EVENTS_BYTES = 1536 * 1024
# The input is counted and the children's output is copied in reads of this
# many bytes.
_SPLIT_READ = 1 << 13

# run_share(prefix, lines, start, fh): the raw input lines before `start`,
# then the share's lines from `start` on, output to `fh`; an outcome that
# marshal can carry.
RunShare = Callable[[Iterator[bytes], Iterator[str], int, TextIO], object]


def _share_cpus() -> List[int]:
    """The CPUs this process may use, in order: one share of the input each.
    One where the system cannot tell."""
    if not hasattr(os, "sched_getaffinity"):
        return [0]
    return sorted(os.sched_getaffinity(0))


def _shares(path: str, min_bytes: Optional[int] = None) -> List[Tuple[int, int]]:
    """The (CPU, first line) of each share `_in_shares` splits `path` into:
    one per CPU of `_share_cpus`, of about equal bytes, each starting at the
    line that holds its first byte. One share alone, whose CPU is unused,
    when a split cannot help: one CPU, an input that is not a regular file
    or is smaller than `min_bytes` (SPLIT_MIN_BYTES if None), or one that
    cannot be read here (the one pass over it then names the line that
    fails)."""
    cpus = _share_cpus()
    try:
        st = os.stat(path)
        least = SPLIT_MIN_BYTES if min_bytes is None else min_bytes
        if len(cpus) < 2 or not stat.S_ISREG(st.st_mode) or st.st_size < least:
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
    except (OSError, ValueError):  # ValueError: a NUL byte in the path
        return [(cpus[0], 1)]
    return list(zip(cpus, starts))


def _fork_share(stack: contextlib.ExitStack, run_share: Callable, cpu: int, start: int,
                stop: Optional[int]) -> list:
    """Start a child that runs `run_share(start, stop, fh)` pinned to `cpu`;
    returns [pid, start, output, result]. The child writes its output to
    `output`, an unlinked temporary file, then (outcome, None), or (None,
    (its error's class name, message)), to the pipe read by `result`, and ends with
    `os._exit` on every path; one that ends another way sends nothing.
    `stack` closes both files and, unless `_join_share` reaped the child,
    kills and reaps it. The CLI starts no thread, so forking it is safe."""
    output = stack.enter_context(tempfile.TemporaryFile())
    r, w = os.pipe()
    result = stack.enter_context(open(r, "rb"))
    with open(w, "wb") as pipe:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                try:
                    os.sched_setaffinity(0, {cpu})
                    with open(output.fileno(), "w", encoding="utf-8", newline="",
                              closefd=False) as fh:
                        outcome = (run_share(start, stop, fh), None)
                except PrivlogError as exc:
                    outcome = (None, (type(exc).__name__, str(exc)))
                pipe.write(marshal.dumps(outcome))
                pipe.flush()
                code = 0
            except BaseException:  # any other error: its traceback, and no result
                sys.excepthook(*sys.exc_info())
            finally:
                os._exit(code)
    child = [pid, start, output, result]
    stack.callback(_reap, child)
    return child


def _reap(child: list) -> None:
    """Kill and reap a child of `_fork_share` that `_join_share` did not reap."""
    if child[0] is not None:
        from signal import SIGKILL  # only a failed run needs it

        os.kill(child[0], SIGKILL)
        os.waitpid(child[0], 0)


def _join_share(child: list, fh: TextIO) -> object:
    """Wait for a child of `_fork_share`, then append its output to `fh`;
    its outcome. Its error is raised here, as the same class with the same
    message."""
    pid, start, output, result = child
    outcome = result.read()
    status = os.waitpid(pid, 0)[1]
    child[0] = None
    if not outcome:
        raise PrivlogError(f"the process for input lines from {start} on ended "
                           f"with status {os.waitstatus_to_exitcode(status)} and no result")
    outcome, error = marshal.loads(outcome)
    if error is not None:
        name, message = error
        raise getattr(errors, name)(message)
    fh.flush()
    output.seek(0)
    while chunk := output.read(_SPLIT_READ):
        fh.buffer.write(chunk)
    return outcome


def _in_shares(path: str, out: TextIO, run_share: RunShare, what: str = "input",
               min_bytes: Optional[int] = None) -> list:
    """Run `run_share` over the input `path` (named `what` in an error) in
    one share per CPU (see `_shares`, given `min_bytes`), its output to
    `out` in share order; each share's outcome, in order. Share 0 runs in
    this process, pinned to its CPU, and writes straight to `out`. Each
    later share runs in a child forked for it and pinned to its own CPU
    (see `_fork_share`), after the caller loaded what every share needs;
    its output follows once share 0 is done. A share left with no line by
    a line that spans its cut is not run. A share's error is raised in
    share order, so the output and any error are those of one pass over
    the input. When this process fails, it kills and reaps every child
    before it raises, and its CPU mask is restored on every path. A later
    share gets the lines before it as bytes: one that is not UTF-8 fails
    an earlier share first."""
    shares = _shares(path, min_bytes)
    stops = [start - 1 for _, start in shares[1:]] + [None]

    def share(start: int, stop: Optional[int], fh: TextIO):  # lines `start` to `stop`
        lines = _read_lines(path, what, start - 1)  # freed, so closed, on return
        return run_share(itertools.islice(lines, start - 1),
                         itertools.islice(lines, stop and stop - start + 1), start, fh)

    with contextlib.ExitStack() as stack:
        children = []
        if len(shares) > 1:
            stack.callback(os.sched_setaffinity, 0, os.sched_getaffinity(0))
            for (cpu, start), stop in zip(shares[1:], stops[1:]):
                if stop is None or stop >= start:
                    children.append(_fork_share(stack, share, cpu, start, stop))
            os.sched_setaffinity(0, {shares[0][0]})
        outcomes = [share(1, stops[0], out)] if stops[0] != 0 else []
        outcomes.extend(_join_share(child, out) for child in children)
    return outcomes


def client_main(argv: Optional[List[str]] = None) -> int:
    from . import client_cli

    return _run(client_cli.build_parser(), argv)


def server_main(argv: Optional[List[str]] = None) -> int:
    from . import server_cli

    return _run(server_cli.build_parser(), argv)


def client_entry() -> None:
    sys.exit(client_main())


def server_entry() -> None:
    sys.exit(server_main())

"""Operator CLIs: privlog-client and privlog-server.

Files are the interchange between the two sides; there is no transport
here. A command exits 0, or with the `exit_code` of the error that ends it
(see errors.py). Each side's commands live in a module of their own
(client_cli.py, server_cli.py), which its entry point imports when it
runs: a client process loads no server code, and a server process no
client code or `dice`. What both sides share is here.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import CorruptState, PrivlogError
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
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
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
    share the path."""
    for name, path in files:
        try:
            same = path is not None and _entry(outfile) in (_entry(path), os.path.realpath(path))
        except ValueError:  # a NUL byte in either path: the open that fails names it
            same = False
        if same:
            raise CorruptState(f"{flag} {outfile!r} and {name} {path!r} are the same file")


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

"""Line-oriented key=value files used for state, grants, offers and keys,
and the one CSV field rule every CSV writer uses.

All on-disk secrets are base64; dates are ISO YYYY-MM-DD. Every file the
CLIs write goes through `atomic_writer` (uniquely named temp file, fsync,
rename, directory fsync) so a crash never leaves a half-written file in
place and concurrent writers never share a temp file.
"""

from __future__ import annotations

import base64
import contextlib
import os
import re
import stat
import tempfile
from binascii import b2a_base64
from datetime import date
from pathlib import Path
from typing import Dict, Iterator, TextIO, Union

from .errors import CorruptState


def parse_kv(text: str, what: str = "file") -> Dict[str, str]:
    out: Dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            # Named by number: a line that lost its key may be a secret.
            raise CorruptState(f"{what}: malformed line {line_no}")
        key, _, value = line.partition("=")
        out[key] = value
    return out


def parse_versioned(text: str, what: str, version: str) -> Dict[str, str]:
    """`parse_kv`, then require field `v` to be `version` (else CorruptState)."""
    fields = parse_kv(text, what)
    found = require(fields, "v", what)
    if found != version:
        raise CorruptState(f"{what} version {found!r}")
    return fields


def format_kv(rows) -> str:
    """One `key=value` line per row. CorruptState names the first key whose
    line `parse_kv` would not read back as written (a line break, white
    space at the line's start or end, '=' in the key, a key that starts a
    comment) or that comes twice, so no file is written that reads back
    otherwise."""
    lines: Dict[str, str] = {}
    for key, value in rows:
        line = f"{key}={value}\n"
        try:
            back = parse_kv(line)
        except CorruptState:
            back = None
        if back != {key: value} or key in lines:
            raise CorruptState(f"field {key!r} would not read back as written")
        lines[key] = line
    return "".join(lines.values())


def require(fields: Dict[str, str], key: str, what: str) -> str:
    if key not in fields:
        raise CorruptState(f"{what}: missing field {key!r}")
    return fields[key]


def b64_decode(text: str, what: str, length: int = 0) -> bytes:
    """Strict base64 (no stray characters) of `length` bytes if `length` is
    set; CorruptState names `what`."""
    try:
        decoded = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise CorruptState(f"{what} is not valid base64") from exc
    if length and len(decoded) != length:
        raise CorruptState(f"{what} has {len(decoded)} bytes, expected {length}")
    return decoded


def b64_field(fields: Dict[str, str], key: str, what: str, length: int = 0) -> bytes:
    return b64_decode(require(fields, key, what), f"{what}: field {key!r}", length)


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(text: str, what: str) -> date:
    """A YYYY-MM-DD date, and no other ISO form; CorruptState names `what`."""
    if _ISO_DATE.fullmatch(text):
        with contextlib.suppress(ValueError):
            return date.fromisoformat(text)
        raise CorruptState(f"{what}: {text!r} is not an ISO date (YYYY-MM-DD)")
    # Quoted only in the date's shape: text of any other may hold a secret.
    raise CorruptState(f"{what} is not an ISO date (YYYY-MM-DD)")


def date_field(fields: Dict[str, str], key: str, what: str) -> date:
    return iso_date(require(fields, key, what), f"{what}: field {key!r}")


def b64(raw: bytes) -> str:
    return b2a_base64(raw, newline=False).decode("ascii")


def csv_field(text: str) -> str:
    """`text` as csv.writer's default dialect writes it in a row of several
    fields: quoted only if it holds ',', '"', '\r' or '\n', quotes doubled."""
    if '"' in text or "," in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def check_replaceable(path: Union[str, Path]) -> None:
    """CorruptState unless a write may replace the entry at `path`: none,
    a regular file, or a symlink to one or to nothing. Not a directory,
    which the rename refuses only after the whole write, nor a device, FIFO
    or socket (a run as root would replace the /dev/stdout link)."""
    try:
        mode = os.stat(path).st_mode
    except (OSError, ValueError):  # none there; or a path the write names as it fails
        return
    if stat.S_ISDIR(mode):
        raise CorruptState(f"cannot write {str(path)!r}: it is a directory")
    if not stat.S_ISREG(mode):
        raise CorruptState(f"cannot write {str(path)!r}: it is not a regular file")


@contextlib.contextmanager
def atomic_writer(path: Union[str, Path]) -> Iterator[TextIO]:
    """A UTF-8 text file streaming into a temp file that replaces `path`
    only if the block ends without an exception."""
    path = Path(path)
    check_replaceable(path)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    except OSError as exc:  # its message names the temp file, not `path`
        raise CorruptState(f"cannot write {str(path)!r}: {exc.strerror}") from exc
    except ValueError as exc:  # a NUL byte in the path
        raise CorruptState(f"cannot write {str(path)!r}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    # Make the rename itself durable, not just the file contents.
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def atomic_write(path: Union[str, Path], text: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(text)

"""privlog-client's commands: init, protect, grant and state.

`cli.client_main` imports this module when it runs, so a client process
loads no server command code (see cli.py).
"""

from __future__ import annotations

import argparse
from datetime import date
from pathlib import Path
from time import perf_counter_ns
from typing import List, Optional, Sequence

from . import client as client_mod, dice
from .cli import _check_out, _parse_year, _read, _read_lines
from .errors import CorruptState, OutOfOrderDate
from .grant import format_grant, parse_offer
from .kvfile import atomic_write, atomic_writer, b64, b64_decode, iso_date, parse_kv


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
        # The files an output must not replace; config entries under their flags.
        self.files = [("--config", args.config), ("--identity", identity_path),
                      ("--state", self.state_path)]

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
    _check_out(cfg.state_path, cfg.files[:2], "--state")  # --force replaces the state alone
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
    _check_out(args.outfile, cfg.files)
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
    _check_out(args.outfile, [*cfg.files, ("--server-offer", args.server_offer)])
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
    # Format the grant and open its file before rotating, so a grant that
    # file cannot hold, or a path it cannot be written to, rotates nothing.
    # Rotate before releasing it: a crash in between loses the grant but
    # can never leave a state able to re-issue this epoch.
    grant_text = format_grant(grant)
    with atomic_writer(args.outfile) as out:
        cfg.save_state(rotated)
        out.write(grant_text)
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


def build_parser() -> argparse.ArgumentParser:
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

    return parser

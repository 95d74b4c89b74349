"""Workload shapes, the value-reuse corpus builder and the benchmark set-up.

Set-up builds everything a measured round needs: the raw corpus with its
planted truth, the device identity, the client state at its epoch, a
server keystore holding one outstanding offer, and a grant over the
workload's window. The program is driven through its public library
calls here; the measured rounds drive it through its CLIs.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Dict, List, Tuple

from privlog import client, server
from privlog.corpus import BenchConfig, PlantedPii, generate_corpus
from privlog.dice import DeviceIdentity, format_identity
from privlog.grant import format_grant

START = date(2024, 5, 1)
YEAR = START.year
SERVER_ID = "bench-server"
DEVICE_ID = "bench-device"
GRANT_ID = "case-1"

# Each planted type keeps this many distinct values, drawn with weight
# 1 / rank**ZIPF_S, so that values recur and a few dominate. Both numbers
# are unverified stand-ins: no measured reuse level of device-log
# identifiers backs them.
POOL_SIZE = 64
ZIPF_S = 1.1


@dataclass(frozen=True)
class Workload:
    name: str
    lines: int
    density: str  # privlog.corpus density name
    days: int
    reuse: bool  # remap planted values onto a Zipf-like pool per type
    window_days: int  # the grant covers the last `window_days` days
    # The read side recovers the protected log concatenated this many
    # times, so that recovery, not interpreter start-up, fills the
    # recover child's wall time.
    copies: int

    def shape(self) -> Dict[str, object]:
        return {
            "lines": self.lines,
            "days": self.days,
            "density": self.density,
            "reuse": f"zipf(pool={POOL_SIZE}, s={ZIPF_S})" if self.reuse else "none",
            "window_days": self.window_days,
            "recover_copies": self.copies,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("emit-sparse", 15_000, "low", 30, reuse=False, window_days=30, copies=6),
        Workload("emit-dense", 5_000, "high", 30, reuse=True, window_days=30, copies=3),
        Workload("investigate", 5_000, "high", 30, reuse=True, window_days=20, copies=3),
    )
}


def remap_values(
    lines: List[str], truth: List[PlantedPii], seed: int
) -> Tuple[List[str], List[PlantedPii]]:
    """Replace each planted value by a Zipf-drawn value of the same type.

    The pool for a type is a seeded sample of the generator's own planted
    values of that type, so every replacement is a value the generator
    could have planted there. Spans are shifted to the new lengths.
    """
    rng = random.Random(f"reuse-{seed}")
    by_type: Dict[object, List[str]] = {}
    for p in truth:
        by_type.setdefault(p.pii_type, []).append(p.text)
    pools = {}
    for pii_type, values in by_type.items():
        distinct = list(dict.fromkeys(values))
        pools[pii_type] = rng.sample(distinct, min(POOL_SIZE, len(distinct)))
    cum = list(itertools.accumulate(1 / (rank + 1) ** ZIPF_S for rank in range(POOL_SIZE)))

    new_lines = list(lines)
    new_truth: List[PlantedPii] = []
    for line_no, group in itertools.groupby(truth, key=lambda p: p.line_no):
        old = lines[line_no - 1]
        parts = []
        pos = shift = 0
        for p in group:
            pool = pools[p.pii_type]
            text = rng.choices(pool, cum_weights=cum[: len(pool)])[0]
            parts += [old[pos : p.start], text]
            start = p.start + shift
            new_truth.append(PlantedPii(line_no, start, start + len(text), p.pii_type, text))
            shift += len(text) - (p.end - p.start)
            pos = p.end
        parts.append(old[pos:])
        new_lines[line_no - 1] = "".join(parts)
    return new_lines, new_truth


def _seed_bytes(label: str, seed: int) -> bytes:
    return hashlib.sha256(f"{label}-{seed}".encode()).digest()


@dataclass
class Setup:
    workload: Workload
    lines: List[str]
    truth: List[PlantedPii]
    state: client.ClientState
    window: server.WindowKeys
    window_start: date
    last_day: date
    files: Dict[str, Path]


def set_up(w: Workload, seed: int, work: Path) -> Setup:
    cfg = BenchConfig(
        line_count=w.lines, pii_density=w.density, day_span=w.days, seed=seed, start_date=START
    )
    lines, truth = generate_corpus(cfg)
    if w.reuse:
        lines, truth = remap_values(lines, truth, seed)
    files = {
        name: work / name
        for name in ("raw.log", "identity.kv", "state0.kv", "keystore0.kv", "grant.kv")
    }
    files["raw.log"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    identity = DeviceIdentity(
        uds=_seed_bytes("uds", seed), measurement=_seed_bytes("fw", seed), device_id=DEVICE_ID
    )
    files["identity.kv"].write_text(format_identity(identity))
    keys = server.keygen(SERVER_ID, seed=_seed_bytes("server", seed))
    state = client.init_client(
        identity, keys.longterm.public, START, rng_seed=_seed_bytes("client", seed)
    )
    files["state0.kv"].write_text(client.save_state(state))

    offer_pub = server.create_offer(keys, GRANT_ID, seed=_seed_bytes("offer", seed))
    keystore_text = server.save_server_keys(keys)
    files["keystore0.kv"].write_text(keystore_text)

    # A protect run leaves the chain at the last line's day; the grant is
    # issued from that position, as a device would after emitting the log.
    last_day = START + timedelta(days=w.days - 1)
    window_start = last_day - timedelta(days=w.window_days - 1)
    at_end, _ = client.advance_to(state, last_day)
    req = client.GrantRequest(
        server_pub=offer_pub, start_date=window_start, server_id=SERVER_ID, grant_id=GRANT_ID
    )
    grant, _ = client.create_grant(
        at_end, req, identity, last_day, rng_seed=_seed_bytes("grant", seed)
    )
    files["grant.kv"].write_text(format_grant(grant))
    # The in-process recovery uses its own copy of the keystore, so the
    # offer on disk stays outstanding for the CLI accept.
    window = server.accept_grant(
        server.load_server_keys(keystore_text), grant, SERVER_ID, DEVICE_ID
    )
    return Setup(w, lines, truth, state, window, window_start, last_day, files)

"""Deterministic synthetic logcat corpus with a planted-PII ground truth.

Every random draw goes through one seeded RNG, so a config produces a
byte-identical corpus on every run. Planted values are generated to
conform to the detection patterns, and the filler vocabulary is chosen so
that nothing else in a line matches any pattern; the planted truth is
therefore an exact detection and recovery oracle, which the test suite
enforces.

Only what perfbench imports lives here; scripts/gen_corpus.py writes the
corpus and its truth sidecar to files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date, timedelta
from typing import List, Tuple

from .pii import PiiType

DENSITY_MEAN = {"low": 0.1, "medium": 1.0, "high": 3.0}

_MAX_PII_PER_LINE = 6


@dataclass(frozen=True)
class BenchConfig:
    line_count: int
    pii_density: str
    day_span: int
    seed: int
    start_date: date = date(2024, 5, 1)

    def __post_init__(self):
        if self.line_count < 1:
            raise ValueError("line_count must be >= 1")
        if self.day_span < 1:
            raise ValueError("day_span must be >= 1")
        if self.pii_density not in DENSITY_MEAN:
            raise ValueError(f"pii_density must be one of {sorted(DENSITY_MEAN)}")


@dataclass(frozen=True)
class PlantedPii:
    line_no: int  # 1-based
    start: int
    end: int
    pii_type: PiiType
    text: str


_TAGS = [
    "AuthService",
    "ActivityManager",
    "ConnectivityService",
    "PackageManager",
    "WifiService",
    "BluetoothManager",
    "TelephonyRegistry",
    "NetworkMonitor",
    "SyncManager",
    "PowerManager",
]
_LEVELS = "VDIWE"

# Filler words must never form a detectable pattern, alone or joined by
# single spaces: no '@', no '://', no digit runs past four, no separators
# between digit groups.
_WORDS = [
    "service", "connection", "started", "stopped", "failed", "retry",
    "status", "ready", "user", "device", "session", "request", "response",
    "queue", "buffer", "sync", "policy", "update", "battery", "charging",
    "wakelock", "released", "acquired", "timeout", "bind", "unbind",
    "intent", "broadcast", "receiver", "provider", "activity", "resumed",
    "paused", "window", "focus", "network", "validated", "captive",
    "portal", "roaming", "handover", "scan", "results", "bssid", "hidden",
    "profile", "granted", "denied", "permission", "package", "installed",
]

_EMAIL_USERS = ["alice", "bob", "carol", "dave", "eve", "frank", "grace", "heidi"]
_EMAIL_DOMAINS = ["example.com", "test.org", "mail.net", "corp.example"]
_URL_HOSTS = ["api.example.com", "sync.test.org", "cdn.mail.net", "auth.corp.example"]
_URL_PATHS = ["v1/login", "v2/sync", "files/upload", "account/reset", "telemetry/push"]


def _gen_value(rng: random.Random, pii_type: PiiType) -> str:
    if pii_type is PiiType.EMAIL:
        return f"{rng.choice(_EMAIL_USERS)}{rng.randrange(1000)}@{rng.choice(_EMAIL_DOMAINS)}"
    if pii_type is PiiType.PHONE:
        return f"{rng.randrange(200, 990)}-{rng.randrange(100, 1000)}-{rng.randrange(1000, 10000)}"
    if pii_type is PiiType.IMEI:
        return "35" + "".join(str(rng.randrange(10)) for _ in range(13))
    if pii_type is PiiType.MAC:
        return ":".join(f"{rng.randrange(256):02x}" for _ in range(6))
    if pii_type is PiiType.IPV4:
        return ".".join(str(rng.randrange(1, 255)) for _ in range(4))
    if pii_type is PiiType.IPV6:
        return ":".join(f"{rng.randrange(0x10000):04x}" for _ in range(8))
    if pii_type is PiiType.URL:
        # A share of long query tokens keeps URLs that exceed the fixed
        # protected-element size in every corpus.
        tok_len = rng.choice([8, 12, 16, 48, 64, 80])
        tok = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(tok_len))
        return f"https://{rng.choice(_URL_HOSTS)}/{rng.choice(_URL_PATHS)}?session={tok}"
    if pii_type is PiiType.SSN:
        return f"{rng.randrange(100, 900):03d}-{rng.randrange(10, 100):02d}-{rng.randrange(1000, 10000):04d}"
    if pii_type is PiiType.CREDIT_CARD:
        if rng.random() < 0.5:
            return "-".join(f"{rng.randrange(1000, 10000)}" for _ in range(4))
        return "4" + "".join(str(rng.randrange(10)) for _ in range(15))
    if pii_type is PiiType.DEVICE_SERIAL:
        return "SN-" + "".join(rng.choice("ABCDEFGHJKLMNPQRSTUVWXYZ0123456789") for _ in range(12))
    raise ValueError(pii_type)


def _pii_count(rng: random.Random, mean: float) -> int:
    p = mean / _MAX_PII_PER_LINE
    return sum(rng.random() < p for _ in range(_MAX_PII_PER_LINE))


def generate_corpus(cfg: BenchConfig) -> Tuple[List[str], List[PlantedPii]]:
    """Build `cfg.line_count` chronological lines over `cfg.day_span` days."""
    rng = random.Random(cfg.seed)
    types = list(PiiType)
    lines: List[str] = []
    truth: List[PlantedPii] = []

    for i in range(cfg.line_count):
        day_index = i * cfg.day_span // cfg.line_count
        day = cfg.start_date + timedelta(days=day_index)
        position = i * cfg.day_span - day_index * cfg.line_count
        seconds = 86399 * position // max(1, cfg.line_count)
        ts = (
            f"{day.month:02d}-{day.day:02d} "
            f"{seconds // 3600:02d}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}."
            f"{rng.randrange(1000):03d}"
        )
        pid = rng.randrange(1000, 32768)
        tid = rng.randrange(1000, 32768)
        prefix = f"{ts} {pid:5d} {tid:5d} {rng.choice(_LEVELS)} {rng.choice(_TAGS)}: "

        tokens: List[Tuple[str, object]] = [
            (rng.choice(_WORDS), None) for _ in range(rng.randrange(3, 9))
        ]
        for _ in range(_pii_count(rng, DENSITY_MEAN[cfg.pii_density])):
            pii_type = rng.choice(types)
            tokens.insert(
                rng.randrange(len(tokens) + 1), (_gen_value(rng, pii_type), pii_type)
            )

        line = prefix + " ".join(text for text, _ in tokens)
        offset = len(prefix)
        for text, pii_type in tokens:
            if pii_type is not None:
                truth.append(
                    PlantedPii(
                        line_no=i + 1,
                        start=offset,
                        end=offset + len(text),
                        pii_type=pii_type,
                        text=text,
                    )
                )
            offset += len(text) + 1
        lines.append(line)
    return lines, truth

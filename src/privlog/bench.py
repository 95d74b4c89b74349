"""Benchmark harness: protect latency and throughput, recovery speed, size overhead.

Measured numbers are printed next to the published reference figures from
the on-device deployment of this scheme (median 0.2 ms per message, 97.1
bytes per protected field, 2.41% corpus growth). Those depend on that
hardware and corpus, so they are context lines here, never assertions.
Per-layer timings are measured from outside the program by `perfbench/`.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple, Union

from . import client as client_mod
from . import server as server_mod
from .corpus import BenchConfig, PlantedPii, generate_corpus
from .dice import DeviceIdentity
from .pii import detect_pii, extract_date

REFERENCE_ANDROID_MEDIAN_MS = 0.2
REFERENCE_FIELD_OVERHEAD_BYTES = 97.1
REFERENCE_CORPUS_OVERHEAD_PCT = 2.41

# '<PII type=""></PII>' plus the 60-char payload; add the label length.
ELEMENT_BASE_LEN = 79


@dataclass
class LatencySummary:
    median_ns: int
    p95_ns: int
    p99_ns: int


def summarize(samples: List[int]) -> LatencySummary:
    if not samples:
        return LatencySummary(0, 0, 0)
    if len(samples) < 2:
        v = int(samples[0])
        return LatencySummary(v, v, v)
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return LatencySummary(
        median_ns=int(statistics.median(samples)),
        p95_ns=int(cuts[94]),
        p99_ns=int(cuts[98]),
    )


@dataclass
class TypeOverhead:
    count: int
    avg_plaintext_len: float
    element_len: int
    avg_overhead_bytes: float


@dataclass
class BenchReport:
    config: BenchConfig
    line_count: int
    field_count: int
    total_line_summary: LatencySummary
    throughput_lps: float
    baseline_lps: float
    total_overhead_bytes: int
    overhead_pct: float
    per_type: Dict[str, TypeOverhead]
    type_counts: Dict[str, int]
    recovered_fields: int
    recover_lps: float
    wall_seconds: float = 0.0


def run_bench(
    cfg: BenchConfig,
    out_dir: Optional[Union[str, Path]] = None,
    assumed_year: Optional[int] = None,
) -> BenchReport:
    t_wall0 = perf_counter_ns()
    year = assumed_year if assumed_year is not None else cfg.start_date.year
    lines, truth = generate_corpus(cfg)

    identity = DeviceIdentity(
        uds=bytes((cfg.seed + i) % 256 for i in range(32)),
        measurement=b"\x5a" * 32,
        device_id="bench-device",
    )
    server_keys = server_mod.keygen("bench-server", seed=b"\x21" * 32)
    state = client_mod.init_client(
        identity, server_keys.longterm.public, cfg.start_date, rng_seed=b"\x09" * 32
    )

    session = client_mod.ProtectSession(state, mode=client_mod.MODE_STREAM, assumed_year=year)
    protected: List[str] = []
    line_ns: List[int] = []
    t0 = perf_counter_ns()
    for line in lines:
        t1 = perf_counter_ns()
        out, _ = session.protect_line(line)
        line_ns.append(perf_counter_ns() - t1)
        if out is not None:
            protected.append(out)
    protect_ns = perf_counter_ns() - t0
    throughput = len(lines) / (protect_ns / 1e9)

    # Null pipeline: detection and date parsing without any crypto or
    # rewriting, as the floor the protection cost is compared against.
    t0 = perf_counter_ns()
    for line in lines:
        extract_date(line, year)
        detect_pii(line)
    baseline_ns = perf_counter_ns() - t0
    baseline = len(lines) / (baseline_ns / 1e9)

    total_overhead = sum(len(p.encode()) for p in protected) - sum(
        len(l.encode()) for l in lines
    )
    raw_bytes = sum(len(l.encode()) for l in lines)
    overhead_pct = 100.0 * total_overhead / raw_bytes if raw_bytes else 0.0
    per_type, type_counts = _type_overheads(truth)

    # Full-span grant, then recovery over the protected corpus.
    last_day = cfg.start_date + timedelta(days=cfg.day_span - 1)
    offer_pub = server_mod.create_offer(server_keys, "bench-grant", seed=b"\x33" * 32)
    grant, _ = client_mod.create_grant(
        session.state,
        client_mod.GrantRequest(
            server_pub=offer_pub,
            start_date=cfg.start_date,
            server_id="bench-server",
            grant_id="bench-grant",
        ),
        identity,
        last_day,
        rng_seed=b"\x44" * 32,
    )
    window = server_mod.accept_grant(server_keys, grant, "bench-server", "bench-device")
    t0 = perf_counter_ns()
    events, _skipped = server_mod.recover_tokens(window, protected, year)
    recover_ns = perf_counter_ns() - t0
    recover_lps = len(protected) / (recover_ns / 1e9) if protected else 0.0

    report = BenchReport(
        config=cfg,
        line_count=len(lines),
        field_count=len(truth),
        total_line_summary=summarize(line_ns),
        throughput_lps=throughput,
        baseline_lps=baseline,
        total_overhead_bytes=total_overhead,
        overhead_pct=overhead_pct,
        per_type=per_type,
        type_counts=type_counts,
        recovered_fields=len(events),
        recover_lps=recover_lps,
        wall_seconds=(perf_counter_ns() - t_wall0) / 1e9,
    )
    if out_dir is not None:
        write_report_files(report, Path(out_dir))
    return report


def _type_overheads(truth: List[PlantedPii]) -> Tuple[Dict[str, TypeOverhead], Dict[str, int]]:
    by_type: Dict[str, List[int]] = {}
    for p in truth:
        by_type.setdefault(p.pii_type.value, []).append(len(p.text))
    overheads = {}
    counts = {}
    for label, lengths in sorted(by_type.items()):
        element_len = ELEMENT_BASE_LEN + len(label)
        avg_plain = sum(lengths) / len(lengths)
        overheads[label] = TypeOverhead(
            count=len(lengths),
            avg_plaintext_len=avg_plain,
            element_len=element_len,
            avg_overhead_bytes=element_len - avg_plain,
        )
        counts[label] = len(lengths)
    return overheads, counts


def write_report_files(report: BenchReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "stage_timings.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "median_ns", "p95_ns", "p99_ns"])
        t = report.total_line_summary
        writer.writerow(["total", t.median_ns, t.p95_ns, t.p99_ns])
    with open(out_dir / "type_overhead.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["pii_type", "count", "avg_plaintext_len", "element_len", "avg_overhead_bytes"]
        )
        for label, t in report.per_type.items():
            writer.writerow(
                [label, t.count, f"{t.avg_plaintext_len:.1f}", t.element_len, f"{t.avg_overhead_bytes:.1f}"]
            )
    (out_dir / "summary.txt").write_text(format_summary(report))


def format_summary(report: BenchReport) -> str:
    lines = [
        f"corpus: {report.line_count} lines, {report.field_count} planted fields, "
        f"{report.config.day_span} days, density={report.config.pii_density}, seed={report.config.seed}",
        f"protect throughput: {report.throughput_lps:,.0f} lines/s "
        f"(detection-only baseline: {report.baseline_lps:,.0f} lines/s)",
        f"protect latency median/p95/p99: {report.total_line_summary.median_ns / 1e6:.4f} / "
        f"{report.total_line_summary.p95_ns / 1e6:.4f} / {report.total_line_summary.p99_ns / 1e6:.4f} ms",
    ]
    avg_field = (
        report.total_overhead_bytes / report.field_count if report.field_count else 0.0
    )
    lines += [
        f"size overhead: {report.total_overhead_bytes:,} bytes total "
        f"({report.overhead_pct:.2f}% of raw), {avg_field:.1f} bytes per protected field",
        f"server recovery: {report.recovered_fields} fields at {report.recover_lps:,.0f} lines/s",
        "reference (Android deployment, different hardware and corpus; context only): "
        f"median {REFERENCE_ANDROID_MEDIAN_MS} ms per message, "
        f"{REFERENCE_FIELD_OVERHEAD_BYTES} bytes per field, "
        f"{REFERENCE_CORPUS_OVERHEAD_PCT}% corpus overhead",
    ]
    per_type = ", ".join(
        f"{label}:{t.avg_overhead_bytes:+.1f}B" for label, t in report.per_type.items()
    )
    lines.append(f"per-occurrence overhead by type: {per_type}")
    return "\n".join(lines) + "\n"

#!/usr/bin/env python3
"""Generate a synthetic logcat corpus plus its ground-truth sidecar."""

import argparse
from datetime import date
from pathlib import Path
from typing import Tuple, Union

from privlog.corpus import BenchConfig, generate_corpus
from privlog.kvfile import csv_field

TRUTH_HEADER = ["line_no", "start", "end", "pii_type", "plaintext"]


def write_corpus(
    cfg: BenchConfig,
    log_path: Union[str, Path],
    truth_path: Union[str, Path],
) -> Tuple[int, int]:
    """Write the raw log and its ground-truth sidecar; returns (lines, planted)."""
    lines, truth = generate_corpus(cfg)
    Path(log_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(truth_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRUTH_HEADER) + "\r\n")
        for p in truth:
            fh.write(f"{p.line_no},{p.start},{p.end},{p.pii_type.value},{csv_field(p.text)}\r\n")
    return len(lines), len(truth)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lines", type=int, default=10_000)
    parser.add_argument("--density", choices=("low", "medium", "high"), default="medium")
    parser.add_argument("--days", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--start", default="2024-05-01", help="first day (YYYY-MM-DD)")
    parser.add_argument("--out", default="corpus.log")
    parser.add_argument("--truth", default=None, help="sidecar path (default: <out>.truth.csv)")
    args = parser.parse_args()

    cfg = BenchConfig(
        line_count=args.lines,
        pii_density=args.density,
        day_span=args.days,
        seed=args.seed,
        start_date=date.fromisoformat(args.start),
    )
    truth_path = args.truth or f"{args.out}.truth.csv"
    n_lines, n_planted = write_corpus(cfg, args.out, truth_path)
    print(f"{n_lines} lines, {n_planted} planted fields -> {args.out}, {truth_path}")


if __name__ == "__main__":
    main()

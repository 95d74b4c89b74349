#!/usr/bin/env python3
"""Fold saved perfbench outputs of a parent and a change into one BENCH file.

Usage:
    python3 scripts/fold_bench.py --parent P1.txt P2.txt ... --change C1.txt C2.txt ... \
        --out BENCH_8.json

Each file is the standard output of one `perfbench/run.py` run: its
`env ...` line and its last line, the JSON result. Untraced runs of the two
sides are paired by workload and seed. For each workload and end-to-end
metric named in BENCHMARK.json, the output gives each side's median,
quartiles (inclusive method) and [min, max], and how many pairs the change
won in the metric's better direction. Traced runs (`--trace 1`) give the
per-layer metrics of one seed for each side, as reported.

A run is never dropped silently: a second untraced run of the same
workload and seed on one side, an untraced run with no partner on the
other side, or a second traced run of a workload on one side ends the
script with a message naming the file.
"""

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_run(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{path}: {result['failed']} of {result['attempted']} fields failed")
    return env, {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Per side: (workload, seed) or, traced, workload -> (path, metrics).
    runs = {"parent": {}, "change": {}}
    traced = {"parent": {}, "change": {}}
    envs = {}
    for side in runs:
        for path in getattr(args, side):
            env, metrics = read_run(path)
            envs.setdefault(side, {k: env[k] for k in ("nproc", "python", "cryptography")})
            if env["trace"]:
                table, key = traced[side], env["workload"]
                metrics = {"seed": env["seed"], **metrics}
            else:
                table, key = runs[side], (env["workload"], env["seed"])
            if key in table:
                raise SystemExit(f"{path}: second {side} run of {key}, after {table[key][0]}")
            table[key] = path, metrics
    for side, other in (("parent", "change"), ("change", "parent")):
        for key, (path, _) in runs[side].items():
            if key not in runs[other]:
                raise SystemExit(f"{path}: no {other} run of {key} to pair with")
    end_to_end = {}
    for workload, seed in sorted(runs["parent"]):
        end_to_end.setdefault(workload, {"seeds": []})["seeds"].append(seed)
    for workload, entry in end_to_end.items():
        pairs = [(runs["parent"][(workload, s)][1], runs["change"][(workload, s)][1])
                 for s in entry["seeds"]]
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            parent = [p[name] for p, _ in pairs]
            change = [c[name] for _, c in pairs]
            entry[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "parent": summary(parent), "change": summary(change),
                "change_won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "median_change_pct": 100 * (statistics.median(change) / statistics.median(parent) - 1),
            }
    per_layer = {}
    for side, table in traced.items():
        for workload, (_, metrics) in table.items():
            per_layer.setdefault(workload, {})[side] = metrics
    out = {"env": envs, "end_to_end": end_to_end, "per_layer": per_layer}
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

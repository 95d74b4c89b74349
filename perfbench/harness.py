"""Measured rounds, metrics and the correctness gate; see run.py for the load shape."""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import cryptography
from privlog import client, server

import oracle
from spawner import speed
from tracing import Tracer, install
from workload import DEVICE_ID, WORKLOADS, YEAR, Setup, set_up

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
CHUNK_LINES = 1000  # library lines timed between two machine-speed samples
INVESTIGATION = ("accept", "recover", "report", "timeline")

END_TO_END = {
    "setup_s": "s",
    "protect_p50_us": "us",
    "protect_lps": "lines/s",
    "protect_peak_rss_mb": "MB",
    "field_overhead_bytes": "B",
    "corpus_growth_pct": "%",
    "recover_lps": "lines/s",
    "recover_peak_rss_mb": "MB",
    "investigate_s": "s",
}

PER_LAYER = {
    "pii.detect_pii.us_per_call": "us",
    "pii.detect_pii.share": "ratio",
    "pii.detect_pii.precision": "ratio",
    "pii.detect_pii.recall": "ratio",
    "pii.extract_date.us_per_call": "us",
    "crypto.pseudonymize.calls": "count",
    "crypto.pseudonymize.us_per_call": "us",
    "crypto.pseudonymize.share": "ratio",
    "crypto.aead_seal.calls": "count",
    "crypto.aead_seal.us_per_call": "us",
    "crypto.aead_seal.share": "ratio",
    "pii.encode_protected_line.us_per_call": "us",
    "client.advance_to.calls": "count",
    "client.advance_to.us_per_call": "us",
    "client.protect_line.self_us_per_call": "us",
    "client.protect_line.self_share": "ratio",
    "client.protect_line.p99_us": "us",
    "cli.protect.self_s": "s",
    "server.accept_grant.ms": "ms",
    "crypto.ratchet_step.calls": "count",
    "pii.parse_protected_line.us_per_call": "us",
    "pii.parse_protected_line.share": "ratio",
    "crypto.aead_open.calls": "count",
    "crypto.aead_open.us_per_call": "us",
    "crypto.aead_open.share": "ratio",
    "server.recover_tokens.self_share": "ratio",
    "server.recover_tokens.useful_ratio": "ratio",
    "server.write_events_csv.s": "s",
    "server.read_events_csv.s": "s",
    "server.linkage_report.s": "s",
    "server.timeline.s": "s",
    "cli.recover.self_s": "s",
    "trace.overhead_pct": "%",
}

PROTECT_LINE, RECOVER_TOKENS = "client.protect_line", "server.recover_tokens"


class ChildFailed(RuntimeError):
    pass


class Bench:
    def __init__(self, setup: Setup, work: Path, trace: bool, spawner):
        self.s = setup
        self.spawner = spawner
        self.work = work
        self.trace = trace
        self.log = work / "children.log"
        self.out = {n: work / n for n in ("state.kv", "keystore.kv", "prot.log", "copies.log",
                                          "window.kv", "events.csv", "linkage.csv", "timeline.csv")}
        self.protected: list = []

    # --- child processes ---------------------------------------------

    def child(self, label: str, side: str, *argv) -> dict:
        trace_out = self.work / f"trace-{label}.json" if self.trace else None
        cmd = [sys.executable, str(HERE / "child.py"), str(trace_out or "-"), side, *map(str, argv)]
        self.spawner.stdin.write(json.dumps([cmd, str(self.log)]) + "\n")
        self.spawner.stdin.flush()
        done = json.loads(self.spawner.stdout.readline())
        if done["code"] != 0:
            tail = self.log.read_text(errors="replace")[-2000:]
            raise ChildFailed(f"{label} exited {done['code']}:\n{tail}")
        spans = Tracer.load(json.loads(trace_out.read_text())) if trace_out else None
        return {"wall": done["wall"], "speed": done["speed"], "scaled": done["wall"] * done["speed"],
                "rss_mb": done["maxrss_kb"] / 1024, "spans": spans}

    def cli_chain(self) -> dict:
        """The operator's path: protect, then accept, recover, report, timeline."""
        f, o = self.s.files, self.out
        shutil.copyfile(f["state0.kv"], o["state.kv"])
        shutil.copyfile(f["keystore0.kv"], o["keystore.kv"])
        runs = {
            "protect": self.child(
                "protect", "client", "--identity", f["identity.kv"], "--state", o["state.kv"],
                "--year", YEAR, "protect", "--in", f["raw.log"], "--out", o["prot.log"]),
        }
        o["copies.log"].write_bytes(o["prot.log"].read_bytes() * self.s.workload.copies)
        runs.update({
            "accept": self.child(
                "accept", "server", "accept", "--keystore", o["keystore.kv"], "--grant", f["grant.kv"],
                "--expect-device", DEVICE_ID, "--out", o["window.kv"]),
            "recover": self.child(
                "recover", "server", "recover", "--keys", o["window.kv"], "--in", o["copies.log"],
                "--out", o["events.csv"], "--year", YEAR),
            "report": self.child(
                "report", "server", "report", "--events", o["events.csv"], "--out", o["linkage.csv"]),
        })
        with open(o["linkage.csv"], encoding="utf-8") as fh:
            fh.readline()
            top_token = fh.readline().split(",", 1)[0]
        runs["timeline"] = self.child(
            "timeline", "server", "report", "--events", o["events.csv"], "--timeline", top_token,
            "--out", o["timeline.csv"])
        return runs

    # --- in-process library calls ------------------------------------

    def protect_pass(self, raw=None, scaled=None) -> list:
        """One closed-loop pass, one caller.

        Per-line times go to `raw` as measured and, when `scaled` is given,
        to `scaled` multiplied by the machine speed sampled around each
        chunk of CHUNK_LINES lines.
        """
        protect = client.ProtectSession(self.s.state, client.MODE_STREAM, YEAR).protect_line
        out = []
        if raw is None:
            for line in self.s.lines:
                out.append(protect(line)[0])
            return out
        clock, lines = perf_counter_ns, self.s.lines
        before = speed() if scaled is not None else 1.0
        for start in range(0, len(lines), CHUNK_LINES):
            chunk = []
            for line in lines[start : start + CHUNK_LINES]:
                t0 = clock()
                protected, _ = protect(line)
                chunk.append(clock() - t0)
                out.append(protected)
            raw.extend(chunk)
            if scaled is not None:
                after = speed()
                factor = (before + after) / 2
                scaled.extend(ns * factor for ns in chunk)
                before = after
        return out

    def recover(self, protected: list):
        return server.recover_tokens(self.s.window, protected, YEAR)

    # --- rounds ------------------------------------------------------

    def run_rounds(self, seconds: float):
        """Repeat rounds while the next one is expected to end within `seconds`."""
        self.protect_pass()  # warm-up: imports, regex caches, allocator
        self.raw_ns, self.scaled_ns = [], []
        rounds = []
        begin = perf_counter()
        while True:
            r0 = perf_counter()
            rounds.append(self.traced_round(len(rounds)) if self.trace else self.plain_round())
            if (perf_counter() - begin) + (perf_counter() - r0) > seconds:
                return rounds

    def plain_round(self) -> dict:
        self.protected = self.protect_pass(self.raw_ns, self.scaled_ns)
        return self.cli_chain()

    def traced_round(self, index: int) -> dict:
        tracer = Tracer()
        latencies = []

        def untraced():
            before = speed()
            t0 = perf_counter_ns()
            self.recover(self.protect_pass(raw=latencies))
            self.plain_speed = (before + speed()) / 2
            return (perf_counter_ns() - t0) * self.plain_speed

        def traced():
            before = speed()
            restore = install(tracer, keep_results=("pii.detect_pii",))
            try:
                t0 = perf_counter_ns()
                self.protected = self.protect_pass()
                t1 = perf_counter_ns()
                self.skipped = self.recover(self.protected)[1]
                t2 = perf_counter_ns()
            finally:
                restore()
            self.loop_ns = {PROTECT_LINE: t1 - t0, RECOVER_TOKENS: t2 - t1}
            self.traced_speed = (before + speed()) / 2
            return (t2 - t0) * self.traced_speed

        # Alternate the order so drift in machine speed favours neither side.
        if index % 2:
            traced_ns, plain_ns = traced(), untraced()
        else:
            plain_ns, traced_ns = untraced(), traced()
        self.tracer = tracer
        m = self.library_layers(tracer, self.traced_speed)
        m["trace.overhead_pct"] = 100.0 * (traced_ns - plain_ns) / plain_ns
        latencies.sort()
        m["client.protect_line.p99_us"] = latencies[int(0.99 * (len(latencies) - 1))] * self.plain_speed / 1e3
        runs = self.cli_chain()

        def span_s(step, fn, name):
            return fn(runs[step]["spans"], name) * runs[step]["speed"] / 1e9

        total, own = Tracer.total_ns, Tracer.self_ns
        m["cli.protect.self_s"] = span_s("protect", own, "cli.client_main")
        m["server.accept_grant.ms"] = span_s("accept", total, "server.accept_grant") * 1e3
        m["crypto.ratchet_step.calls"] = runs["accept"]["spans"].calls("crypto.ratchet_step")
        m["server.write_events_csv.s"] = span_s("recover", total, "server.write_events_csv")
        m["cli.recover.self_s"] = span_s("recover", own, "cli.server_main")
        m["server.read_events_csv.s"] = (span_s("report", total, "server.read_events_csv")
                                         + span_s("timeline", total, "server.read_events_csv"))
        m["server.linkage_report.s"] = span_s("report", total, "server.linkage_report")
        m["server.timeline.s"] = span_s("timeline", total, "server.timeline")
        return m

    def library_layers(self, t: Tracer, speed_factor: float) -> dict:
        """Per-layer figures of one traced protect pass and recover_tokens call."""
        pl_ns, rt_ns = t.total_ns(PROTECT_LINE), t.total_ns(RECOVER_TOKENS)

        def us_per_call(name):
            return t.us_per_call(name) * speed_factor

        m = {
            "pii.detect_pii.us_per_call": us_per_call("pii.detect_pii"),
            "pii.detect_pii.share": t.total_ns("pii.detect_pii", PROTECT_LINE) / pl_ns,
            "pii.extract_date.us_per_call": us_per_call("pii.extract_date"),
            "pii.encode_protected_line.us_per_call": us_per_call("pii.encode_protected_line"),
            "client.protect_line.self_us_per_call":
                t.self_ns(PROTECT_LINE) / t.calls(PROTECT_LINE) / 1e3 * speed_factor,
            "client.protect_line.self_share": t.self_ns(PROTECT_LINE) / pl_ns,
            "pii.parse_protected_line.us_per_call": us_per_call("pii.parse_protected_line"),
            "pii.parse_protected_line.share": t.total_ns("pii.parse_protected_line", RECOVER_TOKENS) / rt_ns,
            "server.recover_tokens.self_share": t.self_ns(RECOVER_TOKENS) / rt_ns,
        }
        for name in ("crypto.pseudonymize", "crypto.aead_seal", "client.advance_to", "crypto.aead_open"):
            m[f"{name}.calls"] = t.calls(name)
            m[f"{name}.us_per_call"] = us_per_call(name)
        for name, parent, ns in (("crypto.pseudonymize", PROTECT_LINE, pl_ns),
                                 ("crypto.aead_seal", PROTECT_LINE, pl_ns),
                                 ("crypto.aead_open", RECOVER_TOKENS, rt_ns)):
            m[f"{name}.share"] = t.total_ns(name, parent) / ns
        sk = self.skipped
        parsed = t.calls("pii.parse_protected_line")
        opened = parsed - sk["lines_no_pii"] - sk["lines_no_date"] - sk["lines_out_of_window"]
        m["server.recover_tokens.useful_ratio"] = opened / parsed
        detected = {(i, d.start, d.end, d.pii_type)
                    for i, spans in enumerate(t.results["pii.detect_pii"], 1) for d in spans}
        planted = {(p.line_no, p.start, p.end, p.pii_type) for p in self.s.truth}
        hits = len(detected & planted)
        m["pii.detect_pii.precision"] = hits / len(detected) if detected else 1.0
        m["pii.detect_pii.recall"] = hits / len(planted) if planted else 1.0
        return m

    def span_report(self) -> list:
        """Self time plus child spans against each span's total and the loop's wall."""
        out = []
        for name in (PROTECT_LINE, RECOVER_TOKENS):
            total, own = self.tracer.total_ns(name), self.tracer.self_ns(name)
            kids = self.tracer.children_ns(name)
            parts = ", ".join(f"{k} {v / 1e6:.1f}" for k, v in sorted(kids.items(), key=lambda kv: -kv[1]))
            out.append(
                f"spans {name}: self {own / 1e6:.1f} + children {sum(kids.values()) / 1e6:.1f} ms "
                f"= {(own + sum(kids.values())) / 1e6:.1f} ms of span total {total / 1e6:.1f} ms "
                f"({100 * total / self.loop_ns[name]:.1f}% of the calling loop's wall); children: {parts}")
        return out

    # --- correctness -------------------------------------------------

    def check(self):
        """Check the last round's outputs; returns (tally, CLI-protected lines)."""
        s = self.s
        truth_by_line = {}
        for p in s.truth:
            truth_by_line.setdefault(p.line_no, []).append(p)
        keys = oracle.Keys.from_state_file(s.files["state0.kv"], s.workload.days)
        tally = oracle.Tally()
        cli_lines = self.out["prot.log"].read_text(encoding="utf-8").splitlines()
        for what, lines in (("library protect", self.protected), ("cli protect", cli_lines)):
            tally.attempted += len(s.truth)
            oracle.check_protected(s.lines, lines, truth_by_line, keys, YEAR, what, tally)
        expected = oracle.expected_events(s.lines, truth_by_line, keys, YEAR, (s.window_start, s.last_day),
                                          s.workload.copies)
        oracle.check_events(self.out["events.csv"], s.lines, expected, tally)
        oracle.check_report(self.out["linkage.csv"], self.out["timeline.csv"], expected, tally)
        if self.trace:
            # The traced rounds also recover in-process: every in-window
            # field must open.
            opened = self.tracer.calls("crypto.aead_open")
            bad = self.skipped["fields_auth_failed"] + self.skipped["fields_malformed"]
            tally.attempted += opened
            if bad:
                tally.fail(bad, f"library recover: {bad} field(s) malformed or failed to open, {opened} opened")
        return tally, cli_lines


def end_to_end(rounds: list, latencies_ns: list, lines: int, read_lines: int, key: str) -> dict:
    """End-to-end figures of a run, from per-line `latencies_ns` and each round's children.

    `key` picks the children's times as measured ("wall") or multiplied by
    the machine speed sampled while they ran ("scaled"). Times are medians
    over the run's rounds; `investigate_s` sums the four steps' medians.
    """
    def median_of(step):
        return statistics.median(r[step][key] for r in rounds)

    return {
        "protect_p50_us": statistics.median(latencies_ns) / 1e3,
        "protect_lps": lines / median_of("protect"),
        "protect_peak_rss_mb": statistics.median(r["protect"]["rss_mb"] for r in rounds),
        "recover_lps": read_lines / median_of("recover"),
        "recover_peak_rss_mb": statistics.median(r["recover"]["rss_mb"] for r in rounds),
        "investigate_s": sum(median_of(step) for step in INVESTIGATION),
    }


def run(args, work: Path, spawner) -> int:
    w = WORKLOADS[args.workload]
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        setup = None
        gc.collect()  # each set-up starts from the same heap
        before = speed()
        t0 = perf_counter()
        setup = set_up(w, args.seed, work)
        setup_raw.append(perf_counter() - t0)
        setup_scaled.append(setup_raw[-1] * (before + speed()) / 2)

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "seed": args.seed,
        "workload": w.name,
        "shape": w.shape(),
        "trace": args.trace,
    }
    print("env " + json.dumps(env))
    distinct = len({(p.pii_type, p.text) for p in setup.truth})
    print(f"corpus: {len(setup.lines)} lines, {len(setup.truth)} planted fields, "
          f"distinct/total {distinct}/{len(setup.truth)} = {distinct / max(1, len(setup.truth)):.4f}")

    bench = Bench(setup, work, bool(args.trace), spawner)
    try:
        rounds = bench.run_rounds(args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tally, cli_lines = bench.check()

    metrics = {"setup_s": statistics.median(setup_scaled)}
    if args.trace:
        units = PER_LAYER
        metrics.update({k: statistics.median(r[k] for r in rounds) for k in rounds[0]})
        for line in bench.span_report():
            print(line)
        m = metrics
        print(f"role emit-sparse: detection share of protect_line {m['pii.detect_pii.share']:.3f} "
              "(chosen for > 0.5)")
        print(f"role emit-dense: seal + hash share of protect_line "
              f"{m['crypto.aead_seal.share'] + m['crypto.pseudonymize.share']:.3f} (chosen for > 0.15)")
        print(f"role investigate: parse + open share of recover_tokens "
              f"{m['pii.parse_protected_line.share'] + m['crypto.aead_open.share']:.3f} (chosen for > 0.5)")
    else:
        units = END_TO_END
        read_lines = len(setup.lines) * w.copies
        metrics.update(end_to_end(rounds, bench.scaled_ns, len(setup.lines), read_lines, "scaled"))
        measured = end_to_end(rounds, bench.raw_ns, len(setup.lines), read_lines, "wall")
        measured["setup_s"] = statistics.median(setup_raw)
        print("as measured, before speed scaling: " + ", ".join(
            f"{k} {v:.4f}" for k, v in measured.items() if "rss" not in k))
        raw_bytes = sum(len(l.encode("utf-8")) + 1 for l in setup.lines)
        grown = sum(len(l.encode("utf-8")) + 1 for l in cli_lines) - raw_bytes
        metrics["field_overhead_bytes"] = grown / len(setup.truth)
        metrics["corpus_growth_pct"] = 100.0 * grown / raw_bytes

    print(f"rounds: {len(rounds)}, set-up runs: {SETUP_REPEATS}"
          + ("" if args.trace else f", timed protect_line calls: {len(bench.raw_ns)}"))
    for name, unit in units.items():
        print(f"{w.name:12s} {name:40s} {metrics[name]:14.4f} {unit}")
    pct = 100.0 * tally.failed / tally.attempted
    print(f"{w.name:12s} {'fields_failed_pct':40s} {pct:14.4f} % "
          f"({tally.failed} of {tally.attempted} field checks)")
    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if tally.failed == 0 else 1

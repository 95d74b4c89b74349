"""Benchmark harness: report invariants, CSV outputs, overhead properties."""

import csv

import pytest

from privlog import BenchConfig, run_bench
from privlog.bench import ELEMENT_BASE_LEN, format_summary, summarize
from privlog.corpus import generate_corpus
from privlog.pii import PiiType


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    cfg = BenchConfig(line_count=2000, pii_density="medium", day_span=4, seed=2024)
    return run_bench(cfg, out_dir=out), out


def test_line_latency_percentiles_ordered(report):
    rep, _ = report
    t = rep.total_line_summary
    assert 0 < t.median_ns <= t.p95_ns <= t.p99_ns


def test_timing_csv_has_total_row(report):
    rep, out = report
    with open(out / "stage_timings.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    t = rep.total_line_summary
    assert rows == [
        ["stage", "median_ns", "p95_ns", "p99_ns"],
        ["total", str(t.median_ns), str(t.p95_ns), str(t.p99_ns)],
    ]


def test_type_overhead_csv(report):
    rep, out = report
    with open(out / "type_overhead.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["pii_type", "count", "avg_plaintext_len", "element_len", "avg_overhead_bytes"]
    assert {r[0] for r in rows[1:]} == {t.value for t in PiiType}


def test_summary_mentions_reference_values(report):
    rep, out = report
    text = (out / "summary.txt").read_text()
    assert "0.2 ms" in text
    assert "97.1" in text
    assert "2.41%" in text
    assert "reference" in text
    assert format_summary(rep) == text


def test_recovery_complete(report):
    rep, _ = report
    assert rep.recovered_fields == rep.field_count
    assert rep.throughput_lps > 0
    assert rep.baseline_lps >= rep.throughput_lps  # crypto can only cost time


def test_fixed_length_types_have_constant_overhead(report):
    rep, _ = report
    imei = rep.per_type["IMEI"]
    assert imei.avg_plaintext_len == 15.0
    assert imei.element_len == ELEMENT_BASE_LEN + len("IMEI")
    assert imei.avg_overhead_bytes == imei.element_len - 15.0


def test_long_urls_show_negative_overhead():
    cfg = BenchConfig(line_count=3000, pii_density="medium", day_span=2, seed=77)
    _, truth = generate_corpus(cfg)
    url_element_len = ELEMENT_BASE_LEN + len("URL")
    long_urls = [p for p in truth if p.pii_type is PiiType.URL and len(p.text) > url_element_len]
    assert long_urls, "corpus must contain URLs longer than the protected element"
    for p in long_urls:
        assert url_element_len - len(p.text) < 0


def test_summarize_edge_cases():
    s = summarize([])
    assert (s.median_ns, s.p95_ns, s.p99_ns) == (0, 0, 0)
    s = summarize([123])
    assert (s.median_ns, s.p95_ns, s.p99_ns) == (123, 123, 123)

"""Synthetic corpus generator and its file writer: determinism, density,
oracle exactness."""

import csv
import importlib.util
from pathlib import Path

import pytest

import oracles
from privlog.corpus import BenchConfig, generate_corpus
from privlog.pii import detect_pii

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "gen_corpus.py"
_loader = importlib.util.spec_from_file_location("gen_corpus", _SCRIPT)
gen_corpus = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(gen_corpus)


def test_deterministic_generation():
    cfg = BenchConfig(line_count=500, pii_density="medium", day_span=3, seed=99)
    assert generate_corpus(cfg) == generate_corpus(cfg)


def test_deterministic_files(tmp_path):
    cfg = BenchConfig(line_count=200, pii_density="medium", day_span=2, seed=7)
    gen_corpus.write_corpus(cfg, tmp_path / "a.log", tmp_path / "a.truth.csv")
    gen_corpus.write_corpus(cfg, tmp_path / "b.log", tmp_path / "b.truth.csv")
    assert (tmp_path / "a.log").read_bytes() == (tmp_path / "b.log").read_bytes()
    assert (tmp_path / "a.truth.csv").read_bytes() == (tmp_path / "b.truth.csv").read_bytes()


def test_seed_changes_output():
    cfg1 = BenchConfig(line_count=100, pii_density="medium", day_span=2, seed=1)
    cfg2 = BenchConfig(line_count=100, pii_density="medium", day_span=2, seed=2)
    assert generate_corpus(cfg1) != generate_corpus(cfg2)


@pytest.mark.parametrize("density,mean", [("low", 0.1), ("medium", 1.0), ("high", 3.0)])
def test_density_within_ten_percent(density, mean):
    cfg = BenchConfig(line_count=1000, pii_density=density, day_span=2, seed=42)
    _, truth = generate_corpus(cfg)
    expected = mean * 1000
    assert abs(len(truth) - expected) <= 0.10 * expected


def test_detection_oracle_exact():
    """Detection on every generated line is exactly the planted ground truth:
    full recall and zero false positives by construction."""
    cfg = BenchConfig(line_count=2000, pii_density="high", day_span=4, seed=4242)
    lines, truth = generate_corpus(cfg)
    by_line = {}
    for p in truth:
        by_line.setdefault(p.line_no, []).append(p)
    for i, line in enumerate(lines, start=1):
        detected = [(s.pii_type, s.start, s.end, s.text) for s in detect_pii(line)]
        planted = sorted(
            ((p.pii_type, p.start, p.end, p.text) for p in by_line.get(i, [])),
            key=lambda t: t[1],
        )
        assert detected == planted, f"line {i}: {line!r}"


def test_corpus_chronological_and_spans_days():
    cfg = BenchConfig(line_count=300, pii_density="low", day_span=5, seed=5)
    lines, _ = generate_corpus(cfg)
    dates = [oracles.extract_date(l, cfg.start_date.year) for l in lines]
    assert all(d is not None for d in dates)
    assert all(a <= b for a, b in zip(dates, dates[1:]))
    assert {(d - cfg.start_date).days for d in dates} == set(range(5))


def test_truth_sidecar_roundtrip(tmp_path):
    """The script writes the generated lines and, as CSV, their planted truth."""
    cfg = BenchConfig(line_count=150, pii_density="medium", day_span=2, seed=8)
    lines, truth = generate_corpus(cfg)
    assert gen_corpus.write_corpus(cfg, tmp_path / "c.log", tmp_path / "c.truth.csv") == (
        len(lines), len(truth))
    assert (tmp_path / "c.log").read_text(encoding="utf-8") == "\n".join(lines) + "\n"
    with open(tmp_path / "c.truth.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == gen_corpus.TRUTH_HEADER
    assert rows[1:] == [
        [str(p.line_no), str(p.start), str(p.end), p.pii_type.value, p.text] for p in truth
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(line_count=0, pii_density="medium", day_span=1, seed=1)
    with pytest.raises(ValueError):
        BenchConfig(line_count=1, pii_density="medium", day_span=0, seed=1)
    with pytest.raises(ValueError):
        BenchConfig(line_count=1, pii_density="extreme", day_span=1, seed=1)

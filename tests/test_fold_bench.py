"""`scripts/fold_bench.py` pairs every run or refuses, naming the file."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
_loader = importlib.util.spec_from_file_location("fold_bench", ROOT / "scripts" / "fold_bench.py")
fold_bench = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(fold_bench)


def _run(tmp_path, name, workload, seed, trace=0, scale=1.0):
    """One saved perfbench output: its env line, a report line, the JSON result."""
    env = {"nproc": 2, "python": "3.11.7", "cryptography": "48.0.0",
           "workload": workload, "seed": seed, "trace": trace}
    names = ["pii.detect_pii.us_per_call"] if trace else [m["name"] for m in SPEC["end_to_end"]]
    metrics = {n: {"value": scale * (i + 1), "unit": "x"} for i, n in enumerate(names)}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    path = tmp_path / name
    path.write_text(f"env {json.dumps(env)}\nmetrics ...\n{json.dumps(result)}\n")
    return str(path)


def _fold(monkeypatch, tmp_path, parent, change):
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["fold_bench.py", "--parent", *parent,
                                      "--change", *change, "--out", str(out)])
    fold_bench.main()
    return json.loads(out.read_text(encoding="utf-8"))


def test_fold_pairs_runs_by_workload_and_seed(monkeypatch, tmp_path):
    parent = [_run(tmp_path, f"p{s}", "investigate", s, scale=1.0 + s / 10) for s in (1, 2)]
    change = [_run(tmp_path, f"c{s}", "investigate", s, scale=0.9) for s in (2, 1)]
    parent.append(_run(tmp_path, "pt", "investigate", 11, trace=1))
    change.append(_run(tmp_path, "ct", "investigate", 11, trace=1, scale=0.5))
    out = _fold(monkeypatch, tmp_path, parent, change)
    entry = out["end_to_end"]["investigate"]
    assert entry["seeds"] == [1, 2]
    assert entry["investigate_s"]["change_won"] == 2  # lower is better
    assert entry["recover_lps"]["change_won"] == 0  # higher is better
    assert entry["investigate_s"]["parent"]["n"] == 2
    layers = out["per_layer"]["investigate"]
    assert layers["parent"] == {"seed": 11, "pii.detect_pii.us_per_call": 1.0}
    assert layers["change"] == {"seed": 11, "pii.detect_pii.us_per_call": 0.5}


def _verdicts(monkeypatch, tmp_path, parent_scales, change_scales) -> dict:
    """investigate_s's entry, on runs whose metrics are scaled per seed."""
    parent = [_run(tmp_path, f"p{s}", "investigate", s, scale=k) for s, k in enumerate(parent_scales)]
    change = [_run(tmp_path, f"c{s}", "investigate", s, scale=k) for s, k in enumerate(change_scales)]
    return _fold(monkeypatch, tmp_path, parent, change)["end_to_end"]["investigate"]["investigate_s"]


def test_fold_resolves_a_gain_of_nine_pairs_beyond_the_parents_iqr(monkeypatch, tmp_path):
    """A gain is resolved when the change wins at least 9 of 10 pairs and
    its median moves by more than the parent's IQR: not with 8 wins, nor
    with 10 wins inside the IQR."""
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # IQR 0.45
    lower = [p - 0.5 for p in parent]
    entry = _verdicts(monkeypatch, tmp_path, parent, lower[:9] + [parent[9] + 0.1])
    assert entry["change_won"] == 9 and entry["gain_resolved"]
    entry = _verdicts(monkeypatch, tmp_path, parent, lower[:8] + [p + 0.1 for p in parent[8:]])
    assert entry["change_won"] == 8 and not entry["gain_resolved"]
    entry = _verdicts(monkeypatch, tmp_path, parent, [p - 0.4 for p in parent])
    assert entry["change_won"] == 10 and not entry["gain_resolved"]


def test_fold_flags_a_median_worse_than_its_bound(monkeypatch, tmp_path):
    """investigate_s's bound is 25 %: a change median 30 % higher is beyond
    it, one 20 % higher is not, and neither is a resolved gain."""
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["investigate_s"]
    assert bound == 0.25
    for worse, beyond in ((1.3, True), (1.2, False)):
        entry = _verdicts(monkeypatch, tmp_path, [1.0, 1.0, 1.0], [worse] * 3)
        assert entry["beyond_bound"] is beyond and not entry["gain_resolved"]


def test_fold_rejects_a_second_run_of_one_seed(monkeypatch, tmp_path):
    parent = [_run(tmp_path, "p1", "investigate", 1), _run(tmp_path, "p1-again", "investigate", 1)]
    change = [_run(tmp_path, "c1", "investigate", 1)]
    with pytest.raises(SystemExit, match="p1-again: second parent run"):
        _fold(monkeypatch, tmp_path, parent, change)


@pytest.mark.parametrize("lonely_side", ["parent", "change"])
def test_fold_rejects_a_run_without_a_partner(monkeypatch, tmp_path, lonely_side):
    runs = {"parent": [_run(tmp_path, "p1", "emit-dense", 1)],
            "change": [_run(tmp_path, "c1", "emit-dense", 1)]}
    runs[lonely_side].append(_run(tmp_path, "lonely", "emit-dense", 2))
    with pytest.raises(SystemExit, match="lonely: no (parent|change) run"):
        _fold(monkeypatch, tmp_path, runs["parent"], runs["change"])


def test_fold_rejects_a_second_traced_run(monkeypatch, tmp_path):
    parent = [_run(tmp_path, "p1", "emit-sparse", 1), _run(tmp_path, "pt", "emit-sparse", 11, 1),
              _run(tmp_path, "pt-again", "emit-sparse", 12, 1)]
    change = [_run(tmp_path, "c1", "emit-sparse", 1)]
    with pytest.raises(SystemExit, match="pt-again: second parent run"):
        _fold(monkeypatch, tmp_path, parent, change)


def test_readme_names_every_committed_bench_file():
    """Each `BENCH_*.json` the README names is committed with the keys that
    `scripts/fold_bench.py` writes, and each committed one is named."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\bBENCH_\d+\.json", readme))
    committed = {path.name for path in ROOT.glob("BENCH_*.json")}
    assert named == committed
    for name in named:
        bench = json.loads((ROOT / name).read_text(encoding="utf-8"))
        assert {"end_to_end", "env"} <= set(bench), name

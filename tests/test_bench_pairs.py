"""The summary arithmetic of ``tools/bench_pairs.py``, on canned runs.

No benchmark runs here: the runs are written out by hand, and ``--from``
recomputes a document from them.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
sys.modules[SPEC.name] = bench_pairs
SPEC.loader.exec_module(bench_pairs)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

PARENT_S = [1.0, 1.1, 1.2, 1.3, 1.4]
CHANGE_S = [0.9, 1.0, 1.05, 1.2, 1.5]


def runs(parent=PARENT_S, change=CHANGE_S, workload="synth-gpu", seed0=100):
    """Pairs that read ``parent[i]`` and ``change[i]`` for sweep_s, and
    runs_per_s and engine_s to match, the side that runs first alternating."""
    out = []
    for i, values in enumerate(zip(parent, change)):
        seed = seed0 + i
        for side, value in zip(("parent", "change"), values):
            out.append({"side": side, "workload": workload, "seed": seed, "pair": i,
                        "trace": 0, "seconds": 30.0, "correct": True, "attempted": 50,
                        "failed": 0, "first": "change" if seed % 2 else "parent",
                        "metrics": {"sweep_s": value, "runs_per_s": 192 / value,
                                    "engine_s": 1900.0}})
    return out


def metrics(summary):
    return summary[0]["metrics"]


class TestCompare:
    def test_quartiles_inclusive(self):
        row = metrics(bench_pairs.summarize(runs(), BENCHMARK, 0))["sweep_s"]
        assert row["parent"] == pytest.approx({"q1": 1.1, "median": 1.2, "q3": 1.3})
        assert row["change"] == pytest.approx({"q1": 1.0, "median": 1.05, "q3": 1.2})

    def test_wins_worse_fraction_and_spread(self):
        row = metrics(bench_pairs.summarize(runs(), BENCHMARK, 0))["sweep_s"]
        assert (row["change_wins"], row["ties"], row["pairs"]) == (4, 0, 5)
        assert row["median_worse_frac"] == -0.125  # (1.05 - 1.2) / 1.2
        assert row["iqr_frac"] == 0.1667  # 0.2 / 1.2, on either side
        assert row["bound"] == 0.15
        # the spread exceeds the bound and one change run is slower than a parent run
        assert row["verdict"] == "unresolved"

    def test_higher_is_better_signs(self):
        row = metrics(bench_pairs.summarize(runs(), BENCHMARK, 0))["runs_per_s"]
        assert row["change_wins"] == 4
        assert row["median_worse_frac"] == round(-(192 / 1.05 - 160) / 160, 4)

    def test_equal_metric_ties(self):
        row = metrics(bench_pairs.summarize(runs(), BENCHMARK, 0))["engine_s"]
        assert (row["change_wins"], row["ties"], row["median_worse_frac"]) == (0, 5, 0.0)
        assert row["verdict"] == "within bound"

    def test_worse_than_bound(self):
        summary = bench_pairs.summarize(runs(change=[v * 1.2 for v in PARENT_S]), BENCHMARK, 0)
        assert metrics(summary)["sweep_s"]["verdict"] == "worse than bound"
        assert metrics(summary)["sweep_s"]["median_worse_frac"] == 0.2

    def test_wide_spread_resolved_when_every_change_run_wins(self):
        change = [v - 0.5 for v in PARENT_S]
        row = metrics(bench_pairs.summarize(runs(change=change), BENCHMARK, 0))["sweep_s"]
        assert row["iqr_frac"] > row["bound"]
        assert row["verdict"] == "within bound"

    def test_workloads_pairs_and_failures(self):
        canned = runs() + runs(workload="cli-shell", seed0=200)
        canned[-1] = {**canned[-1], "correct": False, "failed": 1, "metrics": {}}
        summary = bench_pairs.summarize(canned, BENCHMARK, 0)
        assert [s["workload"] for s in summary] == ["synth-gpu", "cli-shell"]
        assert summary[1]["seeds"] == [200, 201, 202, 203, 204]
        assert summary[1]["all_correct"] is False
        assert summary[1]["failed_ops"] == {"parent": 0, "change": 1}
        assert metrics(summary[1:])["sweep_s"]["pairs"] == 4  # the failed pair is left out


class TestClaim:
    def test_met(self):
        change = [v * 0.9 for v in PARENT_S[:4]] + [PARENT_S[4] * 1.01]
        summary = bench_pairs.summarize(runs(change=change), BENCHMARK, 0)
        claim = bench_pairs.check_claim(summary, "synth-gpu:sweep_s:0.05")
        assert claim["met"] is False  # 4 wins of 5 is under 9 of 10
        summary = bench_pairs.summarize(runs(change=[v * 0.9 for v in PARENT_S]), BENCHMARK, 0)
        claim = bench_pairs.check_claim(summary, "synth-gpu:sweep_s:0.05")
        assert claim["met"] is False  # a 0.12 gap is inside the parent's 0.2 spread
        flat = [1.0, 1.0, 1.01, 1.0, 1.0]
        summary = bench_pairs.summarize(runs(flat, [v * 0.9 for v in flat]), BENCHMARK, 0)
        claim = bench_pairs.check_claim(summary, "synth-gpu:sweep_s:0.05")
        assert claim["met"] is True
        assert (claim["change_wins"], claim["pairs"]) == (5, 5)

    def test_too_small_a_gain(self):
        flat = [1.0, 1.0, 1.01, 1.0, 1.0]
        summary = bench_pairs.summarize(runs(flat, [v * 0.97 for v in flat]), BENCHMARK, 0)
        assert bench_pairs.check_claim(summary, "synth-gpu:sweep_s:0.05")["met"] is False


def test_from_recomputes_the_document(tmp_path):
    source = tmp_path / "in.json"
    traced = [{**r, "trace": 1, "metrics": {"balance.self_share": r["metrics"]["sweep_s"]}}
              for r in runs(seed0=300)]
    source.write_text(json.dumps({
        "issue": "t", "parent_commit": "abc", "change_commit": "def", "machine": "m",
        "runs": runs() + traced}))
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--from", str(source), "--out", str(out),
                             "--claim", "synth-gpu:sweep_s:0.05", "--note", "n"]) == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["issue", "parent_commit", "change_commit", "machine", "method",
                         "notes", "claim", "summary", "traced", "runs"]
    assert doc["notes"] == ["n"]
    assert doc["claim"]["met"] is False
    assert doc["summary"] == bench_pairs.summarize(doc["runs"], BENCHMARK, 0)
    assert list(metrics(doc["traced"])) == ["balance.self_share"]
    assert "verdict" not in metrics(doc["traced"])["balance.self_share"]
    # recomputing again keeps the claim and the notes
    assert bench_pairs.main(["--from", str(out), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == doc

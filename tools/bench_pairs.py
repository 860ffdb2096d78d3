"""Benchmark a change against its parent commit in alternating pairs.

Usage:
    python3 tools/bench_pairs.py --parent REV --seed 2400 --out BENCH_N.json \\
        [--pairs 10] [--claim WORKLOAD:METRIC:FRACTION] [--traced WORKLOAD,...] \\
        [--issue TITLE] [--note TEXT ...]
    python3 tools/bench_pairs.py --from BENCH_N.json --out BENCH_N.json [--note TEXT ...]

Run from the root of a checkout. Both sides run the parent's ``perfbench/``
against their own ``src/``: the parent is a ``git archive`` of REV, the
change is the checkout's tracked and unignored files as they are on disk,
with the parent's ``perfbench/`` copied over its own. Each run starts from a
fresh copy of its side's tree in a temporary directory, without cached
bytecode (``PYTHONDONTWRITEBYTECODE=1``), one run at a time, for the
``run_seconds`` of the parent's ``BENCHMARK.json``, over every workload it
lists; ``--traced`` workloads then run as many pairs with ``--trace 1``.
Pair i of the w-th workload run uses the seed ``--seed + w * pairs + i``;
the change runs first on odd seeds. Nothing is written into the checkout
but ``--out``.

The output holds the summary, then every run. Per workload and metric:
``q1``/``median``/``q3`` of each side (``statistics.quantiles``, inclusive),
``change_wins`` and ``ties`` over the pairs, ``median_worse_frac`` (the
change's median against the parent's, positive when worse),
``iqr_frac`` (the wider side's quartile distance over the parent's median)
and, for the end-to-end metrics, a ``verdict`` against the bound in
``BENCHMARK.json``. ``--from`` recomputes the document from the runs of an
earlier one without running anything.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A traced run measures the spans of its first 10 traced sessions, which a
# synthetic workload fills in a few seconds.
TRACED_SECONDS = 10.0


# ---------------------------------------------------------------------------
# Summary arithmetic
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent: list[float], change: list[float], better: str,
            bound: float | None = None) -> dict:
    """One metric's pairs, ``parent[i]`` against ``change[i]``."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    ties = sum(a == b for a, b in zip(parent, change))
    worse = sign * (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    spread = max(p["q3"] - p["q1"], c["q3"] - c["q1"])
    iqr = spread / abs(p["median"]) if p["median"] else 0.0
    out = {"parent": p, "change": c, "change_wins": wins, "ties": ties, "pairs": len(parent),
           "median_worse_frac": round(worse, 4), "iqr_frac": round(iqr, 4)}
    if bound is not None:
        every_change_better = all(sign * (b - a) < 0 for a in parent for b in change)
        if worse > bound:
            out["verdict"] = "worse than bound"
        elif iqr > bound and not every_change_better:
            out["verdict"] = "unresolved"
        else:
            out["verdict"] = "within bound"
    return out


def summarize(runs: list[dict], benchmark: dict, trace: int) -> list[dict]:
    """Per workload, in the order of first appearance, every metric of ``runs``
    at ``trace``: the end-to-end metrics of ``benchmark`` with their bounds,
    or its per-layer metrics."""
    declared = benchmark["end_to_end"] if trace == 0 else benchmark["per_layer"]
    runs = [r for r in runs if r.get("trace", 0) == trace]
    summary = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [(s["parent"], s["change"]) for s in by_seed.values()
                 if "parent" in s and "change" in s]
        ok = [(p, c) for p, c in pairs if p["correct"] and c["correct"]]
        metrics = {}
        for m in declared:
            name = m["name"]
            have = [(p["metrics"][name], c["metrics"][name]) for p, c in ok
                    if name in p["metrics"] and name in c["metrics"]]
            if not have:
                continue
            metrics[name] = {"unit": m["unit"], "better": m["better"]}
            if trace == 0:
                metrics[name]["bound"] = m["bound"]
            metrics[name].update(compare([a for a, _ in have], [b for _, b in have],
                                         m["better"], m.get("bound") if trace == 0 else None))
        summary.append({
            "workload": workload,
            "trace": trace,
            "seconds": pairs[0][0]["seconds"] if pairs else None,
            "seeds": sorted(by_seed),
            "all_correct": all(p["correct"] and c["correct"] for p, c in pairs),
            "failed_ops": {side: sum(r["failed"] for r in runs
                                     if r["workload"] == workload and r["side"] == side)
                           for side in ("parent", "change")},
            "metrics": metrics,
        })
    return summary


def check_claim(summary: list[dict], claim: str) -> dict:
    """``WORKLOAD:METRIC:FRACTION``: the change's median is better by at least
    FRACTION of the parent's, in at least 9 of 10 pairs, by more than the
    parent's quartile distance."""
    workload, metric, fraction = claim.split(":")
    row = next(s for s in summary if s["workload"] == workload)["metrics"][metric]
    p, c = row["parent"], row["change"]
    gap = abs(c["median"] - p["median"])
    parent_iqr = p["q3"] - p["q1"]
    return {
        "workload": workload, "metric": metric, "fraction": float(fraction),
        "parent_median": p["median"], "change_median": c["median"], "parent_iqr": parent_iqr,
        "change_wins": row["change_wins"], "pairs": row["pairs"],
        "met": (-row["median_worse_frac"] >= float(fraction)
                and row["change_wins"] >= math.ceil(0.9 * row["pairs"])
                and gap > parent_iqr),
    }


# ---------------------------------------------------------------------------
# Running the pairs
# ---------------------------------------------------------------------------


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def archive(rev: str, dest: Path) -> None:
    """The files of commit ``rev``, extracted under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def checkout_files(dest: Path) -> None:
    """The checkout's tracked and unignored files, as they are on disk."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        path = os.fsdecode(name)
        if path and (ROOT / path).is_file():  # a deleted tracked file is skipped
            (dest / path).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / path, dest / path)


def run_once(tree: Path, scratch: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One perfbench run in a fresh copy of ``tree``."""
    work = scratch / "run"
    shutil.copytree(tree, work)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=work, env=env, capture_output=True, text=True, timeout=10 * seconds + 600)
    finally:
        shutil.rmtree(work)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    record = {"correct": result.get("correct", False), "attempted": result.get("attempted", 0),
              "failed": result.get("failed", 1),
              "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()}}
    if proc.returncode:
        record["returncode"] = proc.returncode
        record["stderr"] = proc.stderr[-2000:]
    return record


def run_pairs(trees: dict, scratch: Path, workloads: list[str], seed0: int, pairs: int,
              seconds: float, trace: int) -> list[dict]:
    runs = []
    for w, workload in enumerate(workloads):
        for i in range(pairs):
            seed = seed0 + w * pairs + i
            order = ("change", "parent") if seed % 2 else ("parent", "change")
            for side in order:
                record = run_once(trees[side], scratch, workload, seed, seconds, trace)
                runs.append({"side": side, "workload": workload, "seed": seed, "pair": i,
                             "trace": trace, "seconds": seconds, **record, "first": order[0]})
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(record['metrics'].get('sweep_s', record['correct']))}",
                      file=sys.stderr, flush=True)
    return runs


METHOD = (
    "tools/bench_pairs.py: perfbench/run.py at the parent's perfbench (unchanged) on both "
    "sides, each run from a fresh copy of its tree (git archive of the parent; the "
    "change's files with the parent's perfbench/), with PYTHONDONTWRITEBYTECODE=1; "
    "alternating pairs, change first on odd seeds, one run at a time; seeds and "
    "--seconds per workload in the summary. Quartiles: statistics.quantiles(n=4, "
    "method='inclusive'). median_worse_frac is (change - parent) / parent of the "
    "medians, signed so that positive is worse; iqr_frac is the wider of the two sides' "
    "quartile distances over the parent median; change_wins counts pairs where the "
    "change reads better. A verdict is 'worse than bound' when median_worse_frac "
    "exceeds the bound in BENCHMARK.json, 'unresolved' when iqr_frac does unless every "
    "change run beats every parent run, else 'within bound'."
)


def document(doc: dict, benchmark: dict, claim: str | None, notes: list[str]) -> dict:
    """The output document, its summaries recomputed from ``doc["runs"]``; the
    claim and notes of ``doc`` hold unless new ones are given."""
    runs = doc["runs"]
    out = {key: doc[key] for key in ("issue", "parent_commit", "change_commit", "machine")}
    out["method"] = METHOD
    out["notes"] = notes or doc.get("notes", [])
    summary = summarize(runs, benchmark, 0)
    if claim is None and doc.get("claim"):
        claim = "{workload}:{metric}:{fraction}".format(**doc["claim"])
    out["claim"] = check_claim(summary, claim) if claim else None
    out["summary"] = summary
    traced = summarize(runs, benchmark, 1)
    if traced:
        out["traced"] = traced
    out["runs"] = runs
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--from", dest="source", type=Path,
                        help="recompute the summaries of this document's runs; run nothing")
    parser.add_argument("--parent")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", help="WORKLOAD:METRIC:FRACTION")
    parser.add_argument("--traced", default="", help="workloads to also run with --trace 1")
    parser.add_argument("--issue", default="")
    parser.add_argument("--note", action="append", default=[])
    args = parser.parse_args(argv)
    if args.source is None and (args.parent is None or args.seed is None):
        parser.error("--parent and --seed are required unless --from is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.source is not None:
        doc = json.loads(args.source.read_text())
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    else:
        with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
            scratch = Path(tmp)
            trees = {"parent": scratch / "parent", "change": scratch / "change"}
            archive(args.parent, trees["parent"])
            checkout_files(trees["change"])
            shutil.rmtree(trees["change"] / "perfbench", ignore_errors=True)
            shutil.copytree(trees["parent"] / "perfbench", trees["change"] / "perfbench")
            benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
            workloads = [w["name"] for w in benchmark["workloads"]]
            runs = run_pairs(trees, scratch, workloads, args.seed, args.pairs,
                             benchmark["run_seconds"], 0)
            if args.traced:
                runs += run_pairs(trees, scratch, args.traced.split(","),
                                  args.seed + len(workloads) * args.pairs, args.pairs,
                                  TRACED_SECONDS, 1)
        doc = {
            "issue": args.issue,
            "parent_commit": git("rev-parse", "--short", args.parent).decode().strip(),
            "change_commit": "the commit that adds this file",
            "machine": f"{os.cpu_count()}-core shared machine, Python "
                       f"{platform.python_version()}, {platform.system()}",
            "runs": runs,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")  # the runs, whatever follows
    out = document(doc, benchmark, args.claim, args.note)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all(r["correct"] for r in out["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())

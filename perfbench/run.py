"""mdtune benchmark: tuning sessions per workload, timed for a fixed span.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The seed generates every input mdtune
reads (see inputs.py). One untimed session is checked first; then sessions
repeat until S seconds have passed, and each must reproduce the checked
session's outputs byte for byte. With ``--trace 0`` the last line of
standard output is the end-to-end metrics. With ``--trace 1`` sessions
alternate between plain and traced, and it is the per-layer metrics, from
the spans of the first MAX_SPAN_SESSIONS traced sessions. The line before
it records the run context. Details, and the spans of a traced run, go to
``.perfbench/out/``. The exit code is 1 when an output is wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Why each workload exists.
WORKLOADS = {
    "synth-gpu": (
        "An in-process synthetic sweep of the dual 10-core hyper-threading test "
        "node with 4 GPUs over nstlist 10, 20, 40 and 80: 96 configs x 2 repeats. "
        "The 48-step balance bisection is ~90% of this time, so balance changes "
        "and adaptive sweeps show here."
    ),
    "synth-cpu": (
        "In-process synthetic sweeps of CPU-only nodes, among them a 4-socket "
        "16-core hyper-threading node with 232 configs. This is the control for "
        "balance: one k=1 cutoff call per run, not ~50; predict_run, stdev and "
        "parse_metrics dominate, so sweep, logparse and launch gains show here."
    ),
    "cli-shell": (
        "mdtune subprocesses as a user runs them: a shell-executor sweep of the "
        "2-GPU manifest against a stub engine, then parse-log, analyze-costs and "
        "recommend. The only workload where interpreter start, import, schema "
        "validation, run-directory writes beside log reads, the failure path "
        "and the econ and report tables all run."
    ),
}

SETUP_PROBES = 11  # timed set-ups per run, after one untimed
MIN_SESSIONS = 5  # per kind, even if that overruns --seconds
MAX_SPAN_SESSIONS = 10  # traced sessions whose spans are kept and measured

# On a shared machine other tenants slow the benchmark by tens of percent
# for seconds at a time. A fixed reference runs between timed sessions and
# set-ups; each wall time is divided by the reference's slowdown (its time
# over a nominal time), averaged over the references right before and after,
# so the figures read as seconds on a machine where the reference takes its
# nominal time. In-process sessions are referred to a pure-Python loop,
# sessions and set-ups that start interpreters to an interpreter start. Raw
# times are kept in the output file.
LOOP_S = 0.004
SPAWN_S = 0.030


def reference_loop() -> float:
    """Shortest of three timings of a fixed mix of pure-Python work like
    mdtune's: float arithmetic, dict updates, JSON and regex scans. The
    collector is off while it runs, so the timing does not depend on what
    the process allocated before."""
    best = math.inf
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            total = 0.0
            for i in range(10000):
                total += math.sqrt(i) * 1.0001 ** (i % 7)
            text = json.dumps([{"a": i, "b": i * 0.5, "c": str(i)} for i in range(1000)])
            re.findall(r"\d+\.\d+", text)
            counts: dict = {}
            for i in range(7000):
                counts[i % 97, i % 13] = counts.get((i % 97, i % 13), 0) + i
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best / LOOP_S


def reference_spawn() -> float:
    """Shortest of two fresh interpreters that import a few stdlib modules:
    the start-up work that CLI sessions and set-up probes repeat."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import json, re, decimal"], check=True)
        best = min(best, time.perf_counter() - start)
    return best / SPAWN_S


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except FileNotFoundError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def scaled(walls: list[float], slowdowns: list[float]) -> list[float]:
    """Each wall time divided by the mean slowdown of the references run
    right before and right after it."""
    return [wall * 2 / (before + after)
            for wall, before, after in zip(walls, slowdowns, slowdowns[1:])]


def run_setup_probes(manifest: Path, env: dict) -> tuple[list[float], list[dict]]:
    """Scaled wall times of fresh interpreters that import mdtune, load the
    manifest and enumerate the plan; the first, which may compile bytecode,
    is not timed."""
    walls, slowdowns, reports = [], [], []
    for i in range(SETUP_PROBES + 1):
        if i:
            slowdowns.append(reference_spawn())
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(manifest)],
                              env=env, capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        if i:
            walls.append(wall)
            reports.append(json.loads(proc.stdout))
    slowdowns.append(reference_spawn())
    return scaled(walls, slowdowns), reports


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def prepare(workload: str, seed: int, work: Path, env: dict):
    """Generate a workload's inputs into ``work``; returns its session runner
    and the manifest the set-up probes load."""
    import inputs
    import sessions

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = inputs.rng_for(workload, seed)
    if workload == "synth-gpu":
        manifests = inputs.synth_gpu_manifests(rng, work)
        return sessions.InProcess(manifests), manifests[0]
    if workload == "synth-cpu":
        manifests = inputs.synth_cpu_manifests(rng, work)
        return sessions.InProcess(manifests), manifests[0]
    generated = inputs.cli_shell_inputs(rng, work)
    return sessions.CliShell(work, generated, env), generated["manifest"]


def use_sources() -> bool:
    """Put the checkout's mdtune sources on the import path, if they exist."""
    if not (ROOT / "src" / "mdtune").is_dir():
        print(f"perfbench: no mdtune sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_sources():
        return 2
    import mdtune
    import sessions
    from spans import UNITS, Tracer, layer_metrics, spans_to_json

    out_dir = ROOT / ".perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = sessions.mdtune_env(ROOT)
    runner, setup_manifest = prepare(args.workload, args.seed,
                                     ROOT / ".perfbench" / "work" / args.workload, env)

    # One untimed session, checked in full; every timed one must match it.
    try:
        _, checked = runner.session()
        scores = runner.check(checked)
    except sessions.CheckFailed as exc:
        return incorrect(str(exc), attempted=1)
    recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
    expected = recorded.get(str(args.seed))
    if expected is not None and expected != checked.digest:
        return incorrect(f"output digest {checked.digest} != recorded {expected}", attempted=1)

    reference = reference_spawn if args.workload == "cli-shell" else reference_loop
    walls, slowdowns, traced_spans = [], [], []
    kinds = []  # per session: traced or plain
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or kinds.count(False) < MIN_SESSIONS
           or (args.trace and kinds.count(True) < MIN_SESSIONS)):
        trace = bool(args.trace) and kinds.count(True) < kinds.count(False)
        slowdowns.append(reference())
        attempted = len(walls) + 1
        try:
            wall, out = runner.session(Tracer() if trace else None)
        except sessions.CheckFailed as exc:
            return incorrect(str(exc), attempted)
        if out.digest != checked.digest or out.ledger != checked.ledger:
            return incorrect(f"session {attempted} differs from the checked session", attempted)
        walls.append(wall)
        kinds.append(trace)
        if trace and len(traced_spans) < MAX_SPAN_SESSIONS:
            traced_spans.append(out.spans)
    slowdowns.append(reference())
    times = scaled(walls, slowdowns)
    plain = [t for t, trace in zip(times, kinds) if not trace]
    traced = [t for t, trace in zip(times, kinds) if trace]

    if args.workload == "cli-shell":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_times, probes = run_setup_probes(setup_manifest, env)

    if args.trace:
        layers = layer_metrics(traced_spans)
        layers["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        layers["manifest.load_s"] = statistics.median(p["load_s"] for p in probes)
        # Scale layer times like the session times, by the run's median slowdown.
        slowdown = statistics.median(slowdowns)
        for name in layers:
            if UNITS[name] in ("s", "us"):
                layers[name] /= slowdown
            elif UNITS[name] == "MB/s":
                layers[name] *= slowdown
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {name: metric(value, UNITS[name]) for name, value in sorted(layers.items())}
    else:
        runs = len(checked.ledger)
        metrics = {
            "sweep_s": metric(statistics.median(plain), "s"),
            "sweep_p90_s": metric(statistics.quantiles(plain, n=10)[-1], "s"),
            "runs_per_s": metric(runs * len(plain) / sum(plain), "1/s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak_kb / 1024, "MB"),
            "engine_s": metric(scores.engine_s, "s"),
            "winner_perf_pct": metric(scores.winner_perf_pct, "%"),
            "ok_frac": metric(scores.ok_frac, "ratio"),
        }

    context = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "mdtune_version": mdtune.__version__,
        "git_commit": git_commit(),
        "machine": "shared sandbox: other tenants' load moves raw wall times",
        "reference": reference.__name__,
        "slowdown": statistics.median(slowdowns),
        "digest": checked.digest,
        "digest_recorded": expected is not None,
        "sessions_plain": len(plain),
        "sessions_traced": len(traced),
        "runs_per_session": len(checked.ledger),
    }
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"context": context, "metrics": metrics, "plain_s": plain, "traced_s": traced,
         "raw_wall_s": walls, "slowdowns": slowdowns,
         "setup_s": setup_times, "setup_probes": probes}, indent=1) + "\n")
    if args.trace:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(
            [spans_to_json(spans) for spans in traced_spans]))
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": True, "attempted": len(walls), "failed": 0,
                      "metrics": metrics}))
    return 0


def incorrect(problem: str, attempted: int) -> int:
    """Report a wrong output: a result line without metrics, exit code 1."""
    print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": attempted, "failed": 1, "metrics": {}}))
    return 1


if __name__ == "__main__":
    sys.exit(main())

"""Time two source trees' in-process tuning sessions in one interpreter.

Usage:
    python3 tools/ab_sessions.py A B [--workload synth-cpu] [--seed 0] [--sessions 300]

A and B are directories that hold ``src/mdtune``: a checkout, or a ``git
archive`` of a commit (``mkdir P && git archive REV | tar -x -C P``). Each
is loaded as a package of its own, ``ab_a`` and ``ab_b``, so both run with
the same interpreter, caches and machine load. The inputs are perfbench's
for the workload and seed, written by this checkout's
``perfbench/inputs.py`` into a temporary directory.

A session is perfbench's in-process session without its ledger: for each
manifest, load it, enumerate the plan, sweep it with the synthetic
executor, and write the result JSON and the Markdown report. Sessions run
in pairs, A then B, then B then A, and so on; every session's outputs must
equal A's first session's byte for byte, or the script stops with exit
code 1. It prints one JSON document: each side's quartiles of the session
wall times (``statistics.quantiles``, inclusive), the pairs in which B was
faster, and B's median relative to A's.

It sizes a change to one layer, where a difference of a few percent is
lost in the spread of separate benchmark runs on a shared machine. A
performance claim still comes from ``tools/bench_pairs.py``, which runs the
benchmark itself.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("synth-cpu", "synth-gpu")


class OutputsDiffer(Exception):
    """A session's outputs are not the first A session's."""


def load_tree(root: Path, name: str) -> SimpleNamespace:
    """``root/src/mdtune`` as the package ``name``, with the modules a session uses."""
    for loaded in [key for key in sys.modules if key.split(".")[0] == name]:
        del sys.modules[loaded]  # a package loaded under this name before
    src = root / "src" / "mdtune"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return SimpleNamespace(**{module: importlib.import_module(f"{name}.{module}")
                              for module in ("manifest", "launch", "sweep", "report")})


def session(lib: SimpleNamespace, manifests: list[Path]) -> list[str]:
    """The result JSON and the report of each manifest's synthetic sweep."""
    outputs = []
    for path in manifests:
        m = lib.manifest.load_manifest(path)
        configs = lib.launch.enumerate_plan(m.node, m.sweep, nodes=m.node_count)
        result = lib.sweep.run_sweep(configs, lib.sweep.SyntheticExecutor(m.node), m.workload,
                                     repeats=m.repeats)
        outputs += [lib.sweep.result_to_json(result),
                    lib.report.sweep_report(result, node_cost_eur=m.node.node_price_eur or None,
                                            fmt="md")]
    return outputs


def manifests_for(workload: str, seed: int, workdir: Path) -> list[Path]:
    """perfbench's manifests for ``workload`` and ``seed``, written into ``workdir``."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))  # perfbench's inputs import mdtune
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    make = inputs.synth_cpu_manifests if workload == "synth-cpu" else inputs.synth_gpu_manifests
    return make(inputs.rng_for(workload, seed), workdir)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(sides: dict, manifests: list[Path], sessions: int) -> dict:
    """Alternating timed sessions of each side, after an untimed one each."""
    expected = session(sides["a"], manifests)
    if session(sides["b"], manifests) != expected:
        raise OutputsDiffer("the first B session's outputs differ from A's")
    walls = {"a": [], "b": []}
    for i in range(sessions):
        for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
            start = time.perf_counter()
            outputs = session(sides[side], manifests)
            walls[side].append(time.perf_counter() - start)
            if outputs != expected:
                raise OutputsDiffer(f"session {i} of {side.upper()}: outputs differ from A's")
    a, b = quartiles(walls["a"]), quartiles(walls["b"])
    return {"sessions": sessions, "a": a, "b": b,
            "b_wins": sum(tb < ta for ta, tb in zip(walls["a"], walls["b"])),
            "b_vs_a": round(b["median"] / a["median"] - 1.0, 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--workload", choices=WORKLOADS, default="synth-cpu")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sessions", type=int, default=300, help="pairs of sessions")
    args = parser.parse_args(argv)
    if args.sessions < 2:
        parser.error("--sessions must be at least 2")
    sides = {"a": load_tree(args.a.resolve(), "ab_a"), "b": load_tree(args.b.resolve(), "ab_b")}
    with tempfile.TemporaryDirectory(prefix="ab_sessions-") as tmp:
        manifests = manifests_for(args.workload, args.seed, Path(tmp))
        try:
            out = compare(sides, manifests, args.sessions)
        except OutputsDiffer as exc:
            print(f"ab_sessions: {exc}", file=sys.stderr)
            return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trees": {"a": str(args.a), "b": str(args.b)}, **out}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs for the benchmark workloads.

Everything mdtune reads during a benchmark run is generated here from the
workload name and ``--seed``: manifests, the rows document, the stub
engine, its pre-rendered logs and the subset of commands it fails. The
same seed gives byte-identical files. The seed varies the documents
(step counts, CPU models, socket split, prices, log filler, repeat
scatter, which commands fail, the rows) but not the amount of work, so
timings from different seeds compare.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from mdtune.balance import SyntheticNodeProfile, Workload, balance_cutoff, predict_run
from mdtune.launch import enumerate_plan, render_command
from mdtune.manifest import load_manifest

# The test node of the acceptance suite: dual 10-core with hyper-threading.
TEST_CPU = {"model_name": "E5-2680v2", "sockets": 2, "cores_per_socket": 10,
            "hardware_threads_per_core": 2, "base_clock_mhz": 2800}
GTX_980 = {"model_name": "GTX 980", "cuda_cores": 2048, "base_clock_mhz": 1126,
           "memory_gb": 4, "price_eur": 450, "idle_power_w": 24}
NSTLIST_SCAN = [10, 20, 40, 80]

# The stub engine fails this many of the 28 configs of the cli-shell plan,
# always on the first repeat, so the sweep records them and moves on. The
# plan's noise-free best is never among them: winner_perf_pct then measures
# the sweep strategy, not the failure draw.
FAILING_CONFIGS = 4
STUB_EXIT = 3

# Pre-rendered logs are restarted runs: one segment per entry, each with
# energy output and its own copy of every metric, whose performance is this
# share of the final one (the last copy wins).
SEGMENT_SCALE = (0.94, 0.97, 1.0)
ENERGY_BLOCKS = 8  # per segment


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def workload_doc(rng: random.Random, name: str) -> dict:
    """The membrane system of the acceptance suite, run for 4900 to 5100 steps.

    The size and box stay fixed: they set the grid sizes the balance search
    visits, and with them the cost of a session.
    """
    return {
        "name": name,
        "atoms": 81743,
        "timestep_fs": 2.0,
        "benchmark_steps": rng.randrange(4900, 5101, 10),
        "reset_steps": 1000,
        "rc0_nm": 1.0,
        "spacing0_nm": 0.120,
        "box_nm": [10.8, 10.2, 9.6],
    }


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def synth_gpu_manifests(rng: random.Random, workdir: Path) -> list[Path]:
    """The dual 10-core hyper-threading test node with 4 GPUs, nstlist scan."""
    doc = {
        "workload": workload_doc(rng, "membrane"),
        "node": {"cpu": TEST_CPU, "gpus": [GTX_980] * 4,
                 "node_price": round(rng.uniform(5800, 6600)),
                 "rack_units": 2},
        "sweep": {"nstlist": NSTLIST_SCAN, "repeats": 2},
    }
    return [write_json(workdir / "manifest.json", doc)]


def synth_cpu_manifests(rng: random.Random, workdir: Path) -> list[Path]:
    """Two CPU-only nodes, each swept over the nstlist scan.

    The first is a 4-socket, 16-core hyper-threading node (232 configs with
    separate-PME variants). The second has 24 hyper-threading cores whose
    split into 1, 2 or 4 sockets the seed draws; every split has the same
    thread budget, hence the same 216-config plan.
    """
    sockets = rng.choice([1, 2, 4])
    shapes = [
        ("Opteron 6376", 4, 16),
        (rng.choice(["E5-2690v3", "E5-2680v3", "E7-4830v3"]), sockets, 24 // sockets),
    ]
    paths = []
    for i, (model, n_sockets, cores) in enumerate(shapes):
        doc = {
            "workload": workload_doc(rng, f"membrane-{i}"),
            "node": {
                "cpu": {"model_name": model, "sockets": n_sockets, "cores_per_socket": cores,
                        "hardware_threads_per_core": 2,
                        "base_clock_mhz": rng.choice([2300, 2500, 2600])},
                "node_price": round(rng.uniform(4000, 9000)),
                "rack_units": rng.choice([1, 2, 4]),
            },
            "sweep": {"nstlist": NSTLIST_SCAN, "repeats": 2},
        }
        paths.append(write_json(workdir / f"manifest-{i}.json", doc))
    return paths


# ---------------------------------------------------------------------------
# cli-shell: the 2-GPU manifest, the stub engine and its logs, a rows document
# ---------------------------------------------------------------------------

# The stub runs in <workdir>/session/runs/run_<hash>_<repeat>/; every path in
# it and in the manifest is relative to that directory, so no absolute path
# reaches mdtune's outputs.
STUB_PATH = "../../../engine/mdrun"
STUB = """#!/bin/sh
# Stub engine: copy the log pre-rendered for this command line into md.log.
# Every invocation is appended to the session ledger. The key drops -nsteps
# and -resetstep, so shortened runs get the same log.
printf '%s\\n' "$*" >> ../../ledger
key=
skip=
for arg in "$@"; do
    if [ -n "$skip" ]; then skip=; continue; fi
    case "$arg" in
        -nsteps|-resetstep) skip=1; continue ;;
    esac
    key="${key}_${arg}"
done
logs=../../../engine/logs
if [ -e "$logs/$key.fail" ]; then
    echo "stub engine: simulated crash" >&2
    exit 3
fi
rep=${PWD##*_}
[ -e "$logs/$key.$rep.log" ] || rep=0
if [ ! -e "$logs/$key.$rep.log" ]; then
    echo "stub engine: no log for this command" >&2
    exit 4
fi
cp "$logs/$key.$rep.log" md.log
"""


def log_key(command: str) -> str:
    """The stub's key for a command line: its arguments after the engine path,
    each prefixed with '_', without -nsteps and -resetstep."""
    args = command.split()[1:]
    key, skip = "", False
    for arg in args:
        if skip:
            skip = False
        elif arg in ("-nsteps", "-resetstep"):
            skip = True
        else:
            key += "_" + arg
    return key


def _energy_block(rng: random.Random, step: int) -> list[str]:
    def row(n):
        return "".join(f"{rng.uniform(-2e6, 2e6):15.5e}" for _ in range(n))

    return [
        "           Step           Time",
        f"{step:>15d}{step * 0.002:>15.5f}",
        "",
        "   Energies (kJ/mol)",
        "          Angle    Proper Dih.  Improper Dih.          LJ-14     Coulomb-14",
        row(5),
        "        LJ (SR)  Disper. corr.   Coulomb (SR)   Coul. recip.      Potential",
        row(5),
        "    Kinetic En.   Total Energy    Temperature Pressure (bar)",
        row(4),
        "",
    ]


def _metric_block(pred, workload: Workload, performance: float, scale: float) -> list[str]:
    out = []
    state = pred.balance
    if state.pp_cost_ratio > 1.0:
        st0 = balance_cutoff(workload.rc0, workload.spacing0, workload.box, 1.0)

        def lb_row(label, rc, grid, spacing):
            gx, gy, gz = grid
            return (f"   {label:<8} {rc:.3f} nm  {rc + 0.012:.3f} nm     {gx} {gy} {gz}   "
                    f"{spacing:.3f} nm  {rc * 0.289:.3f} nm")

        out += [
            " PP/PME load balancing changed the cut-off and PME settings:",
            "           particle-particle                    PME",
            "            rcoulomb  rlist            grid      spacing   1/beta",
            lb_row("initial", workload.rc0, st0.grid_dims, st0.grid_spacing),
            lb_row("final", state.rcoulomb, state.grid_dims, state.grid_spacing),
            f" cost-ratio           {state.pp_cost_ratio:.2f}             {state.pme_cost_ratio:.2f}",
            "",
        ]
    if pred.pme_mesh_force_load is not None:
        load = pred.pme_mesh_force_load
        out += [
            f" Average PME mesh/force load: {load:.3f}",
            " Part of the total run time spent waiting due to PP/PME imbalance: "
            f"{100 * abs(1 - load) / (1 + load):.1f} %",
            "",
        ]
    if pred.gpu_time_s > 0:
        gpu_ms = pred.gpu_time_s * 1000 / scale
        cpu_ms = pred.cpu_overlap_time_s * 1000 / scale
        out += [
            f" Force evaluation time GPU/CPU: {gpu_ms:.3f} ms/{cpu_ms:.3f} ms = "
            f"{gpu_ms / cpu_ms:.3f}",
            "For optimal performance this ratio should be close to 1!",
            "",
        ]
        if gpu_ms < 0.75 * cpu_ms:
            out += ["NOTE: The GPU has >25% less load than the CPU. This imbalance causes",
                    "      performance loss.", ""]
    perf = performance * scale
    wall = 4000 * pred.step_time_s / scale
    out += [
        "               Core t (s)   Wall t (s)        (%)",
        f"       Time:   {wall * 40:>10.3f}   {wall:>10.3f}     4000.0",
        "                 (ns/day)    (hour/ns)",
        f" Performance:   {perf:>10.3f}   {24 / perf:>10.3f}",
        "",
    ]
    return out


def engine_log(rng: random.Random, command: str, pred, workload: Workload,
               performance: float) -> str:
    """An engine log of a run restarted len(SEGMENT_SCALE) - 1 times."""
    out = ["Log file opened on Mon Jan  5 10:00:00 2015",
           "Host: node01  pid: 4242  nodeid: 0  nnodes:  1", "",
           "Command line:", f"  {command}", ""]
    step = 0
    for segment, scale in enumerate(SEGMENT_SCALE):
        if segment:
            out += ["Reading checkpoint file state.cpt generated: Mon Jan  5 10:20:00 2015",
                    "Restarting from checkpoint, appending to previous log file.", ""]
        for _ in range(ENERGY_BLOCKS):
            out += _energy_block(rng, step)
            step += 500
        out += _metric_block(pred, workload, performance, scale)
    out.append("Finished mdrun on node 0 Mon Jan  5 11:00:00 2015")
    return "\n".join(out) + "\n"


def cli_shell_inputs(rng: random.Random, workdir: Path) -> dict:
    """The 2-GPU manifest, the stub engine, its logs and failing subset, and
    a rows document. Returns what the checks need to know about them: the
    manifest path, a plan entry per stub key, the row count and the plan's
    noise-free best ns/day."""
    manifest = write_json(workdir / "manifest.json", {
        "workload": workload_doc(rng, "membrane-80k"),
        "node": {"cpu": TEST_CPU, "gpus": [GTX_980] * 2,
                 "node_price": round(rng.uniform(4900, 5700)),
                 "interconnect": "none", "rack_units": 2},
        "sweep": {"nstlist": [40], "repeats": 2},
        "econ": {"lifetime_years": 5, "energy_price_eur_per_kwh": 0.2},
        "engine": {"mdrun": STUB_PATH},
    })
    m = load_manifest(manifest)
    configs = enumerate_plan(m.node, m.sweep, nodes=m.node_count)
    profile = SyntheticNodeProfile()
    preds = [predict_run(profile, m.node, c, m.workload) for c in configs]
    best = max(range(len(configs)), key=lambda i: preds[i].ns_per_day)
    failing = set(rng.sample([i for i in range(len(configs)) if i != best], FAILING_CONFIGS))

    engine = workdir / "engine"
    logs = engine / "logs"
    logs.mkdir(parents=True)
    (engine / "mdrun").write_text(STUB)
    (engine / "mdrun").chmod(0o755)
    plan = {}
    for i, (config, pred) in enumerate(zip(configs, preds)):
        command = render_command(config, m.engine)
        key = log_key(command)
        entry = {"command": command, "ns_per_day": pred.ns_per_day,
                 "step_time_s": pred.step_time_s, "fails": i in failing, "printed": []}
        if i in failing:
            (logs / f"{key}.fail").write_text("")
        else:
            scatter = rng.uniform(0.002, 0.01)
            for repeat, sign in enumerate((1, -1)):
                perf = pred.ns_per_day * (1 + sign * scatter)
                text = engine_log(rng, command, pred, m.workload, perf)
                (logs / f"{key}.{repeat}.log").write_text(text)
                entry["printed"].append(float(f"{perf:.3f}"))
        plan[key] = entry

    rows = rows_document(rng)
    write_json(workdir / "rows.json", rows)
    return {"manifest": manifest, "plan": plan, "rows": len(rows["rows"]),
            "best_ns_per_day": preds[best].ns_per_day}


def rows_document(rng: random.Random, n: int = 40) -> dict:
    """Benchmark rows for analyze-costs and recommend: half with a plug-meter
    reading taken with some GPUs idle, half with a direct wattage."""
    rows = []
    for i in range(n):
        gpus = rng.choice([0, 1, 2, 4])
        perf = round(rng.uniform(5, 70), 3)
        cost = round(rng.uniform(800, 10000))
        watts = rng.uniform(150, 900)
        row = {
            "label": f"node-{i:02d} {gpus}xGPU",
            "performance_ns_day": perf,
            "node_cost_eur": cost,
            "perf_per_price": round(perf / cost * 1000, 3),
            "parallel_performance_ns_day": round(perf * rng.uniform(2, 6), 3),
            "rack_units": rng.choice([1, 2, 4]),
        }
        if i % 2:
            row["power"] = {"kind": "meter_kwh_per_300s", "value": round(watts / 12000, 5),
                            "gpus_installed": gpus,
                            "gpus_active": gpus - (1 if gpus and rng.random() < 0.5 else 0),
                            "idle_gpu_power_w": 24}
        else:
            row["power_w"] = round(watts)
        rows.append(row)
    return {"rows": rows, "econ": {"lifetime_years": 5, "energy_price_eur_per_kwh": 0.2}}

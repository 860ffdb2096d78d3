"""One tuning session per workload, and the checks on its outputs.

A session is what a user runs to tune a node: load and validate the
manifest, enumerate the plan, run every config through an executor,
aggregate, write the result JSON and render the report. In-process
sessions call mdtune through the names its CLI resolves; the cli-shell
session runs the ``mdtune`` command itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import mdtune.cli as cli
from mdtune.balance import SyntheticNodeProfile, predict_performance, predict_run
from mdtune.errors import RunFailure
from mdtune.launch import EngineProfile, render_command
from mdtune.sweep import result_from_json

import inputs
from spans import Span, Tracer, spans_from_json

HERE = Path(__file__).resolve().parent

# Modelled engine start-up per run (reading the run input, domain
# decomposition, device set-up), charged on top of the steps.
ENGINE_STARTUP_S = 5.0


class CheckFailed(Exception):
    """A session's output is wrong."""


@dataclass
class Outcome:
    """What a session produced, beyond its wall time.

    ``ledger`` has one ``(run, steps, failed)`` entry per executor run, in
    order; ``outputs`` are the named texts the digest covers.
    """

    ledger: list
    outputs: dict[str, str]
    spans: list[Span] = field(default_factory=list)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for name, text in self.outputs.items():
            h.update(f"{name}\0{text}\0".encode())
        return h.hexdigest()[:16]

    @property
    def failed_runs(self) -> int:
        return sum(1 for _, _, failed in self.ledger if failed)


@dataclass
class Scores:
    """Deterministic figures of one input, derived from a checked session."""

    engine_s: float
    winner_perf_pct: float
    ok_frac: float


def engine_seconds(ledger, step_time_s) -> float:
    """Start-up plus steps times the modelled step time, over every run asked for."""
    return sum(ENGINE_STARTUP_S + steps * step_time_s(run) for run, steps, _ in ledger)


def scores(out: Outcome, step_time_s, winner_perf_pct: float) -> Scores:
    return Scores(
        engine_s=engine_seconds(out.ledger, step_time_s),
        winner_perf_pct=winner_perf_pct,
        ok_frac=1 - out.failed_runs / len(out.ledger),
    )


def _check_best(result, where: str) -> None:
    if not result.rows:
        raise CheckFailed(f"{where}: no successful rows")
    if result.best_row.mean_performance != max(r.mean_performance for r in result.rows):
        raise CheckFailed(f"{where}: best_index does not point at the top row")


def _check_table(text: str, rows: int, where: str) -> None:
    if text.count("\n") != rows + 2:
        raise CheckFailed(f"{where}: table does not have one line per row")


# ---------------------------------------------------------------------------
# In-process sessions: synth-gpu, synth-cpu
# ---------------------------------------------------------------------------


class CountingExecutor:
    """Delegates to an executor and keeps a ledger of every run it is asked to do."""

    def __init__(self, inner, tag):
        self.inner = inner
        self.tag = tag
        self.exclusive = inner.exclusive
        self.ledger: list = []

    def run(self, config, workload):
        try:
            text = self.inner.run(config, workload)
        except RunFailure:
            self.ledger.append(((self.tag, config), workload.benchmark_steps, True))
            raise
        self.ledger.append(((self.tag, config), workload.benchmark_steps, False))
        return text


class InProcess:
    """Synthetic sweeps of one or more manifests in this interpreter."""

    def __init__(self, manifests: list[Path]):
        self.manifests = manifests
        self.profile = SyntheticNodeProfile()

    def session(self, tracer: Optional[Tracer] = None) -> tuple[float, Outcome]:
        ledger, outputs = [], {}
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            for i, path in enumerate(self.manifests):
                m = cli.load_manifest(path)
                configs = cli.enumerate_plan(m.node, m.sweep, nodes=m.node_count)
                executor = CountingExecutor(cli.SyntheticExecutor(m.node, self.profile), i)
                if tracer is not None:
                    executor.run = tracer.span("sweep.executor_run", executor.run)
                result = cli.run_sweep(configs, executor, m.workload, repeats=m.repeats)
                outputs[f"result-{i}"] = cli.result_to_json(result)
                outputs[f"report-{i}"] = cli.report.sweep_report(
                    result, node_cost_eur=m.node.node_price_eur or None, fmt="md")
                ledger += executor.ledger
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        return wall, Outcome(ledger, outputs, tracer.spans if tracer is not None else [])

    def check(self, out: Outcome) -> Scores:
        """Every row's mean is the model's prediction (the synthetic log
        round-trips exactly), no run fails, the best index is the top row and
        the report has one line per row."""
        manifests = [cli.load_manifest(p) for p in self.manifests]
        winner = []
        for i, m in enumerate(manifests):
            result = result_from_json(out.outputs[f"result-{i}"])
            if result.failures:
                raise CheckFailed(f"manifest {i}: {len(result.failures)} synthetic runs failed")
            for row in result.rows:
                model = predict_performance(self.profile, m.node, row.config, m.workload)
                if row.mean_performance != model:
                    raise CheckFailed(f"manifest {i}: mean {row.mean_performance} != model {model}")
            _check_best(result, f"manifest {i}")
            _check_table(out.outputs[f"report-{i}"], len(result.rows), f"report {i}")
            plan = cli.enumerate_plan(m.node, m.sweep, nodes=m.node_count)
            best = max(predict_performance(self.profile, m.node, c, m.workload) for c in plan)
            picked = predict_performance(self.profile, m.node, result.best_row.config, m.workload)
            winner.append(100.0 * picked / best)

        step_times = {}

        def step_time(run):
            if run not in step_times:
                i, config = run
                m = manifests[i]
                step_times[run] = predict_run(self.profile, m.node, config, m.workload).step_time_s
            return step_times[run]

        return scores(out, step_time, min(winner))


# ---------------------------------------------------------------------------
# cli-shell: mdtune subprocesses around a stub engine
# ---------------------------------------------------------------------------

WEIGHTS = "C1=0.5,C4=0.5"
STUB_ENGINE = EngineProfile(mdrun=inputs.STUB_PATH)


def mdtune_env(root: Path) -> dict:
    """Environment for mdtune subprocesses: sources from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("MDTUNE_LOG", None)
    return env


class CliShell:
    """``mdtune sweep --executor shell``, ``parse-log``, ``analyze-costs`` and
    ``recommend``, each in a fresh interpreter, as a user runs them.

    Every session sweeps into a fresh workdir: a second sweep into the same
    workdir aborts today, because a run directory of the first one already
    exists. That defect gets a separate fix with its own test.
    """

    def __init__(self, workdir: Path, generated: dict, env: dict):
        self.generated = generated
        self.env = env
        self.session_dir = workdir / "session"

    def _mdtune(self, args: list[str], spans_file: Optional[Path]) -> str:
        if spans_file is None:
            command = [sys.executable, "-m", "mdtune.cli", *args]
        else:
            command = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), *args]
        proc = subprocess.run(command, cwd=self.session_dir, env=self.env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise CheckFailed(f"mdtune {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    def session(self, tracer: Optional[Tracer] = None) -> tuple[float, Outcome]:
        shutil.rmtree(self.session_dir, ignore_errors=True)
        self.session_dir.mkdir()
        (self.session_dir / "ledger").write_text("")
        spans = [self.session_dir / f"spans-{i}.json" if tracer else None for i in range(4)]
        start = time.perf_counter()
        report = self._mdtune(["sweep", "--manifest", "../manifest.json", "--executor", "shell",
                               "--workdir", "runs", "--out", "result.json", "--format", "md"],
                              spans[0])
        logs = sorted(str(p.relative_to(self.session_dir))
                      for p in (self.session_dir / "runs").glob("run_*/md.log"))
        parsed = self._mdtune(["parse-log", *logs], spans[1])
        costs = self._mdtune(["analyze-costs", "--rows", "../rows.json", "--format", "md"],
                             spans[2])
        ranking = self._mdtune(["recommend", "--rows", "../rows.json", "--weights", WEIGHTS],
                               spans[3])
        wall = time.perf_counter() - start

        ledger_text = (self.session_dir / "ledger").read_text()
        ledger = []
        for line in ledger_text.splitlines():
            key = inputs.log_key(f"{inputs.STUB_PATH} {line}")
            args = line.split()
            steps = int(args[args.index("-nsteps") + 1]) if "-nsteps" in args else 0
            ledger.append((key, steps, self._entry(key)["fails"]))
        out = Outcome(ledger, {
            "report": report,
            "result": (self.session_dir / "result.json").read_text(),
            "parse-log": parsed,
            "analyze-costs": costs,
            "recommend": ranking,
            "ledger": ledger_text,
        })
        for path in filter(None, spans):
            offset = len(out.spans)
            for s in spans_from_json(json.loads(path.read_text())):
                s.parent += offset if s.parent >= 0 else 0
                out.spans.append(s)
        return wall, out

    def _entry(self, key: str) -> dict:
        try:
            return self.generated["plan"][key]
        except KeyError:
            raise CheckFailed(f"the engine ran a command outside the plan: {key}") from None

    def check(self, out: Outcome) -> Scores:
        """Failures are exactly the stub's designed subset; every other row's
        mean is the mean of the last Performance line of its two logs;
        parse-log saw every log; the tables have one line per row."""
        plan = self.generated["plan"]

        def entry(config):
            return self._entry(inputs.log_key(render_command(config, STUB_ENGINE)))

        result = result_from_json(out.outputs["result"])
        failed = [entry(c) for c, _ in result.failures]
        if sorted(map(id, failed)) != sorted(id(e) for e in plan.values() if e["fails"]):
            raise CheckFailed("failed configs are not the stub's designed subset")
        for _, message in result.failures:
            if f"exit {inputs.STUB_EXIT}" not in message:
                raise CheckFailed(f"unexpected failure message: {message!r}")
        for row in result.rows:
            printed = entry(row.config)["printed"]
            if row.mean_performance != statistics.fmean(printed):
                raise CheckFailed(f"row mean {row.mean_performance} != logs {printed}")
        _check_best(result, "result.json")
        _check_table(out.outputs["report"], len(result.rows), "sweep report")
        if len(json.loads(out.outputs["parse-log"])) != 2 * len(result.rows):
            raise CheckFailed("parse-log did not report one document per run log")
        _check_table(out.outputs["analyze-costs"], self.generated["rows"], "analyze-costs")
        _check_table(out.outputs["recommend"], self.generated["rows"], "recommend")

        picked = entry(result.best_row.config)["ns_per_day"]
        winner = 100.0 * picked / self.generated["best_ns_per_day"]
        return scores(out, lambda key: plan[key]["step_time_s"], winner)

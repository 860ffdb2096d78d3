"""Run launch configurations through an executor and pick the winner.

An executor takes (config, workload) and returns raw log text; the
orchestrator parses each log, aggregates repeats into mean/stdev, attaches
advisories, and selects the best configuration. Failed runs are recorded
and never abort the sweep.

Two executors ship with the toolkit:

 - ShellExecutor invokes a rendered engine command inside a fresh
   run_<hash>_<i>/ directory and reads back the engine's log file. It is
   exclusive: runs are strictly serialized so they do not contend for the
   node being benchmarked.
 - SyntheticExecutor evaluates the analytic node model and renders a log
   from the prediction. It is deterministic, not exclusive, and exists so
   sweeps can be tested end to end on a laptop. Because it is deterministic,
   it renders each (config, workload) once and answers every repeat with
   the same log; the memo lives on the instance, so it lasts one sweep.

The orchestrator does each repeat's deterministic work once too: a log text
equal to an earlier repeat's is not parsed again, and repeats that agree to
the last bit have a stdev of exactly 0.0 without the exact arithmetic of
``_sample_stdev``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import signal
import subprocess
from pathlib import Path
from typing import NamedTuple, Optional, Protocol, Sequence

from .balance import SyntheticNodeProfile, Workload, balance_cutoff, predict_run
from .errors import ExecutorError, InvalidConfigError, LogParseError, MdtuneError, RunFailure
from .hardware import NodeSpec
from .launch import EngineProfile, LaunchConfig, render_command
from .logparse import (
    ADVISORY_PME_OVERPROVISIONED,
    Advisory,
    PerfMetrics,
    GpuCpuRatio,
    ParsedLoadBalance,
    parse_metrics,
    render_log,
)
from .wire import dumps, from_doc, to_doc

# A mesh/force load this far below 1 means the mesh ranks mostly idle.
PME_OVERPROVISION_THRESHOLD = 0.9


class Executor(Protocol):
    exclusive: bool

    def run(self, config: LaunchConfig, workload: Workload) -> str:
        """Execute one benchmark run; returns raw log text or raises RunFailure."""
        ...


class SyntheticExecutor:
    """Deterministic model-backed executor; see the module docstring.

    The rendered log of each ``(config, workload)`` is memoized on the
    instance, so a repeat costs one dict lookup and the memo holds at most
    one log per config. It is per instance, not per module, so that it is
    dropped with the executor: a later sweep computes its logs afresh, and a
    one-shot ``mdtune sweep`` gains exactly as much as a long-lived process.
    A config the node cannot run raises ``RunFailure`` every time and is not
    memoized. Run-to-run noise, once the model has it, will be keyed by
    repeat; the memo then moves to the noise-free ``PredictedRun``.
    """

    exclusive = False

    def __init__(self, node: NodeSpec, profile: SyntheticNodeProfile = SyntheticNodeProfile()):
        self.node = node
        self.profile = profile
        self._logs: dict[tuple[LaunchConfig, Workload], str] = {}

    def run(self, config: LaunchConfig, workload: Workload) -> str:
        log_text = self._logs.get((config, workload))
        if log_text is None:
            log_text = self._logs[config, workload] = self._render(config, workload)
        return log_text

    def _render(self, config: LaunchConfig, workload: Workload) -> str:
        try:
            pred = predict_run(self.profile, self.node, config, workload)
        except InvalidConfigError as exc:
            raise RunFailure(str(exc)) from exc
        load_balance, gpu_cpu, wait, notes = None, None, None, ()
        state = pred.balance
        if state.pp_cost_ratio > 1.0:
            st0 = balance_cutoff(workload.rc0, workload.spacing0, workload.box, 1.0)
            load_balance = ParsedLoadBalance(
                initial_rcoulomb=workload.rc0,
                initial_rlist=workload.rc0 + 0.012,
                initial_grid=st0.grid_dims,
                initial_spacing=st0.grid_spacing,
                initial_inv_beta=workload.rc0 * 0.289,
                final_rcoulomb=state.rcoulomb,
                final_rlist=state.rcoulomb + 0.012,
                final_grid=state.grid_dims,
                final_spacing=state.grid_spacing,
                final_inv_beta=state.rcoulomb * 0.289,
                cost_ratio_pp=state.pp_cost_ratio,
                cost_ratio_pme=state.pme_cost_ratio,
            )
        if config.gpu_id:
            cpu_ms = pred.cpu_overlap_time_s * 1000.0
            gpu_ms = pred.gpu_time_s * 1000.0
            if cpu_ms > 0:
                gpu_cpu = GpuCpuRatio(
                    gpu_ms=gpu_ms, cpu_ms=cpu_ms, ratio=gpu_ms / cpu_ms
                )
        load = pred.pme_mesh_force_load
        if load is not None:
            wait = round(100.0 * (abs(1.0 - load) / (1.0 + load)), 1)
            if load < PME_OVERPROVISION_THRESHOLD:
                notes = (
                    Advisory(
                        kind=ADVISORY_PME_OVERPROVISIONED,
                        text=(
                            "NOTE: the separate PME ranks\n"
                            "      had less work to do than the PP ranks.\n"
                            "      You might want to decrease the number of PME nodes\n"
                            "      or decrease the cut-off and the grid spacing."
                        ),
                    ),
                )
        return render_log(PerfMetrics(pred.ns_per_day, load, wait, gpu_cpu, load_balance, notes))


class ShellExecutor:
    """Run rendered engine commands in per-run directories.

    Each run gets its own ``run_<hash>_<i>/`` directory under ``workdir``;
    the hash covers the config and workload, so repeated sweeps use
    predictable paths. ``i`` is the first index not taken yet, so repeats,
    and later sweeps into the same workdir, never collide with earlier runs.
    Engine output that is not valid text is decoded with replacement
    characters, so it is a log to parse or a failure to record, never an
    exception. A run that exceeds ``timeout_s`` is a failed run. However
    the wait for a run ends early (a timeout, Ctrl-C), every process the
    run started is killed.
    """

    exclusive = True

    def __init__(self, workdir: Path | str, engine: EngineProfile = EngineProfile(),
                 timeout_s: float = 3600.0):
        self.workdir = Path(workdir)
        self.engine = engine
        self.timeout_s = timeout_s

    def _make_rundir(self, key: str) -> Path:
        for i in itertools.count():
            rundir = self.workdir / f"run_{key}_{i}"
            try:
                rundir.mkdir(parents=True, exist_ok=False)
                return rundir
            except FileExistsError:
                continue
            except OSError as exc:
                raise ExecutorError(f"cannot create run directory {rundir}: {exc}") from exc

    def run(self, config: LaunchConfig, workload: Workload) -> str:
        command = render_command(config, self.engine, workload)
        key = hashlib.sha256(
            (command + workload.name).encode()
        ).hexdigest()[:12]
        rundir = self._make_rundir(key)
        # A session of its own puts the shell and every process it starts (an
        # mpirun and its ranks, say) in one process group, killed as a whole.
        # The session also leaves the terminal's foreground group, so Ctrl-C
        # reaches only mdtune and the group must be killed on every way out.
        with subprocess.Popen(
            command,
            shell=True,
            cwd=rundir,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            errors="replace",
            start_new_session=True,
        ) as proc:
            try:
                _, stderr = proc.communicate(timeout=self.timeout_s)
            except BaseException as exc:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise RunFailure(
                        f"command timed out after {self.timeout_s:g} s: {command}"
                    ) from None
                raise
        if proc.returncode != 0:
            raise RunFailure(
                f"command failed with exit {proc.returncode}: {command}\n{stderr.strip()}"
            )
        log_path = rundir / self.engine.log_file
        if not log_path.exists():
            raise RunFailure(f"run left no log file at {log_path}")
        return log_path.read_text(errors="replace")


class SweepRow(NamedTuple):
    config: LaunchConfig
    mean_performance: float
    stdev: float
    repeats: int
    metrics: PerfMetrics  # of the best repeat
    advisories: tuple[Advisory, ...] = ()

    WIRE = {"mean_performance": "mean_performance_ns_day", "stdev": "stdev_ns_day"}


class Failure(NamedTuple):
    """A config whose run failed, with the reason."""

    config: LaunchConfig
    error: str


class SweepResult(NamedTuple):
    rows: list[SweepRow]
    failures: list[Failure]
    best_index: Optional[int]

    WIRE_NULLS = ("best_index",)

    @property
    def best_row(self) -> SweepRow:
        if self.best_index is None:
            raise MdtuneError("sweep has no successful rows")
        return self.rows[self.best_index]

    def ranked(self) -> list[SweepRow]:
        """Rows best first: by mean performance, then the tie-breaks of ``_rank_key``."""
        return sorted(self.rows, key=_rank_key)


def _rank_key(row: SweepRow):
    """Sort key: performance first, then the deterministic tie-breaks."""
    return (
        -row.mean_performance,
        row.config.n_rank,
        0 if row.config.dlb == "off" else 1,
        0 if not row.config.use_ht else 1,
    )


def _sample_stdev(values: Sequence[float]) -> float:
    """``statistics.stdev`` as Python 3.11 computes it, to the same bits on 3.10.

    The sample variance is exact, n / m in integers, and its square root is
    rounded once: to odd in integers at 109 bits, then to the nearest float.
    (3.10 rounds the variance to a float before ``math.sqrt``, so its last
    digit can differ.)
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)  # every denominator is a power of two
    ints = [a * (scale // d) for a, d in ratios]
    k = len(ints)
    n = k * sum(x * x for x in ints) - sum(ints) ** 2
    m = k * (k - 1) * scale * scale
    q = (n.bit_length() - m.bit_length() - 109) // 2
    n, m = (n, m << 2 * q) if q >= 0 else (n << -2 * q, m)
    root = math.isqrt(n // m)
    return math.ldexp(root | (root * root * m != n), q)


def run_sweep(
    configs: Sequence[LaunchConfig],
    executor: Executor,
    workload: Workload,
    repeats: int = 2,
) -> SweepResult:
    """Execute every config ``repeats`` times and aggregate.

    The mean of the repeats ranks configurations (engines scatter by a few
    percent run to run, so single samples are not trusted); the stdev is
    reported alongside, 0.0 when every repeat gives the same figure. A log
    text equal to an earlier repeat's of the same config is parsed once. A
    failed repeat (the executor raised RunFailure, or the log is malformed)
    fails the whole row, which is recorded in ``failures`` without stopping
    the sweep.
    """
    if repeats < 1:
        raise MdtuneError("repeats must be >= 1")
    rows: list[SweepRow] = []
    failures: list[Failure] = []
    for config in configs:
        perfs: list[float] = []
        parsed: dict[str, PerfMetrics] = {}
        best_metrics: Optional[PerfMetrics] = None
        try:
            for _ in range(repeats):
                log_text = executor.run(config, workload)
                metrics = parsed.get(log_text)
                if metrics is None:
                    metrics = parsed[log_text] = parse_metrics(log_text)
                if metrics.performance is None:
                    raise RunFailure("log contained no performance figure")
                perfs.append(metrics.performance)
                if best_metrics is None or metrics.performance >= best_metrics.performance:
                    best_metrics = metrics
        except (RunFailure, LogParseError) as exc:
            failures.append(Failure(config, str(exc)))
            continue
        rows.append(
            SweepRow(
                config=config,
                mean_performance=math.fsum(perfs) / len(perfs),  # statistics.fmean's formula
                stdev=(0.0 if all(p == perfs[0] for p in perfs)
                       else _sample_stdev(perfs)),
                repeats=repeats,
                metrics=best_metrics,
                advisories=best_metrics.notes,
            )
        )
    best_index = None
    if rows:
        best_index = min(range(len(rows)), key=lambda i: (_rank_key(rows[i]), i))
    return SweepResult(rows=rows, failures=failures, best_index=best_index)


def select_best(result: SweepResult) -> LaunchConfig:
    """Config with the highest mean performance.

    Ties (to the last bit) go to fewer ranks, then to DLB off, then to
    hyper-threading off, so selection is deterministic and reproducible.
    """
    if not result.rows:
        raise MdtuneError("cannot select from a sweep with no successful rows")
    return result.ranked()[0].config


# ---------------------------------------------------------------------------
# Serialization (the ranked CSV and text tables live in ``report``)
# ---------------------------------------------------------------------------


def result_to_json(result: SweepResult) -> str:
    return dumps(to_doc(result))


def result_from_json(text: str) -> SweepResult:
    return from_doc(SweepResult, json.loads(text))

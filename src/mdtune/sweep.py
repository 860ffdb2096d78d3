"""Run launch configurations through an executor and pick the winner.

An executor takes (config, workload) and returns raw log text; ``run_sweep``
parses each log into a ``Run`` entry; the pure ``aggregate`` folds the entries
into rows and the winner. Failed runs are recorded and never abort the sweep.

Two executors ship with the toolkit:

 - ShellExecutor invokes a rendered engine command inside a fresh
   run_<hash>_<i>/ directory and reads back the engine's log file. It is
   exclusive: runs are strictly serialized so they do not contend for the
   node being benchmarked.
 - SyntheticExecutor evaluates the analytic node model and renders a log
   from the prediction. It is deterministic, not exclusive, and exists so
   sweeps can be tested end to end on a laptop. Because it is deterministic,
   it keeps the last log it rendered and answers a repeat of the same
   (config, workload) with it. It also predicts the two configs of a DLB
   pair with one balance search and renders their log body, all but the
   closing Performance section, once. Its memos live on the instance, so
   they last one sweep.

``run_sweep`` runs each config's repeats back to back, in plan order, so one
slot of each kind is enough: a log text equal to the previous repeat's is
not parsed again. In ``aggregate``, repeats that agree to the last bit have a
stdev of exactly 0.0 without the exact arithmetic of ``_sample_stdev``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import signal
import subprocess
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Optional, Protocol, Sequence

from .balance import (  # perfbench traces mdtune.sweep.balance_cutoff
    BalanceState, PredictedRun, SyntheticNodeProfile, Workload, balance_cutoff, dlb_pair_key,
    predict_run, unshifted_state)
from .errors import ExecutorError, InvalidConfigError, LogParseError, MdtuneError, RunFailure
from .hardware import NodeSpec
from .launch import EngineProfile, LaunchConfig, render_command, validate_config
from .logparse import (
    ADVISORY_PME_OVERPROVISIONED,
    Advisory,
    CutoffSetting,
    PerfMetrics,
    GpuCpuRatio,
    ParsedLoadBalance,
    parse_metrics,
    render_log,
    render_performance,
)
from .wire import dumps, from_doc

# A mesh/force load this far below 1 means the mesh ranks mostly idle.
PME_OVERPROVISION_THRESHOLD = 0.9


class Executor(Protocol):
    exclusive: bool

    def run(self, config: LaunchConfig, workload: Workload) -> str:
        """Execute one benchmark run; returns raw log text or raises RunFailure."""
        ...


class SyntheticExecutor:
    """Deterministic model-backed executor; see the module docstring.

    Three memos live on the instance:

     - the last ``(config, workload)`` and its rendered log, so a repeat
       costs two identity tests: ``run_sweep`` asks for a config's repeats
       back to back, with the same objects (equal new ones render afresh);
     - ``predict_run``'s memo: for each GPU config, keyed by
       ``dlb_pair_key`` (the config without its ``dlb``, and the workload),
       the balance search's result and the step time before the DLB factor,
       so the second config of a DLB pair skips the search; it holds at most
       one entry per GPU layout;
     - under the same key, the log body of each GPU layout: everything
       before the Performance section. Nothing in it depends on ``dlb``, so
       the second config of a DLB pair appends only its own Performance
       section to the first one's body. A CPU-only log is rendered whole.

    They are per instance, not per module, so that they are dropped with the
    executor: a later sweep computes afresh, and a one-shot ``mdtune sweep``
    gains exactly as much as a long-lived process. A config the node cannot
    run, or with a predicted rate that is not finite, raises ``RunFailure``
    every time and is memoized nowhere. Run-to-run noise, once the model has
    it, will be keyed by repeat; the log slot then moves to the noise-free
    ``PredictedRun``.
    """

    exclusive = False

    def __init__(self, node: NodeSpec, profile: SyntheticNodeProfile = SyntheticNodeProfile()):
        self.node = node
        self.profile = profile
        self._last: tuple = (None, None, "")
        self._predictions: dict = {}
        self._bodies: dict[tuple, str] = {}

    def run(self, config: LaunchConfig, workload: Workload) -> str:
        last = self._last
        if last[0] is not config or last[1] is not workload:
            self._last = last = config, workload, self._render(config, workload)
        return last[2]

    def _render(self, config: LaunchConfig, workload: Workload) -> str:
        try:
            pred = predict_run(self.profile, self.node, config, workload, self._predictions)
        except InvalidConfigError as exc:
            raise RunFailure(str(exc)) from exc
        if not math.isfinite(pred.ns_per_day):  # "inf" in a log would read as malformed
            raise RunFailure(f"the synthetic prediction is not finite: {pred.ns_per_day} ns/day")
        if not config.gpu_id:  # one log per CPU-only config: no body to share
            return render_log(self._metrics(config, workload, pred, pred.ns_per_day))
        key = dlb_pair_key(config, workload)
        body = self._bodies.get(key)
        if body is None:
            body = self._bodies[key] = render_log(self._metrics(config, workload, pred, None))
        return body + render_performance(pred.ns_per_day)

    def _metrics(self, config: LaunchConfig, workload: Workload, pred: PredictedRun,
                 performance: Optional[float]) -> PerfMetrics:
        """The metrics of a log with the given performance: nothing else here
        reads ``config.dlb`` or what ``predict_run`` computes after the DLB factor."""
        load_balance, gpu_cpu, wait, notes = None, None, None, ()
        state = pred.balance
        if state.pp_cost_ratio > 1.0:
            initial = unshifted_state(workload.rc0, workload.spacing0, workload.box)
            load_balance = ParsedLoadBalance(_cutoff_row(initial), _cutoff_row(state),
                                             state.pp_cost_ratio, state.pme_cost_ratio)
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
        return PerfMetrics(performance, load, wait, gpu_cpu, load_balance, notes)


def _cutoff_row(state: BalanceState) -> CutoffSetting:
    """The load-balancing table's row for a model state."""
    return CutoffSetting(state.rcoulomb, state.rcoulomb + 0.012, state.grid_dims,
                         state.grid_spacing, state.rcoulomb * 0.289)


class ShellExecutor:
    """Run rendered engine commands in per-run directories.

    Each run gets its own ``run_<hash>_<i>/`` directory under ``workdir``;
    the hash covers the config and workload, so repeated sweeps use
    predictable paths. ``i`` is the first index not taken yet, so repeats,
    and later sweeps into the same workdir, never collide with earlier runs.
    A config the node cannot run raises ``RunFailure`` with the reason
    ``validate_config`` gives, as in ``SyntheticExecutor``, before any
    directory is made. Engine output that is not valid text is decoded with
    replacement characters, so it is a log to parse or a failure to record,
    never an exception. A run that exceeds ``timeout_s`` is a failed run.
    However the wait for a run ends early (a timeout, Ctrl-C), every process
    the run started is killed.
    """

    exclusive = True

    def __init__(self, node: NodeSpec, workdir: Path | str,
                 engine: EngineProfile = EngineProfile(), timeout_s: float = 3600.0):
        self.node = node
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
        try:
            validate_config(config, self.node)
        except InvalidConfigError as exc:
            raise RunFailure(str(exc)) from exc
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
            encoding="utf-8",
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
        try:
            return log_path.read_text(encoding="utf-8", errors="replace")
        except FileNotFoundError:
            raise RunFailure(f"run left no log file at {log_path}") from None
        except OSError as exc:
            raise RunFailure(f"cannot read log file {log_path}: {exc}") from exc


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
    """Sort key: performance first, then fewer ranks, DLB off and HT off."""
    config = row.config
    return -row.mean_performance, config.n_rank, config.dlb != "off", config.use_ht


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


class Run(NamedTuple):
    """A finished run of ``configs[index]``: its metrics, or why it failed."""

    index: int
    config: LaunchConfig
    metrics: Optional[PerfMetrics] = None
    error: Optional[str] = None


def run_sweep(
    configs: Sequence[LaunchConfig],
    executor: Executor,
    workload: Workload,
    repeats: int = 2,
) -> SweepResult:
    """Execute every config ``repeats`` times and ``aggregate`` the runs.

    The mean of the repeats ranks configurations (engines scatter by a few
    percent run to run, so single samples are not trusted); the stdev is
    reported alongside, 0.0 when every repeat gives the same figure. A
    failed repeat (the executor raised RunFailure, or the log is malformed)
    is that config's last run and fails the whole row, which is recorded in
    ``failures`` without stopping the sweep.
    """
    if repeats < 1:
        raise MdtuneError("repeats must be >= 1")
    runs: list[Run] = []
    text = metrics = None  # the previous repeat's log and what it parsed to
    for index, config in enumerate(configs):
        for _ in range(repeats):
            try:
                log_text = executor.run(config, workload)
                if log_text != text:
                    metrics, text = parse_metrics(log_text), log_text
                if metrics.performance is None:
                    raise RunFailure("log contained no performance figure")
            except (RunFailure, LogParseError) as exc:
                runs.append(Run(index, config, error=str(exc)))
                break
            runs.append(Run(index, config, metrics))
    return aggregate(runs)


def aggregate(runs: Sequence[Run]) -> SweepResult:
    """Fold runs into rows, failures and the winner, with no executor or I/O.

    Consecutive runs of one ``index`` are one row's repeats, and the best
    repeat is the last of the equal maxima. A row with a failed run is one
    ``Failure`` instead, with the first failed run's error.
    """
    rows: list[SweepRow] = []
    failures: list[Failure] = []
    for _, group in itertools.groupby(runs, itemgetter(0)):  # by Run.index
        perfs, best = [], None
        for _, config, metrics, error in group:
            if error is not None:
                failures.append(Failure(config, error))
                break
            perfs.append(metrics.performance)
            if best is None or metrics.performance >= best.performance:
                best = metrics
        else:
            mean = math.fsum(perfs) / len(perfs)  # statistics.fmean's formula
            stdev = 0.0 if perfs.count(perfs[0]) == len(perfs) else _sample_stdev(perfs)
            rows.append(SweepRow(config, mean, stdev, len(perfs), best, best.notes))
    best_index = None
    if rows:  # the first of the top rows by the tie-breaks of ``_rank_key``
        top = max([row.mean_performance for row in rows])
        best_index = min([i for i, row in enumerate(rows) if row.mean_performance == top],
                         key=lambda i: _rank_key(rows[i]))
    return SweepResult(rows=rows, failures=failures, best_index=best_index)


# ---------------------------------------------------------------------------
# Serialization (the ranked CSV and text tables live in ``report``)
# ---------------------------------------------------------------------------


def result_to_json(result: SweepResult) -> str:
    return dumps(result)


def result_from_json(text: str) -> SweepResult:
    return from_doc(SweepResult, json.loads(text))

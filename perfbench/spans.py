"""Spans around calls into mdtune's layers, recorded from outside the program.

The benchmark never edits mdtune. In a traced run it replaces public
functions at the names their callers resolve (``mdtune.cli.run_sweep``,
``mdtune.sweep.predict_run``, ...) with wrappers that record one span per
call: name, start, end, parent span, a size (bytes parsed, configs
enumerated, rows ranked, ...) and whether the call raised. Spans stay in
memory and are written out when the run ends. Per-layer metrics are then
computed from them.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional


def _first_len(args, kwargs, result):
    return len(args[0])


def _result_len(args, kwargs, result):
    return len(result)


# (object path, attribute, span name, size of one call or None).
# Each attribute is the name a caller resolves: the CLI calls
# ``load_manifest`` through ``mdtune.cli``, the synthetic executor calls
# ``predict_run`` through ``mdtune.sweep``, ``predict_run`` calls
# ``balance_cutoff`` through ``mdtune.balance``, and so on. In-process
# sessions call the CLI's names too, so one table serves both. A module
# attribute (``subprocess`` in ``mdtune.sweep``) gets its ``run`` wrapped
# for that caller only.
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("mdtune.cli", "load_manifest", "manifest.load_manifest", None),
    ("mdtune.cli", "enumerate_plan", "launch.enumerate_plan", _result_len),
    ("mdtune.sweep", "render_command", "launch.render_command", None),
    ("mdtune.sweep", "predict_run", "balance.predict_run", None),
    ("mdtune.sweep", "balance_cutoff", "balance.balance_cutoff", None),
    ("mdtune.balance", "balance_cutoff", "balance.balance_cutoff", None),
    ("mdtune.sweep", "render_log", "logparse.render_log", None),
    ("mdtune.sweep", "parse_metrics", "logparse.parse_metrics", _first_len),
    ("mdtune.cli", "parse_metrics", "logparse.parse_metrics", _first_len),
    ("mdtune.cli", "run_sweep", "sweep.run_sweep", None),
    ("mdtune.sweep.ShellExecutor", "run", "sweep.shell_run", None),
    ("mdtune.sweep", "subprocess", "sweep.shell_wait", None),
    ("mdtune.cli", "result_to_json", "sweep.result_to_json", None),
    ("mdtune.report", "sweep_report", "report.sweep_report", _result_len),
    ("mdtune.report", "econ_report", "report.econ_report", _result_len),
    ("mdtune.report", "recommend_report", "report.recommend_report", _result_len),
    ("mdtune.report", "rank_hardware", "econ.rank_hardware", _first_len),
]


def _resolve(path: str):
    """Module or class for a dotted path such as ``mdtune.sweep.ShellExecutor``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class _ModuleView(types.SimpleNamespace):
    """A module as one caller sees it, with some attributes replaced."""

    def __init__(self, module, **replaced):
        super().__init__(**replaced)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    size: int = 0
    failed: bool = False


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def span(self, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so that every call records a span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record.failed = True
                raise
            finally:
                record.end = clock()
                stack.pop()
            if size is not None:
                record.size = size(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for path, attr, name, size in targets:
            owner = _resolve(path)
            original = getattr(owner, attr)
            if isinstance(original, types.ModuleType):
                wrapped = _ModuleView(original, run=self.span(name, original.run, size))
            else:
                wrapped = self.span(name, original, size)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def spans_to_json(spans: list[Span]) -> dict:
    return {"spans": [[s.name, s.start, s.end, s.parent, s.size, s.failed] for s in spans]}


def spans_from_json(doc: dict) -> list[Span]:
    return [Span(*row) for row in doc["spans"]]


def write_spans(path: Path, spans: list[Span]) -> None:
    path.write_text(json.dumps(spans_to_json(spans)))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Calls in one thread nest and never overlap, so the children of a span
    cover the sum of their durations.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Per-call medians, in microseconds or seconds, pooled over every session.
PER_CALL = {
    "balance.predict_run_us": ("balance.predict_run", 1e6),
    "logparse.render_log_us": ("logparse.render_log", 1e6),
    "logparse.parse_metrics_us": ("logparse.parse_metrics", 1e6),
    "sweep.shell_run_s": ("sweep.shell_run", 1.0),
    "sweep.shell_wait_s": ("sweep.shell_wait", 1.0),
}


def session_layers(spans: list[Span]) -> dict[str, float]:
    """Per-session totals and counts of each layer."""
    dur, own_time = defaultdict(float), defaultdict(float)
    calls, size, failed = Counter(), Counter(), Counter()
    for s, own in zip(spans, self_times(spans)):
        dur[s.name] += s.end - s.start
        own_time[s.name] += own
        calls[s.name] += 1
        size[s.name] += s.size
        failed[s.name] += s.failed
    sweep_s = dur["sweep.run_sweep"]
    balance_self = own_time["balance.predict_run"] + own_time["balance.balance_cutoff"]
    executors = ("sweep.executor_run", "sweep.shell_run")
    return {
        "launch.enumerate_s": dur["launch.enumerate_plan"],
        "launch.configs": size["launch.enumerate_plan"],
        "launch.render_calls": calls["launch.render_command"],
        "balance.predict_calls": calls["balance.predict_run"],
        "balance.balance_cutoff_calls": calls["balance.balance_cutoff"],
        "balance.self_share": balance_self / sweep_s if sweep_s else 0.0,
        "logparse.bytes": size["logparse.parse_metrics"],
        "sweep.run_sweep_s": sweep_s,
        "sweep.self_s": own_time["sweep.run_sweep"],
        "sweep.executor_calls": sum(calls[n] for n in executors),
        "sweep.executor_failures": sum(failed[n] for n in executors),
        "sweep.serialize_s": dur["sweep.result_to_json"],
        "report.sweep_report_s": dur["report.sweep_report"],
        "report.econ_report_s": dur["report.econ_report"],
        "report.recommend_report_s": dur["report.recommend_report"],
        "report.bytes": sum(size[n] for n in ("report.sweep_report", "report.econ_report",
                                              "report.recommend_report")),
        "econ.rank_hardware_s": dur["econ.rank_hardware"],
        "econ.rows": size["econ.rank_hardware"],
    }


def layer_metrics(sessions: list[list[Span]]) -> dict[str, float]:
    """Medians over sessions of the per-session figures, per-call medians
    pooled over all sessions, and the parse rate over all bytes parsed."""
    per_session = [session_layers(spans) for spans in sessions]
    out = {name: statistics.median(s[name] for s in per_session) for name in per_session[0]}
    durations = defaultdict(list)
    for spans in sessions:
        for s in spans:
            durations[s.name].append(s.end - s.start)
    for metric, (name, scale) in PER_CALL.items():
        out[metric] = statistics.median(durations[name]) * scale if durations[name] else 0.0
    parse_s = sum(durations["logparse.parse_metrics"])
    parsed = sum(s["logparse.bytes"] for s in per_session)
    out["logparse.parse_mb_per_s"] = parsed / 1e6 / parse_s if parse_s else 0.0
    return out


# Every per-layer metric a traced run reports, with its unit.
UNITS = {
    "cli.import_s": "s",
    "manifest.load_s": "s",
    "launch.enumerate_s": "s",
    "launch.configs": "count",
    "launch.render_calls": "count",
    "balance.predict_run_us": "us",
    "balance.predict_calls": "count",
    "balance.balance_cutoff_calls": "count",
    "balance.self_share": "ratio",
    "logparse.render_log_us": "us",
    "logparse.parse_metrics_us": "us",
    "logparse.parse_mb_per_s": "MB/s",
    "logparse.bytes": "B",
    "sweep.run_sweep_s": "s",
    "sweep.self_s": "s",
    "sweep.executor_calls": "count",
    "sweep.executor_failures": "count",
    "sweep.shell_run_s": "s",
    "sweep.shell_wait_s": "s",
    "sweep.serialize_s": "s",
    "report.sweep_report_s": "s",
    "report.econ_report_s": "s",
    "report.recommend_report_s": "s",
    "report.bytes": "B",
    "econ.rank_hardware_s": "s",
    "econ.rows": "count",
    "trace.overhead_s": "s",
}

"""Command-line entry point.

Subcommands: plan, sweep, parse-log, analyze-costs, scaling, recommend,
multi-plan. All output is deterministic for identical inputs; advisories
never change the exit code (0 means no errors).

Set MDTUNE_LOG=info for progress on stderr.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

from . import report
from .balance import SyntheticNodeProfile, load_profile
from .econ import EconParams, HardwareRow
from .errors import MdtuneError
from .launch import (
    enumerate_plan,
    load_plan,
    plan_multi_sim,
    plan_to_json,
    plan_to_script,
)
from .logparse import parse_metrics
from .manifest import load_manifest
from .sweep import ShellExecutor, SyntheticExecutor, result_to_json, run_sweep
from .wire import dumps, from_doc, read, to_doc, validate

log = logging.getLogger("mdtune")


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
        log.info("wrote %s", path)


def _cmd_plan(args) -> int:
    manifest = load_manifest(args.manifest)
    configs = enumerate_plan(manifest.node, manifest.sweep, nodes=manifest.node_count)
    if args.dry_run:
        sys.stdout.write(plan_to_script(configs, manifest.engine, manifest.workload))
        return 0
    _write(args.out, plan_to_json(configs))
    if args.script:
        _write(args.script, plan_to_script(configs, manifest.engine, manifest.workload))
    return 0


def _cmd_sweep(args) -> int:
    manifest = load_manifest(args.manifest)
    if args.plan:
        configs = load_plan(args.plan)
    else:
        configs = enumerate_plan(manifest.node, manifest.sweep, nodes=manifest.node_count)
    if args.dry_run:
        sys.stdout.write(plan_to_script(configs, manifest.engine, manifest.workload))
        return 0
    if args.out and args.out != "-":
        # raise now, not after every run, what writing the result would; keep an existing file
        existed = os.path.exists(args.out)
        open(args.out, "a").close()
        if not existed:
            os.remove(args.out)
    if args.executor == "synthetic":
        profile = load_profile(args.profile) if args.profile else SyntheticNodeProfile()
        executor = SyntheticExecutor(manifest.node, profile)
    else:
        executor = ShellExecutor(Path(args.workdir), manifest.engine)
    repeats = args.repeats if args.repeats is not None else manifest.repeats
    result = run_sweep(configs, executor, manifest.workload, repeats=repeats)
    if args.format == "json":
        text = result_to_json(result)
    elif args.format == "csv":
        text = report.sweep_csv(result)
    elif args.format == "md":
        text = report.sweep_report(
            result,
            node_cost_eur=manifest.node.node_price_eur or None,
            fmt="md",
        )
    else:
        text = report.sweep_table(result)
    if args.out:
        _write(args.out, text if args.format == "json" else result_to_json(result))
    if not args.out or args.format != "json":
        sys.stdout.write(text)
    log.info("%d rows, %d failures", len(result.rows), len(result.failures))
    return 0


def _cmd_parse_log(args) -> int:
    all_metrics = []
    for path in args.logs:
        text = Path(path).read_text(errors="replace")
        all_metrics.append(parse_metrics(text))
    if args.format == "csv":
        sys.stdout.write(report.metrics_csv(all_metrics))
    else:
        docs = [to_doc(m) for m in all_metrics]
        sys.stdout.write(dumps(docs if len(docs) > 1 else docs[0]))
    return 0


def _read_rows(path: str) -> tuple[dict, EconParams, list[report.EconInput]]:
    """A validated rows document, its econ parameters and its rows."""
    doc = read(path)
    validate(doc, "rows")
    rows = [from_doc(report.EconInput, row, f"rows.{i}") for i, row in enumerate(doc["rows"])]
    return doc, from_doc(EconParams, doc.get("econ", {}), "econ"), rows


def _cmd_analyze_costs(args) -> int:
    _, params, inputs = _read_rows(args.rows)
    yield_unit = report.YIELD_US if args.yield_unit == "us" else report.YIELD_NS
    if args.format == "json":
        rows = report.full_precision_rows(inputs, params)
        out = [to_doc(r) | {"label": i.label} for r, i in zip(rows, inputs)]
        sys.stdout.write(dumps(out))
    else:
        sys.stdout.write(report.econ_report(inputs, params, yield_unit, fmt=args.format))
    return 0


def _cmd_scaling(args) -> int:
    doc = read(args.rows)
    validate(doc, "series")
    series = [from_doc(report.ScalingSeries, s, f"series.{i}")
              for i, s in enumerate(doc["series"])]
    fmt = "csv" if args.format == "csv" else "md"
    sys.stdout.write(report.scaling_report(series, fmt=fmt))
    return 0


def _parse_weights(text: str) -> dict[str, float]:
    weights = {}
    for part in text.split(","):
        if not part:
            continue
        name, _, value = part.partition("=")
        try:
            weight = float(value) if value else 1.0
        except ValueError:
            weight = math.nan
        if not math.isfinite(weight):
            raise MdtuneError(f"weight {name.strip()}: {value!r} is not a finite number")
        weights[name.strip()] = weight
    return weights


def _cmd_recommend(args) -> int:
    doc, params, inputs = _read_rows(args.rows)
    econ_rows = report.full_precision_rows(inputs, params)
    hardware = [
        from_doc(HardwareRow, row, f"rows.{i}")._replace(econ=econ)
        for i, (row, econ) in enumerate(zip(doc["rows"], econ_rows))
    ]
    weights = _parse_weights(args.weights) if args.weights else None
    fmt = "csv" if args.format == "csv" else "md"
    sys.stdout.write(report.recommend_report(hardware, weights, fmt=fmt))
    return 0


def _cmd_multi_plan(args) -> int:
    manifest = load_manifest(args.manifest)
    plan = plan_multi_sim(
        manifest.node,
        replicas=args.replicas,
        nodes=args.nodes,
        placement=args.placement,
    )
    sys.stdout.write(dumps(to_doc(plan)))
    if plan.leftover_threads:
        print(
            f"note: {plan.leftover_threads} hardware thread(s) stay idle "
            f"({plan.replicas} replicas do not divide the thread budget)",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdtune",
        description="Launch-configuration tuning and cost analysis for offload-style MD engines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="enumerate launch candidates from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default="-", help="plan JSON destination (default stdout)")
    p.add_argument("--script", help="also write a shell script, one command per line")
    p.add_argument("--dry-run", action="store_true", help="print commands only")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("sweep", help="run a plan through an executor")
    p.add_argument("--manifest", required=True)
    p.add_argument("--plan", help="plan JSON (default: enumerate from the manifest)")
    p.add_argument("--executor", choices=["shell", "synthetic"], default="synthetic")
    p.add_argument("--repeats", type=int, help="override manifest repeats")
    p.add_argument("--out", help="write the result JSON here")
    p.add_argument("--format", choices=["json", "csv", "md", "table"], default="table")
    p.add_argument("--profile", help="synthetic node profile JSON")
    p.add_argument("--workdir", default="runs", help="shell executor working directory")
    p.add_argument("--dry-run", action="store_true", help="print commands only")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("parse-log", help="extract metrics from engine logs")
    p.add_argument("logs", nargs="+")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_parse_log)

    p = sub.add_parser("analyze-costs", help="lifetime trajectory cost table")
    p.add_argument("--rows", required=True, help="JSON file with benchmark rows")
    p.add_argument("--format", choices=["csv", "md", "json"], default="md")
    p.add_argument("--yield-unit", choices=["ns", "us"], default="ns")
    p.set_defaults(func=_cmd_analyze_costs)

    p = sub.add_parser("scaling", help="parallel efficiency table")
    p.add_argument("--rows", required=True, help="JSON file with performance series")
    p.add_argument("--format", choices=["csv", "md"], default="md")
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("recommend", help="rank hardware by weighted criteria")
    p.add_argument("--rows", required=True, help="JSON file with benchmark rows")
    p.add_argument("--weights", help="e.g. C1=1 or C1=0.5,C4=0.5 (default C4)")
    p.add_argument("--format", choices=["csv", "md"], default="md")
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("multi-plan", help="plan a multi-replica run")
    p.add_argument("--manifest", required=True)
    p.add_argument("--replicas", "-M", type=int, required=True)
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--placement", choices=["dense", "interleaved"], default="interleaved")
    p.set_defaults(func=_cmd_multi_plan)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("MDTUNE_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="mdtune: %(message)s",
        stream=sys.stderr,
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MdtuneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

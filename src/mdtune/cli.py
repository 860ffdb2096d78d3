"""Command-line entry point.

Subcommands: plan, sweep, parse-log, analyze-costs, scaling, recommend,
multi-plan. All output is deterministic for identical inputs; advisories
never change the exit code (0 means no errors).

Set MDTUNE_LOG=info (or debug) for progress on stderr.

Each command is a fresh process. The layers it runs (``report``,
``run_sweep``, ...) are attributes of this module that ``__getattr__``
imports on first use, so ``parse-log`` never loads the sweep. Commands call
them through the module (``_cli.run_sweep``), never a local import, so a
caller that replaces the attribute, as a benchmark's tracer does, sees them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .errors import MdtuneError
from .wire import dumps, from_doc, read, to_doc, validate

# the module of this package that defines each name ("report" is the module)
_LAYERS = {name: module for module, names in (
    ("report", "report"),
    ("manifest", "load_manifest"),
    ("launch", "enumerate_plan load_plan plan_to_json plan_to_script plan_multi_sim"),
    ("logparse", "parse_metrics"),
    ("sweep", "run_sweep result_to_json SyntheticExecutor ShellExecutor"),
    ("balance", "SyntheticNodeProfile load_profile"),
    ("econ", "EconParams HardwareRow"),
) for name in names.split()}


def __getattr__(name: str):
    if name not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{_LAYERS[name]}", __package__)
    value = globals()[name] = module if name == "report" else getattr(module, name)
    return value


_cli = sys.modules[__name__]


def _info(message: str) -> None:
    if os.environ.get("MDTUNE_LOG", "").lower() in ("info", "debug"):
        print(f"mdtune: {message}", file=sys.stderr)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
        _info(f"wrote {path}")


def _cmd_plan(args) -> int:
    manifest = _cli.load_manifest(args.manifest)
    configs = _cli.enumerate_plan(manifest.node, manifest.sweep, nodes=manifest.node_count)
    if args.dry_run:
        sys.stdout.write(_cli.plan_to_script(configs, manifest.engine, manifest.workload))
        return 0
    _write(args.out, _cli.plan_to_json(configs))
    if args.script:
        _write(args.script, _cli.plan_to_script(configs, manifest.engine, manifest.workload))
    return 0


def _cmd_sweep(args) -> int:
    manifest = _cli.load_manifest(args.manifest)
    if args.plan:
        configs = _cli.load_plan(args.plan)
    else:
        configs = _cli.enumerate_plan(manifest.node, manifest.sweep, nodes=manifest.node_count)
    if args.dry_run:
        sys.stdout.write(_cli.plan_to_script(configs, manifest.engine, manifest.workload))
        return 0
    if args.out and args.out != "-":
        # raise now, not after every run, what writing the result would; keep an existing file
        existed = os.path.exists(args.out)
        open(args.out, "a").close()
        if not existed:
            os.remove(args.out)
    if args.executor == "synthetic":
        profile = _cli.load_profile(args.profile) if args.profile else _cli.SyntheticNodeProfile()
        executor = _cli.SyntheticExecutor(manifest.node, profile)
    else:
        executor = _cli.ShellExecutor(Path(args.workdir), manifest.engine)
    repeats = args.repeats if args.repeats is not None else manifest.repeats
    result = _cli.run_sweep(configs, executor, manifest.workload, repeats=repeats)
    if args.format == "json":
        text = _cli.result_to_json(result)
    elif args.format == "csv":
        text = _cli.report.sweep_csv(result)
    elif args.format == "md":
        text = _cli.report.sweep_report(
            result,
            node_cost_eur=manifest.node.node_price_eur or None,
            fmt="md",
        )
    else:
        text = _cli.report.sweep_table(result)
    if args.out:
        _write(args.out, text if args.format == "json" else _cli.result_to_json(result))
    if not args.out or args.format != "json":
        sys.stdout.write(text)
    _info(f"{len(result.rows)} rows, {len(result.failures)} failures")
    return 0


def _cmd_parse_log(args) -> int:
    all_metrics = []
    for path in args.logs:
        text = Path(path).read_text(errors="replace")
        all_metrics.append(_cli.parse_metrics(text))
    if args.format == "csv":
        sys.stdout.write(_cli.report.metrics_csv(all_metrics))
    else:
        docs = [to_doc(m) for m in all_metrics]
        sys.stdout.write(dumps(docs if len(docs) > 1 else docs[0]))
    return 0


def _read_rows(path: str) -> tuple[dict, EconParams, list[report.EconInput]]:
    """A validated rows document, its econ parameters and its rows."""
    doc = read(path)
    validate(doc, "rows")
    rows = [from_doc(_cli.report.EconInput, row, f"rows.{i}")
            for i, row in enumerate(doc["rows"])]
    return doc, from_doc(_cli.EconParams, doc.get("econ", {}), "econ"), rows


def _cmd_analyze_costs(args) -> int:
    _, params, inputs = _read_rows(args.rows)
    yield_unit = _cli.report.YIELD_US if args.yield_unit == "us" else _cli.report.YIELD_NS
    if args.format == "json":
        rows = _cli.report.full_precision_rows(inputs, params)
        out = [to_doc(r) | {"label": i.label} for r, i in zip(rows, inputs)]
        sys.stdout.write(dumps(out))
    else:
        sys.stdout.write(_cli.report.econ_report(inputs, params, yield_unit, fmt=args.format))
    return 0


def _cmd_scaling(args) -> int:
    doc = read(args.rows)
    validate(doc, "series")
    series = [from_doc(_cli.report.ScalingSeries, s, f"series.{i}")
              for i, s in enumerate(doc["series"])]
    fmt = "csv" if args.format == "csv" else "md"
    sys.stdout.write(_cli.report.scaling_report(series, fmt=fmt))
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
    econ_rows = _cli.report.full_precision_rows(inputs, params)
    hardware = [
        from_doc(_cli.HardwareRow, row, f"rows.{i}")._replace(econ=econ)
        for i, (row, econ) in enumerate(zip(doc["rows"], econ_rows))
    ]
    weights = _parse_weights(args.weights) if args.weights else None
    fmt = "csv" if args.format == "csv" else "md"
    sys.stdout.write(_cli.report.recommend_report(hardware, weights, fmt=fmt))
    return 0


def _cmd_multi_plan(args) -> int:
    manifest = _cli.load_manifest(args.manifest)
    plan = _cli.plan_multi_sim(
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MdtuneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

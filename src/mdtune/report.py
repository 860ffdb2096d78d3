"""Markdown, CSV and fixed-width text report rendering.

Every table has one writer, ``_render``, with three layouts: Markdown, CSV
(None is an empty cell) and fixed-width text, each cell right-aligned to a
given width (only ``sweep_table`` gives widths). A report builds each row's
cells in one expression from its records.

Internal math everywhere else is full precision; this module owns the
display rounding. The economics tables round the way published cost tables
do (production to 0.01 us, EUR amounts to whole euros, yields to the
printed unit), so a report over the same raw inputs reproduces such tables
digit for digit. All output is deterministic: same inputs, same bytes.
"""

from __future__ import annotations

import io
import csv
import math
import re
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .econ import (
    EconInput,
    EconParams,
    _check_priced,
    econ_row,
    parallel_efficiency,
    price,
    rank_hardware,
)
from .errors import MdtuneError

if TYPE_CHECKING:  # annotations only: the cost commands load no sweep or log layer
    from .logparse import PerfMetrics
    from .sweep import SweepResult

YIELD_NS = "ns_per_keur"
YIELD_US = "us_per_keur"
PRICE_UNIT_EUR = 1000.0  # the sweep table's performance to price is per this many EUR


_MD_BREAK = re.compile(r"\r\n?|\n")


def _md_cell(cell: str) -> str:
    return _MD_BREAK.sub("<br>", cell.replace("|", r"\|"))


def _render(header: list[str], rows: list[list], fmt: str, widths: Sequence[int] = ()) -> str:
    """The table as ``md``, ``csv`` or, given each column's width, ``text``.

    A Markdown cell writes ``|`` as ``\\|`` and a line break as ``<br>``. Only
    a table whose text shows more of these than its rows and columns make is
    written again with its cells escaped, so the usual table costs one join.
    """
    if fmt == "md":
        lines = [header, ["---"] * len(header), *rows]
        text = "".join([f"| {' | '.join(line)} |\n" for line in lines])
        if text.count("|") + text.count("\n") + text.count("\r") > (len(header) + 2) * len(lines):
            text = "".join([f"| {' | '.join(map(_md_cell, line))} |\n" for line in lines])
        return text
    if fmt == "csv":
        # Minimal quoting leaves a lone "\r" bare, and a reader ends the line
        # there, so a table that holds one quotes every cell.
        for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n", quoting=quoting)
            writer.writerow(header)
            writer.writerows(rows)
            if "\r" not in buf.getvalue():
                break
        return buf.getvalue()
    if fmt == "text" and widths:
        return "".join("  ".join(map(str.rjust, row, widths)) + "\n" for row in [header, *rows])
    raise MdtuneError(f"unknown report format {fmt!r} (use 'md' or 'csv')")


# ---------------------------------------------------------------------------
# Sweep report
# ---------------------------------------------------------------------------


def _kinds(advisories) -> str:
    return ";".join([a.kind for a in advisories])


def sweep_report(
    result: SweepResult,
    node_cost_eur: Optional[float] = None,
    fmt: str = "md",
) -> str:
    """Ranked configuration table, optionally with performance per price."""
    header = ["#", "DD grid", "N_pme", "N_th", "DLB", "HT", "gpu_id",
              "P (ns/day)", "stdev", "advisories"]
    with_cost = node_cost_eur is not None
    if with_cost:
        header += ["cost (EUR)", f"ns/day per {PRICE_UNIT_EUR:g} EUR"]
        if node_cost_eur <= 0 and result.rows:
            raise MdtuneError("cost must be positive")
        cost, per_unit = f"{node_cost_eur:.0f}", node_cost_eur / PRICE_UNIT_EUR
    rows = []
    for i, row in enumerate(result.ranked(), start=1):
        c = row.config
        cells = [
            str(i),
            "x".join(map(str, c.dd_grid)) if c.dd_grid else str(c.n_rank - c.n_pme),
            str(c.n_pme),
            str(c.n_th),
            c.dlb,
            "on" if c.use_ht else "off",
            c.gpu_id or "-",
            f"{row.mean_performance:.3f}",
            f"{row.stdev:.3f}",
            row.advisories and _kinds(row.advisories) or "-",
        ]
        if with_cost:
            cells += [cost, f"{row.mean_performance / per_unit:.2f}"]
        rows.append(cells)
    return _render(header, rows, fmt)


SWEEP_CSV_COLUMNS = ["n_rank", "n_th", "n_pme", "dlb", "gpu_id", "use_ht", "nstlist", "nodes",
                     "mean_performance_ns_day", "stdev_ns_day", "repeats", "advisories"]


def sweep_csv(result: SweepResult) -> str:
    """One CSV row per configuration, ranked best first, at full precision."""
    rows = [[c.n_rank, c.n_th, c.n_pme, c.dlb, c.gpu_id, c.use_ht, c.nstlist, c.nodes,
             row.mean_performance, row.stdev, row.repeats, _kinds(row.advisories)]
            for row in result.ranked() for c in (row.config,)]
    return _render(SWEEP_CSV_COLUMNS, rows, "csv")


METRICS_CSV_COLUMNS = ["performance_ns_day", "pme_mesh_force_load", "pp_pme_wait_pct",
                       "gpu_ms", "cpu_ms", "gpu_cpu_ratio", "final_rcoulomb_nm",
                       "cost_ratio_pp", "cost_ratio_pme", "advisories"]


def metrics_csv(all_metrics: Sequence[PerfMetrics]) -> str:
    """One CSV row per parsed log, for aggregation across runs."""
    rows = [[m.performance, m.pme_mesh_force_load, m.pp_pme_wait_pct,
             *(m.gpu_cpu or (None, None, None)),
             lb and lb.final.rcoulomb, lb and lb.cost_ratio_pp, lb and lb.cost_ratio_pme,
             _kinds(m.notes)]
            for m in all_metrics for lb in (m.load_balance,)]
    return _render(METRICS_CSV_COLUMNS, rows, "csv")


def sweep_table(result: SweepResult) -> str:
    """Fixed-width ranked table for the terminal, then the failed runs."""
    header = ["rank", "P (ns/day)", "+/-", "ranks", "thr", "pme", "dlb", "ht", "gpu_id",
              "advisories"]
    rows = [[str(i), f"{row.mean_performance:.3f}", f"{row.stdev:.3f}", str(c.n_rank),
             str(c.n_th), str(c.n_pme), c.dlb, "on" if c.use_ht else "off", c.gpu_id or "-",
             _kinds(row.advisories) or "-"]
            for i, row in enumerate(result.ranked(), start=1) for c in (row.config,)]
    text = _render(header, rows, "text", widths=(4, 11, 7, 5, 3, 3, 4, 3, 10, 0))
    if result.failures:
        text += f"\nfailed runs: {len(result.failures)}\n"
        for config, msg in result.failures:
            first = msg.splitlines()[0] if msg else ""
            text += f"  ranks={config.n_rank} threads={config.n_th}: {first}\n"
    return text


# ---------------------------------------------------------------------------
# Economics tables
# ---------------------------------------------------------------------------


class EconDisplayRow(NamedTuple):
    """Economics row rounded the way the cost tables print it."""

    label: str
    performance: float
    production_us: float
    power_w: float
    energy_cost_eur: int
    node_cost_eur: float
    trajectory_cost_eur_per_us: int
    yield_value: float


def econ_display_row(
    inp: EconInput,
    params: EconParams = EconParams(),
    yield_unit: str = YIELD_NS,
) -> EconDisplayRow:
    """Compute one cost-table row with table-style intermediate rounding.

    Production is rounded to 0.01 us and the energy cost to whole euros
    before the derived columns are formed, mirroring how spreadsheet-built
    cost tables chain their cells.
    """
    full = econ_row(inp.performance, inp.effective_power_w(), inp.node_cost_eur, params)
    production = round(full.production_us, 2)
    energy = full.energy_cost_eur
    if math.isfinite(energy):  # round() raises on an overflowed cost; _check_priced names it
        energy = round(energy)
    total = energy + inp.node_cost_eur
    _check_priced(inp.label, production, total)
    if yield_unit == YIELD_NS:
        yield_value = float(round(1000.0 * production / (total / 1000.0)))
    elif yield_unit == YIELD_US:
        yield_value = round(production / (total / 1000.0), 3)
    else:
        raise MdtuneError(f"unknown yield unit {yield_unit!r}")
    return EconDisplayRow(
        label=inp.label,
        performance=inp.performance,
        production_us=production,
        power_w=full.effective_power_w,
        energy_cost_eur=energy,
        node_cost_eur=inp.node_cost_eur,
        trajectory_cost_eur_per_us=round(total / production),
        yield_value=yield_value,
    )


def econ_report(
    inputs: Sequence[EconInput],
    params: EconParams = EconParams(),
    yield_unit: str = YIELD_NS,
    fmt: str = "md",
) -> str:
    """Consumption-style table: production, energy, trajectory cost, yield."""
    unit = "ns/kEUR" if yield_unit == YIELD_NS else "us/kEUR"
    header = [
        "hardware",
        "P (ns/day)",
        "production (us)",
        "power (W)",
        "energy cost (EUR)",
        "node cost (EUR)",
        "trajectory cost (EUR/us)",
        f"{params.lifetime_years:g} yr yield ({unit})",
    ]
    rows = []
    for inp in inputs:
        d = econ_display_row(inp, params, yield_unit)
        rows.append(
            [
                d.label,
                f"{d.performance:g}",
                f"{d.production_us:.2f}",
                f"{d.power_w:.0f}",
                str(d.energy_cost_eur),
                f"{d.node_cost_eur:.0f}",
                str(d.trajectory_cost_eur_per_us),
                f"{d.yield_value:g}",
            ]
        )
    return _render(header, rows, fmt)


# ---------------------------------------------------------------------------
# Scaling tables
# ---------------------------------------------------------------------------


class ScalingPoint(NamedTuple):
    nodes: int
    performance: float  # ns/day

    WIRE = {"performance": "performance_ns_day"}


class ScalingSeries(NamedTuple):
    label: str
    points: tuple[ScalingPoint, ...]  # single node first


def scaling_report(series: Sequence[ScalingSeries], fmt: str = "md") -> str:
    """Performance and parallel efficiency versus node count."""
    header = ["hardware", "nodes", "P (ns/day)", "E"]
    rows = []
    for s in series:
        base_nodes, base_perf = s.points[0]
        if base_nodes != 1:
            raise MdtuneError(
                f"series {s.label!r} must start with the single-node point"
            )
        for nodes, perf in s.points:
            eff = parallel_efficiency(perf, nodes, base_perf)
            rows.append([s.label, str(nodes), f"{perf:g}", f"{eff:.2f}"])
    return _render(header, rows, fmt)


# ---------------------------------------------------------------------------
# Recommendations
# ---------------------------------------------------------------------------


def recommend_report(
    inputs: Sequence[EconInput],
    params: EconParams = EconParams(),
    weights: Optional[dict[str, float]] = None,
    fmt: str = "md",
) -> str:
    """The rows, each priced, ranked by the weighted criteria (C4 by default)."""
    ranked = rank_hardware([(row, price(row, params)) for row in inputs], weights)
    header = ["#", "hardware", "perf/price", "P (ns/day)", "parallel P",
              "yield (us/kEUR)", "U"]
    out = []
    for i, (row, econ) in enumerate(ranked, start=1):
        out.append(
            [
                str(i),
                row.label,
                f"{row.perf_per_price:.2f}" if row.perf_per_price is not None else "-",
                f"{row.performance:g}",
                f"{row.parallel_performance:g}" if row.parallel_performance is not None else "-",
                f"{econ.yield_us_per_keur:.3f}",
                str(row.rack_units) if row.rack_units is not None else "D",
            ]
        )
    return _render(header, out, fmt)

"""Markdown, CSV and fixed-width text report rendering.

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
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .econ import (
    EconParams,
    EconRow,
    HardwareRow,
    PowerReading,
    econ_row,
    effective_power,
    parallel_efficiency,
    perf_per_price,
    production_us,
    rank_hardware,
)
from .errors import MdtuneError
from .wire import checked, lookup, to_doc

if TYPE_CHECKING:  # annotations only: the cost commands load no sweep or log layer
    from .logparse import PerfMetrics
    from .sweep import SweepResult

YIELD_NS = "ns_per_keur"
YIELD_US = "us_per_keur"
PRICE_UNIT_EUR = 1000.0  # the sweep table's performance to price is per this many EUR


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(header) + " |"]
    out.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    return "\n".join(out) + "\n"


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _render(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "md":
        return _md_table(header, rows)
    if fmt == "csv":
        return _csv_table(header, rows)
    raise MdtuneError(f"unknown report format {fmt!r} (use 'md' or 'csv')")


# ---------------------------------------------------------------------------
# Sweep report
# ---------------------------------------------------------------------------


def _kinds(advisories) -> str:
    return ";".join(a.kind for a in advisories)


def _csv_row(columns: dict[str, str], record, advisories) -> list:
    """The cells of ``columns`` (dotted paths into the record's document, see
    wire.to_doc) with the advisory kinds joined; None, an empty cell, where
    the document has no such value."""
    doc = to_doc(record)
    doc["advisories"] = _kinds(advisories)
    return [lookup(doc, path) for path in columns.values()]


def _dd_grid_text(config) -> str:
    if config.dd_grid:
        return "x".join(str(d) for d in config.dd_grid)
    return str(config.n_pp)


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
    rows = []
    for i, row in enumerate(result.ranked(), start=1):
        c = row.config
        cells = [
            str(i),
            _dd_grid_text(c),
            str(c.n_pme),
            str(c.n_th),
            c.dlb,
            "on" if c.use_ht else "off",
            c.gpu_id or "-",
            f"{row.mean_performance:.3f}",
            f"{row.stdev:.3f}",
            _kinds(row.advisories) or "-",
        ]
        if with_cost:
            cells += [
                f"{node_cost_eur:.0f}",
                f"{perf_per_price(row.mean_performance, node_cost_eur, PRICE_UNIT_EUR):.2f}",
            ]
        rows.append(cells)
    return _render(header, rows, fmt)


# CSV column -> dotted path into a sweep row's document (see wire.to_doc)
SWEEP_CSV_COLUMNS = {
    **{name: f"config.{name}" for name in
       ("n_rank", "n_th", "n_pme", "dlb", "gpu_id", "use_ht", "nstlist", "nodes")},
    "mean_performance_ns_day": "mean_performance_ns_day",
    "stdev_ns_day": "stdev_ns_day",
    "repeats": "repeats",
    "advisories": "advisories",
}


def sweep_csv(result: SweepResult) -> str:
    """One CSV row per configuration, ranked best first, at full precision."""
    rows = [_csv_row(SWEEP_CSV_COLUMNS, row, row.advisories) for row in result.ranked()]
    return _csv_table(list(SWEEP_CSV_COLUMNS), rows)


# CSV column -> dotted path into a parsed log's document
METRICS_CSV_COLUMNS = {
    "performance_ns_day": "performance_ns_day",
    "pme_mesh_force_load": "pme_mesh_force_load",
    "pp_pme_wait_pct": "pp_pme_wait_pct",
    "gpu_ms": "gpu_cpu.gpu_ms",
    "cpu_ms": "gpu_cpu.cpu_ms",
    "gpu_cpu_ratio": "gpu_cpu.ratio",
    "final_rcoulomb_nm": "load_balance.final.rcoulomb_nm",
    "cost_ratio_pp": "load_balance.cost_ratio_pp",
    "cost_ratio_pme": "load_balance.cost_ratio_pme",
    "advisories": "advisories",
}


def metrics_csv(all_metrics: Sequence[PerfMetrics]) -> str:
    """One CSV row per parsed log, for aggregation across runs."""
    rows = [_csv_row(METRICS_CSV_COLUMNS, m, m.notes) for m in all_metrics]
    return _csv_table(list(METRICS_CSV_COLUMNS), rows)


def sweep_table(result: SweepResult) -> str:
    """Fixed-width ranked table for the terminal, then the failed runs."""
    lines = [
        f"{'rank':>4}  {'P (ns/day)':>11}  {'+/-':>7}  {'ranks':>5}  "
        f"{'thr':>3}  {'pme':>3}  {'dlb':>4}  {'ht':>3}  {'gpu_id':>10}  advisories"
    ]
    for i, row in enumerate(result.ranked(), start=1):
        c = row.config
        lines.append(
            f"{i:>4}  {row.mean_performance:>11.3f}  {row.stdev:>7.3f}  {c.n_rank:>5}  "
            f"{c.n_th:>3}  {c.n_pme:>3}  {c.dlb:>4}  {'on' if c.use_ht else 'off':>3}  "
            f"{c.gpu_id or '-':>10}  {_kinds(row.advisories) or '-'}"
        )
    if result.failures:
        lines.append("")
        lines.append(f"failed runs: {len(result.failures)}")
        for config, msg in result.failures:
            first = msg.splitlines()[0] if msg else ""
            lines.append(f"  ranks={config.n_rank} threads={config.n_th}: {first}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Economics tables
# ---------------------------------------------------------------------------


@checked
class EconInput(NamedTuple):
    """One row of a rows document: the raw columns of an economics table
    row and the criteria a recommendation ranks by. Its power must give a draw."""

    label: str
    performance: float  # ns/day
    node_cost_eur: float
    power: Optional[PowerReading] = None
    power_w: Optional[float] = None  # pre-corrected draw, alternative to power
    rack_units: Optional[int] = None
    perf_per_price: Optional[float] = None
    parallel_performance: Optional[float] = None  # ns/day at scale

    WIRE = {"performance": "performance_ns_day",
            "parallel_performance": "parallel_performance_ns_day"}

    def effective_power_w(self) -> float:
        if self.power is not None:
            return effective_power(self.power)
        if self.power_w is not None:
            return self.power_w
        raise MdtuneError(f"row {self.label!r} declares no power reading")

    def _check(self):
        self.effective_power_w()
        return self


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


def _check_priced(label: str, production: float, total: float) -> None:
    """Reject a row whose cost per us or yield would not be a finite number.

    The rows schema allows a node cost and a power of 0, a production that
    rounds to 0.00 us, and any finite cost; a zero divisor, or the quotient
    of a huge and a tiny value, would crash a table or write ``Infinity``
    into a JSON document. The yield is checked in ns/kEUR, the larger of
    its two units, so that every format rejects the same rows.
    """
    if not (0 < production < math.inf and 0 < total < math.inf):
        raise MdtuneError(
            f"row {label!r}: total cost ({total:g} EUR) and production "
            f"({production:g} us) must both be above 0 and finite"
        )
    keur = total / 1000.0
    if not (total / production < math.inf and keur > 0 and 1000.0 * production / keur < math.inf):
        raise MdtuneError(
            f"row {label!r}: the cost per us and the yield of {total:g} EUR "
            f"over {production:g} us must be finite"
        )


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
    power = inp.effective_power_w()
    production = round(production_us(inp.performance, params.lifetime_years), 2)
    energy = params.lifetime_years * power * 365 * 24 * params.energy_price_eur_per_kwh / 1000.0
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
        power_w=power,
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


def full_precision_rows(
    inputs: Sequence[EconInput], params: EconParams = EconParams()
) -> list[EconRow]:
    """The same rows without display rounding, for downstream ranking."""
    rows = []
    for i in inputs:
        row = econ_row(i.performance, i.effective_power_w(), i.node_cost_eur, params)
        _check_priced(i.label, row.production_us, row.energy_cost_eur + row.node_cost_eur)
        rows.append(row)
    return rows


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
    rows: Sequence[HardwareRow],
    weights: Optional[dict[str, float]] = None,
    fmt: str = "md",
) -> str:
    ranked = rank_hardware(rows, weights)
    header = ["#", "hardware", "perf/price", "P (ns/day)", "parallel P",
              "yield (us/kEUR)", "U"]
    out = []
    for i, row in enumerate(ranked, start=1):
        out.append(
            [
                str(i),
                row.label,
                f"{row.perf_per_price:.2f}" if row.perf_per_price is not None else "-",
                f"{row.performance:g}" if row.performance is not None else "-",
                f"{row.parallel_performance:g}" if row.parallel_performance is not None else "-",
                f"{row.econ.yield_us_per_keur:.3f}" if row.econ else "-",
                str(row.rack_units) if row.rack_units is not None else "D",
            ]
        )
    return _render(header, out, fmt)

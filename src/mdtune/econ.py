"""Economics of trajectory production: power, cost, yield, efficiency.

The central quantity is what a microsecond of trajectory costs over the
hardware's lifetime, counting both the purchase price and the electricity
(including cooling) burned running the node continuously. All math here is
full precision; table-style display rounding happens in the report layer.

Conventions:
 - performance P is in ns/day, production in us over the lifetime,
 - energy price is EUR per kWh including cooling,
 - yield is produced trajectory (us) per 1000 EUR of total cost.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .errors import MdtuneError, MissingDatumError
from .wire import checked

HOURS_PER_YEAR = 365 * 24

# A plug-meter reading of kWh consumed over 300 s converts to average watts
# by multiplying with 12000 (kWh / (300 s / 3600 s/h) * 1000 W/kW).
KWH_PER_300S_TO_WATTS = 12000.0

METER_KWH_PER_300S = "meter_kwh_per_300s"
DIRECT_WATTS = "direct_watts"

CRITERIA = ("C1", "C2", "C3", "C4", "C5")
# C1 performance-to-price, C2 single-node performance, C3 time-to-solution
# (parallel performance), C4 energy / lifetime yield, C5 rack space.


@checked
class EconParams(NamedTuple):
    lifetime_years: float = 5.0
    energy_price_eur_per_kwh: float = 0.2  # including cooling

    def _check(self):
        for name, value in zip(self._fields, self):
            if value < 0:
                raise MdtuneError(f"{name} must be >= 0")
        return self


@checked
class PowerReading(NamedTuple):
    """A node power measurement, possibly taken with idle GPUs installed.

    Cards that sit idle in the chassis during a run still draw power; the
    effective draw attributable to the benchmarked configuration subtracts
    (gpus_installed - gpus_active) x idle_gpu_power.
    """

    kind: str
    value: float
    gpus_installed: int = 0
    gpus_active: int = 0
    idle_gpu_power_w: Optional[float] = None

    def _check(self):
        if self.kind not in (METER_KWH_PER_300S, DIRECT_WATTS):
            raise MdtuneError(f"unknown power reading kind {self.kind!r}")
        if self.gpus_active > self.gpus_installed:
            raise MdtuneError("gpus_active cannot exceed gpus_installed")
        return self


class EconRow(NamedTuple):
    performance: float  # ns/day
    production_us: float
    effective_power_w: float
    energy_cost_eur: float
    node_cost_eur: float
    trajectory_cost_eur_per_us: float
    yield_us_per_keur: float

    @property
    def yield_ns_per_keur(self) -> float:
        return 1000.0 * self.yield_us_per_keur


def effective_power(reading: PowerReading) -> float:
    """Average draw in watts attributable to the active configuration."""
    if reading.kind == METER_KWH_PER_300S:
        watts = reading.value * KWH_PER_300S_TO_WATTS
    else:
        watts = reading.value
    idle_gpus = reading.gpus_installed - reading.gpus_active
    if idle_gpus > 0:
        if reading.idle_gpu_power_w is None:
            raise MissingDatumError(
                f"{idle_gpus} idle GPU(s) installed but no idle_gpu_power_w declared"
            )
        watts -= idle_gpus * reading.idle_gpu_power_w
    if watts < 0:
        raise MdtuneError(
            f"effective power came out negative ({watts:.1f} W); reading inconsistent"
        )
    return watts


def production_us(performance: float, lifetime_years: float) -> float:
    """Trajectory produced over the lifetime, in microseconds.

    ns/day x 365 days/year x years, converted ns -> us.
    """
    return performance * 0.365 * lifetime_years


def econ_row(
    performance: float,
    power_w: float,
    node_cost_eur: float,
    params: EconParams = EconParams(),
) -> EconRow:
    """Lifetime production, energy cost, trajectory cost, and yield."""
    if performance <= 0:
        raise MdtuneError("performance must be positive")
    prod = production_us(performance, params.lifetime_years)
    energy = (
        params.lifetime_years
        * power_w
        * HOURS_PER_YEAR
        * params.energy_price_eur_per_kwh
        / 1000.0
    )
    total = energy + node_cost_eur
    keur = total / 1000.0
    return EconRow(
        performance=performance,
        production_us=prod,
        effective_power_w=power_w,
        energy_cost_eur=energy,
        node_cost_eur=node_cost_eur,
        trajectory_cost_eur_per_us=total / prod if prod > 0 else math.inf,
        yield_us_per_keur=prod / keur if keur > 0 else math.inf,
    )


def perf_per_price(performance: float, cost_eur: float, normalizer_eur: float) -> float:
    """ns/day per ``normalizer_eur`` of hardware cost."""
    if cost_eur <= 0:
        raise MdtuneError("cost must be positive")
    return performance / (cost_eur / normalizer_eur)


def cluster_hardware_cost(
    node_price_eur: float,
    node_count: int,
    per_node_network_cost_eur: float = 0.0,
) -> float:
    """Hardware cost of ``node_count`` nodes.

    Fabric adapters only cost money once a job actually spans nodes; a
    single-node figure stays comparable to the single-node tables.
    """
    if node_count < 1:
        raise MdtuneError("node_count must be >= 1")
    total = node_price_eur * node_count
    if node_count > 1:
        total += per_node_network_cost_eur * node_count
    return total


def parallel_efficiency(perf_m: float, m: int, perf_1: float) -> float:
    """Performance on m nodes relative to m times the single-node figure."""
    if m < 1:
        raise MdtuneError("node count must be >= 1")
    if perf_1 <= 0:
        raise MdtuneError("single-node performance must be positive")
    return perf_m / (m * perf_1)


def multi_sim_gain(perf_single: float, perf_per_replica: float) -> float:
    """Percent throughput gain of a replica ensemble over independent runs."""
    if perf_single <= 0 or perf_per_replica <= 0:
        raise MdtuneError("performances must be positive")
    return 100.0 * (perf_per_replica / perf_single - 1.0)


class ClockFit(NamedTuple):
    slope: float  # ns/day per MHz
    intercept: float
    default_clock_mhz: float
    max_clock_mhz: float

    def predict(self, clock_mhz: float) -> float:
        return self.slope * clock_mhz + self.intercept

    @property
    def gain_default_to_max(self) -> float:
        """Fractional performance gain from default to maximum clock."""
        return self.predict(self.max_clock_mhz) / self.predict(self.default_clock_mhz) - 1.0


def clock_perf_fit(
    points: Sequence[tuple[float, float]],
    default_clock_mhz: Optional[float] = None,
    max_clock_mhz: Optional[float] = None,
) -> ClockFit:
    """Least-squares line through (clock MHz, ns/day) measurements.

    The default and maximum clock default to the smallest and largest
    measured clock values.
    """
    if len(points) < 2:
        raise MdtuneError("need at least two measurements to fit")
    clocks = [p[0] for p in points]
    perfs = [p[1] for p in points]
    if max(clocks) == min(clocks):
        raise MdtuneError("all clock values identical; cannot fit a slope")
    from statistics import linear_regression  # only here, not at every command's start

    slope, intercept = linear_regression(clocks, perfs)
    return ClockFit(
        slope=slope,
        intercept=intercept,
        default_clock_mhz=default_clock_mhz if default_clock_mhz is not None else min(clocks),
        max_clock_mhz=max_clock_mhz if max_clock_mhz is not None else max(clocks),
    )


def normalize_compiler(performance: float, from_ratio: float, to_ratio: float) -> float:
    """Rescale a result between toolchain baselines via their speedup ratios."""
    if from_ratio <= 0 or to_ratio <= 0:
        raise MdtuneError("compiler ratios must be positive")
    return performance * to_ratio / from_ratio


# ---------------------------------------------------------------------------
# Criteria-based ranking
# ---------------------------------------------------------------------------


class HardwareRow(NamedTuple):
    """One ranked candidate: an econ row plus whatever criteria it has data for."""

    label: str
    econ: Optional[EconRow] = None
    perf_per_price: Optional[float] = None  # C1
    performance: Optional[float] = None  # C2, ns/day
    parallel_performance: Optional[float] = None  # C3, ns/day at scale
    rack_units: Optional[int] = None  # C5, smaller is better

    # its row in a rows document (``econ`` is computed from the row)
    WIRE = {"performance": "performance_ns_day",
            "parallel_performance": "parallel_performance_ns_day"}

    def criterion(self, name: str) -> Optional[float]:
        """Criterion value oriented so that larger is always better."""
        if name == "C1":
            return self.perf_per_price
        if name == "C2":
            return self.performance
        if name == "C3":
            return self.parallel_performance
        if name == "C4":
            return self.econ.yield_us_per_keur if self.econ else None
        if name == "C5":
            return -self.rack_units if self.rack_units is not None else None
        raise MdtuneError(f"unknown criterion {name!r} (expected one of {CRITERIA})")


LIFETIME_YIELD_PRESET = {"C4": 1.0}


def rank_hardware(
    rows: Sequence[HardwareRow],
    weights: Optional[dict[str, float]] = None,
) -> list[HardwareRow]:
    """Deterministic weighted ranking over the C1..C5 criteria.

    Scores are weighted sums of per-criterion ranks, which makes the order
    invariant under any positive monotone rescaling of a criterion; under a
    single criterion this reduces to plain argsort. Ties keep input order.
    The default preset ranks by lifetime yield alone.
    """
    weights = dict(weights) if weights else dict(LIFETIME_YIELD_PRESET)
    active = [(c, w) for c, w in sorted(weights.items()) if w != 0]
    if not active:
        raise MdtuneError("no criterion has a non-zero weight")
    for name, _ in active:
        if name not in CRITERIA:
            raise MdtuneError(f"unknown criterion {name!r} (expected one of {CRITERIA})")
        for row in rows:
            if row.criterion(name) is None:
                raise MissingDatumError(
                    f"row {row.label!r} has no data for weighted criterion {name}"
                )

    scores = [0.0] * len(rows)
    for name, weight in active:
        values = [row.criterion(name) for row in rows]
        # average rank of each value, 0 = worst; equal values share a rank
        order = sorted(range(len(rows)), key=lambda i: values[i])
        rank_of = [0.0] * len(rows)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2.0
            for pos in range(i, j + 1):
                rank_of[order[pos]] = avg
            i = j + 1
        for idx in range(len(rows)):
            scores[idx] += weight * rank_of[idx]

    indexed = sorted(range(len(rows)), key=lambda i: (-scores[i], i))
    return [rows[i] for i in indexed]

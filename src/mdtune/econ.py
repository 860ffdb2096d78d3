"""Economics of trajectory production: power, cost, yield, efficiency.

The central quantity is what a microsecond of trajectory costs over the
hardware's lifetime, counting both the purchase price and the electricity
(including cooling) burned running the node continuously. All math here is
full precision; table-style display rounding happens in the report layer.

A row of a rows document is an ``EconInput``. ``price`` turns it into its
``EconRow`` and rejects a row whose cost per us or yield is not finite;
``rank_hardware`` ranks (row, priced row) pairs.

Conventions:
 - performance P is in ns/day, production in us over the lifetime,
 - energy price is EUR per kWh including cooling,
 - yield is produced trajectory (us) per 1000 EUR of total cost.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .errors import MdtuneError, MissingDatumError
from .hardware import METER_KWH_PER_300S, EconParams, PowerReading
from .wire import checked

HOURS_PER_YEAR = 365 * 24

# A plug-meter reading of kWh consumed over 300 s converts to average watts
# by multiplying with 12000 (kWh / (300 s / 3600 s/h) * 1000 W/kW).
KWH_PER_300S_TO_WATTS = 12000.0


class EconRow(NamedTuple):
    performance: float  # ns/day
    production_us: float
    effective_power_w: float
    energy_cost_eur: float
    node_cost_eur: float
    trajectory_cost_eur_per_us: float
    yield_us_per_keur: float


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


def price(row: EconInput, params: EconParams = EconParams()) -> EconRow:
    """A rows-document row at full precision; its cost per us and yield are finite."""
    priced = econ_row(row.performance, row.effective_power_w(), row.node_cost_eur, params)
    _check_priced(row.label, priced.production_us, priced.energy_cost_eur + priced.node_cost_eur)
    return priced


def parallel_efficiency(perf_m: float, m: int, perf_1: float) -> float:
    """Performance on m nodes relative to m times the single-node figure."""
    if m < 1:
        raise MdtuneError("node count must be >= 1")
    if perf_1 <= 0:
        raise MdtuneError("single-node performance must be positive")
    return perf_m / (m * perf_1)


# ---------------------------------------------------------------------------
# Criteria-based ranking
# ---------------------------------------------------------------------------


# Each criterion's value for a row and its priced econ row, oriented so that
# larger is always better: C1 performance-to-price, C2 single-node
# performance, C3 time-to-solution (parallel performance), C4 energy /
# lifetime yield, C5 rack space.
_CRITERIA = {
    "C1": lambda row, econ: row.perf_per_price,
    "C2": lambda row, econ: row.performance,
    "C3": lambda row, econ: row.parallel_performance,
    "C4": lambda row, econ: econ.yield_us_per_keur,
    "C5": lambda row, econ: -row.rack_units if row.rack_units is not None else None,
}
CRITERIA = tuple(_CRITERIA)

LIFETIME_YIELD_PRESET = {"C4": 1.0}


def rank_hardware(
    rows: Sequence[tuple[EconInput, EconRow]],
    weights: Optional[dict[str, float]] = None,
) -> list[tuple[EconInput, EconRow]]:
    """Deterministic weighted ranking of (row, priced row) pairs over the
    C1..C5 criteria.

    Scores are weighted sums of per-criterion ranks, which makes the order
    invariant under any positive monotone rescaling of a criterion; under a
    single criterion this reduces to plain argsort. Ties keep input order.
    The default preset (``weights`` None) ranks by lifetime yield alone; an
    empty dict, like one of zero weights, names no criterion and is an error.
    """
    weights = LIFETIME_YIELD_PRESET if weights is None else weights
    active = [(c, w) for c, w in sorted(weights.items()) if w != 0]
    if not active:
        raise MdtuneError("no criterion has a non-zero weight")
    scores = [0.0] * len(rows)
    for name, weight in active:
        if name not in _CRITERIA:
            raise MdtuneError(f"unknown criterion {name!r} (expected one of {CRITERIA})")
        values = [_CRITERIA[name](*pair) for pair in rows]
        for (row, _), value in zip(rows, values):
            if value is None:
                raise MissingDatumError(
                    f"row {row.label!r} has no data for weighted criterion {name}"
                )
        # a value's rank is the mean of its first and last position in
        # sorted order, 0 = worst: equal values share it
        first, last = {}, {}
        for pos, value in enumerate(sorted(values)):
            first.setdefault(value, pos)
            last[value] = pos
        for idx, value in enumerate(values):
            scores[idx] += weight * ((first[value] + last[value]) / 2.0)

    indexed = sorted(range(len(rows)), key=lambda i: (-scores[i], i))
    return [rows[i] for i in indexed]

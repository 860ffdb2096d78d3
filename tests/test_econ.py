import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import benchdata as bd
from mdtune.econ import (
    CRITERIA,
    METER_KWH_PER_300S,
    EconInput,
    EconParams,
    EconRow,
    PowerReading,
    econ_row,
    effective_power,
    parallel_efficiency,
    price,
    rank_hardware,
)
from mdtune.errors import MdtuneError, MissingDatumError
from mdtune.hardware import DIRECT_WATTS
from mdtune.launch import LaunchConfig
from mdtune.logparse import PerfMetrics
from mdtune.report import PRICE_UNIT_EUR, sweep_report
from mdtune.sweep import SweepResult, SweepRow


class TestEffectivePower:
    def test_meter_reading_with_idle_correction(self):
        # 0.031 kWh over 300 s with four cards installed, none active
        reading = PowerReading(METER_KWH_PER_300S, 0.031, gpus_installed=4,
                               gpus_active=0, idle_gpu_power_w=27)
        assert effective_power(reading) == pytest.approx(264.0)

    def test_direct_reading_with_idle_correction(self):
        reading = PowerReading(DIRECT_WATTS, 542, gpus_installed=4,
                               gpus_active=0, idle_gpu_power_w=24)
        assert effective_power(reading) == pytest.approx(446.0)

    def test_no_cards_no_correction(self):
        reading = PowerReading(DIRECT_WATTS, 300)
        assert effective_power(reading) == 300.0

    def test_idle_power_required_when_cards_idle(self):
        reading = PowerReading(DIRECT_WATTS, 542, gpus_installed=4, gpus_active=2)
        with pytest.raises(MissingDatumError):
            effective_power(reading)

    def test_negative_result_rejected(self):
        reading = PowerReading(DIRECT_WATTS, 50, gpus_installed=4,
                               gpus_active=0, idle_gpu_power_w=27)
        with pytest.raises(MdtuneError):
            effective_power(reading)

    def test_active_beyond_installed_rejected(self):
        with pytest.raises(MdtuneError):
            PowerReading(DIRECT_WATTS, 542, gpus_installed=2, gpus_active=3)


class TestPowerReading:
    @pytest.mark.parametrize("field, value, rule", [
        ("gpus_installed", 2.5, "an integer, not 2.5"), ("gpus_installed", True, "an integer"),
        ("gpus_active", 1.0, "an integer, not 1.0"), ("gpus_active", -1, ">= 0"),
    ])
    def test_gpu_count_that_is_no_count_rejected(self, field, value, rule):
        # each was accepted: -1 active GPUs of 4 installed counted 5 as idle
        with pytest.raises(MdtuneError, match=f"{field} must be {rule}"):
            PowerReading(DIRECT_WATTS, 542, **{"gpus_installed": 4, "gpus_active": 2,
                                               field: value})


class TestEconRow:
    def test_cpu_only_meter_row(self):
        # 1.38 ns/day at 264 W on a 3360 EUR node over five years
        row = econ_row(1.38, 264.0, 3360.0)
        assert row.production_us == pytest.approx(2.5185)
        assert row.energy_cost_eur == pytest.approx(2312.64)
        assert row.trajectory_cost_eur_per_us == pytest.approx(2252.3, abs=0.5)
        assert 1000 * row.yield_us_per_keur == pytest.approx(444.0, abs=0.5)  # ns/kEUR

    def test_mem_cpu_row(self):
        row = econ_row(26.798, 446.0, 4400.0)
        assert row.production_us == pytest.approx(48.906, abs=0.001)
        assert row.energy_cost_eur == pytest.approx(3907.0, abs=0.5)
        assert row.trajectory_cost_eur_per_us == pytest.approx(169.9, abs=0.1)
        assert row.yield_us_per_keur == pytest.approx(5.887, abs=0.001)

    def test_zero_cost_is_free_trajectory(self):
        row = econ_row(10.0, 0.0, 0.0)
        assert row.trajectory_cost_eur_per_us == 0.0
        assert row.yield_us_per_keur == math.inf

    def test_nonpositive_performance_rejected(self):
        with pytest.raises(MdtuneError):
            econ_row(0.0, 100.0, 1000.0)

    @settings(max_examples=100, deadline=None)
    @given(
        perf=st.floats(min_value=0.01, max_value=1000),
        power=st.floats(min_value=0, max_value=5000),
        cost=st.floats(min_value=0.01, max_value=100000),
        years=st.floats(min_value=0.1, max_value=20),
        price=st.floats(min_value=0.01, max_value=2),
    )
    def test_cost_production_identity(self, perf, power, cost, years, price):
        params = EconParams(lifetime_years=years, energy_price_eur_per_kwh=price)
        row = econ_row(perf, power, cost, params)
        lhs = row.trajectory_cost_eur_per_us * row.production_us
        rhs = row.energy_cost_eur + row.node_cost_eur
        assert lhs == pytest.approx(rhs, rel=1e-12)


def price_cells(performances, cost_eur):
    """The cost and performance-to-price cells of a sweep report's rows."""
    rows = [SweepRow(LaunchConfig(n_rank=i + 1), p, 0.0, 1, PerfMetrics(p))
            for i, p in enumerate(performances)]
    table = sweep_report(SweepResult(rows, [], 0 if rows else None), node_cost_eur=cost_eur)
    return [line.strip("| ").split(" | ")[-2:] for line in table.splitlines()[2:]]


class TestPerfPerPrice:
    """Performance to price, which the sweep report prints per 1000 EUR: a
    cost scaled by 1000 / normalizer prints a table's figure per normalizer."""

    def test_budget_desktop(self):
        assert price_cells([7.364], 800 * PRICE_UNIT_EUR / 205) == [["3902", "1.89"]]

    def test_desktop_with_gpu(self):
        assert price_cells([26.081], 1250 * PRICE_UNIT_EUR / 205) == [["6098", "4.28"]]

    def test_normalizer_equal_cost(self):
        perfs = [3.3, 2.0, 0.1]
        assert price_cells(perfs, PRICE_UNIT_EUR) == [["1000", "3.30"], ["1000", "2.00"],
                                                      ["1000", "0.10"]]
        assert price_cells(perfs, 2500) == [
            ["2500", f"{bd.perf_per_price(p, 2500, PRICE_UNIT_EUR):.2f}"] for p in perfs]

    def test_zero_cost_rejected(self):
        # the error comes once a row is priced: an empty table has no cell to price
        for cost in (0, -5.0):
            assert price_cells([], cost) == []
            with pytest.raises(MdtuneError, match="cost must be positive"):
                price_cells([1.0], cost)


class TestParallelEfficiency:
    def test_two_node_membrane(self):
        assert parallel_efficiency(27.218, 2, 20.530) == pytest.approx(0.663, abs=0.0005)

    def test_four_node_ribosome(self):
        assert parallel_efficiency(6.123, 4, 1.858) == pytest.approx(0.824, abs=0.0005)

    def test_single_node_is_unity(self):
        assert parallel_efficiency(5.0, 1, 5.0) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        p1=st.floats(min_value=0.1, max_value=100),
        pm=st.floats(min_value=0.1, max_value=1000),
        m=st.integers(1, 512),
        c=st.floats(min_value=0.01, max_value=100),
    )
    def test_scale_invariance(self, p1, pm, m, c):
        assert parallel_efficiency(c * pm, m, c * p1) == pytest.approx(
            parallel_efficiency(pm, m, p1), rel=1e-9
        )


class TestMultiSimGain:
    def test_four_replica_interleaved_gain(self):
        # percent throughput gain of the 4-node ensemble over single runs
        p1, p4 = 9.526, 12.091
        assert 100 * (p4 / p1 - 1) == pytest.approx(26.9, abs=0.05)


class TestClockFit:
    def test_two_point_k40_gain(self):
        # the line through the K40's runs at its default and maximum clock
        default, maximum = bd.K40_DEFAULT_MHZ, bd.K40_CLOCKS_MHZ[1]
        p_default = 20.0
        p_max = p_default * (1 + bd.K40_SINGLE_GPU_GAIN_DEFAULT_TO_MAX)
        slope = (p_max - p_default) / (maximum - default)
        gain = (p_default + slope * (maximum - default)) / p_default - 1
        assert gain == pytest.approx(0.064, abs=0.01)
        assert gain < maximum / default - 1  # the CPU's share does not speed up


class TestNormalizeCompiler:
    def test_amd_toolchain_upgrade(self):
        # a result rescaled between toolchain baselines by their speedup ratios
        rows = dict((t, mem) for t, mem, _ in bd.COMPILERS["2xAMD-6380"])
        from_ratio = rows["gcc-4.4.7"] / rows["gcc-4.4.7"]
        to_ratio = rows["gcc-4.8.3"] / rows["gcc-4.4.7"]
        assert 14.043 * to_ratio / from_ratio == pytest.approx(16.025, abs=0.001)

    def test_cpu_node_speedup_is_about_19_percent(self):
        # mean MEM/RIB speedup of the newer toolchain on the 20-core CPU node
        rows = {t: (mem, rib) for t, mem, rib in bd.COMPILERS["2xE5-2680v2"]}
        mem_ratio = rows["gcc-4.8.3"][0] / rows["gcc-4.4.7"][0]
        rib_ratio = rows["gcc-4.8.3"][1] / rows["gcc-4.4.7"][1]
        speedup = (mem_ratio + rib_ratio) / 2 - 1
        assert speedup == pytest.approx(0.19, abs=0.005)

    def test_gpu_node_speedup_is_about_4_percent(self):
        rows = {t: (mem, rib) for t, mem, rib in bd.COMPILERS["2xE5-2680v2 + 2x980+"]}
        mem_ratio = rows["gcc-4.8.3"][0] / rows["gcc-4.4.7"][0]
        rib_ratio = rows["gcc-4.8.3"][1] / rows["gcc-4.4.7"][1]
        speedup = (mem_ratio + rib_ratio) / 2 - 1
        assert speedup == pytest.approx(0.04, abs=0.005)


def hw(label, econ=None, **fields):
    """A (row, priced row) pair as ``recommend`` ranks it. Without ``econ``
    the row (1 ns/day, 1000 EUR and 100 W unless given) is priced."""
    row = EconInput(label, **{"performance": 1.0, "node_cost_eur": 1000.0, "power_w": 100.0,
                              **fields})
    return row, econ if econ is not None else price(row)


def labels(ranked):
    return [row.label for row, _ in ranked]


class TestPrice:
    def test_is_the_econ_row_of_the_rows_draw(self):
        reading = PowerReading(DIRECT_WATTS, 542, gpus_installed=4, gpus_active=2,
                               idle_gpu_power_w=24)
        row = EconInput("a", 4.688, 5300.0, power=reading)
        params = EconParams(lifetime_years=3.0)
        assert price(row, params) == econ_row(4.688, 494.0, 5300.0, params)

    def test_free_row_rejected_by_label(self):
        with pytest.raises(MdtuneError, match="row 'free': total cost"):
            price(EconInput("free", 10.0, 0.0, power_w=0.0))


class TestRankHardware:
    def test_pure_c1_reproduces_perf_per_price_order(self):
        rows = [
            hw("a", perf_per_price=1.9),
            hw("b", perf_per_price=4.3),
            hw("c", perf_per_price=3.1),
        ]
        ranked = rank_hardware(rows, {"C1": 1.0})
        assert labels(ranked) == ["b", "c", "a"]

    def test_pure_c4_reproduces_yield_order(self):
        rows = [
            hw(label, performance=perf, node_cost_eur=cost, power_w=None,
               power=PowerReading(METER_KWH_PER_300S, kwh,
                                  gpus_installed=bd.CONSUMPTION_GPUS_INSTALLED,
                                  gpus_active=active, idle_gpu_power_w=idle))
            for label, perf, kwh, active, idle, cost in bd.CONSUMPTION_METER_RIB
        ]
        ranked = rank_hardware(rows, {"C4": 1.0})
        yields = [econ.yield_us_per_keur for _, econ in ranked]
        assert yields == sorted(yields, reverse=True)
        # trajectory is cheapest with a single Maxwell-era card; quad
        # Kepler builds sit well below; CPU-only is last
        order = labels(ranked)
        assert order[0] == "2xE5-2670v2 + 980"
        assert order.index("2xE5-2670v2 + 2x980") < order.index("2xE5-2670v2 + 4x780Ti")
        assert order[-1] == "2xE5-2670v2"

    def test_identical_rows_keep_input_order(self):
        rows = [hw("first", performance=5.0), hw("second", performance=5.0)]
        ranked = rank_hardware(rows, {"C2": 1.0})
        assert labels(ranked) == ["first", "second"]

    def test_missing_datum_names_row(self):
        rows = [hw("a", perf_per_price=1.9), hw("b")]
        with pytest.raises(MissingDatumError, match="'b'"):
            rank_hardware(rows, {"C1": 1.0})

    def test_rack_space_prefers_small(self):
        rows = [hw("4U", rack_units=4), hw("1U", rack_units=1), hw("2U", rack_units=2)]
        ranked = rank_hardware(rows, {"C5": 1.0})
        assert labels(ranked) == ["1U", "2U", "4U"]

    def test_unknown_criterion_rejected(self):
        with pytest.raises(MdtuneError):
            rank_hardware([hw("a", performance=1.0)], {"C9": 1.0})

    def test_default_preset_is_lifetime_yield(self):
        rows = [
            hw("cheap", performance=2.0, power_w=100.0, node_cost_eur=1000.0),
            hw("fast", performance=4.0, power_w=900.0, node_cost_eur=9000.0),
        ]
        ranked = rank_hardware(rows)
        assert labels(ranked)[0] == "cheap"

    @pytest.mark.parametrize("weights", [{}, {"C1": 0}, {"C1": 0.0, "C4": 0.0}])
    def test_weights_that_name_no_criterion_rejected(self, weights):
        # an empty dict ranked by the default preset instead
        with pytest.raises(MdtuneError, match="^no criterion has a non-zero weight$"):
            rank_hardware([hw("a", performance=1.0)], weights)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.1, max_value=100), min_size=2, max_size=8,
            unique=True,
        ),
        scale=st.floats(min_value=0.1, max_value=10),
    )
    def test_single_criterion_invariant_under_monotone_rescale(self, values, scale):
        rows = [hw(str(i), performance=v) for i, v in enumerate(values)]
        # x -> scale * x**2 is monotone on positive values, but in binary64
        # it can round two neighbouring values to one (0.1 and the next
        # float up, at scale 0.1): that is a tie the input did not have,
        # not a strictly monotone rescale
        images = [scale * v ** 2 for v in values]
        assume(len(set(images)) == len(images))
        rescaled = [hw(str(i), performance=x) for i, x in enumerate(images)]
        a = labels(rank_hardware(rows, {"C2": 1.0}))
        b = labels(rank_hardware(rescaled, {"C2": 1.0}))
        assert a == b

    def test_mixed_weights_deterministic(self):
        rows = [
            hw("a", perf_per_price=4.0, performance=10.0),
            hw("b", perf_per_price=1.0, performance=40.0),
            hw("c", perf_per_price=3.0, performance=30.0),
            hw("d", perf_per_price=2.0, performance=20.0),
        ]
        once = labels(rank_hardware(rows, {"C1": 0.5, "C2": 0.5}))
        again = labels(rank_hardware(rows, {"C1": 0.5, "C2": 0.5}))
        assert once == again
        # a and b each win one criterion and lose the other; c is runner-up
        # on both and wins on summed ranks, a beats b on input order
        assert once == ["c", "a", "b", "d"]


def loop_rank(rows, weights):
    """rank_hardware as it was written before its closed form: an if-chain
    per criterion and a loop that averages the positions of equal values."""
    def criterion(pair, name):
        row, econ = pair
        if name == "C1":
            return row.perf_per_price
        if name == "C2":
            return row.performance
        if name == "C3":
            return row.parallel_performance
        if name == "C4":
            return econ.yield_us_per_keur
        return -row.rack_units if row.rack_units is not None else None

    scores = [0.0] * len(rows)
    for name, weight in sorted(weights.items()):
        values = [criterion(row, name) for row in rows]
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
    return [rows[i] for i in sorted(range(len(rows)), key=lambda i: (-scores[i], i))]


# few distinct values, so that most lists hold ties: ints equal to floats, both zeros, infinities
POOL = [-math.inf, -1.5, -0.0, 0.0, 0, 1, 1.0, 2.5, 3, math.inf]


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.tuples(st.sampled_from(POOL), st.sampled_from(POOL),
                              st.sampled_from(POOL), st.sampled_from(POOL),
                              st.integers(min_value=1, max_value=3)),
                    min_size=1, max_size=8),
    weights=st.dictionaries(st.sampled_from(CRITERIA),
                            st.sampled_from([-1.0, 0.25, 0.5, 1, 2.0, 3]),
                            min_size=1, max_size=3),
)
def test_rank_matches_the_tie_averaging_loop(values, weights):
    rows = [hw(str(i), perf_per_price=c1, performance=c2, parallel_performance=c3,
               econ=EconRow(*[0.0] * 6, yield_us_per_keur=c4), rack_units=c5)
            for i, (c1, c2, c3, c4, c5) in enumerate(values)]
    assert labels(rank_hardware(rows, weights)) == labels(loop_rank(rows, weights))

"""Recompute every derivable column of the published benchmark tables.

Raw columns (measured ns/day, meter readings, prices) live in benchdata;
everything derived (production, energy cost, trajectory cost, yield,
performance-to-price, parallel efficiency, ensemble gain) is recomputed
here and checked against the table's printed figures at their printed
rounding.
"""

import pytest

import benchdata as bd
from mdtune.econ import (
    METER_KWH_PER_300S,
    EconInput,
    PowerReading,
    effective_power,
    parallel_efficiency,
)
from mdtune.hardware import DIRECT_WATTS
from mdtune.report import (
    YIELD_NS,
    YIELD_US,
    econ_display_row,
)


def meter_input(label, perf, kwh, active, idle, cost):
    return EconInput(
        label=label,
        performance=perf,
        node_cost_eur=cost,
        power=PowerReading(
            METER_KWH_PER_300S, kwh,
            gpus_installed=bd.CONSUMPTION_GPUS_INSTALLED,
            gpus_active=active, idle_gpu_power_w=idle,
        ),
    )


def direct_input(label, perf, watts, active, idle, cost):
    return EconInput(
        label=label,
        performance=perf,
        node_cost_eur=cost,
        power=PowerReading(
            DIRECT_WATTS, watts,
            gpus_installed=bd.CONSUMPTION_GPUS_INSTALLED,
            gpus_active=active, idle_gpu_power_w=idle,
        ),
    )


class TestConsumptionTable:
    """Power/energy/yield table for the 2M-atom benchmark."""

    def test_cpu_only_row(self):
        row = econ_display_row(meter_input(*bd.CONSUMPTION_METER_RIB[0]),
                               yield_unit=YIELD_NS)
        assert row.power_w == pytest.approx(264.0)
        assert row.production_us == pytest.approx(2.52)
        assert row.energy_cost_eur == 2313
        assert row.trajectory_cost_eur_per_us in (2251, 2252)  # printed rounding
        assert row.yield_value == 444

    def test_direct_read_cpu_only_row(self):
        row = econ_display_row(direct_input(*bd.CONSUMPTION_DIRECT_RIB[0]),
                               yield_unit=YIELD_NS)
        assert row.power_w == pytest.approx(446.0)
        assert row.production_us == pytest.approx(3.39)
        assert row.energy_cost_eur == 3907

    def test_all_meter_rows_consistent(self):
        for fixture in bd.CONSUMPTION_METER_RIB:
            row = econ_display_row(meter_input(*fixture), yield_unit=YIELD_NS)
            total = row.energy_cost_eur + row.node_cost_eur
            assert row.trajectory_cost_eur_per_us == round(total / row.production_us)
            assert row.yield_value == round(1000 * row.production_us / (total / 1000))

    def test_gpu_rows_beat_cpu_row_on_yield(self):
        rows = [econ_display_row(meter_input(*f), yield_unit=YIELD_NS)
                for f in bd.CONSUMPTION_METER_RIB]
        cpu_yield = rows[0].yield_value
        for row in rows[1:]:
            assert row.yield_value > cpu_yield
        # one or two cards produce 1.5-2x the trajectory per EUR of CPU-only
        best = max(row.yield_value for row in rows)
        assert 1.5 * cpu_yield <= best <= 2.0 * cpu_yield

    def test_maxwell_draws_less_than_kepler(self):
        by_label = {
            f[0]: econ_display_row(meter_input(*f), yield_unit=YIELD_NS)
            for f in bd.CONSUMPTION_METER_RIB
        }
        for n in (1, 2, 3):
            kepler = by_label[f"2xE5-2670v2 + {n}x780Ti" if n > 1 else "2xE5-2670v2 + 780Ti"]
            maxwell = by_label[f"2xE5-2670v2 + {n}x980" if n > 1 else "2xE5-2670v2 + 980"]
            saving = kepler.power_w - maxwell.power_w
            assert saving >= 75
            if n >= 2:
                assert saving > 100


class TestConsumption2Table:
    """Same nodes, 80k-atom benchmark, yields printed in us/kEUR."""

    def test_cpu_only_row(self):
        row = econ_display_row(direct_input(*bd.CONSUMPTION_DIRECT_MEM[0]),
                               yield_unit=YIELD_US)
        assert row.power_w == pytest.approx(446.0)
        assert row.production_us == pytest.approx(48.91)
        assert row.energy_cost_eur == 3907
        assert row.trajectory_cost_eur_per_us == 170
        assert row.yield_value == pytest.approx(5.89, abs=0.005)

    def test_all_rows_chain(self):
        for fixture in bd.CONSUMPTION_DIRECT_MEM:
            row = econ_display_row(direct_input(*fixture), yield_unit=YIELD_US)
            total = row.energy_cost_eur + row.node_cost_eur
            assert row.yield_value == round(row.production_us / (total / 1000), 3)

    def test_one_or_two_gpus_top_the_block(self):
        rows = [econ_display_row(direct_input(*f), yield_unit=YIELD_US)
                for f in bd.CONSUMPTION_DIRECT_MEM]
        by_yield = sorted(rows, key=lambda r: r.yield_value, reverse=True)
        assert {by_yield[0].label, by_yield[1].label} == {
            "2xE5-2680v2 + 980+", "2xE5-2680v2 + 2x980+",
        }
        assert by_yield[-1].label == "2xE5-2680v2"


class TestPerfPerPrice:
    def test_mem_spot_values(self):
        table = dict((label, (p, c)) for label, p, c in bd.MEM_SINGLE_NODE)
        normalizer = bd.MEM_PRICE_NORMALIZER_EUR
        p, c = table["i7-4770K"]
        assert bd.perf_per_price(p, c, normalizer) == pytest.approx(1.89, abs=0.005)
        p, c = table["i7-4770K + 980oc"]
        assert bd.perf_per_price(p, c, normalizer) == pytest.approx(4.28, abs=0.005)

    def test_normalizers_anchor_worst_row_near_unity(self):
        # the normalizer is picked so the worst combination lands near 1
        for rows, normalizer in ((bd.MEM_SINGLE_NODE, bd.MEM_PRICE_NORMALIZER_EUR),
                                 (bd.RIB_SINGLE_NODE, bd.RIB_PRICE_NORMALIZER_EUR)):
            ratios = [bd.perf_per_price(p, c, normalizer) for _, p, c in rows]
            assert 0.9 <= min(ratios) <= 1.1

    @pytest.mark.parametrize("rows,normalizer", [
        (bd.MEM_SINGLE_NODE, bd.MEM_PRICE_NORMALIZER_EUR),
        (bd.RIB_SINGLE_NODE, bd.RIB_PRICE_NORMALIZER_EUR),
    ])
    def test_consumer_gpu_roughly_doubles_ratio(self, rows, normalizer):
        # adding one consumer card lifts a node's performance-to-price by
        # about 2x; check a few CPU/GPU pairs of the same chassis
        table = dict((label, (p, c)) for label, p, c in rows)
        pairs = [
            ("i7-4770K", "i7-4770K + 980oc"),
            ("E3-1270v2", "E3-1270v2 + 770"),
            ("2xE5-2670v2", "2xE5-2670v2 + 2x780Ti"),
        ]
        for cpu_label, gpu_label in pairs:
            base = bd.perf_per_price(*table[cpu_label], normalizer)
            boosted = bd.perf_per_price(*table[gpu_label], normalizer)
            assert 1.6 <= boosted / base <= 3.8

    def test_hpc_gpu_does_not_improve_ratio(self):
        table = dict((label, (p, c)) for label, p, c in bd.MEM_SINGLE_NODE)
        base = bd.perf_per_price(*table["2xE5-2680v2"], bd.MEM_PRICE_NORMALIZER_EUR)
        tesla = bd.perf_per_price(*table["2xE5-2680v2 + 2xK20X"], bd.MEM_PRICE_NORMALIZER_EUR)
        consumer = bd.perf_per_price(*table["2xE5-2680v2 + 2x980+"], bd.MEM_PRICE_NORMALIZER_EUR)
        assert tesla == pytest.approx(base, rel=0.12)
        assert consumer > 1.8 * base


class TestScalingTables:
    def test_mem_two_node_spot_value(self):
        series = dict(bd.SCALING_MEM)
        points = dict(series["E3-1270v2 + 770 (QDR)"])
        assert parallel_efficiency(points[2], 2, points[1]) == pytest.approx(0.663, abs=0.0005)

    def test_rib_four_node_spot_value(self):
        series = dict(bd.SCALING_RIB)
        points = dict(series["2xE5-2680v2 (FDR-14)"])
        assert parallel_efficiency(points[4], 4, points[1]) == pytest.approx(0.824, abs=0.0005)

    @pytest.mark.parametrize("table", [bd.SCALING_MEM, bd.SCALING_RIB])
    def test_efficiency_columns_recompute(self, table):
        for label, points in table:
            base = dict(points)[1]
            for nodes, perf in points:
                eff = parallel_efficiency(perf, nodes, base)
                assert eff > 0
                if nodes == 1:
                    assert eff == 1.0

    def test_fdr_connected_nodes_scale_far(self):
        # on the low-latency fabric the big system keeps E >= 0.5 out to 64 nodes
        points = dict(dict(bd.SCALING_RIB)["2xE5-2680v2 (FDR-14)"])
        base = points[1]
        for nodes in (2, 4, 8, 16, 32, 64):
            assert parallel_efficiency(points[nodes], nodes, base) >= 0.5

    def test_pcie_starved_node_scales_erratically(self):
        # the four-core node's x4-lane fabric link makes E non-monotonic
        points = dict(dict(bd.SCALING_RIB)["E3-1270v2 + 770 (QDR)"])
        base = points[1]
        effs = [parallel_efficiency(points[n], n, base) for n in (2, 4, 8, 16, 32)]
        assert any(b > a for a, b in zip(effs, effs[1:]))


def ensemble_gain(p1, p4):
    """Percent throughput gain of a 4-replica ensemble over single runs."""
    return 100 * (p4 / p1 - 1)


class TestMultiSimTable:
    def test_four_node_gain_is_about_27_percent(self):
        per_replica = dict((n, (p1, p4)) for n, p1, p4 in bd.MULTI_RIB)
        p1, p4 = per_replica[4]
        assert ensemble_gain(p1, p4) == pytest.approx(27.0, abs=1.0)

    def test_interleaving_pays_off_beyond_one_node(self):
        for nodes, p1, p4 in bd.MULTI_RIB:
            gain = ensemble_gain(p1, p4)
            if nodes == 1:
                assert gain < 0  # replicas sharing one node contend
            else:
                assert gain > 0

    def test_efficiency_columns(self):
        base = bd.MULTI_RIB[0][1]
        for nodes, p1, p4 in bd.MULTI_RIB:
            e1 = parallel_efficiency(p1, nodes, base)
            e4 = parallel_efficiency(p4, nodes, base)
            assert 0 < e1 <= 1.0 + 1e-9
            if nodes > 1:
                assert e4 > e1

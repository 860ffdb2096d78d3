import math
import os
import signal
import stat
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import mdtune.balance
import mdtune.sweep
from mdtune.balance import SyntheticNodeProfile, Workload, dlb_pair_key
from mdtune.errors import MdtuneError, RunFailure
from mdtune.hardware import total_hw_threads
from mdtune.launch import (
    DLB_VALUES,
    EngineProfile,
    LaunchConfig,
    SweepOptions,
    enumerate_plan,
    gpu_id_string,
    load_plan,
    validate_config,
)
from mdtune.logparse import ADVISORY_PME_OVERPROVISIONED
from mdtune.manifest import load_manifest
from mdtune.report import sweep_csv as result_to_csv, sweep_table as result_to_table
from mdtune.sweep import (
    Failure,
    Run,
    ShellExecutor,
    SweepResult,
    SyntheticExecutor,
    aggregate,
    result_from_json,
    result_to_json,
    run_sweep,
)
from mdtune.logparse import Advisory, PerfMetrics, parse_metrics, render_log

from conftest import DATA, make_node, profiles


def ranklist_configs(node, nstlist=40):
    budget = total_hw_threads(node, True)
    return [
        LaunchConfig(n_rank=r, n_th=budget // r, gpu_id=gpu_id_string(2, r),
                     use_ht=True, nstlist=nstlist, dlb="off")
        for r in (40, 20, 10, 8, 5, 4, 2)
    ]


class TestSyntheticSweep:
    def test_repeats_have_zero_spread(self, gpu_node):
        executor = SyntheticExecutor(gpu_node)
        result = run_sweep(ranklist_configs(gpu_node)[:3], executor,
                           Workload(), repeats=2)
        assert all(row.stdev == 0.0 for row in result.rows)
        assert all(row.repeats == 2 for row in result.rows)

    def test_best_thread_count_matches_model_peak(self, gpu_node):
        # exhaustive oracle: the sweep's pick must equal brute-force argmax,
        # and the default GPU-node profile peaks at 4-5 threads per rank
        executor = SyntheticExecutor(gpu_node)
        configs = ranklist_configs(gpu_node)
        result = run_sweep(configs, executor, Workload(), repeats=2)
        best = result.best_row.config
        by_brute_force = max(result.rows, key=lambda r: r.mean_performance)
        assert best == by_brute_force.config
        assert best.n_th in (4, 5)

    def test_pme_overprovision_advisory_propagates(self, cpu_node):
        config = LaunchConfig(n_rank=20, n_th=1, n_pme=10, dlb="on")
        result = run_sweep([config], SyntheticExecutor(cpu_node),
                           Workload(), repeats=1)
        kinds = [a.kind for a in result.rows[0].advisories]
        assert ADVISORY_PME_OVERPROVISIONED in kinds

    def test_byte_reproducible(self, gpu_node):
        configs = ranklist_configs(gpu_node)
        a = result_to_json(run_sweep(configs, SyntheticExecutor(gpu_node),
                                     Workload(), repeats=2))
        b = result_to_json(run_sweep(configs, SyntheticExecutor(gpu_node),
                                     Workload(), repeats=2))
        assert a == b

    def test_infeasible_config_recorded_not_fatal(self, gpu_node):
        configs = [
            LaunchConfig(n_rank=8, n_th=5, gpu_id=gpu_id_string(2, 8), use_ht=True),
            LaunchConfig(n_rank=64, n_th=4, use_ht=True),  # over budget
        ]
        result = run_sweep(configs, SyntheticExecutor(gpu_node), Workload())
        assert len(result.rows) == 1
        assert len(result.failures) == 1
        assert len(result.rows) + len(result.failures) == len(configs)

    @pytest.mark.parametrize("node", ["gpu_node", "cpu_node"])
    def test_rate_that_overflows_is_a_failure_that_says_so(self, node, request):
        # ns/day came out inf, the log wrote it, and the failure blamed the
        # decimal separator
        node = request.getfixturevalue(node)
        configs = enumerate_plan(node, SweepOptions(nstlist=(40,)))
        result = run_sweep(configs, SyntheticExecutor(node), Workload(timestep_fs=1e308))
        assert not result.rows
        assert [f.config for f in result.failures] == configs
        assert {f.error for f in result.failures} == {
            "the synthetic prediction is not finite: inf ns/day"}

    def test_full_enumeration_sweeps_clean(self, gpu_node):
        configs = enumerate_plan(gpu_node, SweepOptions(nstlist=(40,)))
        result = run_sweep(configs, SyntheticExecutor(gpu_node), Workload())
        assert not result.failures
        assert result.best_row == result.ranked()[0]


class FreshSyntheticExecutor:
    """A new SyntheticExecutor for every run, so no repeat is served from a memo."""

    exclusive = False

    def __init__(self, node, profile=SyntheticNodeProfile()):
        self.node = node
        self.profile = profile

    def run(self, config, workload):
        return SyntheticExecutor(self.node, self.profile).run(config, workload)


def node_and_plan(n_gpus, options=SweepOptions(), nodes=1):
    node = make_node(n_gpus=n_gpus)
    return node, enumerate_plan(node, options, nodes)


# The node shapes of the ROADMAP baseline: the dual 10-core HT node CPU-only,
# with 2 GPUs, and with 4 GPUs and 4 nstlist values (41, 28 and 96 configs).
# Then GPU plans whose layouts repeat with another dlb: interleaved layouts
# over 2 nodes, and every layout with each of the three dlb values.
BASELINE_PLANS = {
    "cpu": node_and_plan(0),
    "2gpu": node_and_plan(2),
    "4gpu": node_and_plan(4, SweepOptions(nstlist=(10, 20, 40, 80))),
    "4gpu-2nodes": node_and_plan(4, SweepOptions(nstlist=(10, 40)), nodes=2),
    "2gpu-3dlb": node_and_plan(2, SweepOptions(dlb=("on", "off", "auto"))),
}


def plan_logs(executor, configs, repeats=2):
    """Each run's log text, or its failure, in run order."""
    out = []
    for config in configs:
        for _ in range(repeats):
            try:
                out.append(executor.run(config, Workload()))
            except RunFailure as exc:
                out.append(f"RunFailure: {exc}")
    return out


class TestRepeatsDoneOnce:
    """Each repeat's deterministic work is done once, with the same output bits."""

    @pytest.mark.parametrize("plan", sorted(BASELINE_PLANS))
    def test_memo_logs_are_byte_identical_to_fresh_executors(self, plan):
        # the parser ignores some bytes of a log, so compare the logs themselves
        node, configs = BASELINE_PLANS[plan]
        assert (plan_logs(SyntheticExecutor(node), configs)
                == plan_logs(FreshSyntheticExecutor(node), configs))

    @settings(max_examples=20, deadline=None)
    @given(profile=profiles, plan=st.sampled_from(sorted(BASELINE_PLANS)))
    def test_memo_logs_are_byte_identical_on_drawn_profiles(self, profile, plan):
        node, configs = BASELINE_PLANS[plan]
        assert (plan_logs(SyntheticExecutor(node, profile), configs)
                == plan_logs(FreshSyntheticExecutor(node, profile), configs))

    def test_one_log_body_per_dlb_pair(self, monkeypatch):
        node, configs = BASELINE_PLANS["2gpu-3dlb"]
        rendered = []

        def counted(metrics):
            rendered.append(metrics)
            return render_log(metrics)

        monkeypatch.setattr(mdtune.sweep, "render_log", counted)
        plan_logs(SyntheticExecutor(node), configs)
        layouts = {config._replace(dlb="auto") for config in configs}
        assert len(rendered) == len(layouts) < len(configs)

    @pytest.mark.parametrize("repeats", [1, 2, 3, 4])
    @pytest.mark.parametrize("plan", sorted(BASELINE_PLANS))
    def test_memo_is_byte_identical_to_fresh_executors(self, plan, repeats):
        node, configs = BASELINE_PLANS[plan]
        memo = run_sweep(configs, SyntheticExecutor(node), Workload(), repeats=repeats)
        fresh = run_sweep(configs, FreshSyntheticExecutor(node), Workload(), repeats=repeats)
        assert result_to_json(memo) == result_to_json(fresh)

    @settings(max_examples=20, deadline=None)
    @given(profile=profiles, plan=st.sampled_from(sorted(BASELINE_PLANS)),
           repeats=st.integers(min_value=1, max_value=4))
    def test_memo_is_byte_identical_on_drawn_profiles(self, profile, plan, repeats):
        node, configs = BASELINE_PLANS[plan]
        memo = run_sweep(configs, SyntheticExecutor(node, profile), Workload(), repeats=repeats)
        fresh = run_sweep(configs, FreshSyntheticExecutor(node, profile), Workload(),
                          repeats=repeats)
        assert result_to_json(memo) == result_to_json(fresh)

    @pytest.mark.parametrize("repeats", [1, 2, 4])
    def test_predicted_and_parsed_once_per_config(self, monkeypatch, repeats):
        node, configs = BASELINE_PLANS["2gpu"]
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(mdtune.sweep, "predict_run",
                            counted("predict_run", mdtune.sweep.predict_run))
        monkeypatch.setattr(mdtune.sweep, "parse_metrics",
                            counted("parse_metrics", mdtune.sweep.parse_metrics))
        result = run_sweep(configs, SyntheticExecutor(node), Workload(), repeats=repeats)
        assert len(result.rows) == len(configs)
        assert calls == {"predict_run": len(configs), "parse_metrics": len(configs)}

    def test_one_balance_search_per_dlb_pair(self, monkeypatch):
        node, configs = BASELINE_PLANS["2gpu-3dlb"]
        calls = Counter()

        def counted(config, node):
            calls[config] += 1
            return validate_config(config, node)

        monkeypatch.setattr(mdtune.balance, "validate_config", counted)
        run_sweep(configs, SyntheticExecutor(node), Workload(), repeats=2)
        first = {}  # each layout's first config in plan order, by layout
        for config in configs:
            first.setdefault(config._replace(dlb="auto"), config)
        assert len(first) < len(configs)
        assert calls == Counter(first.values())

    def test_a_config_asked_for_again_after_another(self):
        # the executor keeps one log; A's second visit renders it again
        node, configs = BASELINE_PLANS["2gpu"]
        a, b = configs[0], configs[-1]
        executor = SyntheticExecutor(node)
        first, other, again = (executor.run(config, Workload()) for config in (a, b, a))
        assert first == again == SyntheticExecutor(node).run(a, Workload())
        assert other == SyntheticExecutor(node).run(b, Workload()) != first
        smaller = Workload(atoms=40_000)
        assert executor.run(a, smaller) == SyntheticExecutor(node).run(a, smaller) != first

    @pytest.mark.parametrize("plan", ["cpu", "2gpu"])
    def test_a_repeat_with_equal_new_objects(self, plan):
        # the log slot tests identity: equal new objects render afresh, to the same bytes
        node, configs = BASELINE_PLANS[plan]
        executor, workload = SyntheticExecutor(node), Workload()
        for config in configs[:6]:
            first = executor.run(config, workload)
            assert executor.run(config, workload) is first  # served from the slot
            again = executor.run(LaunchConfig(*config), Workload(*workload))
            assert again == first == SyntheticExecutor(node).run(config, workload)

    @pytest.mark.parametrize("plan", ["cpu", "4gpu"])
    def test_memos_hold_one_entry_per_gpu_layout_and_one_log(self, plan):
        node, configs = BASELINE_PLANS[plan]
        executor = SyntheticExecutor(node)
        run_sweep(configs, executor, Workload(), repeats=2)
        layouts = {dlb_pair_key(config, Workload()) for config in configs if config.gpu_id}
        assert {name: len(memo) for name, memo in vars(executor).items()
                if isinstance(memo, dict)} == {"_predictions": len(layouts),
                                               "_bodies": len(layouts)}
        assert executor._last[:2] == (configs[-1], Workload())

    def test_executors_do_not_share_predictions(self):
        node, configs = BASELINE_PLANS["4gpu"]
        other = SyntheticNodeProfile(gpu_rate=2e7, dlb_penalty=0.05)
        run_sweep(configs, SyntheticExecutor(node), Workload())
        second = run_sweep(configs, SyntheticExecutor(node, other), Workload())
        fresh = run_sweep(configs, FreshSyntheticExecutor(node, other), Workload())
        assert result_to_json(second) == result_to_json(fresh)
        assert result_to_json(second) != result_to_json(
            run_sweep(configs, SyntheticExecutor(node), Workload()))

    @settings(max_examples=100, deadline=None)
    @given(perfs=st.lists(st.floats(min_value=0.001, max_value=1e4), min_size=1, max_size=5)
           | st.floats(min_value=0.001, max_value=1e4).flatmap(
               lambda p: st.lists(st.just(p), min_size=1, max_size=5)))
    def test_stdev_is_statistics_stdev_or_zero(self, perfs):
        # statistics.stdev as of Python 3.11: the float nearest the root of the
        # exact sample variance, checked here without the statistics module
        stdev = sweep_stdev(perfs)
        if len(set(perfs)) == 1:
            assert stdev.hex() == (0.0).hex()
        else:
            mean = sum(map(Fraction, perfs)) / len(perfs)
            variance = sum((Fraction(p) - mean) ** 2 for p in perfs) / (len(perfs) - 1)
            below, above = (Fraction(math.nextafter(stdev, to)) for to in (0.0, math.inf))
            exact = Fraction(stdev)
            assert ((exact + below) / 2) ** 2 <= variance <= ((exact + above) / 2) ** 2

    # Python 3.10's statistics.stdev rounds the variance to a float before its
    # square root and gives the neighbouring float for each of these.
    @pytest.mark.parametrize("perfs, stdev", [
        ([58.463, 104.133], "0x1.0259397f0f3fdp+5"),
        ([99.727, 82.127, 49.891], "0x1.9460e6b9ec242p+4"),
        ([108.978, 84.718], "0x1.1278772816b40p+4"),
        ([65.154, 41.819, 58.491], "0x1.80a353ddaa896p+3"),
    ])
    def test_stdev_same_bits_on_every_python(self, perfs, stdev):
        assert sweep_stdev(perfs).hex() == stdev
        if sys.version_info >= (3, 11):
            assert statistics.stdev(perfs).hex() == stdev


def sweep_stdev(perfs: list[float]) -> float:
    """The stdev ``run_sweep`` reports for one config whose repeats read ``perfs``."""
    logs = iter([render_log(PerfMetrics(performance=p)) for p in perfs])

    class ScriptedExecutor:
        exclusive = False

        def run(self, config, workload):
            return next(logs)

    result = run_sweep([LaunchConfig(n_rank=1, n_th=1)], ScriptedExecutor(), Workload(),
                       repeats=len(perfs))
    return result.rows[0].stdev


class TestSelectBest:
    """The winner ``aggregate`` picks, ``best_index``, which every command writes.

    Ties (to the last bit) go to fewer ranks, then to DLB off, then to
    hyper-threading off; the winner is always the first row ``ranked()``
    prints.
    """

    def best(self, perfs_and_configs):
        runs = [Run(i, LaunchConfig(**kwargs), PerfMetrics(performance=perf))
                for i, (perf, kwargs) in enumerate(perfs_and_configs)]
        result = aggregate(runs)
        assert result.best_row == result.ranked()[0]
        return result.best_row.config

    def test_single_row(self):
        assert self.best([(5.0, dict(n_rank=4, n_th=1))]).n_rank == 4

    def test_tie_prefers_fewer_ranks(self):
        assert self.best([
            (5.0, dict(n_rank=8, n_th=1)),
            (5.0, dict(n_rank=4, n_th=2)),
        ]).n_rank == 4

    def test_tie_prefers_dlb_off_then_ht_off(self):
        best = self.best([
            (5.0, dict(n_rank=4, n_th=2, dlb="on")),
            (5.0, dict(n_rank=4, n_th=2, dlb="off", use_ht=True)),
            (5.0, dict(n_rank=4, n_th=2, dlb="off", use_ht=False)),
        ])
        assert best.dlb == "off"
        assert best.use_ht is False

    @staticmethod
    def reference_best(rows):
        """``best_index`` by the formulas its winner had before it was taken
        from the top mean: every row's key, the lowest index among equals."""
        def rank_key(row):
            return (
                -row.mean_performance,
                row.config.n_rank,
                0 if row.config.dlb == "off" else 1,
                0 if not row.config.use_ht else 1,
            )
        return (min(range(len(rows)), key=lambda i: (rank_key(rows[i]), i)),
                sorted(rows, key=rank_key))

    @settings(max_examples=200, deadline=None)
    @given(perfs=st.lists(st.sampled_from([5.0, 5.5, 7.25]), min_size=2, max_size=3,
                          unique=True),
           rows=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3),
                                   st.sampled_from(DLB_VALUES), st.booleans()),
                         min_size=1, max_size=12))
    def test_winner_and_ranking_equal_the_reference_on_ties(self, perfs, rows):
        # two or three performance values, so most rows tie on it exactly
        result = aggregate([
            Run(i, LaunchConfig(n_rank=n_rank, n_th=1, dlb=dlb, use_ht=use_ht),
                PerfMetrics(performance=perfs[perf % len(perfs)]))
            for i, (perf, n_rank, dlb, use_ht) in enumerate(rows)])
        assert (result.best_index, result.ranked()) == self.reference_best(result.rows)

    def test_no_rows_raises(self):
        result = aggregate([])
        assert result.best_index is None
        with pytest.raises(MdtuneError):
            result.best_row

    @settings(max_examples=60, deadline=None)
    @given(
        perfs=st.lists(st.floats(min_value=0.1, max_value=1000), min_size=1,
                       max_size=12),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    @example(perfs=[999.9999999999999, 1000.0], scale=4.704211946326822)
    def test_argmax_invariant_under_rescaling(self, perfs, scale):
        # Rounding can make scaled rows tie (the example above), and a tie
        # goes to fewer ranks, so the winner itself is pinned only when the
        # scaled maximum is unique.
        scaled_perfs = [p * scale for p in perfs]
        best = self.best([(p, dict(n_rank=i + 1, n_th=1)) for i, p in enumerate(perfs)])
        best_scaled = self.best([(p, dict(n_rank=i + 1, n_th=1))
                                 for i, p in enumerate(scaled_perfs)])
        top = max(scaled_perfs)
        assert scaled_perfs[best_scaled.n_rank - 1] == top
        assert scaled_perfs[best.n_rank - 1] == top
        if scaled_perfs.count(top) == 1:
            assert best.n_rank == best_scaled.n_rank


class FailingExecutor:
    exclusive = False

    def run(self, config, workload):
        raise RunFailure("boom")


class MalformedLogExecutor:
    exclusive = False

    def run(self, config, workload):
        return " Performance:   1e3   0.923\n"


class TestAccounting:
    def test_all_failures_counted(self, gpu_node):
        configs = ranklist_configs(gpu_node)
        result = run_sweep(configs, FailingExecutor(), Workload())
        assert not result.rows
        assert len(result.failures) == len(configs)
        assert result.best_index is None
        with pytest.raises(MdtuneError):
            result.best_row

    def test_malformed_log_recorded_not_fatal(self, gpu_node):
        configs = ranklist_configs(gpu_node)[:2]
        result = run_sweep(configs, MalformedLogExecutor(), Workload())
        assert not result.rows
        assert [c for c, _ in result.failures] == configs
        assert "malformed performance" in result.failures[0].error

    def test_performance_overflowing_a_float_recorded_not_fatal(self, gpu_node):
        # the second repeat's figure parsed to inf, and the stdev of
        # (10.5, inf) raised OverflowError out of the sweep
        a, b = ranklist_configs(gpu_node)[:2]
        log = render_log(PerfMetrics(performance=10.5))
        huge = f" Performance:   {'9' * 400}\n"
        result = run_sweep([a, b], RecordingExecutor({a: [log, huge], b: [log, log]}),
                           Workload(), repeats=2)
        assert [row.config for row in result.rows] == [b]
        assert [f.config for f in result.failures] == [a]
        assert "performance overflows a float" in result.failures[0].error

    def test_grid_count_too_long_for_an_int_recorded_not_fatal(self, gpu_node, si_load_balance):
        # int() of the count raised a bare ValueError out of the sweep
        a, b = ranklist_configs(gpu_node)[:2]
        log = render_log(PerfMetrics(performance=10.5))
        long_grid = si_load_balance.replace("144 144 144", f"{'1' * 5000} 144 144")
        result = run_sweep([a, b], RecordingExecutor({a: [log, long_grid], b: [log, log]}),
                           Workload(), repeats=2)
        assert [row.config for row in result.rows] == [b]
        assert [f.config for f in result.failures] == [a]
        assert "PME grid has too many digits" in result.failures[0].error

    def test_bad_repeats_rejected(self, gpu_node):
        with pytest.raises(MdtuneError):
            run_sweep([], SyntheticExecutor(gpu_node), Workload(), repeats=0)


class RecordingExecutor:
    """Answers each call from ``script[config]``, one item per repeat, and
    records the configs it was called with."""

    exclusive = False

    def __init__(self, script):
        self.script = {config: iter(items) for config, items in script.items()}
        self.calls = []

    def run(self, config, workload):
        self.calls.append(config)
        item = next(self.script[config])
        if isinstance(item, Exception):
            raise item
        return item


class TestRunOrder:
    def test_config_major_and_a_failed_repeat_ends_its_config(self, gpu_node):
        a, b, c, d = ranklist_configs(gpu_node)[:4]
        log = render_log(PerfMetrics(performance=5.0))
        executor = RecordingExecutor({
            a: [log] * 3,
            b: [log, RunFailure("boom on repeat 2"), log],
            c: ["no figures here\n", log, log],
            d: [log] * 3,
        })
        result = run_sweep([a, b, c, d], executor, Workload(), repeats=3)
        assert executor.calls == [a, a, a, b, b, c, d, d, d]
        assert result.failures == [Failure(b, "boom on repeat 2"),
                                   Failure(c, "log contained no performance figure")]
        assert [row.config for row in result.rows] == [a, d]
        assert all(row.repeats == 3 for row in result.rows)

    @pytest.mark.parametrize("repeats", [1, 2, 3])
    def test_repeats_arrive_back_to_back_in_plan_order(self, repeats):
        # the one-log slots of SyntheticExecutor and run_sweep rely on this
        node, configs = BASELINE_PLANS["2gpu"]
        unrunnable = LaunchConfig(n_rank=3, n_th=4, gpu_id="012")  # the node has 2 GPUs
        plan = [*configs[:3], unrunnable, *configs[3:6]]
        calls = []

        class Recording(SyntheticExecutor):
            def run(self, config, workload):
                calls.append(config)
                return super().run(config, workload)

        result = run_sweep(plan, Recording(node), Workload(), repeats=repeats)
        assert calls == [config for config in plan
                         for _ in range(1 if config is unrunnable else repeats)]
        assert [failure.config for failure in result.failures] == [unrunnable]

    @pytest.mark.parametrize("repeats", [1, 2])
    def test_a_config_listed_twice_gives_two_rows(self, gpu_node, repeats):
        a, b = ranklist_configs(gpu_node)[:2]
        plan = [a, b, b, a]
        result = run_sweep(plan, SyntheticExecutor(gpu_node), Workload(), repeats=repeats)
        assert [row.config for row in result.rows] == plan
        assert all(row.repeats == repeats for row in result.rows)


class TestAggregate:
    """The fold alone, on hand-built runs: no executor, no log."""

    config = LaunchConfig(n_rank=4, n_th=2)
    other = LaunchConfig(n_rank=2, n_th=4)

    def runs(self, *perfs, index=0, config=config):
        return [Run(index, config, PerfMetrics(performance=p)) for p in perfs]

    def test_mean(self):
        (row,) = aggregate(self.runs(1.0, 2.0, 4.0)).rows
        assert row.mean_performance == 7.0 / 3
        assert math.isclose(row.stdev, statistics.stdev([1.0, 2.0, 4.0]))
        assert row.repeats == 3

    def test_equal_repeats_have_zero_stdev(self):
        (row,) = aggregate(self.runs(0.1, 0.1, 0.1)).rows
        assert row.stdev.hex() == (0.0).hex()

    def test_best_is_the_last_of_equal_maxima(self):
        notes = (Advisory(kind="note", text="NOTE: last"),)
        runs = [Run(0, self.config, PerfMetrics(performance=p, notes=n))
                for p, n in [(5.0, ()), (3.0, ()), (5.0, notes), (4.0, ())]]
        (row,) = aggregate(runs).rows
        assert row.metrics is runs[2].metrics
        assert row.advisories == notes

    def test_failed_run_in_the_middle_of_a_group(self):
        runs = (self.runs(1.0) + [Run(0, self.config, error="first"),
                                  Run(0, self.config, error="second")]
                + self.runs(2.0) + self.runs(3.0, index=1, config=self.other))
        result = aggregate(runs)
        assert result.failures == [Failure(self.config, "first")]
        assert [row.config for row in result.rows] == [self.other]
        assert result.best_index == 0

    def test_failures_and_a_row_between_them(self):
        runs = (self.runs(1.0) + [Run(0, self.config, error="zero")]
                + self.runs(2.0, 4.0, index=1, config=self.other)
                + [Run(2, self.config, error="two")])
        result = aggregate(runs)
        assert result.failures == [Failure(self.config, "zero"), Failure(self.config, "two")]
        (row,) = result.rows
        assert (row.config, row.mean_performance, row.repeats) == (self.other, 3.0, 2)
        assert row.metrics is runs[3].metrics
        assert result.best_index == 0

    def test_groups_by_index_not_config(self):
        runs = self.runs(1.0, 1.0) + self.runs(2.0, 2.0, index=1)
        assert [row.repeats for row in aggregate(runs).rows] == [2, 2]

    def test_no_runs(self):
        assert aggregate([]) == SweepResult([], [], None)

    def test_equals_run_sweep_over_the_same_logs(self, gpu_node):
        configs = ranklist_configs(gpu_node) + [LaunchConfig(n_rank=64, n_th=4, use_ht=True)]
        executor = SyntheticExecutor(gpu_node)
        runs = []
        for index, config in enumerate(configs):
            try:
                runs += [Run(index, config, parse_metrics(executor.run(config, Workload())))] * 2
            except RunFailure as exc:
                runs.append(Run(index, config, error=str(exc)))
        swept = run_sweep(configs, SyntheticExecutor(gpu_node), Workload(), repeats=2)
        assert len(swept.failures) == 1
        assert aggregate(runs) == swept


@pytest.fixture
def fake_engine(tmp_path):
    """A stand-in engine binary: ignores its flags, writes a canned log."""
    log = (DATA / "si_pme_balanced.log").read_text()
    src = tmp_path / "canned.log"
    src.write_text(log)
    script = tmp_path / "fake_mdrun"
    script.write_text(f"#!/bin/sh\ncat {src} > md.log\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return script


@pytest.fixture
def mdrun_on_path(tmp_path, monkeypatch):
    """An ``mdrun`` first on PATH that writes its arguments to ``args`` and a
    canned log to ``md.log``."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "mdrun"
    script.write_text(f'#!/bin/sh\nprintf "%s\\n" "$*" > args\n'
                      f'cat {DATA / "si_pme_balanced.log"} > md.log\n')
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")


def _running(pid: int) -> bool:
    """Whether a process runs; a killed one waiting to be reaped does not."""
    try:
        stat_line = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat_line.rsplit(")", 1)[1].split()[0] != "Z"


class TestShellExecutor:
    NODE = make_node()

    def test_runs_in_per_run_directories(self, tmp_path, fake_engine):
        executor = ShellExecutor(self.NODE, tmp_path / "runs",
                                 EngineProfile(mdrun=str(fake_engine)))
        assert executor.exclusive is True
        config = LaunchConfig(n_rank=4, n_th=2)
        result = run_sweep([config], executor, Workload(), repeats=2)
        assert len(result.rows) == 1
        assert result.rows[0].mean_performance == 26.0
        rundirs = sorted(p.name for p in (tmp_path / "runs").iterdir())
        assert len(rundirs) == 2  # one directory per repeat
        assert all(name.startswith("run_") for name in rundirs)
        assert all((tmp_path / "runs" / name / "md.log").exists() for name in rundirs)

    @pytest.mark.parametrize("source", ["library", "manifest"])
    def test_run_length_from_the_workload(self, tmp_path, mdrun_on_path, source):
        if source == "library":
            executor, workload = ShellExecutor(self.NODE, tmp_path / "runs"), Workload()
        else:
            m = load_manifest(DATA / "manifest_mem.json")
            executor, workload = ShellExecutor(m.node, tmp_path / "runs", m.engine), m.workload
        short = workload._replace(benchmark_steps=2000, reset_steps=500)
        executor.run(LaunchConfig(n_rank=1, n_th=1), short)
        [args] = (tmp_path / "runs").glob("run_*/args")
        assert args.read_text() == "-ntmpi 1 -ntomp 1 -s in.tpr -nsteps 2000 -resetstep 500\n"

    def test_shortened_run_has_its_own_directory(self, tmp_path, mdrun_on_path):
        executor = ShellExecutor(self.NODE, tmp_path / "runs")
        config = LaunchConfig(n_rank=1, n_th=1)
        for workload in (Workload(), Workload()._replace(benchmark_steps=2000, reset_steps=500)):
            executor.run(config, workload)
        keys = {p.name.rsplit("_", 1)[0] for p in (tmp_path / "runs").iterdir()}
        assert len(keys) == 2

    def test_failing_command_recorded(self, tmp_path):
        executor = ShellExecutor(self.NODE, tmp_path / "runs", EngineProfile(mdrun="false"))
        result = run_sweep([LaunchConfig(n_rank=1, n_th=1)], executor, Workload())
        assert not result.rows
        assert len(result.failures) == 1
        assert "exit" in result.failures[0][1]

    def test_timeout_recorded_not_fatal(self, tmp_path):
        executor = ShellExecutor(self.NODE, tmp_path / "runs",
                                 EngineProfile(mdrun="sleep 5; true"), timeout_s=0.2)
        configs = [LaunchConfig(n_rank=1, n_th=1), LaunchConfig(n_rank=2, n_th=1)]
        result = run_sweep(configs, executor, Workload(), repeats=1)
        assert not result.rows
        assert len(result.failures) == 2
        assert all("timed out after 0.2 s" in msg for _, msg in result.failures)

    # the engine leaves a background child, as an mpirun would its ranks
    BACKGROUND_CHILD = EngineProfile(mdrun="sleep 30 & echo $! > child.pid; wait; true")

    @staticmethod
    def _child_pid(runs: Path) -> int:
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            for pid_file in runs.glob("run_*/child.pid"):
                text = pid_file.read_text()
                if text.endswith("\n"):
                    return int(text)
            time.sleep(0.02)
        raise AssertionError("the engine wrote no child pid")

    @staticmethod
    def _assert_gone(pid: int) -> None:
        try:
            deadline = time.monotonic() + 5.0
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not _running(pid)
        finally:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_timeout_kills_the_whole_process_group(self, tmp_path):
        executor = ShellExecutor(self.NODE, tmp_path / "runs", self.BACKGROUND_CHILD,
                                 timeout_s=0.5)
        with pytest.raises(RunFailure, match="timed out after 0.5 s"):
            executor.run(LaunchConfig(n_rank=1, n_th=1), Workload())
        self._assert_gone(self._child_pid(tmp_path / "runs"))

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_interrupt_kills_the_whole_process_group(self, tmp_path, monkeypatch):
        # Ctrl-C while mdtune waits: the run's own session does not get it
        runs = tmp_path / "runs"
        child = []

        def interrupted(proc, *args, **kwargs):
            child.append(self._child_pid(runs))
            raise KeyboardInterrupt

        monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
        executor = ShellExecutor(self.NODE, runs, self.BACKGROUND_CHILD)
        with pytest.raises(KeyboardInterrupt):
            executor.run(LaunchConfig(n_rank=1, n_th=1), Workload())
        self._assert_gone(child[0])

    def test_second_sweep_into_same_workdir(self, tmp_path, fake_engine):
        engine = EngineProfile(mdrun=str(fake_engine))
        config = LaunchConfig(n_rank=4, n_th=2)
        for _ in range(2):
            # a fresh executor, as a second ``mdtune sweep`` run would make
            result = run_sweep([config], ShellExecutor(self.NODE, tmp_path / "runs", engine),
                               Workload(), repeats=2)
            assert not result.failures
        rundirs = sorted(p.name for p in (tmp_path / "runs").iterdir())
        assert [name.rsplit("_", 1)[1] for name in rundirs] == ["0", "1", "2", "3"]
        assert len({name.rsplit("_", 1)[0] for name in rundirs}) == 1

    def test_log_that_is_not_utf8_is_parsed(self, tmp_path):
        engine = EngineProfile(mdrun=r"printf 'Performance: 12.0\n\377\n' > md.log; true")
        result = run_sweep([LaunchConfig(n_rank=1, n_th=1)],
                           ShellExecutor(self.NODE, tmp_path, engine), Workload(), repeats=1)
        assert not result.failures
        assert result.rows[0].mean_performance == 12.0

    def test_stderr_that_is_not_utf8_is_a_failure(self, tmp_path):
        engine = EngineProfile(mdrun=r"printf 'x\377' >&2; exit 2")
        result = run_sweep([LaunchConfig(n_rank=1, n_th=1)],
                           ShellExecutor(self.NODE, tmp_path, engine), Workload(), repeats=1)
        assert not result.rows
        assert "exit 2" in result.failures[0].error
        assert result.failures[0].error.endswith("x\ufffd")

    def test_missing_log_is_a_failure(self, tmp_path):
        executor = ShellExecutor(self.NODE, tmp_path / "runs", EngineProfile(mdrun="true"))
        result = run_sweep([LaunchConfig(n_rank=1, n_th=1)], executor, Workload())
        assert len(result.failures) == 1
        assert "no log file" in result.failures[0][1]

    def test_unreadable_log_is_a_failure(self, tmp_path):
        # the one-rank run leaves a directory where its log should be
        engine = EngineProfile(mdrun="f() { if [ $2 = 1 ]; then mkdir md.log; "
                                     "else echo 'Performance: 12.0' > md.log; fi; }; f")
        configs = [LaunchConfig(n_rank=1, n_th=1), LaunchConfig(n_rank=2, n_th=1)]
        result = run_sweep(configs, ShellExecutor(self.NODE, tmp_path, engine), Workload(),
                           repeats=1)
        assert [(row.config, row.mean_performance) for row in result.rows] == [(configs[1], 12.0)]
        [failure] = result.failures
        assert failure.config == configs[0]
        assert failure.error.startswith(f"cannot read log file {tmp_path}")

    def test_config_the_node_cannot_run_is_not_started(self, tmp_path):
        """A plan's config over the node's thread budget ran and was ranked; it
        fails as in the synthetic executor, with no run directory or command."""
        m = load_manifest(DATA / "manifest_mem.json")
        configs = load_plan(DATA / "golden" / "plan_failures.json")
        calls = tmp_path / "calls"
        stub = tmp_path / "mdrun"
        stub.write_text(f'#!/bin/sh\nprintf "%s\\n" "$*" >> {calls}\n'
                        f'cat {DATA / "si_pme_balanced.log"} > md.log\n')
        stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
        executor = ShellExecutor(m.node, tmp_path / "runs", EngineProfile(mdrun=str(stub)))
        shell = run_sweep(configs, executor, m.workload, repeats=1)
        synthetic = run_sweep(configs, SyntheticExecutor(m.node), m.workload, repeats=1)
        budget = "thread budget exceeded: 256 threads > 40 per node x 1 nodes"
        assert shell.failures == synthetic.failures == [Failure(configs[2], budget)]
        assert len(list((tmp_path / "runs").iterdir())) == len(configs) - 1
        started = calls.read_text().splitlines()
        assert len(started) == len(configs) - 1
        assert not any("-ntmpi 64" in line for line in started)


class TestSerialization:
    def test_json_round_trip(self, gpu_node):
        result = run_sweep(ranklist_configs(gpu_node),
                           SyntheticExecutor(gpu_node), Workload())
        text = result_to_json(result)
        again = result_from_json(text)
        assert result_to_json(again) == text
        assert again.best_index == result.best_index

    def test_csv_has_one_row_per_config(self, gpu_node):
        result = run_sweep(ranklist_configs(gpu_node),
                           SyntheticExecutor(gpu_node), Workload())
        lines = result_to_csv(result).strip().splitlines()
        assert len(lines) == len(result.rows) + 1

    def test_table_ranked_best_first(self, gpu_node):
        result = run_sweep(ranklist_configs(gpu_node),
                           SyntheticExecutor(gpu_node), Workload())
        table = result_to_table(result)
        lines = table.strip().splitlines()[1:]
        perfs = [float(line.split()[1]) for line in lines]
        assert perfs == sorted(perfs, reverse=True)

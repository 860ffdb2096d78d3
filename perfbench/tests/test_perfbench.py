"""Tests of the benchmark's own arithmetic and inputs.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import sessions  # noqa: E402
from mdtune.launch import LaunchConfig  # noqa: E402
from mdtune.balance import Workload  # noqa: E402
from mdtune.sweep import run_sweep  # noqa: E402
from spans import Span, Tracer, self_times, session_layers  # noqa: E402


class FixedLogExecutor:
    exclusive = False

    def run(self, config, workload):
        return " Performance:     10.0\n"


def test_engine_s_on_a_two_config_plan():
    plan = [LaunchConfig(n_rank=2, n_th=4), LaunchConfig(n_rank=8, n_th=1)]
    step_time = {plan[0]: 0.01, plan[1]: 0.02}
    executor = sessions.CountingExecutor(FixedLogExecutor(), tag=0)
    run_sweep(plan, executor, Workload(benchmark_steps=5000, reset_steps=1000), repeats=2)

    # 2 configs x 2 repeats, each 5 s start-up plus 5000 steps:
    # 4 x 5 + 2 x 5000 x 0.01 + 2 x 5000 x 0.02 = 20 + 100 + 200
    assert sessions.ENGINE_STARTUP_S == 5.0
    got = sessions.engine_seconds(executor.ledger, lambda run: step_time[run[1]])
    assert got == pytest.approx(320.0)


def test_engine_s_charges_the_steps_each_run_was_given():
    config = LaunchConfig(n_rank=1)
    ledger = [((0, config), 1000, False), ((0, config), 5000, True)]
    assert sessions.engine_seconds(ledger, lambda run: 0.01) == pytest.approx(5 + 10 + 5 + 50)


def test_self_time_on_a_fixed_span_tree():
    spans = [
        Span("sweep.run_sweep", 0.0, 10.0, -1),
        Span("sweep.executor_run", 1.0, 4.0, 0),
        Span("balance.predict_run", 2.0, 3.5, 1),
        Span("balance.balance_cutoff", 2.5, 3.0, 2),
        Span("logparse.parse_metrics", 5.0, 9.0, 0, size=400),
    ]
    assert self_times(spans) == [3.0, 1.5, 1.0, 0.5, 4.0]
    layers = session_layers(spans)
    assert layers["balance.self_share"] == pytest.approx(1.5 / 10.0)
    assert layers["sweep.self_s"] == 3.0
    assert layers["sweep.executor_calls"] == 1
    assert layers["logparse.bytes"] == 400


def test_tracer_restores_what_it_wrapped():
    import mdtune.cli
    import mdtune.sweep

    before = (mdtune.cli.run_sweep, mdtune.sweep.subprocess, mdtune.sweep.ShellExecutor.run)
    tracer = Tracer()
    tracer.install()
    try:
        assert mdtune.cli.run_sweep is not before[0]
        assert mdtune.sweep.subprocess.PIPE == before[1].PIPE
    finally:
        tracer.uninstall()
    assert (mdtune.cli.run_sweep, mdtune.sweep.subprocess,
            mdtune.sweep.ShellExecutor.run) == before


def test_stub_failure_share_is_the_designed_one(tmp_path):
    generated = inputs.cli_shell_inputs(inputs.rng_for("cli-shell", 7), tmp_path)
    runs = tmp_path / "session" / "runs"
    (tmp_path / "session").mkdir()
    (tmp_path / "session" / "ledger").write_text("")
    attempted = failed = 0
    for key, entry in generated["plan"].items():
        for repeat in range(2):  # a row stops at its first failed repeat
            rundir = runs / f"run_{abs(hash(key)):x}_{repeat}"
            rundir.mkdir(parents=True)
            proc = subprocess.run(entry["command"], shell=True, cwd=rundir, capture_output=True)
            attempted += 1
            if proc.returncode:
                assert proc.returncode == inputs.STUB_EXIT
                failed += 1
                break
            log = (rundir / "md.log").read_text()
            assert log.count("Performance:") == len(inputs.SEGMENT_SCALE)

    configs, failing = len(generated["plan"]), inputs.FAILING_CONFIGS
    designed = failing / (failing + 2 * (configs - failing))
    assert configs == 28
    assert failed / attempted == designed
    ledger = (tmp_path / "session" / "ledger").read_text().splitlines()
    assert len(ledger) == attempted


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    for d, seed in ((a, 3), (b, 3), (c, 4)):
        d.mkdir()
        inputs.synth_cpu_manifests(inputs.rng_for("synth-cpu", seed), d)
    assert (a / "manifest-1.json").read_text() == (b / "manifest-1.json").read_text()
    assert (a / "manifest-1.json").read_text() != (c / "manifest-1.json").read_text()


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric_with_its_unit(trace, kind):
    import json

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "synth-cpu", "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}

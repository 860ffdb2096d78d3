"""What a fresh ``mdtune`` process loads, and what it prints on stderr.

Each mdtune command is a fresh interpreter, so start-up is part of every
command's cost. These tests run commands in subprocesses under ``python -S``
(no site hook preloads a module) with ``src`` first on ``sys.path``, and pin
the modules each command leaves in ``sys.modules``: only the layers it runs,
and none of ``statistics``, ``logging`` or ``importlib.resources``.
"""

import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA
from test_golden import CASES, GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs argv[3:] as mdtune's command line with argv[1] first on sys.path, then
# writes the names in sys.modules to argv[2], one a line. Nothing is imported
# after the command returns.
_RUNNER = """\
import sys
sys.path.insert(0, sys.argv[1])
from mdtune.cli import main
code = main(sys.argv[3:])
with open(sys.argv[2], "w") as f:
    f.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""

NEVER_AT_START = {"statistics", "logging", "importlib.resources"}
LAYERS = {"balance", "econ", "hardware", "launch", "logparse", "manifest", "report", "sweep"}


def run_fresh(tmp_path, argv, env=(), src=SRC):
    """``(stdout, stderr, modules)`` of one mdtune command in a fresh ``python -S``."""
    modules_file = tmp_path / "modules.txt"
    environ = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "MDTUNE_LOG")}
    environ.update(env)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _RUNNER, str(src), str(modules_file), *argv],
        capture_output=True, text=True, env=environ, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr, set(modules_file.read_text().split("\n"))


def mdtune_layers(modules):
    return {m.removeprefix("mdtune.") for m in modules if m.startswith("mdtune.")}


# golden file -> the layers its command must not load
COMMANDS = {
    "parse_log_one.json": {"sweep", "balance", "launch", "manifest", "econ", "report"},
    "parse_log_all.csv": {"sweep", "balance", "launch", "manifest"},
    "analyze_costs_ns.md": {"sweep", "balance", "launch", "logparse", "manifest"},
    "analyze_costs_us.json": {"sweep", "balance", "launch", "logparse", "manifest"},
    "recommend.md": {"sweep", "balance", "launch", "logparse", "manifest"},
    "scaling.md": {"sweep", "balance", "launch", "logparse", "manifest"},
    "plan.json": {"sweep", "balance", "logparse", "econ", "report"},
    "multi_plan.json": {"sweep", "balance", "logparse", "econ", "report"},
    "sweep.md": set(),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_loads_only_its_layers(name, tmp_path):
    out, _, modules = run_fresh(tmp_path, CASES[name])
    assert out == (GOLDEN / name).read_text()
    assert not modules & NEVER_AT_START
    assert not mdtune_layers(modules) & COMMANDS[name]
    assert mdtune_layers(modules) <= LAYERS | {"cli", "errors", "wire"}


def test_import_mdtune_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import mdtune; "
         "print(' '.join(m for m in sorted(sys.modules) if m.startswith('mdtune')))",
         str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["mdtune"]


def test_library_manifest_load_loads_only_the_plan_layers():
    # how a library caller (a set-up probe, say) loads a manifest and its plan
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import mdtune.cli as cli; "
         "manifest = cli.load_manifest(sys.argv[2]); "
         "cli.enumerate_plan(manifest.node, manifest.sweep, nodes=manifest.node_count); "
         "print(' '.join(sorted(sys.modules)))",
         str(SRC), str(DATA / "manifest_mem.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.split())
    assert {m for m in modules if m.startswith("mdtune")} == {
        "mdtune", "mdtune.cli", "mdtune.errors", "mdtune.wire", "mdtune.manifest",
        "mdtune.hardware", "mdtune.launch"}
    assert "argparse" not in modules


def test_runs_as_python_dash_m(tmp_path):
    environ = {k: v for k, v in os.environ.items() if k != "MDTUNE_LOG"} | {"PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-m", "mdtune.cli", *CASES["sweep.md"]],
                          capture_output=True, text=True, env=environ, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "sweep.md").read_text()


def test_unknown_cli_name_raises_attribute_error():
    import mdtune.cli

    with pytest.raises(AttributeError, match="no_such_layer"):
        mdtune.cli.no_such_layer


@pytest.mark.parametrize("level", ["info", "INFO", "debug", "DEBUG", None, "warning", "verbose"])
def test_mdtune_log(level, tmp_path):
    out_file = tmp_path / "result.json"
    argv = ["sweep", "--manifest", str(DATA / "manifest_mem.json"), "--out", str(out_file)]
    out, err, _ = run_fresh(tmp_path, argv, {} if level is None else {"MDTUNE_LOG": level})
    assert out == (GOLDEN / "sweep.table").read_text()
    assert out_file.read_text() == (GOLDEN / "sweep.json").read_text()
    if level in ("info", "INFO", "debug", "DEBUG"):
        assert err == f"mdtune: wrote {out_file}\nmdtune: 28 rows, 0 failures\n"
    else:
        assert err == ""


def test_schema_is_read_next_to_the_package(tmp_path):
    shutil.copytree(SRC / "mdtune", tmp_path / "copy" / "mdtune",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["plan", "--manifest", str(DATA / "manifest_mem.json")]
    out, _, _ = run_fresh(tmp_path, argv, src=tmp_path / "copy")
    assert out == (GOLDEN / "plan.json").read_text()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=40))
def test_fsum_mean_is_fmean_bit_for_bit(values):
    assert (math.fsum(values) / len(values)).hex() == statistics.fmean(values).hex()

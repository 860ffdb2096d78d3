"""The record contract: every record is an immutable ``typing.NamedTuple``.

A record that checks its fields runs its ``_check()`` however it is built,
``_replace`` included, and coerces list fields to tuples so that it stays
hashable. ``import mdtune.cli`` loads neither ``dataclasses`` nor the
``inspect`` module it pulls in: both are start-up cost of every command.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mdtune import wire
from mdtune.balance import Workload
from mdtune.errors import InvalidConfigError, MdtuneError
from mdtune.launch import LaunchConfig
from mdtune.sweep import SyntheticExecutor, result_from_json, result_to_json, run_sweep
from mdtune.wire import dumps

from conftest import make_node

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ["balance", "cli", "econ", "errors", "hardware", "launch", "logparse",
           "manifest", "report", "sweep", "wire"]


def _classes():
    for name in MODULES:
        module = importlib.import_module(f"mdtune.{name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


RECORDS = sorted((cls for cls in _classes() if wire._is_record(cls)), key=lambda c: c.__name__)


def test_import_loads_no_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, mdtune.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_one_record_kind():
    assert not [cls for cls in _classes() if hasattr(cls, "__dataclass_fields__")]
    names = {cls.__name__ for cls in RECORDS}
    assert {"LaunchConfig", "NodeSpec", "PerfMetrics", "SweepRow", "SweepResult",
            "RunManifest", "EconInput"} <= names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_refuses_assignment(cls):
    record = tuple.__new__(cls, [None] * len(cls._fields))  # no check: any record will do
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], 1)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


class TestReplaceChecks:
    def test_launch_config(self):
        with pytest.raises(InvalidConfigError, match=r"n_pme must be in \[0, n_rank\)"):
            LaunchConfig(n_rank=2)._replace(n_pme=5)

    def test_workload(self):
        with pytest.raises(MdtuneError, match="must exceed reset_steps"):
            Workload()._replace(benchmark_steps=100)

    def test_a_valid_replace_keeps_the_type(self):
        config = LaunchConfig(n_rank=4)._replace(nstlist=40)
        assert type(config) is LaunchConfig and config.nstlist == 40


class TestListFieldsBecomeTuples:
    def test_workload_box(self):
        workload = Workload(box=[10.8, 10.2, 9.6])
        assert workload.box == (10.8, 10.2, 9.6) and type(workload.box) is tuple
        assert hash(workload) == hash(Workload())

    def test_node_gpus(self):
        node = make_node(n_gpus=2)
        listed = node._replace(gpus=list(node.gpus))
        assert type(listed.gpus) is tuple
        assert hash(listed) == hash(node) and listed == node

    def test_launch_config_dd_grid(self):
        config = LaunchConfig(n_rank=8, dd_grid=[2, 2, 2])
        assert type(config.dd_grid) is tuple
        assert {config: 1}[LaunchConfig(n_rank=8, dd_grid=(2, 2, 2))] == 1


def test_result_with_advisories_round_trips():
    config = LaunchConfig(n_rank=20, n_th=1, n_pme=10, dlb="on")
    result = run_sweep([config], SyntheticExecutor(make_node()), Workload(), repeats=2)
    assert result.rows[0].advisories
    assert result_from_json(result_to_json(result)) == result


class TestDumpsRefusesRecords:
    """A record is a tuple, but ``dumps`` writes only plain containers."""

    @pytest.mark.parametrize("doc", [
        LaunchConfig(n_rank=2),
        [LaunchConfig(n_rank=2)],
        {"workload": Workload()},
    ], ids=["record", "in a list", "in a dict"])
    def test_type_error(self, doc):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dumps(doc)

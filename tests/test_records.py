"""The record contract: every record is an immutable ``typing.NamedTuple``.

A record that checks its fields runs its ``_check()`` however it is built,
``_replace`` included, and coerces list fields to tuples so that it stays
hashable. ``import mdtune.cli`` loads neither ``dataclasses`` nor the
``inspect`` module it pulls in: both are start-up cost of every command.
``wire.dumps`` writes a record, wherever it meets one, to the same text as
the record's ``to_doc``: checked here for an instance of every record class
with edge values, and for generated sweep results.
"""

import collections
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from mdtune import wire
from mdtune.balance import SyntheticNodeProfile, Workload, predict_run
from mdtune.econ import EconInput, EconParams, price
from mdtune.errors import InvalidConfigError, MdtuneError
from mdtune.launch import LaunchConfig, plan_multi_sim
from mdtune.logparse import (Advisory, CutoffSetting, GpuCpuRatio, ParsedLoadBalance, PerfMetrics,
                             parse_metrics)
from mdtune.manifest import Cluster, load_manifest
from mdtune.report import YIELD_US, ScalingPoint, ScalingSeries, econ_display_row
from mdtune.sweep import (Failure, Run, SweepResult, SweepRow, SyntheticExecutor,
                          result_from_json, result_to_json, run_sweep)
from mdtune.wire import dumps, from_doc, to_doc

from conftest import DATA, make_node

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


def test_no_wire_name_is_dotted():
    """A document nests only where a record holds a record."""
    dotted = {cls.__name__: name for cls in RECORDS
              for name in getattr(cls, "WIRE", {}).values() if "." in name}
    assert dotted == {}


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


def _instances():
    """(id, record): an instance of every record class, with edge values."""
    node = make_node(n_gpus=2)._replace(interconnect="fdr14_ib")
    gpu_config = LaunchConfig(n_rank=2, n_th=10, gpu_id="01")
    config = LaunchConfig(n_rank=8, n_th=2, n_pme=2, n_th_pme=1, dlb="on", nstlist=40,
                          dd_grid=(3, 2, 1))
    balanced = parse_metrics((DATA / "si_load_balance.log").read_text())
    noted = parse_metrics((DATA / "si_pme_imbalance.log").read_text())
    swept = run_sweep([gpu_config, LaunchConfig(n_rank=20, n_th=1, n_pme=10, dlb="on")],
                      SyntheticExecutor(node), Workload(), repeats=2)
    rows_doc = wire.read(DATA / "golden" / "rows.json")
    params = from_doc(EconParams, rows_doc["econ"])
    inputs = [from_doc(EconInput, row) for row in rows_doc["rows"]]
    econ = price(inputs[0], params)
    manifest = load_manifest(DATA / "manifest_mem.json")
    lb = balanced.load_balance
    failure = Failure(config, "run left no log file at md.log")
    yield from [
        ("Advisory", Advisory("other", 'NOTE: "é\ud800\x00"\n  end')),
        ("BalanceState", predict_run(SyntheticNodeProfile(), node, gpu_config, Workload()).balance),
        ("Cluster", Cluster(node_count=4)),
        ("CpuSpec", node.cpu),
        ("CutoffSetting", lb.final),
        ("EconDisplayRow", econ_display_row(inputs[0], params, YIELD_US)),
        ("EconInput", inputs[0]),
        ("EconInput with power_w", inputs[-1]._replace(power=None, power_w=402.5)),
        ("EconParams", params),
        ("EconRow", econ),
        ("EngineProfile", manifest.engine),
        ("Failure", failure),
        ("GpuCpuRatio", GpuCpuRatio(math.nan, math.inf, -math.inf)),
        ("GpuSpec", node.gpus[0]),
        ("LaunchConfig with dd_grid", config),
        ("MultiSimPlan", plan_multi_sim(node, replicas=3)),
        ("NodeSpec with an Interconnect", node),
        ("NodeSpec without GPUs", make_node()),
        ("ParsedLoadBalance", lb),
        ("ParsedLoadBalance, final group only", lb._replace(initial=None)),
        ("PerfMetrics with gpu_cpu and load_balance", swept.rows[0].metrics),
        ("PerfMetrics with load_balance only", balanced),
        ("PerfMetrics with notes", noted),
        ("PerfMetrics, performance None", PerfMetrics()),
        ("PerfMetrics, non-finite", PerfMetrics(math.inf, math.nan, -math.inf)),
        ("PowerReading", inputs[0].power),
        ("PredictedRun", predict_run(SyntheticNodeProfile(), node, config, Workload())),
        ("Run", Run(0, config, error="boom")),
        ("RunManifest", manifest),
        ("ScalingPoint", ScalingPoint(1, 2.5)),
        ("ScalingSeries", ScalingSeries("a", (ScalingPoint(1, 2.5), ScalingPoint(2, 4.0)))),
        ("ScalingSeries, empty", ScalingSeries("a", ())),
        ("SweepOptions", manifest.sweep),
        ("SweepResult", swept),
        ("SweepResult with failures and no best",
         SweepResult(swept.rows, [failure, failure], None)),
        ("SweepResult, empty", SweepResult([], [], None)),
        ("SweepRow with advisories", swept.rows[1]),
        ("SyntheticNodeProfile", SyntheticNodeProfile(app_clock_mhz=875.0)),
        ("Workload", Workload()),
    ]


INSTANCES = dict(_instances())


class TestDumpsWritesRecords:
    """``dumps`` writes a record, wherever it is, as the text of its ``to_doc``."""

    def test_every_record_class_has_an_instance(self):
        assert {type(r) for r in INSTANCES.values()} == set(RECORDS)

    @pytest.mark.parametrize("record", INSTANCES.values(), ids=INSTANCES.keys())
    def test_as_its_document(self, record):
        text = dumps(record)
        assert text == dumps(to_doc(record))
        assert text == json.dumps(to_doc(record), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_every_field_none(self, cls):
        record = tuple.__new__(cls, [None] * len(cls._fields))  # no check: any record will do
        assert dumps(record) == dumps(to_doc(record))

    def test_in_containers(self):
        records = list(INSTANCES.values())
        for doc, as_docs in [
            (records, [to_doc(r) for r in records]),
            ([None, records[0], None], [None, to_doc(records[0]), None]),
            ({"a": records[0], "b": (records[1],)}, {"a": to_doc(records[0]),
                                                     "b": [to_doc(records[1])]}),
        ]:
            assert dumps(doc) == json.dumps(as_docs, indent=2, sort_keys=True) + "\n"

    def test_non_finite_numbers(self):
        assert dumps(INSTANCES["GpuCpuRatio"]) == (
            '{\n  "cpu_ms": Infinity,\n  "gpu_ms": NaN,\n  "ratio": -Infinity\n}\n')

    def test_an_untyped_namedtuple_is_written_by_field_name(self):
        point = collections.namedtuple("Point", "x y")(1, [2.5])
        assert dumps(point) == dumps(to_doc(point)) == '{\n  "x": 1,\n  "y": [\n    2.5\n  ]\n}\n'

    @pytest.mark.parametrize("record", [
        Advisory(object(), "text"),
        Failure(LaunchConfig(n_rank=2), b"bytes"),
        ScalingSeries("a", {ScalingPoint(1, 2.5)}),
    ], ids=["object", "bytes", "set"])
    def test_a_value_that_is_not_json_raises_type_error(self, record):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dumps(record)


# Sweep results with any floats (NaN and infinities too), any text, and every
# optional part present or absent; a cutoff setting may lose every field.
floats = st.floats(allow_nan=True, allow_infinity=True)
maybe = st.none() | floats
texts = st.text(st.characters(exclude_categories=()), max_size=8)
grids = st.none() | st.tuples(*[st.integers(1, 200)] * 3)
notes = st.lists(st.builds(Advisory, texts, texts), max_size=2).map(tuple)
configs = st.builds(
    LaunchConfig, n_rank=st.integers(2, 64), n_th=st.integers(0, 16), n_pme=st.integers(0, 1),
    n_th_pme=st.none() | st.integers(1, 8), dlb=st.sampled_from(["on", "off", "auto"]),
    gpu_id=st.sampled_from(["", "0", "0011"]), use_ht=st.booleans(),
    nstlist=st.none() | st.integers(1, 200), dd_grid=grids, nodes=st.integers(1, 4))
settings = st.none() | st.builds(CutoffSetting, maybe, maybe, grids, maybe, maybe)
load_balances = st.builds(ParsedLoadBalance, settings, settings, maybe, maybe)
metrics = st.builds(PerfMetrics, maybe, maybe, maybe,
                    st.none() | st.builds(GpuCpuRatio, floats, floats, floats),
                    st.none() | load_balances, notes)
rows = st.builds(SweepRow, configs, floats, floats, st.integers(1, 5), metrics, notes)
results = st.builds(SweepResult, st.lists(rows, max_size=3),
                    st.lists(st.builds(Failure, configs, texts), max_size=2),
                    st.none() | st.integers(0, 2))


@given(results)
def test_generated_sweep_results(result):
    text = dumps(result)
    assert text == dumps(to_doc(result))
    assert text == json.dumps(to_doc(result), indent=2, sort_keys=True) + "\n"

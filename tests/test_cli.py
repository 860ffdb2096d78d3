import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import benchdata as bd
from mdtune.cli import main
from mdtune.launch import load_plan
from mdtune.wire import validate

from conftest import DATA

MANIFEST = str(DATA / "manifest_mem.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def econ_rows_file(tmp_path):
    rows = []
    for label, perf, kwh, active, idle, cost in bd.CONSUMPTION_METER_RIB:
        rows.append(
            {
                "label": label,
                "performance_ns_day": perf,
                "node_cost_eur": cost,
                "power": {
                    "kind": "meter_kwh_per_300s",
                    "value": kwh,
                    "gpus_installed": bd.CONSUMPTION_GPUS_INSTALLED,
                    "gpus_active": active,
                    "idle_gpu_power_w": idle,
                },
                "perf_per_price": perf / (cost / bd.RIB_PRICE_NORMALIZER_EUR),
                "rack_units": 4,
            }
        )
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"rows": rows}))
    return str(path)


class TestPlan:
    def test_writes_plan_and_script(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        script_path = tmp_path / "plan.sh"
        code, _, _ = run_cli(capsys, "plan", "--manifest", MANIFEST,
                             "--out", str(plan_path), "--script", str(script_path))
        assert code == 0
        configs = load_plan(plan_path)
        assert configs
        # the GPU node's plan carries interleaved mesh-rank variants
        assert any(c.n_pme > 0 and c.gpu_id == "01" for c in configs)
        script = script_path.read_text()
        assert len(script.strip().splitlines()) == len(configs)
        assert "-nsteps 5000" in script
        assert "-resetstep 1000" in script

    @pytest.mark.parametrize("manifest", [MANIFEST, str(DATA / "golden" / "manifest_cpu.json")])
    def test_written_plan_validates(self, capsys, manifest):
        code, out, _ = run_cli(capsys, "plan", "--manifest", manifest)
        assert code == 0
        validate(json.loads(out), "plan")

    def test_dry_run_prints_commands_only(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "plan", "--manifest", MANIFEST, "--dry-run")
        assert code == 0
        assert out.splitlines()[0].startswith("mdrun -ntmpi")
        assert not (tmp_path / "plan.json").exists()

    def test_idempotent(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(capsys, "plan", "--manifest", MANIFEST, "--out", str(a))
        run_cli(capsys, "plan", "--manifest", MANIFEST, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_node_is_user_error(self, tmp_path, capsys):
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        del doc["node"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "plan", "--manifest", str(bad))
        assert code == 1
        assert "node" in err


class TestSweep:
    def test_synthetic_sweep_to_json(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code, _, _ = run_cli(capsys, "sweep", "--manifest", MANIFEST,
                             "--executor", "synthetic", "--out", str(out),
                             "--format", "json")
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rows"]
        assert doc["best_index"] is not None

    def test_markdown_report_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--manifest", MANIFEST,
                               "--format", "md")
        assert code == 0
        golden = (DATA / "golden_sweep_report.md").read_text()
        assert out == golden

    def test_byte_idempotent(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "sweep", "--manifest", MANIFEST, "--out", str(a),
                "--format", "json")
        run_cli(capsys, "sweep", "--manifest", MANIFEST, "--out", str(b),
                "--format", "json")
        assert a.read_bytes() == b.read_bytes()

    def test_dry_run_prints_commands(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--manifest", MANIFEST, "--dry-run")
        assert code == 0
        assert all(line.startswith(("mdrun", "mpirun")) for line in out.strip().splitlines())

    def test_shell_executor_with_stub_engine(self, tmp_path, capsys):
        import stat

        canned = (DATA / "si_pme_balanced.log").read_text()
        src = tmp_path / "canned.log"
        src.write_text(canned)
        engine = tmp_path / "fake_mdrun"
        engine.write_text(f"#!/bin/sh\ncat {src} > md.log\n")
        engine.chmod(engine.stat().st_mode | stat.S_IEXEC)
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        doc["engine"] = {"mdrun": str(engine)}
        doc["node"]["gpus"] = []
        doc["sweep"] = {"ht": [False], "pme_variants": False, "repeats": 1}
        manifest = tmp_path / "shell.json"
        manifest.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "sweep", "--manifest", str(manifest),
                               "--executor", "shell",
                               "--workdir", str(tmp_path / "runs"),
                               "--format", "csv")
        assert code == 0
        assert "26.0" in out
        assert (tmp_path / "runs").exists()

    def test_plan_may_use_any_gpu_subset(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            [{"n_rank": 2, "n_th": 10, "gpu_id": gpu_id, "nstlist": 40} for gpu_id in ("00", "11")]
            + [{"n_rank": 1, "n_th": 20, "gpu_id": "1", "nstlist": 40}]))
        code, out, _ = run_cli(capsys, "sweep", "--manifest", MANIFEST, "--plan", str(plan),
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == []
        perf = {row["config"]["gpu_id"]: row["mean_performance_ns_day"] for row in doc["rows"]}
        assert sorted(perf) == ["00", "1", "11"]
        assert perf["11"] == perf["00"]

    def test_config_listed_twice_gives_one_row_per_plan_entry(self, tmp_path, capsys):
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        doc["sweep"]["nstlist"] = [40, 40]
        manifest = tmp_path / "twice.json"
        manifest.write_text(json.dumps(doc))
        code, plan, _ = run_cli(capsys, "plan", "--manifest", str(manifest))
        assert code == 0
        code, out, _ = run_cli(capsys, "sweep", "--manifest", str(manifest),
                               "--repeats", "1", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["config"] for row in rows] == json.loads(plan)
        assert len(rows) == 56 and len({json.dumps(row["config"]) for row in rows}) == 28
        assert {row["repeats"] for row in rows} == {1}

    @pytest.mark.parametrize("out", ["{tmp}", "{tmp}/missing/result.json"],
                             ids=["directory", "missing parent"])
    def test_unwritable_out_fails_before_any_run(self, tmp_path, capsys, out):
        marker = tmp_path / "marker"
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        doc["engine"] = {"mdrun": f"echo run >> {marker}; true"}
        manifest = tmp_path / "shell.json"
        manifest.write_text(json.dumps(doc))
        code, stdout, err = run_cli(capsys, "sweep", "--manifest", str(manifest),
                                    "--executor", "shell", "--workdir", str(tmp_path / "runs"),
                                    "--format", "json", "--out", out.format(tmp=tmp_path))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not marker.exists()

    def test_existing_out_kept_until_the_result_is_written(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        out.write_text("an earlier result\n")
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"cpu_rate": "fast"}))
        code, _, _ = run_cli(capsys, "sweep", "--manifest", MANIFEST, "--profile", str(profile),
                             "--format", "json", "--out", str(out))
        assert code == 1
        assert out.read_text() == "an earlier result\n"

    def test_out_dash_is_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--manifest", MANIFEST,
                               "--format", "json", "--out", "-")
        assert code == 0
        assert json.loads(out)["rows"]

    @pytest.mark.parametrize("fmt", ["table", "md", "csv"])
    def test_out_dash_takes_json_only(self, tmp_path, capsys, fmt):
        # the result JSON and the table would both go to stdout
        marker = tmp_path / "marker"
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        doc["engine"] = {"mdrun": f"echo run >> {marker}; true"}
        manifest = tmp_path / "shell.json"
        manifest.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "sweep", "--manifest", str(manifest),
                                 "--executor", "shell", "--workdir", str(tmp_path / "runs"),
                                 "--out", "-", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == ("error: --out - writes the result JSON to stdout; "
                       f"it takes --format json, not {fmt}\n")
        assert not marker.exists()

    def test_custom_synthetic_profile(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"cpu_rate": 1e6, "gpu_rate": 2e7}))
        code, out, _ = run_cli(capsys, "sweep", "--manifest", MANIFEST,
                               "--profile", str(profile), "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) > 1

    def test_advisories_do_not_change_exit_code(self, tmp_path, capsys):
        # CPU-only manifest whose sweep hits mesh-rank overprovisioning
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        doc["node"]["gpus"] = []
        manifest = tmp_path / "cpu.json"
        manifest.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "sweep", "--manifest", str(manifest),
                               "--format", "csv")
        assert code == 0
        assert "pme_overprovisioned" in out

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_below_one_rejected(self, capsys, repeats):
        code, out, err = run_cli(capsys, "sweep", "--manifest", MANIFEST,
                                 "--repeats", repeats)
        assert (code, out, err) == (1, "", "error: repeats must be >= 1\n")


class TestParseLog:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "parse-log",
                               str(DATA / "si_pme_imbalance.log"))
        assert code == 0
        doc = json.loads(out)
        assert doc["pme_mesh_force_load"] == 0.625
        assert doc["pp_pme_wait_pct"] == 8.3

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "parse-log",
                               str(DATA / "si_gpu_force.log"),
                               str(DATA / "si_pme_balanced.log"),
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "0.683" in lines[1]

    def test_missing_file_is_error(self, capsys):
        code, _, err = run_cli(capsys, "parse-log", "nope.log")
        assert code == 1
        assert "nope.log" in err

    def test_log_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.log"
        path.write_bytes(b" Performance:   12.0   2.0\n\xff\n")
        code, out, err = run_cli(capsys, "parse-log", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["performance_ns_day"] == 12.0

    def test_number_that_overflows_a_float_is_error(self, tmp_path, capsys):
        # it parsed to inf, printed as "performance_ns_day": Infinity (not JSON)
        path = tmp_path / "huge.log"
        path.write_text(f" Performance:   {'9' * 400}\n")
        code, out, err = run_cli(capsys, "parse-log", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "performance overflows a float" in err
        assert "Traceback" not in err

    def test_grid_count_too_long_for_an_int_is_error(self, tmp_path, capsys):
        # int() of the count raised a bare ValueError: a traceback
        path = tmp_path / "long.log"
        text = (DATA / "si_load_balance.log").read_text()
        path.write_text(text.replace("144 144 144", f"{'1' * 5000} 144 144"))
        code, out, err = run_cli(capsys, "parse-log", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: PME grid has too many digits: 1111")
        assert err.count("\n") == 1

    def test_failing_log_named_among_several(self, tmp_path, capsys):
        bad = tmp_path / "bad.log"
        bad.write_text(" Performance:   1,5\n")
        code, out, err = run_cli(capsys, "parse-log", str(DATA / "si_load_balance.log"), str(bad))
        assert (code, out) == (1, "")
        assert err == (f"error: {bad}: malformed performance: '1,5' (only '.' decimal "
                       "separators are accepted) (character offset 16)\n")


class TestAnalyzeCosts:
    def test_markdown_table(self, econ_rows_file, capsys):
        code, out, _ = run_cli(capsys, "analyze-costs", "--rows", econ_rows_file)
        assert code == 0
        assert "| 2xE5-2670v2 | 1.38 | 2.52 | 264 | 2313 | 3360 |" in out
        assert "444" in out

    def test_json_full_precision(self, econ_rows_file, capsys):
        code, out, _ = run_cli(capsys, "analyze-costs", "--rows", econ_rows_file,
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        cpu = next(r for r in rows if r["label"] == "2xE5-2670v2")
        assert cpu["production_us"] == pytest.approx(2.5185)

    def test_csv(self, econ_rows_file, capsys):
        code, out, _ = run_cli(capsys, "analyze-costs", "--rows", econ_rows_file,
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("hardware,")


class TestScaling:
    def test_efficiency_table(self, tmp_path, capsys):
        doc = {
            "series": [
                {
                    "label": label,
                    "points": [{"nodes": n, "performance_ns_day": p}
                               for n, p in points],
                }
                for label, points in bd.SCALING_MEM[:1]
            ]
        }
        rows = tmp_path / "scaling.json"
        rows.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "scaling", "--rows", str(rows))
        assert code == 0
        assert "| 2 | 27.218 | 0.66 |" in out

    def test_empty_series_is_error(self, tmp_path, capsys):
        doc = {"series": [*SERIES_DOC["series"], {"label": "b", "points": []}]}
        rows = tmp_path / "scaling.json"
        rows.write_text(json.dumps(doc))
        assert run_cli(capsys, "scaling", "--rows", str(rows)) == (
            1, "", "error: series.1.points: [] should be non-empty\n")


class TestRecommend:
    def test_default_ranks_by_yield(self, econ_rows_file, capsys):
        code, out, _ = run_cli(capsys, "recommend", "--rows", econ_rows_file)
        assert code == 0
        first = out.splitlines()[2]
        assert "2xE5-2670v2 + 980" in first

    def test_c1_weighting(self, econ_rows_file, capsys):
        code, out, _ = run_cli(capsys, "recommend", "--rows", econ_rows_file,
                               "--weights", "C1=1")
        assert code == 0
        # best performance-to-price row of the fixture set
        assert "980" in out.splitlines()[2]

    def test_missing_criterion_is_error(self, tmp_path, capsys):
        doc = {"rows": [{"label": "a", "performance_ns_day": 1.0,
                         "node_cost_eur": 100.0, "power_w": 100.0}]}
        rows = tmp_path / "rows.json"
        rows.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "recommend", "--rows", str(rows),
                               "--weights", "C1=1")
        assert code == 1
        assert "'a'" in err

    @pytest.mark.parametrize("weights, bad", [
        ("C1=x", "C1: 'x'"), ("C1=nan", "C1: 'nan'"), ("C4=inf", "C4: 'inf'"),
        ("C1=0.5,C4=-inf", "C4: '-inf'"),
    ])
    def test_weight_that_is_not_a_finite_number(self, econ_rows_file, capsys, weights, bad):
        code, out, err = run_cli(capsys, "recommend", "--rows", econ_rows_file,
                                 "--weights", weights)
        assert (code, out) == (1, "")
        assert err == f"error: weight {bad} is not a finite number\n"

    @pytest.mark.parametrize("weights", [",", "", "C1=0"], ids=["comma", "empty", "zero"])
    def test_weights_that_name_no_criterion(self, econ_rows_file, capsys, weights):
        # "," and "" printed the default C4 ranking and exited 0
        code, out, err = run_cli(capsys, "recommend", "--rows", econ_rows_file,
                                 "--weights", weights)
        assert (code, out) == (1, "")
        assert err == "error: no criterion has a non-zero weight\n"


class TestMultiPlan:
    def test_five_replicas(self, capsys):
        code, out, err = run_cli(capsys, "multi-plan", "--manifest", MANIFEST,
                                 "--replicas", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["threads_per_replica"] == 8
        assert doc["per_replica_gpu_id"] == "00011"

    def test_leftover_reported_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "multi-plan", "--manifest", MANIFEST,
                                 "--replicas", "3")
        assert code == 0
        assert "idle" in err

    @pytest.mark.parametrize("nodes, placement", [("0", "interleaved"), ("-2", "dense")])
    def test_nodes_below_one_rejected(self, capsys, nodes, placement):
        code, out, err = run_cli(capsys, "multi-plan", "--manifest", MANIFEST,
                                 "-M", "4", "--nodes", nodes, "--placement", placement)
        assert (code, out, err) == (1, "", "error: nodes must be >= 1\n")


ROWS_DOC = {"rows": [{"label": "a", "performance_ns_day": 1.0, "node_cost_eur": 100,
                      "power_w": 100.0, "perf_per_price": 1.0}]}
SERIES_DOC = {"series": [{"label": "a", "points": [{"nodes": 1, "performance_ns_day": 1.0}]}]}
# command -> (valid document, the object inside it that the cases edit, its path)
INPUT_ERROR_CASES = {
    "analyze-costs": (ROWS_DOC, lambda d: d["rows"][0], "rows.0"),
    "recommend": (ROWS_DOC, lambda d: d["rows"][0], "rows.0"),
    "scaling": (SERIES_DOC, lambda d: d["series"][0]["points"][0], "series.0.points.0"),
}


class TestInputErrors:
    """A bad --rows document gives exit 1 and a single error line that names
    the field path, never a traceback."""

    def run_with(self, capsys, tmp_path, command, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, "--rows", str(path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        return err

    @pytest.mark.parametrize("command", sorted(INPUT_ERROR_CASES))
    def test_valid_document_accepted(self, tmp_path, capsys, command):
        doc, _, _ = INPUT_ERROR_CASES[command]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, command, "--rows", str(path))[0] == 0

    @pytest.mark.parametrize("command", sorted(INPUT_ERROR_CASES))
    def test_missing_field(self, tmp_path, capsys, command):
        doc, edited, path = INPUT_ERROR_CASES[command]
        doc = copy.deepcopy(doc)
        field = "node_cost_eur" if command != "scaling" else "performance_ns_day"
        del edited(doc)[field]
        err = self.run_with(capsys, tmp_path, command, json.dumps(doc))
        assert f"{path}.{field}: missing required field" in err

    @pytest.mark.parametrize("command", sorted(INPUT_ERROR_CASES))
    def test_unknown_field(self, tmp_path, capsys, command):
        doc, edited, path = INPUT_ERROR_CASES[command]
        doc = copy.deepcopy(doc)
        edited(doc)["node_costs"] = 1
        err = self.run_with(capsys, tmp_path, command, json.dumps(doc))
        assert f"{path}: " in err
        assert "'node_costs'" in err

    @pytest.mark.parametrize("command", sorted(INPUT_ERROR_CASES))
    def test_not_json(self, tmp_path, capsys, command):
        err = self.run_with(capsys, tmp_path, command, "{not json")
        assert "doc.json: not valid JSON" in err


class TestPlanAndProfileErrors:
    """A bad sweep --plan or --profile document gives exit 1 and a single
    error line, never a traceback or a silently changed config."""

    def run_with(self, capsys, tmp_path, option, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "sweep", "--manifest", MANIFEST, option, str(path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        return err

    @pytest.mark.parametrize("option", ["--plan", "--profile"])
    def test_not_json(self, tmp_path, capsys, option):
        err = self.run_with(capsys, tmp_path, option, "{not json")
        assert "doc.json: not valid JSON" in err

    def test_misspelled_plan_key(self, tmp_path, capsys):
        err = self.run_with(capsys, tmp_path, "--plan", '[{"n_rank": 4, "n_thr": 2}]')
        assert err.startswith("error: 0: ")
        assert "'n_thr'" in err

    @pytest.mark.parametrize("field, value", [("n_th", -1), ("n_th_pme", 0), ("nstlist", -10)])
    def test_out_of_range_plan_field(self, tmp_path, capsys, field, value):
        doc = [{"n_rank": 4, "n_pme": 2, field: value}]
        err = self.run_with(capsys, tmp_path, "--plan", json.dumps(doc))
        assert err.startswith(f"error: 0.{field}: ")

    def test_profile_rate_not_a_number(self, tmp_path, capsys):
        err = self.run_with(capsys, tmp_path, "--profile", '{"cpu_rate": "x"}')
        assert err.startswith("error: cpu_rate: ")

    def test_unknown_profile_field(self, tmp_path, capsys):
        err = self.run_with(capsys, tmp_path, "--profile", '{"cpu_rat": 1e6}')
        assert "'cpu_rat'" in err


class TestEmptyLists:
    """An empty sweep list or plan is refused. It swept nothing, or on a GPU
    node an empty ``dlb`` list dropped layouts, and the sweep exited 0."""

    @pytest.mark.parametrize("field", ["nstlist", "dlb", "ht"])
    @pytest.mark.parametrize("command", ["plan", "sweep"])
    def test_sweep_list(self, tmp_path, capsys, command, field):
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        doc["sweep"][field] = []
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, command, "--manifest", str(path)) == (
            1, "", f"error: sweep.{field}: [] should be non-empty\n")

    def test_plan(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text("[]")
        assert run_cli(capsys, "sweep", "--manifest", MANIFEST, "--plan", str(path)) == (
            1, "", "error: (root): [] should be non-empty\n")


class TestNstlistBound:
    """GROMACS reads ``-nstlist`` as a C int. A larger value raised
    OverflowError out of the synthetic model instead of an error line."""

    BIG = 10**400

    def test_manifest(self, tmp_path, capsys):
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        doc["sweep"]["nstlist"] = [10, self.BIG]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "sweep", "--manifest", str(path)) == (
            1, "", f"error: sweep.nstlist.1: {self.BIG} is greater than the maximum of "
                   "2147483647\n")

    @pytest.mark.parametrize("nstlist", [2**31, BIG], ids=["2**31", "10**400"])
    def test_plan(self, tmp_path, capsys, nstlist):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps([{"n_rank": 4, "n_th": 2, "nstlist": nstlist}]))
        assert run_cli(capsys, "sweep", "--manifest", MANIFEST, "--plan", str(path)) == (
            1, "", f"error: 0.nstlist: {nstlist} is greater than the maximum of 2147483647\n")

    def test_largest_c_int_is_swept(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps([{"n_rank": 4, "n_th": 2, "nstlist": 2**31 - 1}]))
        code, out, err = run_cli(capsys, "sweep", "--manifest", MANIFEST, "--plan", str(path),
                                 "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["rows"][0]["config"]["nstlist"] == 2**31 - 1


class TestIntegralFloats:
    """An integer field given as 4.0 is rejected, not echoed into a command
    line as ``-ntmpi 4.0``."""

    def test_plan(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text('[{"n_rank": 4.0, "n_th": 2}]')
        code, out, err = run_cli(capsys, "sweep", "--manifest", MANIFEST, "--plan", str(path),
                                 "--dry-run")
        assert (code, out) == (1, "")
        assert err == "error: 0.n_rank: 4.0 is not of type 'integer'\n"

    def test_manifest(self, tmp_path, capsys):
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        doc["sweep"]["repeats"] = 2.0
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "sweep", "--manifest", str(path))
        assert (code, out) == (1, "")
        assert err == "error: sweep.repeats: 2.0 is not of type 'integer'\n"

    @pytest.mark.parametrize("command", ["plan", "sweep"])
    def test_threads_per_core(self, tmp_path, capsys, command):
        # 2.0 equals the enum member 2, and range(2.0) raised a TypeError
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        doc["node"]["cpu"]["hardware_threads_per_core"] = 2.0
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--manifest", str(path))
        assert (code, out) == (1, "")
        assert err == "error: node.cpu.hardware_threads_per_core: 2.0 is not of type 'integer'\n"


class TestUnreadManifestField:
    """A manifest field that no command reads is refused, not accepted and dropped."""

    def test_cluster_network_cost(self, tmp_path, capsys):
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        doc["cluster"] = {"node_count": 2, "per_node_network_cost": 600}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "plan", "--manifest", str(path))
        assert (code, out) == (1, "")
        assert err == ("error: cluster: Additional properties are not allowed "
                       "('per_node_network_cost' was unexpected)\n")

    @pytest.mark.parametrize("where, field, value", [
        ("node", "interconnect_detail", "FDR-14 InfiniBand"),
        ("node", "idle_power_w", 180),
        ("node.gpus.0", "supports_app_clocks", True),
    ])
    def test_deleted_node_field(self, tmp_path, capsys, where, field, value):
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        target = doc["node"] if where == "node" else doc["node"]["gpus"][0]
        target[field] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "sweep", "--manifest", str(path))
        assert (code, out) == (1, "")
        assert err == (f"error: {where}: Additional properties are not allowed "
                       f"('{field}' was unexpected)\n")


class TestNonFiniteNumbers:
    """NaN and Infinity are not JSON numbers: a document with one gives one
    error line that names the field, never a traceback or an infinite node."""

    def run_with(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("text, field", [('{"max_balance": NaN}', "max_balance"),
                                             ('{"gpu_rate": Infinity}', "gpu_rate"),
                                             ('{"cpu_rate": -1e999}', "cpu_rate")])
    def test_profile(self, tmp_path, capsys, text, field):
        path = tmp_path / "profile.json"
        path.write_text(text)
        err = self.run_with(capsys, "sweep", "--manifest", MANIFEST, "--profile", str(path))
        assert err == f"error: {field}: not a finite number\n"

    def test_manifest(self, tmp_path, capsys):
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        doc["workload"]["rc0_nm"] = float("nan")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        err = self.run_with(capsys, "sweep", "--manifest", str(path))
        assert err == "error: workload.rc0_nm: not a finite number\n"

    @pytest.mark.parametrize("command", ["analyze-costs", "recommend"])
    def test_rows(self, tmp_path, capsys, command):
        doc = copy.deepcopy(ROWS_DOC)
        doc["rows"][0]["power_w"] = float("inf")
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(doc))
        err = self.run_with(capsys, command, "--rows", str(path))
        assert err == "error: rows.0.power_w: not a finite number\n"


def nested(depth: int, kind: str) -> str:
    """JSON text of ``depth`` arrays, or objects, each in the one before."""
    if kind == "array":
        return "[" * depth + "]" * depth
    return '{"a": ' * depth + "1" + "}" * depth


class TestDeepNesting:
    """A document nested deeper than ``json`` or a message can recurse gives
    one error line, not a RecursionError traceback."""

    @pytest.mark.parametrize("argv", [["sweep", "--manifest"], ["analyze-costs", "--rows"],
                                      ["sweep", "--manifest", MANIFEST, "--plan"],
                                      ["sweep", "--manifest", MANIFEST, "--profile"]],
                             ids=["manifest", "rows", "plan", "profile"])
    def test_100000_levels(self, tmp_path, capsys, argv):
        path = tmp_path / "deep.json"
        path.write_text(nested(100_000, "array"))
        assert run_cli(capsys, *argv, str(path)) == (
            1, "", f"error: {path}: not valid JSON: nested more than 100 levels deep\n")

    @pytest.mark.parametrize("kind", ["array", "object"])
    def test_depths_near_the_recursion_limit(self, tmp_path, capsys, kind):
        path = tmp_path / "deep.json"
        for depth in range(900, 1101):
            path.write_text(nested(depth, kind))
            assert run_cli(capsys, "sweep", "--manifest", str(path)) == (
                1, "", f"error: {path}: not valid JSON: nested more than 100 levels deep\n")

    @pytest.mark.parametrize("kind", ["array", "object"])
    def test_100_levels_are_read(self, tmp_path, capsys, kind):
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        doc["workload"] = json.loads(nested(99, kind))  # in the manifest's object: 100
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "sweep", "--manifest", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: workload: ") and len(err.splitlines()) == 1


def workload_manifest(tmp_path, **workload):
    doc = json.loads((DATA / "manifest_mem.json").read_text())
    doc["workload"].update(workload)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestWorkloadLimits:
    """Workload values the schema let through, which hung or crashed the
    synthetic sweep, give one error line."""

    MESH_ERROR = "error: workload: box_nm / spacing0_nm exceeds 10000 mesh points\n"

    def test_fine_spacing_does_not_hang(self, tmp_path):
        # The FFT-friendly size search walked up to 10^301 mesh points.
        manifest = workload_manifest(tmp_path, spacing0_nm=1e-300)
        proc = subprocess.run([sys.executable, "-m", "mdtune.cli", "sweep", "--manifest",
                               manifest], capture_output=True, text=True, timeout=30,
                              env=os.environ | {"PYTHONPATH": str(DATA.parent.parent / "src")})
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", self.MESH_ERROR)

    def test_box_beyond_the_mesh_limit(self, tmp_path, capsys):
        manifest = workload_manifest(tmp_path, box_nm=[1e308, 10, 10])
        assert run_cli(capsys, "sweep", "--manifest", manifest) == (1, "", self.MESH_ERROR)

    def test_box_at_the_mesh_limit_sweeps(self, tmp_path, capsys):
        manifest = workload_manifest(tmp_path, box_nm=[1200, 1200, 1200], spacing0_nm=0.12)
        code, out, err = run_cli(capsys, "sweep", "--manifest", manifest, "--format", "csv")
        assert (code, err) == (0, "") and len(out.splitlines()) == 29

    def test_atoms_beyond_a_float(self, tmp_path, capsys):
        manifest = workload_manifest(tmp_path, atoms=10**400)
        assert run_cli(capsys, "sweep", "--manifest", manifest) == (
            1, "", f"error: workload.atoms: {10**400} is greater than the maximum of 1e+308\n")


class TestProfileCapacity:
    """A huge profile factor underflows the synthetic CPU or GPU capacity of
    some configs to 0.0, a huge rate overflows it, and a profile can leave
    the PP ranks no work: each such run is a recorded failure, where the
    sweep ended in ZeroDivisionError."""

    @pytest.mark.parametrize("field, kind, keeps", [
        ("thread_efficiency_decay", "CPU", lambda config: config["n_th"] == 1),
        ("gpu_share_overhead", "GPU", lambda config: len(config["gpu_id"]) == 2),
    ], ids=["thread_efficiency_decay", "gpu_share_overhead"])
    def test_huge_factor_records_failures(self, tmp_path, capsys, field, kind, keeps):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({field: 1e308}))
        code, out, err = run_cli(capsys, "sweep", "--manifest", MANIFEST, "--profile",
                                 str(profile), "--format", "json", "--out", "-")
        assert (code, err) == (0, "")
        result = json.loads(out)
        assert result["rows"] and result["failures"]
        assert {f["error"] for f in result["failures"]} == {
            f"the synthetic {kind} capacity is not positive: 0.0"}
        # one thread per rank, or one PP rank per GPU, keeps its capacity
        assert any(keeps(row["config"]) for row in result["rows"])

    @pytest.mark.parametrize("field", ["rank_overhead", "nstlist_penalty"])
    def test_step_time_that_is_not_finite_records_failures(self, tmp_path, capsys, field):
        # the rate read 0.0 ns/day, and each run was recorded as a log with a
        # "non-positive performance 0.0" at some character offset
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({field: 1e308}))
        code, out, err = run_cli(capsys, "sweep", "--manifest", MANIFEST, "--profile",
                                 str(profile), "--format", "json", "--out", "-")
        assert (code, err) == (0, "")
        result = json.loads(out)
        assert result["rows"] == [] and result["best_index"] is None
        assert {f["error"] for f in result["failures"]} == {
            "the synthetic step time is not finite: inf s"}

    @pytest.mark.parametrize("profile, error", [
        ({"cpu_rate": 1e308}, "the synthetic CPU capacity is not finite: inf"),
        ({"offload_fraction_base": 0, "pme_fraction_base": 1},
         "the synthetic PP ranks have no work to do: 0.0 s"),
        ({"offload_fraction_base": 1e-310, "pme_fraction_base": 1},
         "the synthetic PME mesh/force load is not finite: inf"),
    ], ids=["cpu_rate", "no_pp_work", "subnormal_pp_work"])
    def test_cpu_only_node_records_failures(self, tmp_path, capsys, profile, error):
        # the first two ended the sweep in ZeroDivisionError at the mesh/force
        # load of a config with separate PME ranks; a subnormal PP time
        # overflowed that load, and the run was recorded as a log with a
        # "malformed PME mesh/force load: 'inf'"
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        doc["node"]["gpus"] = []
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        (tmp_path / "profile.json").write_text(json.dumps(profile))
        code, out, err = run_cli(capsys, "sweep", "--manifest", str(tmp_path / "manifest.json"),
                                 "--profile", str(tmp_path / "profile.json"),
                                 "--format", "json", "--out", "-")
        assert (code, err) == (0, "")
        result = json.loads(out)
        assert {f["error"] for f in result["failures"]} == {error}
        if "cpu_rate" in profile:  # every config uses more than one core
            assert result["rows"] == [] and result["best_index"] is None
        else:  # the configs without separate PME ranks run
            assert result["rows"]
            assert {row["config"]["n_pme"] for row in result["rows"]} == {0}
            assert all(f["config"]["n_pme"] for f in result["failures"])


class TestZeroTotalCost:
    """A row with no node cost and no power draw, or with a cost beyond a
    float, has no finite yield: every format rejects it with an error line
    that names the row."""

    FREE_ROW = {"label": "free", "performance_ns_day": 10.0, "node_cost_eur": 0, "power_w": 0}

    def run_with(self, capsys, tmp_path, doc, *argv):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *argv, "--rows", str(path))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("argv", [["analyze-costs", "--format", fmt]
                                      for fmt in ("md", "csv", "json")] + [["recommend"]])
    def test_rejected(self, tmp_path, capsys, argv):
        doc = {"rows": [*ROWS_DOC["rows"], self.FREE_ROW]}
        err = self.run_with(capsys, tmp_path, doc, *argv)
        assert err.startswith("error: row 'free': total cost (0 EUR)")

    def test_production_that_rounds_to_zero(self, tmp_path, capsys):
        # 0.002 ns/day for 5 years prints as 0.00 us, the table's divisor
        doc = {"rows": [dict(self.FREE_ROW, performance_ns_day=0.002, node_cost_eur=100)]}
        err = self.run_with(capsys, tmp_path, doc, "analyze-costs")
        assert err.startswith("error: row 'free': ")
        assert "production (0 us)" in err

    @pytest.mark.parametrize("argv", [["analyze-costs", "--format", fmt]
                                      for fmt in ("md", "csv", "json")] + [["recommend"]])
    def test_energy_cost_overflows(self, tmp_path, capsys, argv):
        # a finite meter reading whose lifetime energy cost is beyond a float
        hot = dict(self.FREE_ROW, label="hot", node_cost_eur=100,
                   power={"kind": "meter_kwh_per_300s", "value": 1e300})
        del hot["power_w"]
        doc = {"rows": [*ROWS_DOC["rows"], hot]}
        err = self.run_with(capsys, tmp_path, doc, *argv)
        assert err.startswith("error: row 'hot': total cost (inf EUR)")

    def test_zero_lifetime(self, tmp_path, capsys):
        doc = {"econ": {"lifetime_years": 0}, "rows": ROWS_DOC["rows"]}
        err = self.run_with(capsys, tmp_path, doc, "analyze-costs", "--format", "json")
        assert err.startswith("error: econ.lifetime_years: ")


class TestQuotientOverflow:
    """A row whose total cost and production are finite, but whose cost per
    us or yield is not, gives one error line that names the row in every
    format, not a traceback or ``Infinity`` in a JSON document."""

    GOLDEN_ROWS = json.loads((DATA / "golden" / "rows.json").read_text())
    FORMATS = [["analyze-costs", "--format", fmt] for fmt in ("md", "csv", "json")] + [
        ["analyze-costs", "--yield-unit", "us"], ["recommend"]]

    @pytest.mark.parametrize("argv", FORMATS)
    @pytest.mark.parametrize("index, edit", [
        (0, {"node_cost_eur": 1e308, "performance_ns_day": 0.01}),  # cost per us
        (2, {"node_cost_eur": 1e-306, "power_w": 0}),  # yield
        (2, {"node_cost_eur": 1e-321, "power_w": 0}),  # total / 1000 rounds to 0
    ], ids=["cost-per-us", "yield", "yield-divisor"])
    def test_error_line(self, tmp_path, capsys, argv, index, edit):
        doc = copy.deepcopy(self.GOLDEN_ROWS)
        doc["rows"][index].update(edit)
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *argv, "--rows", str(path))
        assert (code, out) == (1, "")
        label = doc["rows"][index]["label"]
        assert err.startswith(f"error: row {label!r}: the cost per us and the yield of ")
        assert err.count("\n") == 1


class TestPathIsADirectory:
    """A path that names a directory gives one error line, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["parse-log", "{dir}"],
        ["analyze-costs", "--rows", "{dir}"],
        ["sweep", "--manifest", "{dir}"],
        ["sweep", "--manifest", MANIFEST, "--format", "json", "--out", "{dir}"],
    ], ids=["parse-log", "analyze-costs --rows", "sweep --manifest", "sweep --out"])
    def test_error_line(self, tmp_path, capsys, argv):
        code, out, err = run_cli(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err


class TestRecordRuleErrors:
    """A rule a record checks itself (across its fields) gives one error line
    that names the record's path in the document."""

    def write(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("command", ["analyze-costs", "recommend"])
    def test_rows_power_reading(self, tmp_path, capsys, command):
        doc = json.loads((DATA / "golden" / "rows.json").read_text())
        doc["rows"][0]["power"].update(gpus_installed=1, gpus_active=2)
        code, out, err = run_cli(capsys, command, "--rows", self.write(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == "error: rows.0.power: gpus_active cannot exceed gpus_installed\n"

    @pytest.mark.parametrize("change, line", [
        (lambda row: row["power"].update(value=0.0001),
         "effective power came out negative (-46.8 W); reading inconsistent"),
        (lambda row: row["power"].pop("idle_gpu_power_w"),
         "2 idle GPU(s) installed but no idle_gpu_power_w declared"),
        (lambda row: row.pop("power"),
         "row '2xE5-2670v2 + 2x780Ti' declares no power reading"),
    ], ids=["negative", "idle-power", "no-power"])
    @pytest.mark.parametrize("command", ["analyze-costs", "recommend"])
    def test_rows_effective_power(self, tmp_path, capsys, command, change, line):
        """The effective power is the row's own rule, checked when the row is read."""
        doc = json.loads((DATA / "golden" / "rows.json").read_text())
        change(doc["rows"][0])
        code, out, err = run_cli(capsys, command, "--rows", self.write(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == f"error: rows.0: {line}\n"

    def test_plan_entry(self, tmp_path, capsys):
        plan = self.write(tmp_path, [{"n_rank": 2, "n_pme": 2}])
        code, out, err = run_cli(capsys, "sweep", "--manifest", MANIFEST, "--plan", plan)
        assert (code, out) == (1, "")
        assert err == "error: 0: n_pme must be in [0, n_rank)\n"

    @pytest.mark.parametrize("section, field, value, line", [
        ("node.gpus.0", "max_app_clock_mhz", 500,
         "node.gpus.0: GTX 980: max_app_clock_mhz below base clock"),
        ("workload", "reset_steps", 5000,
         "workload: benchmark_steps (5000) must exceed reset_steps (5000)"),
        ("sweep", "gpus_active", 3,
         "sweep.gpus_active: gpus_active (3) exceeds the node's 2 GPU(s)"),
    ], ids=["gpu", "workload", "gpus_active"])
    @pytest.mark.parametrize("command", ["plan", "sweep"])
    def test_manifest(self, tmp_path, capsys, command, section, field, value, line):
        doc = json.loads((DATA / "manifest_mem.json").read_text())
        target = doc
        for part in section.split("."):
            target = target[int(part)] if isinstance(target, list) else target[part]
        target[field] = value
        code, out, err = run_cli(capsys, command, "--manifest", self.write(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == f"error: {line}\n"


class TestEconNetworkCost:
    """``econ.per_node_network_cost_eur`` was accepted and read by no command."""

    @pytest.mark.parametrize("command, option, source", [
        ("analyze-costs", "--rows", DATA / "golden" / "rows.json"),
        ("plan", "--manifest", DATA / "manifest_mem.json"),
    ], ids=["rows", "manifest"])
    def test_refused(self, tmp_path, capsys, command, option, source):
        doc = json.loads(source.read_text())
        doc.setdefault("econ", {})["per_node_network_cost_eur"] = 1e6
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, option, str(path))
        assert (code, out) == (1, "")
        assert err == ("error: econ: Additional properties are not allowed "
                       "('per_node_network_cost_eur' was unexpected)\n")

import json

import pytest

from mdtune.errors import ManifestError
from mdtune.launch import LaunchConfig, plan_to_script
from mdtune.manifest import load_manifest, manifest_from_json

from conftest import DATA


@pytest.fixture
def manifest_doc():
    return json.loads((DATA / "manifest_mem.json").read_text())


class TestValidManifest:
    def test_loads_typed_pieces(self):
        m = load_manifest(DATA / "manifest_mem.json")
        assert m.workload.atoms == 81743
        assert m.workload.timestep_fs == 2.0
        assert m.node.n_gpus == 2
        assert m.node.cpu.total_cores == 20
        assert m.repeats == 2
        assert m.sweep.nstlist == (40,)
        assert m.econ.lifetime_years == 5
        # the workload carries the measurement window
        script = plan_to_script([LaunchConfig(n_rank=4)], m.engine, m.workload)
        assert script == "mdrun -ntmpi 4 -s in.tpr -nsteps 5000 -resetstep 1000\n"

    def test_defaults_fill_in(self, manifest_doc):
        del manifest_doc["sweep"]
        del manifest_doc["econ"]
        m = manifest_from_json(manifest_doc)
        assert m.repeats == 2
        assert m.econ.energy_price_eur_per_kwh == 0.2
        assert m.sweep.nstlist == (None,)

    def test_interconnect_is_the_documents_string(self, manifest_doc, tmp_path):
        manifest_doc["node"]["interconnect"] = "fdr14_ib"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_doc))
        node = load_manifest(path).node
        assert type(node.interconnect) is str and node.interconnect == "fdr14_ib"


class TestInvalidManifest:
    def test_missing_node_named(self, manifest_doc):
        del manifest_doc["node"]
        with pytest.raises(ManifestError, match="node"):
            manifest_from_json(manifest_doc)

    def test_missing_workload_name_named(self, manifest_doc):
        del manifest_doc["workload"]["name"]
        with pytest.raises(ManifestError, match="workload.name"):
            manifest_from_json(manifest_doc)

    def test_steps_must_exceed_reset(self, manifest_doc):
        manifest_doc["workload"]["reset_steps"] = 5000
        with pytest.raises(ManifestError, match="benchmark_steps"):
            manifest_from_json(manifest_doc)

    def test_unknown_top_level_key_rejected(self, manifest_doc):
        manifest_doc["nodes"] = 4
        with pytest.raises(ManifestError):
            manifest_from_json(manifest_doc)

    def test_unknown_gpu_field_rejected(self, manifest_doc):
        manifest_doc["node"]["gpus"][0]["vram"] = 4
        with pytest.raises(ManifestError, match="vram"):
            manifest_from_json(manifest_doc)

    def test_bad_dlb_enum_rejected(self, manifest_doc):
        manifest_doc["sweep"]["dlb"] = ["sometimes"]
        with pytest.raises(ManifestError, match="sweep.dlb"):
            manifest_from_json(manifest_doc)

    def test_gpus_active_beyond_node_rejected(self, manifest_doc):
        manifest_doc["sweep"]["gpus_active"] = 3
        with pytest.raises(ManifestError, match="gpus_active"):
            manifest_from_json(manifest_doc)

    def test_node_cross_field_check_named(self, manifest_doc):
        manifest_doc["node"]["gpus"][0]["max_app_clock_mhz"] = 1000
        with pytest.raises(ManifestError,
                           match=r"^node\.gpus\.0: .*max_app_clock_mhz below base clock"):
            manifest_from_json(manifest_doc)

    def test_non_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError, match="JSON"):
            load_manifest(path)

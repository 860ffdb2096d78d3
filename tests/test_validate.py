"""``wire.validate``, mdtune's checker for ``schema.json``, against jsonschema.

The checker implements the keywords ``schema.json`` uses. These tests pin
that it reports what jsonschema reports, that it implements every keyword
the schema uses, and that mdtune runs without jsonschema installed.
"""

import copy
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mdtune import wire
from mdtune.balance import SyntheticNodeProfile
from mdtune.errors import ManifestError

from conftest import DATA

GOLDEN = DATA / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def schema_document() -> dict:
    return json.loads(resources.files("mdtune").joinpath("schema.json").read_text())


def _load(path):
    return json.loads(Path(path).read_text())


# name -> the valid documents that the mutations start from
MANIFESTS = [_load(DATA / "manifest_mem.json"), _load(GOLDEN / "manifest_cpu.json")]
DOCUMENTS = {
    "manifest": MANIFESTS,
    "node": [m["node"] for m in MANIFESTS],
    "plan": [_load(GOLDEN / "plan.json")[:3], _load(GOLDEN / "plan_failures.json")],
    "profile": [wire.to_doc(SyntheticNodeProfile()), {}],
    "rows": [_load(GOLDEN / "rows.json")],
    "series": [_load(GOLDEN / "series.json")],
}


def check(doc, name: str):
    """(path, message) of the error mdtune reports, or None for a valid document."""
    try:
        wire.validate(doc, name)
    except ManifestError as exc:
        return exc.path, str(exc)
    return None


class TestAgainstJsonschema:
    """Same accept/reject, error path and message as jsonschema on mutated golden documents."""

    @pytest.fixture(scope="class")
    def reference(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = schema_document()
        base = jsonschema.Draft202012Validator
        # mdtune's one change to the draft: 4.0 is not an integer
        checker = base.TYPE_CHECKER.redefine(
            "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
        validator_class = jsonschema.validators.extend(base, type_checker=checker)
        validators = {name: validator_class({**schema, "$ref": f"#/$defs/{name}"})
                      for name in schema["$defs"]}

        def reference(doc, name):
            """The first error in sorted path order, reported as mdtune reports it."""
            errors = sorted(validators[name].iter_errors(doc), key=lambda e: list(e.absolute_path))
            if not errors:
                return None
            err = errors[0]
            path = ".".join(str(p) for p in err.absolute_path)
            if err.validator == "required":
                missing = err.message.split("'")[1]
                path = f"{path}.{missing}" if path else missing
                return path, f"{path}: missing required field"
            path = path or "(root)"
            return path, f"{path}: {err.message}"

        return reference

    def test_golden_documents_are_valid(self, reference):
        for name, docs in DOCUMENTS.items():
            for doc in docs:
                assert check(doc, name) is None
                assert reference(doc, name) is None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_documents(self, reference, data):
        name = data.draw(st.sampled_from(sorted(DOCUMENTS)), label="schema")
        doc = copy.deepcopy(data.draw(st.sampled_from(DOCUMENTS[name])))
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            doc = mutate(data, doc)
        assert check(doc, name) == reference(doc, name)


# Values chosen near the schema's limits and across its types: 2.0 equals
# the enum member 2, True equals 1 in Python but not in JSON Schema.
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.integers(),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 4.0, 1.5, -1.0, 1e300]), st.floats(allow_nan=False),
    st.sampled_from(["", "0", "01", "a1", "on", "auto", "desktop", "qdr_ib", "direct_watts",
                     "node", "n_rank"]),
    st.text(max_size=4),
)
VALUES = st.recursive(SCALARS, lambda children: st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(["a", "n_rank", "label", "cpu"]),
                                        children, max_size=3), max_leaves=6)


def _containers(doc, path=()):
    """Every (path, value) in a document."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _containers(value, (*path, key))


def mutate(data, doc):
    """The document with one value replaced, removed or added somewhere."""
    path, target = data.draw(st.sampled_from(list(_containers(doc))), label="at")
    action = data.draw(st.sampled_from(["replace", "remove", "add", "copy"]), label="action")
    if action in ("replace", "copy"):
        if action == "copy":  # a value from elsewhere: the right shape in the wrong place
            value = copy.deepcopy(data.draw(st.sampled_from(list(_containers(doc))))[1])
        else:
            value = data.draw(VALUES)
        if not path:
            return value
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    elif action == "remove" and isinstance(target, (dict, list)) and target:
        key = data.draw(st.sampled_from(list(target) if isinstance(target, dict)
                                        else range(len(target))))
        del target[key]
    elif action == "add" and isinstance(target, dict):
        key = data.draw(st.sampled_from(["zz", "a", "label", "n_th", "econ", "gpus", "value"]))
        target[key] = data.draw(VALUES)
    elif action == "add" and isinstance(target, list):
        target.append(copy.deepcopy(target[0]) if target else data.draw(VALUES))
    return doc


class TestKeywords:
    def test_every_schema_keyword_is_implemented(self):
        used = set()

        def walk(schema):
            used.update(schema)
            for subschema in schema.get("properties", {}).values():
                walk(subschema)
            for subschema in schema.get("anyOf", []):
                walk(subschema)
            if "items" in schema:
                walk(schema["items"])

        root = schema_document()
        for schema in root["$defs"].values():
            walk(schema)
        assert used <= set(wire._KEYWORDS)
        assert wire._load_schema(root).keys() == root["$defs"].keys()

    @pytest.mark.parametrize("schema", [
        {"x": {"format": "date"}},
        {"x": {"type": ["string", "null"]}},
        {"x": {"additionalProperties": {"type": "string"}}},
        {"x": {"$ref": "#/definitions/x"}},
        {"x": {"$ref": "x"}},
        {"x": {"properties": {"a": {"items": {"uniqueItems": True}}}}},
        {"x": {"anyOf": [{"const": 1}, {"oneOf": []}]}},
    ], ids=["format", "type list", "additionalProperties schema", "ref outside $defs",
            "ref without pointer", "nested uniqueItems", "oneOf inside anyOf"])
    def test_unimplemented_keyword_raises_at_load(self, schema):
        with pytest.raises(ValueError, match="unsupported"):
            wire._load_schema({"$defs": schema})

    def test_unknown_root_keyword_raises_at_load(self):
        with pytest.raises(ValueError, match="unsupported"):
            wire._load_schema({"$defs": {}, "allOf": [{"type": "object"}]})


class TestMessages:
    """The wording the checker shares with jsonschema, pinned without it."""

    @pytest.mark.parametrize("name, doc, expected", [
        ("plan", [{"n_rank": 4.0}], "0.n_rank: 4.0 is not of type 'integer'"),
        ("plan", [{"n_rank": True}], "0.n_rank: True is not of type 'integer'"),
        ("profile", {"cpu_rate": True}, "cpu_rate: True is not of type 'number'"),
        ("plan", [{"n_rank": 0}], "0.n_rank: 0 is less than the minimum of 1"),
        ("profile", {"cpu_rate": 0}, "cpu_rate: 0 is less than or equal to the minimum of 0"),
        ("profile", {"pme_fraction_base": 1.5},
         "pme_fraction_base: 1.5 is greater than the maximum of 1"),
        ("plan", [{"n_rank": 1, "gpu_id": "0a"}], "0.gpu_id: '0a' does not match '^[0-9]*$'"),
        ("plan", [{"n_rank": 1, "dlb": "maybe"}],
         "0.dlb: 'maybe' is not one of ['on', 'off', 'auto']"),
        ("plan", [{"n_rank": 1, "dd_grid": [1, 1]}], "0.dd_grid: [1, 1] is too short"),
        ("plan", [{"n_rank": 1, "dd_grid": [1, 1, 1, 1]}], "0.dd_grid: [1, 1, 1, 1] is too long"),
        ("plan", {}, "(root): {} is not of type 'array'"),
        ("plan", [{}], "0.n_rank: missing required field"),
        ("series", {}, "series: missing required field"),
        ("profile", {"b": 1, "a": 2}, "(root): Additional properties are not allowed "
                                      "('a', 'b' were unexpected)"),
        ("node", {"cpu": {"model_name": "", "sockets": 1, "cores_per_socket": 1}},
         "cpu.model_name: '' should be non-empty"),
        ("node", {"cpu": {"model_name": "c", "sockets": 1, "cores_per_socket": 1},
                  "rack_units": 0}, "rack_units: 0 is not valid under any of the given schemas"),
        ("node", {"cpu": {"model_name": "c", "sockets": 1, "cores_per_socket": 1,
                          "hardware_threads_per_core": 3}},
         "cpu.hardware_threads_per_core: 3 is not one of [1, 2]"),
    ])
    def test_message(self, name, doc, expected):
        with pytest.raises(ManifestError) as info:
            wire.validate(doc, name)
        assert str(info.value) == expected

    @pytest.mark.parametrize("value, valid", [
        (1, True), (1.0, False), (True, False), ("desktop", True), ("Desktop", False)])
    def test_enum_and_const_equality(self, value, valid):
        node = {"cpu": {"model_name": "c", "sockets": 1, "cores_per_socket": 1},
                "rack_units": value}
        assert (check(node, "node") is None) == valid
        threads = {"cpu": {"model_name": "c", "sockets": 1, "cores_per_socket": 1,
                           "hardware_threads_per_core": value}}
        assert (check(threads, "node") is None) == (valid and value != "desktop")

    def test_first_error_in_sorted_path_order(self):
        # schema order visits workload before node; sorted paths put node first
        doc = _load(DATA / "manifest_mem.json")
        doc["workload"]["atoms"] = 0
        doc["node"]["cpu"]["sockets"] = 0
        assert check(doc, "manifest")[0] == "node.cpu.sockets"
        # a missing field sorts at its parent, before the parent's fields
        del doc["node"]["cpu"]["model_name"]
        assert check(doc, "manifest")[0] == "node.cpu.model_name"


def run_without_jsonschema(*argv):
    code = ("import sys; sys.modules['jsonschema'] = None\n"
            "from mdtune.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                                     os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


class TestWithoutJsonschema:
    """mdtune validates its documents with jsonschema unimportable."""

    def test_sweep_golden(self):
        proc = run_without_jsonschema("sweep", "--manifest", str(DATA / "manifest_mem.json"),
                                      "--format", "md")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (GOLDEN / "sweep.md").read_text()

    def test_bad_document(self, tmp_path):
        doc = _load(DATA / "manifest_mem.json")
        doc["workload"]["name"] = ""
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        proc = run_without_jsonschema("sweep", "--manifest", str(path))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: workload.name: '' should be non-empty\n"

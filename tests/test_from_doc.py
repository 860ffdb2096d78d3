"""``wire.from_doc``: the path of a record's own error, and a reader for every field.

The schema checks each field on its own; a rule that spans fields is the
record's, checked in its constructor. ``from_doc`` names the record's path
in the document when that rule fails, so no loader keeps a copy of a rule
to name its field. And every property ``schema.json`` accepts must be read
into some record: one that is accepted and dropped has no effect at all.
"""

import typing

import pytest

from mdtune import wire
from mdtune.balance import SyntheticNodeProfile, Workload
from mdtune.econ import EconInput, EconParams
from mdtune.errors import ManifestError
from mdtune.hardware import NodeSpec
from mdtune.launch import LaunchConfig
from mdtune.manifest import RunManifest
from mdtune.report import ScalingSeries
from mdtune.wire import from_doc, to_doc

from conftest import make_node

GPU = {"model_name": "GTX 980", "cuda_cores": 2048, "base_clock_mhz": 1126}
CPU = {"model_name": "E5-2680v2", "sockets": 2, "cores_per_socket": 10}


def error_of(cls, doc, path=""):
    with pytest.raises(ManifestError) as info:
        from_doc(cls, doc, path)
    return info.value.path, str(info.value)


class TestErrorPath:
    def test_record_in_a_list(self):
        doc = {"cpu": CPU, "gpus": [GPU, {**GPU, "max_app_clock_mhz": 500}]}
        assert error_of(NodeSpec, doc, "node") == (
            "node.gpus.1", "node.gpus.1: GTX 980: max_app_clock_mhz below base clock")

    def test_record_in_a_field(self):
        doc = {"label": "a", "performance_ns_day": 1.0, "node_cost_eur": 1.0,
               "power": {"kind": "direct_watts", "value": 1.0, "gpus_active": 1}}
        assert error_of(EconInput, doc, "rows.3") == (
            "rows.3.power", "rows.3.power: gpus_active cannot exceed gpus_installed")

    def test_the_record_itself(self):
        assert error_of(LaunchConfig, {"n_rank": 2, "n_pme": 2}, "0") == (
            "0", "0: n_pme must be in [0, n_rank)")

    def test_root_record_keeps_its_message(self):
        assert error_of(Workload, {"benchmark_steps": 10, "reset_steps": 20}) == (
            "", "benchmark_steps (10) must exceed reset_steps (20)")

    def test_manifest_error_of_a_constructor_passes_through(self):
        doc = {"workload": {}, "node": to_doc(make_node(n_gpus=2)), "sweep": {"gpus_active": 3}}
        assert error_of(RunManifest, doc) == (
            "sweep.gpus_active", "sweep.gpus_active: gpus_active (3) exceeds the node's 2 GPU(s)")

    def test_a_valid_document_builds_as_before(self):
        node = make_node(n_gpus=2)
        assert from_doc(NodeSpec, to_doc(node), "node") == node
        assert isinstance(from_doc(Workload, {}, "workload"), Workload)


# What each document kind of schema.json is read into: the record built from
# the whole document, or, by top-level key, the records built from its parts.
READERS = {
    "manifest": [RunManifest],
    "node": [NodeSpec],
    "econ": [EconParams],
    "plan": [LaunchConfig],
    "profile": [SyntheticNodeProfile],
    "rows": {"econ": [EconParams], "rows": [EconInput]},
    "series": {"series": [ScalingSeries]},
}


def _records_in(tp) -> list:
    """The record types a field's type hint holds, directly or in a sequence."""
    if wire._is_record(tp):
        return [tp]
    return [record for arg in typing.get_args(tp) for record in _records_in(arg)]


def _wire_keys(classes) -> dict:
    """Wire name -> the record types its value is read into."""
    keys: dict = {}
    for cls in classes:
        hints = typing.get_type_hints(cls)
        for name, key, *_ in wire._plan(cls):
            keys.setdefault(key, []).extend(_records_in(hints[name]))
    return keys


def _object(schema: dict) -> dict:
    """The object schema of a value, through ``$ref`` and array ``items``."""
    while "$ref" in schema or "items" in schema:
        schema = schema.get("$ref") or schema["items"]  # the loader put each $ref's schema in
    return schema


def unread(schema: dict, keys: dict, path: str = "") -> list[str]:
    """Paths of the properties of ``schema`` that no wire key in ``keys`` reads."""
    found = []
    for prop, subschema in _object(schema).get("properties", {}).items():
        where = f"{path}.{prop}" if path else prop
        if prop not in keys:
            found.append(where)
        else:
            found += unread(subschema, _wire_keys(keys[prop]), where)
    return found


def test_every_document_kind_has_readers():
    assert READERS.keys() == wire._schemas().keys()


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_schema_property_is_read(name):
    readers = READERS[name]
    keys = readers if isinstance(readers, dict) else _wire_keys(readers)
    assert unread(wire._schemas()[name], keys) == []


def test_the_walk_finds_an_unread_property():
    schema = {"properties": {"econ": {"properties": {"lifetime_years": {},
                                                     "per_node_network_cost_eur": {}}}}}
    assert unread(schema, {"econ": [EconParams]}) == ["econ.per_node_network_cost_eur"]

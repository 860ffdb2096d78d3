"""Every public top-level function and class in ``src/mdtune``, and every
public method and property of such a class, is reached; and every field of a
record built from an input document is read.

A definition is reached when its name appears, as a ``Name``, an
``Attribute`` or an import alias, somewhere in ``src/mdtune`` outside its own
definition, or anywhere in ``perfbench/``, the benchmark that drives the
library. Only the tests use a helper that neither reaches: it is dead library
code. Delete it, and write what the tests checked with it into the tests.

A field of a record that ``wire.from_doc`` builds from a document is read
when it is loaded as an attribute somewhere in ``src/mdtune`` or
``perfbench/``, other than in a record's ``_check``: a field that only a
check reads changes nothing but an error message, and a scan by name cannot
tell whose check it is in. A field that nothing reads is one a user can set
to no effect: give it a reader, or take it out of the record and of
``schema.json``.
"""

import ast
import typing
from pathlib import Path

from test_from_doc import READERS, _records_in

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "mdtune").glob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8"))
         for path in [*SRC, *sorted((ROOT / "perfbench").rglob("*.py"))]}

# ROADMAP item 5 scales the synthetic node model's GPU rate by it.
UNREACHED_ON_PURPOSE = {"hardware.sp_throughput"}


def names_used(tree, skip=None):
    """The names ``tree`` refers to, leaving out the subtree ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return names


def public_definitions(body, prefix):
    """(dotted name, node) of each public function and class in ``body``, and of
    each public method or property of a public class."""
    for node in body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield f"{prefix}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from public_definitions(node.body, f"{prefix}.{node.name}")


def unreached():
    for path in SRC:
        tree = TREES[path]
        elsewhere = set().union(*(names_used(t) for p, t in TREES.items() if p != path))
        for name, node in public_definitions(tree.body, path.stem):
            if node.name not in elsewhere and node.name not in names_used(tree, skip=node):
                yield name


def test_every_public_definition_is_reached():
    # A name in UNREACHED_ON_PURPOSE that the scan no longer reports has
    # found its caller: take it off the list.
    assert set(unreached()) == UNREACHED_ON_PURPOSE


# Fields that nothing reads yet, each with the ROADMAP item that will read it
# or the reason it stays.
UNREAD_FIELDS_ON_PURPOSE = {
    "hardware.CpuSpec.model_name": "named only in _check's error messages",
    "hardware.CpuSpec.base_clock_mhz": "item 6 fits the node model to the paper's tables",
    "hardware.GpuSpec.model_name": "named only in _check's error messages",
    "hardware.GpuSpec.max_app_clock_mhz": "item 6; _check holds it at or above the base clock",
    "hardware.GpuSpec.memory_gb": "item 5, the benchmark revision",
    "hardware.GpuSpec.price_eur": "item 9 prices every GPU count",
    "hardware.GpuSpec.idle_power_w": "item 9",
    "hardware.NodeSpec.interconnect": "item 5",
    "hardware.NodeSpec.rack_units": "item 9, as the priced row's rack units",
    "manifest.RunManifest.econ": "item 9",
}

# A scan by name counts a read of one record's field as a read of every field
# of that name. Each of these is not read, and shares its name with one that is.
SHADOWED_FIELDS = {
    "hardware.CpuSpec.base_clock_mhz": "hardware.GpuSpec.base_clock_mhz",
    "hardware.NodeSpec.rack_units": "econ.EconInput.rack_units",
}


def document_fields() -> dict:
    """Dotted name -> field name, of each field of each record that
    ``from_doc`` builds from a document kind of ``READERS``, nested ones too."""
    stack = [cls for readers in READERS.values()
             for group in (readers.values() if isinstance(readers, dict) else [readers])
             for cls in group]
    fields: dict = {}
    while stack:
        cls = stack.pop()
        hints = typing.get_type_hints(cls)
        for field in cls._fields:
            name = f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}.{field}"
            if name not in fields:
                fields[name] = field
                stack += _records_in(hints[field])
    return fields


def attributes_loaded(tree) -> set:
    """The attribute names ``tree`` loads outside the ``_check`` methods of its classes."""
    checks = {item for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for item in node.body if isinstance(item, ast.FunctionDef) and item.name == "_check"}
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node in checks:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unread_fields(fields: dict) -> set:
    loaded = set().union(*map(attributes_loaded, TREES.values()))
    return {name for name, field in fields.items() if field not in loaded}


def test_every_document_field_is_read():
    unread = unread_fields(document_fields()) | SHADOWED_FIELDS.keys()
    assert unread - UNREAD_FIELDS_ON_PURPOSE.keys() == set()  # give it a reader, or delete it
    # a listed field that the scan no longer reports has found its reader: unlist it
    assert UNREAD_FIELDS_ON_PURPOSE.keys() - unread == set()


def test_shadowed_fields_share_a_name_with_a_read_field():
    fields = document_fields()
    read = fields.keys() - unread_fields(fields)
    for name, namesake in SHADOWED_FIELDS.items():
        assert {name, namesake} <= read and name != namesake
        assert fields[name] == fields[namesake]


def test_a_read_in_a_check_does_not_count():
    tree = ast.parse("class A:\n"
                     "    def _check(self):\n        return self.x\n"
                     "    def f(self):\n        self.z = 1\n        return self.y\n")
    assert attributes_loaded(tree) == {"y"}

"""Every public top-level function and class in ``src/mdtune``, and every
public method and property of such a class, is reached.

A definition is reached when its name appears, as a ``Name``, an
``Attribute`` or an import alias, somewhere in ``src/mdtune`` outside its own
definition, or anywhere in ``perfbench/``, the benchmark that drives the
library. Only the tests use a helper that neither reaches: it is dead library
code. Delete it, and write what the tests checked with it into the tests.
"""

import ast
from pathlib import Path

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


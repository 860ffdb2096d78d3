"""Every JSON example in the README is a valid document of its kind."""

import json
import re
from pathlib import Path

import pytest

from mdtune.wire import validate

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"```json\n(.*?)```", README.read_text(), re.DOTALL)
# the schema entry of an example, told apart by a top-level key only it has
DEFS = {"workload": "manifest", "rows": "rows", "series": "series"}


def test_every_document_kind_has_an_example():
    kinds = {DEFS[key] for text in EXAMPLES for key in json.loads(text) if key in DEFS}
    assert kinds == set(DEFS.values())


@pytest.mark.parametrize("text", EXAMPLES, ids=[f"example{i}" for i in range(len(EXAMPLES))])
def test_example_validates(text):
    doc = json.loads(text)
    (name,) = [DEFS[key] for key in doc if key in DEFS]
    validate(doc, name)

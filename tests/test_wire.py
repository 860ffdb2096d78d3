"""``wire.dumps``, the one JSON writer, against ``json.dumps(indent=2, sort_keys=True)``."""

import enum
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from mdtune.wire import dumps

# Every code point, control characters included. Lone surrogates are rare
# among all code points, so some are drawn on purpose.
text = (st.text(st.characters(exclude_categories=()), max_size=12)
        | st.sampled_from(["\ud800", "a\udfffb", "\udc00\ud800", "\x00\x1f\x7f", "é€\U0001d11e"]))
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072014e-308])
    | text
)
documents = st.recursive(
    scalars,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(text, children)),
    max_leaves=25,
)


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@settings(max_examples=200)
@given(documents)
@example({"": [], "a": {"b": {}, "c": [()]}, "\x00\x1f\ud800é€𝄞": [{}, [[]]]})
@example([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2**70, -(2**70), True, None, "\ud800"])
@example("top-level text")
@example(-0.0)
def test_dumps_is_json_dumps_indented(doc):
    assert dumps(doc) == reference(doc)


class Color(enum.Enum):
    RED = "red"


class Name(str, enum.Enum):
    A = "a"


@pytest.mark.parametrize("doc", [
    {1: "int key"},
    {"nested": {None: 1}},
    {"nested": {True: 1}},
    Color.RED,
    [Color.RED],
    {"value": Name.A},
    {"value": {1, 2}},
    [frozenset()],
    # repr(object()) holds a memory address; a fixed id keeps the test's name stable
    pytest.param({"value": object()}, id="{'value': <object>}"),
], ids=repr)
def test_other_types_raise_type_error(doc):
    with pytest.raises(TypeError):
        dumps(doc)

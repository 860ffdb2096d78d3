"""Dataclasses to and from JSON documents, and document validation.

Every document mdtune reads or writes (manifests, node catalogs, plans,
sweep results, parsed metrics, cost rows) maps onto its dataclasses field
by field. A field's wire name is its attribute name unless the class
renames it in ``WIRE``; a dotted wire name nests the value
(``initial_rcoulomb`` -> ``{"initial": {"rcoulomb_nm": ...}}``). A field
that is None is left out of the document, unless the class lists it in
``WIRE_NULLS``, in which case it is written as null.

Values are not coerced: a number stays the int or float the document or
the caller gave, so outputs echo their inputs exactly. Nested dataclasses,
enums and tuples are converted by the field's type hint. Validation
against ``schema.json`` is separate (``validate``), so ``from_doc``
trusts its input: it ignores keys it does not know, and a missing key
leaves the field at its default.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import types
import typing
from collections.abc import Sequence
from importlib import resources

from .errors import ManifestError

_MISSING = object()


def _unwrap_optional(tp):
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if len(args) == 1:
            return args[0]
    return tp


def _is_record(tp) -> bool:
    """A dataclass or a NamedTuple: something with named, typed fields."""
    return isinstance(tp, type) and (dataclasses.is_dataclass(tp) or hasattr(tp, "_fields"))


def _converters(tp):
    """(dump, load) for one field's type hint; None means the value passes as is."""
    tp = _unwrap_optional(tp)
    if _is_record(tp):
        return to_doc, functools.partial(from_doc, tp)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return (lambda v: v.value), tp
    origin = typing.get_origin(tp)
    if origin in (list, tuple, Sequence):
        item = typing.get_args(tp)[0]
        container = list if origin is list else tuple
        if _is_record(item):
            return (lambda v: [to_doc(x) for x in v],
                    lambda v: container(from_doc(item, x) for x in v))
        return list, container
    return None, None


@functools.cache
def _plan(cls) -> tuple:
    """Per field: (attribute, wire key, nested keys, dump, load, keep None)."""
    hints = typing.get_type_hints(cls)
    names = cls._fields if hasattr(cls, "_fields") else [f.name for f in dataclasses.fields(cls)]
    wire = getattr(cls, "WIRE", {})
    nulls = getattr(cls, "WIRE_NULLS", ())
    plan = []
    for name in names:
        key, *nested = wire.get(name, name).split(".")
        plan.append((name, key, tuple(nested), *_converters(hints[name]), name in nulls))
    return tuple(plan)


def to_doc(obj) -> dict:
    """The JSON document (plain dicts, lists and scalars) of a dataclass or NamedTuple."""
    doc: dict = {}
    for name, key, nested, dump, _, keep_none in _plan(type(obj)):
        value = getattr(obj, name)
        if value is None:
            if not keep_none:
                continue
        elif dump is not None:
            value = dump(value)
        target = doc
        for part in nested:
            target = target.setdefault(key, {})
            key = part
        target[key] = value
    return doc


def from_doc(cls, doc: dict):
    """Build ``cls`` from its JSON document; the inverse of ``to_doc``."""
    kwargs = {}
    for name, key, nested, _, load, _ in _plan(cls):
        value = doc.get(key, _MISSING)
        for part in nested:
            if value is _MISSING:
                break
            value = value.get(part, _MISSING)
        if value is _MISSING:
            continue
        if value is not None and load is not None:
            value = load(value)
        kwargs[name] = value
    return cls(**kwargs)


_escape = json.encoder.encode_basestring_ascii  # raises TypeError on a non-str key
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Scalar text by exact type, so a subclass (an enum, say) is refused like any object.
_SCALAR_TEXT = {str: _escape, int: int.__repr__, type(None): lambda _: "null",
                bool: {True: "true", False: "false"}.__getitem__,
                float: lambda v: _NON_FINITE.get(text := float.__repr__(v), text)}


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    Built in one list, where ``json`` with ``indent`` runs a generator per
    container. A non-``str`` key or a value that is not plain JSON raises TypeError.
    """
    scalar = _SCALAR_TEXT.get(type(doc))
    if scalar is not None:
        return scalar(doc) + "\n"
    out: list[str] = []
    _emit(doc, out.append, "\n")
    return "".join(out) + "\n"


def _emit(value, append, newline: str) -> None:
    """Append a container's text; ``newline`` starts a line at its indent."""
    kind = type(value)
    if kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    is_dict = kind is dict
    if not value:
        return append("{}" if is_dict else "[]")
    inner = newline + "  "
    separator = ("{" if is_dict else "[") + inner
    for item in sorted(value) if is_dict else value:  # sorted keys: as sorted(items), faster
        if is_dict:
            separator, item = separator + _escape(item) + ": ", value[item]
        scalar = _SCALAR_TEXT.get(type(item))
        if scalar is None:
            append(separator)
            _emit(item, append, inner)
        else:
            append(separator + scalar(item))
        separator = "," + inner
    append(newline + ("}" if is_dict else "]"))


def lookup(doc: dict, path: str):
    """The value at a dotted path of a document, or None when it is absent."""
    for part in path.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return None
        doc = doc[part]
    return doc


# ---------------------------------------------------------------------------
# Validation against schema.json
# ---------------------------------------------------------------------------


@functools.cache
def _validator(name: str):
    import jsonschema  # slow to import; only commands that read documents need it

    schema = json.loads(resources.files("mdtune").joinpath("schema.json").read_text())
    base = jsonschema.Draft202012Validator
    # JSON Schema counts 4.0 as an integer, but from_doc keeps the float and
    # a command line would read "-ntmpi 4.0": integers must be written as such.
    checker = base.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
    validator = jsonschema.validators.extend(base, type_checker=checker)
    return validator({**schema, "$ref": f"#/$defs/{name}"})


def validate(doc, name: str) -> None:
    """Check a document against ``schema.json#/$defs/<name>``.

    Raises ManifestError naming the path of the first offending field.
    """
    errors = sorted(_validator(name).iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = ".".join(str(p) for p in err.absolute_path)
        if err.validator == "required":
            # name the missing field itself, not just the parent object
            missing = err.message.split("'")[1]
            path = f"{path}.{missing}" if path else missing
            raise ManifestError("missing required field", path=path)
        raise ManifestError(err.message, path=path or "(root)")


def _non_finite(doc, path=()):
    """The path of the first NaN or infinite number in a document, or None."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return None
    for key, value in items:
        found = _non_finite(value, (*path, key))
        if found is not None:
            return found
    return None


def read(path):
    """A JSON file's document.

    A file that is not JSON raises ManifestError, and so does a number that
    is not finite: Python reads ``NaN``, ``Infinity`` and ``1e999``, but
    JSON has no such numbers and no schema range check rejects NaN.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ManifestError(f"not valid JSON: {exc}", path=str(path)) from exc
    where = _non_finite(doc)
    if where is not None:
        raise ManifestError("not a finite number",
                            path=".".join(str(p) for p in where) or str(path))
    return doc

"""Records to and from JSON documents, and document validation.

Every document mdtune reads or writes (manifests, node catalogs, plans,
sweep results, parsed metrics, cost rows) maps onto its records, which are
``typing.NamedTuple``s, field by field. A field's wire name is its attribute
name unless the class renames it in ``WIRE``; a dotted wire name nests the
value (``initial_rcoulomb`` -> ``{"initial": {"rcoulomb_nm": ...}}``). A
field that is None is left out of the document, unless the class lists it
in ``WIRE_NULLS``, in which case it is written as null.

Values are not coerced: a number stays the int or float the document or
the caller gave, so outputs echo their inputs exactly. Nested records,
enums and tuples are converted by the field's type hint. Validation
against ``schema.json`` is separate (``validate``), so ``from_doc``
trusts its input: it ignores keys it does not know, and a missing key
leaves the field at its default. The rules the schema cannot state belong
to the records' ``_check()``, which ``checked`` runs however a record is
built; ``from_doc`` reports what it raises as a ManifestError naming the
record's path in the document (``rows.0.power``, ``node.gpus.0``), so no
loader restates a rule to name its field.

A record is a tuple: it equals a tuple (or record) of the same items, and it
iterates and sorts. ``dumps`` refuses a record not passed through ``to_doc``.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import operator
import os
import re
import types
import typing
from collections.abc import Sequence

from .errors import ManifestError, MdtuneError

_MISSING = object()


def _unwrap_optional(tp):
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if len(args) == 1:
            return args[0]
    return tp


def _is_record(tp) -> bool:
    """A NamedTuple: something with named, typed fields."""
    return isinstance(tp, type) and hasattr(tp, "_fields")


def checked(cls):
    """Run ``_check()``, which raises or returns the record or a coerced copy, on
    every record built: by ``cls(...)``, or by ``_make``, which ``_replace`` calls."""
    new, make = cls.__new__, cls._make.__func__
    cls.__new__ = lambda klass, *args, **kwargs: new(klass, *args, **kwargs)._check()
    cls._make = classmethod(lambda klass, iterable: make(klass, iterable)._check())
    return cls


def _converters(tp):
    """(dump, load(value, path)) for one field's type hint; None passes the value as is."""
    tp = _unwrap_optional(tp)
    if _is_record(tp):
        return to_doc, functools.partial(from_doc, tp)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return (lambda v: v.value), lambda v, _: tp(v)
    origin = typing.get_origin(tp)
    if origin in (list, tuple, Sequence):
        item = typing.get_args(tp)[0]
        container = list if origin is list else tuple
        if _is_record(item):
            return (lambda v: [to_doc(x) for x in v],
                    lambda v, path: container(from_doc(item, x, f"{path}.{i}")
                                              for i, x in enumerate(v)))
        return list, lambda v, _: container(v)
    return None, None


@functools.cache
def _plan(cls) -> tuple:
    """Per field: (attribute, wire name, wire key, nested keys, dump, load, keep None)."""
    hints = typing.get_type_hints(cls)
    wire = getattr(cls, "WIRE", {})
    nulls = getattr(cls, "WIRE_NULLS", ())
    plan = []
    for name in cls._fields:
        where = wire.get(name, name)
        key, *nested = where.split(".")
        plan.append((name, where, key, tuple(nested), *_converters(hints[name]), name in nulls))
    return tuple(plan)


def to_doc(obj) -> dict:
    """The JSON document (plain dicts, lists and scalars) of a record."""
    doc: dict = {}
    for value, (_, _, key, nested, dump, _, keep_none) in zip(obj, _plan(type(obj))):
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


def from_doc(cls, doc: dict, path: str = ""):
    """Build ``cls`` from its JSON document at ``path``; the inverse of ``to_doc``.

    A constructor's MdtuneError becomes a ManifestError naming its record's path.
    """
    kwargs = {}
    for name, where, key, nested, _, load, _ in _plan(cls):
        value = doc.get(key, _MISSING)
        for part in nested:
            if value is _MISSING:
                break
            value = value.get(part, _MISSING)
        if value is _MISSING:
            continue
        if value is not None and load is not None:
            value = load(value, f"{path}.{where}" if path else where)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except ManifestError:
        raise
    except MdtuneError as exc:
        raise ManifestError(str(exc), path=path) from exc


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


# A checker for the keywords of JSON Schema (draft 2020-12) that schema.json
# uses, with jsonschema's semantics and its wording of the messages.
# Keywords run in schema order and every error is collected, so the first
# error in sorted path order can be reported. An error is (sort key, path,
# message); a missing field sorts at its parent object's path.

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # JSON Schema counts 4.0 as an integer, but from_doc keeps the float and
    # a command line would read "-ntmpi 4.0": integers must be written as such.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def _equal(a, b) -> bool:
    """JSON equality: ``1 == 1.0``, but ``True != 1``, also inside arrays and objects."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    return a == b


def _check(value, schema: dict, path: tuple, errors: list) -> None:
    for keyword, arg in schema.items():
        _KEYWORDS[keyword](arg, value, schema, path, errors)


def _type(name, value, schema, path, errors):
    if not _TYPES[name](value):
        errors.append((path, path, f"{value!r} is not of type {name!r}"))


def _enum(options, value, schema, path, errors):
    if not any(_equal(value, option) for option in options):
        errors.append((path, path, f"{value!r} is not one of {options!r}"))


def _const(const, value, schema, path, errors):
    if not _equal(value, const):
        errors.append((path, path, f"{const!r} was expected"))


def _any_of(schemas, value, schema, path, errors):
    for subschema in schemas:
        found: list = []
        _check(value, subschema, path, found)
        if not found:
            return
    errors.append((path, path, f"{value!r} is not valid under any of the given schemas"))


def _ref(target, value, schema, path, errors):
    _check(value, target, path, errors)  # the loader put the named schema in place of its name


def _bound(fails, text):
    def check(limit, value, schema, path, errors):
        if _TYPES["number"](value) and fails(value, limit):
            errors.append((path, path, f"{value!r} is {text} {limit!r}"))
    return check


def _size(kind, fails, text_at, text):
    """A check of a string's or an array's length; ``text_at`` words the edge case."""
    def check(limit, value, schema, path, errors):
        if isinstance(value, kind) and fails(len(value), limit):
            errors.append((path, path, f"{value!r} {text_at.get(limit, text)}"))
    return check


def _pattern(pattern, value, schema, path, errors):
    if isinstance(value, str) and not re.search(pattern, value):
        errors.append((path, path, f"{value!r} does not match {pattern!r}"))


def _items(subschema, value, schema, path, errors):
    if isinstance(value, list):
        for index, item in enumerate(value):
            _check(item, subschema, (*path, index), errors)


def _properties(properties, value, schema, path, errors):
    if isinstance(value, dict):
        for name, subschema in properties.items():
            if name in value:
                _check(value[name], subschema, (*path, name), errors)


def _required(names, value, schema, path, errors):
    if isinstance(value, dict):
        for name in names:
            if name not in value:
                errors.append((path, (*path, name), "missing required field"))


def _no_additional(_, value, schema, path, errors):
    if isinstance(value, dict):
        known = schema.get("properties", {})
        extras = [repr(key) for key in sorted(value, key=str) if key not in known]
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            errors.append((path, path, f"Additional properties are not allowed "
                                       f"({', '.join(extras)} {verb} unexpected)"))


_KEYWORDS = {
    "type": _type, "enum": _enum, "const": _const, "anyOf": _any_of, "$ref": _ref,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "minLength": _size(str, operator.lt, {1: "should be non-empty"}, "is too short"),
    "pattern": _pattern,
    "items": _items,
    "minItems": _size(list, operator.lt, {1: "should be non-empty"}, "is too short"),
    "maxItems": _size(list, operator.gt, {0: "is expected to be empty"}, "is too long"),
    "properties": _properties, "required": _required, "additionalProperties": _no_additional,
}
_ROOT_KEYS = {"$schema", "$id", "title", "$defs"}


def _load_schema(root: dict) -> dict:
    """The definitions of a schema document, each ``$ref`` replaced by the schema it names.

    A keyword the checker does not implement raises ValueError, so that no
    rule of the schema is silently skipped.
    """
    defs = root["$defs"]
    refs = {f"#/$defs/{name}": schema for name, schema in defs.items()}

    def prepare(schema: dict, where: str) -> None:
        for keyword, arg in schema.items():
            unsupported = (keyword not in _KEYWORDS
                           or keyword == "type" and not (isinstance(arg, str) and arg in _TYPES)
                           or keyword == "additionalProperties" and arg is not False
                           or keyword == "$ref" and not (isinstance(arg, str) and arg in refs))
            if unsupported:
                raise ValueError(f"schema {where}: unsupported {keyword!r}: {arg!r}")
            if keyword == "$ref":
                schema[keyword] = refs[arg]
            elif keyword == "properties":
                for name, subschema in arg.items():
                    prepare(subschema, f"{where}.{name}")
            elif keyword == "items":
                prepare(arg, f"{where}[]")
            elif keyword == "anyOf":
                for index, subschema in enumerate(arg):
                    prepare(subschema, f"{where}|{index}")

    if not root.keys() <= _ROOT_KEYS:
        raise ValueError(f"schema: unsupported {sorted(root.keys() - _ROOT_KEYS)}")
    for name, schema in defs.items():
        prepare(schema, name)
    return defs


@functools.cache
def _schemas() -> dict:
    with open(os.path.join(os.path.dirname(__file__), "schema.json"), encoding="utf-8") as f:
        return _load_schema(json.load(f))


def validate(doc, name: str) -> None:
    """Check a document against ``schema.json#/$defs/<name>``.

    Raises ManifestError naming the path of the first offending field.
    """
    errors: list = []
    _check(doc, _schemas()[name], (), errors)
    if errors:
        _, path, message = min(errors, key=operator.itemgetter(0))
        raise ManifestError(message, path=".".join(map(str, path)) or "(root)")


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

"""Document formats, canonical serialization and descriptor emission.

Every persisted artifact travels inside a DocumentEnvelope: a JSON object
with ``schema_version``, ``kind`` and a kind-specific ``body``.  Parsing
is strict (unknown or missing fields are diagnostics, not warnings) and
serialization is canonical: sorted keys, two-space indent, trailing
newline, so equal documents always render to equal bytes and
``serialize(parse(serialize(x))) == serialize(x)``.  Canonical text is
the bytes of ``json.dumps(payload, sort_keys=True, indent=2,
ensure_ascii=True, allow_nan=False) + "\n"`` for the JSON value the
mapping below gives, but no such value is built: each record class has
one writer that appends its text straight to a list of parts.
``canonical_json`` writes plain JSON values (the bundle manifest's dict)
the same way.

A body is one of the model's frozen dataclasses, and a single codec maps
every dataclass to JSON from its fields and their type hints.  Fields map
one-to-one to keys of the same name; ``str``, ``int`` and ``float`` are
written as they are (numbers must be finite, booleans are not numbers);
``X | None`` also admits ``null``; tuples are arrays; a frozenset of enums
is a sorted array; enums are written by value; nested dataclasses are
objects.  ``_OVERRIDES`` lists every place where the JSON departs from
that rule:

* ``InstantiationLevel.role_capacity`` is written under the key ``role``;
* the role-capacity and subset-key unions are objects tagged with
  ``kind`` ``DU``, ``CU`` or ``GNB``;
* ``Pop.host_capacity_vcpu`` and ``host_capacity_ram_gb`` nest as
  ``host_capacity: {vcpu, ram_gb}``;
* ``SlicePlan.offered_load_mbps`` is an object of region id -> Mbps;
* ``Sst`` is the integer 1, 2 or 3;
* ``GnbSubsetKey.served_regions`` and
  ``ProfilerPolicy.latency_to_mu_thresholds`` are arrays of two-element
  arrays;
* a TOPOLOGY body must pass ``load_area``, and a SLICE_REQUEST's ``sd``
  must be a valid S-NSSAI differentiator.

Each codec is built whole on first use and cached, and never changes:
type hints are resolved (each annotation text evaluated once per module,
without ``typing.get_type_hints``), and the codec pairs a writer with a
decoder.

A writer is a closure, ``write(value, append, depth)``.  The first time
a record's writer meets a depth, it cuts the record's text there into
the fixed pieces between field values, keys sorted and each ``"key": ``
quoted once, and keeps them for that depth.  A ``str``, ``int`` or
``float`` field is written by its value's exact runtime type, as
``canonical_json`` writes it, so a ``bool`` in an ``int`` field is
``true``.  An enum member's text is made once.  An ``IlSubset`` (a plan
cites the catalog's own subset objects many times) is written once per
object: its depth-0 text is kept on the object, outside its fields, and
re-indented to the depth the subset is met at, keeping the text of the
last depth.

An object's decoder is generated from source and compiled, once per
class, as ``model.record`` generates ``__init__``.  The decoder tests the
object's key count, checks ``str``, ``int`` and ``float`` fields in
place, calls the other fields' decoders, and passes the values to the
class's own constructor; ``ranslicer plan`` compiles 33, about 4 ms per
process.  Its keys are compared with the class's only when the decode
fails, so a wrong shape still wins over a field's fault.  An array of
objects is decoded by one list comprehension; an array of ``str`` items
is taken after one pass over the item types.  Writers compile nothing.
Error paths are built only when a decode fails: a decoder takes just the
JSON value, and each enclosing object or array catches a PARSE_ERROR on
its way out and prepends ``.key`` or ``[i]`` (an array finds the failing
item's index then).

The onboarding bundle is just its files: ``emit_onboarding_bundle``
returns a dict of file name -> canonical text, and ``write_bundle``
checks the names, writes each atomically and removes an older bundle's.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import re
import sys
import tempfile
import typing
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from pathlib import Path
from types import NoneType, UnionType
from typing import Callable

from .errors import DocumentError
from .model import (
    Catalog,
    CuIlCapacity,
    CuSubsetKey,
    DuIlCapacity,
    DuSubsetKey,
    Flavor,
    GnbIlCapacity,
    GnbSubsetKey,
    IlSubset,
    InstantiationLevel,
    RadioConfig,
    RoleCapacity,
    RuPnfd,
    SliceRequirements,
    SNssai,
    Sst,
    SubsetKey,
    listed,
    record,
)
from .planner import PlannerConfig, SlicePlan, verify_plan
from .radio import ProfilerPolicy
from .topology import DeploymentArea, Pop, load_area

SCHEMA_VERSION = "1.0.0"


@record
class SliceRequest:
    """A vertical's slice order: service type, optional differentiator,
    and the requirement vector."""

    sst: Sst
    sd: str | None
    requirements: SliceRequirements


@record
class DocumentEnvelope:
    """A document: its ``kind`` (``CATALOG``, ``SLICE_PLAN``, ...) and a body of that kind's class."""

    kind: str
    body: object


_BODY_TYPES = {
    "CATALOG": Catalog,
    "TOPOLOGY": DeploymentArea,
    "SLICE_REQUEST": SliceRequest,
    "SLICE_PLAN": SlicePlan,
    "PROFILER_POLICY": ProfilerPolicy,
    "PLANNER_CONFIG": PlannerConfig,
}

# ---------------------------------------------------------------------------
# strict reading helpers

def _fail(message: str, path: str = "") -> DocumentError:
    return DocumentError("PARSE_ERROR", message, path=path)


def _str(value) -> str:
    if not isinstance(value, str):
        raise _fail("expected a string")
    return value


def _int(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise _fail("expected an integer")
    return value


def _num(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail("expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise _fail("numbers must be finite")
    return number


def _enum(members: dict, value):
    try:
        return members[value]
    except (KeyError, TypeError):  # TypeError: an unhashable array or object
        raise _fail(f"expected one of {', '.join(map(repr, members))}, got {value!r}") from None


def _sst(value) -> Sst:
    if _int(value) not in (1, 2, 3):
        raise _fail("sst must be 1, 2 or 3")
    return Sst(value)


def _loads(value) -> tuple[tuple[str, float], ...]:
    if not isinstance(value, dict):
        raise _fail("expected an object of region -> Mbps")
    try:  # the walrus keeps the region a fault is reported at
        return tuple(sorted(((region := key), _num(mbps)) for key, mbps in value.items()))
    except DocumentError as err:
        raise _fail(err.args[0], f".{region}") from None


def _loaded_area(area: DeploymentArea) -> DeploymentArea:
    try:
        return load_area(area)
    except Exception as err:
        raise _fail(f"invalid deployment area: {err}") from None


def _valid_sd(request: SliceRequest) -> SliceRequest:
    if request.sd is not None:
        try:
            SNssai(request.sst, request.sd)
        except ValueError as err:
            raise _fail(str(err), ".sd") from None
    return request


# ---------------------------------------------------------------------------
# the codec

class _Codec:
    """A type's writer and decoder, both set when the codec is built.

    ``write(value, append, depth)`` appends the canonical text of a model
    value met at ``depth`` (its indent), without a trailing newline, in
    pieces to ``append``; a container's writer calls its fields' and items'
    writers with the same ``append``, so a document is one list of parts
    joined once.  ``decode``: JSON value -> model value.
    """

    __slots__ = ("write", "decode")

    def __init__(self, write: Callable, decode: Callable):
        self.write, self.decode = write, decode


def _text_of(write: Callable, value) -> str:
    """Canonical text of a model value at depth 0, without the trailing newline."""
    parts: list[str] = []
    write(value, parts.append, 0)
    return "".join(parts)


def _shape(value, keys: frozenset) -> None:
    """Reject a value that is not an object with exactly ``keys``."""
    if not isinstance(value, dict):
        raise _fail(f"expected an object, got {type(value).__name__}")
    if value.keys() != keys:
        unknown = sorted(value.keys() - keys)
        raise _fail(f"unknown field(s): {', '.join(unknown)}" if unknown
                    else f"missing field(s): {', '.join(sorted(keys - value.keys()))}")


def _fault(err: DocumentError | ValueError, key: str) -> typing.NoReturn:
    """Re-raise an object decode's fault: the value's at ``key``, or ``make``'s at the object."""
    if isinstance(err, DocumentError):
        err.path = f".{key}{err.path}"
        raise err
    raise _fail(str(err)) from None


# Decoders whose check a generated decoder makes in place: a test that the JSON value
# read by ``{}`` into ``v`` is already the model value (a finite float minus itself
# is 0.0).  A value that fails it goes to the decoder, which converts or rejects it.
_INLINE = {_str: "(v := {}).__class__ is str", _int: "(v := {}).__class__ is int",
           _num: "(v := {}).__class__ is float and not v - v"}


def _object_decoder(make, entries, tag: str | None = None) -> Callable:
    """The decoder of a JSON object with one key per entry, into ``make(*values)``.

    Entries are ``(key, decode, spread)``; a ``spread`` entry decodes to a
    tuple of several arguments.  The decoder is generated and compiled here,
    as ``model.record`` generates ``__init__``: it checks the ``_INLINE``
    leaves in place, calls the other entries' decoders (``d0``, ``d1``, ...)
    and keeps the key it reads in ``k``.  Up front it tests only the key
    count; an object with as many keys but other ones fails to decode (a
    missing key, or a fault read first), and only then are the keys
    compared, so a wrong shape still wins over any field's fault.
    """
    keys = frozenset([key for key, *_ in entries] + (["kind"] if tag else []))
    ns = {"make": make, "keys": keys, "_shape": _shape, "_fault": _fault, "faults": (DocumentError, ValueError)}
    args = []
    for i, (key, decode, spread) in enumerate(entries):
        ns[f"d{i}"], get, inline = decode, f"value[k := {key!r}]", _INLINE.get(decode)
        args.append(f"v if {inline.format(get)} else d{i}(v)" if inline else f"{'*' * spread}d{i}({get})")
    source = ("def decode(value):\n"
              f" if value.__class__ is not dict or len(value) != {len(keys)}: _shape(value, keys)\n"
              " try:\n"
              "  return make(\n   " + ",\n   ".join(args) + ")\n"
              " except faults as err:\n"
              "  _shape(value, keys)\n"
              "  _fault(err, k)\n"
              " except KeyError:\n"
              "  _shape(value, keys)\n"
              "  raise")
    exec(compile(source, f"<decoder of {make.__qualname__}>", "exec"), ns)  # the name shows in tracebacks
    return ns["decode"]


def _object_writer(fields, tag: str | None = None) -> Callable:
    """The writer of a record as a JSON object: ``fields`` are ``(key, name,
    write)``, an ``"outer.inner"`` key nesting its field in an object under
    ``outer``, and ``tag`` is the constant ``kind``.

    At the first depth the writer meets, the object's canonical text there,
    with a marker in place of each field value, is cut at the markers into
    the fixed pieces between values, and one ``attrgetter`` is made that
    reads the fields in text order.  A ``str``, ``int`` or ``float`` field
    is written by its value's exact type, in the writer's own loop.
    """

    def layout(depth: int) -> tuple:
        """The getter, rows of (piece, field writer or None for a leaf, the field's depth), and the tail."""
        template: dict = {"kind": tag} if tag else {}
        for i, (key, _, _) in enumerate(fields):
            outer, _, inner = key.rpartition(".")
            (template.setdefault(outer, {}) if outer else template)[inner] = f"\0{i}"
        parts: list[str] = []
        _write_value(template, parts.append, depth)
        head, *cuts = "".join(parts).split('"\\u0000')  # each cut: 'i"' and the piece after field i
        order = [fields[int(cut.partition('"')[0])] for cut in cuts]
        names = [name for _, name, _ in order]
        pieces = [head, *[cut.partition('"')[2] for cut in cuts]]
        return (attrgetter(*names) if len(names) > 1 else lambda value: (getattr(value, names[0]),),
                [(piece, None if write is _write_value else write, depth + 1 + ("." in key))
                 for piece, (key, _, write) in zip(pieces, order)], pieces[-1])

    by_depth = _ByDepth(layout)
    scalar = _SCALAR_TEXT.get

    def write(value, append, depth: int) -> None:
        get, rows, end = by_depth[depth]
        for (piece, write_field, field_depth), field in zip(rows, get(value)):
            if write_field is None:
                text = scalar(field.__class__)
                if text is not None:
                    append(piece + text(field))
                    continue
                write_field = _write_value
            append(piece)
            write_field(field, append, field_depth)
        append(end)

    return write


@functools.cache
def _hint(module: str, text: str):
    """An annotation text evaluated in the globals of ``module``, once per (module, text)."""
    return eval(text, vars(sys.modules[module]))


def _type_hints(cls) -> dict[str, typing.Any]:
    """``typing.get_type_hints(cls)`` for a record, whose annotations are texts
    (``from __future__ import annotations``), at a fraction of its cost."""
    return {name: _hint(cls.__module__, text) for name, text in cls.__annotations__.items()}


def _dataclass_codec(cls, tag: str | None = None) -> _Codec:
    hints = _type_hints(cls)
    fields = []
    for f in dataclasses.fields(cls):
        override = _OVERRIDES.get((cls, f.name))
        key = override if isinstance(override, str) else f.name
        codec = override(hints[f.name]) if callable(override) else _codec(hints[f.name])
        fields.append((key, f.name, codec))
    entries = []
    for outer, group in itertools.groupby(fields, key=lambda field: field[0].partition(".")[0]):
        group = list(group)
        if outer == group[0][0]:
            entries += [(key, codec.decode, False) for key, _, codec in group]
        else:  # "outer.inner" keys: these fields nest in one object under "outer"
            inner = [(key.partition(".")[2], codec.decode, False) for key, _, codec in group]
            entries.append((outer, _object_decoder(lambda *values: values, inner), True))
    write = _object_writer([(key, name, codec.write) for key, name, codec in fields], tag)
    return _Codec(write, _object_decoder(cls, entries, tag))


def _first_rejected(decode_item: Callable, items: list) -> int:
    """The index of the first item ``decode_item`` rejects, in an array whose decode failed."""
    for i, item in enumerate(items):
        try:
            decode_item(item)
        except DocumentError:
            return i
    raise AssertionError("an array decode failed once and not again")  # pragma: no cover


def _array_decoder(decode_item: Callable, make) -> Callable:
    """The decoder of a JSON array into ``make(items)``.  An array of
    strings whose items all are ``str`` is taken as it is, after one pass
    over the item types.  Other arrays are decoded by one list
    comprehension, and the failing item's index is found only when it
    raises."""
    only = {str} if decode_item is _str else None

    def decode(value):
        if not isinstance(value, list):
            raise _fail("expected an array")
        if only is not None and set(map(type, value)) <= only:
            return make(value)
        try:
            return make([decode_item(x) for x in value])
        except DocumentError as err:
            err.path = f"[{_first_rejected(decode_item, value)}]{err.path}"
            raise

    return decode


def _array_writer(write_item: Callable) -> Callable:
    """The writer of a sequence as a JSON array of its items."""
    scalar = _SCALAR_TEXT.get if write_item is _write_value else {}.get  # scalars: text by exact type

    def write(items, append, depth: int) -> None:
        if not items:
            append("[]")
            return
        lead, sep, end = _BRACKETS[depth]
        depth += 1
        for item in items:
            text = scalar(item.__class__)
            if text is None:
                append(lead)
                write_item(item, append, depth)
            else:
                append(lead + text(item))
            lead = sep
        append(end)

    return write


def _optional(inner: _Codec) -> _Codec:
    decode_inner, write_inner = inner.decode, inner.write

    def decode(value):
        return None if value is None else decode_inner(value)

    if write_inner is _write_value:  # a leaf's writer writes None too
        return _Codec(_write_value, decode)
    return _Codec(lambda value, append, depth: append("null") if value is None else write_inner(value, append, depth),
                  decode)


def _members(cls, value_of: Callable, decode: Callable) -> _Codec:
    """The codec of an enum, written as ``value_of(member)``: each member's
    text is made once, and a value that is not a member is converted by
    ``value_of`` when it is written."""
    texts = {member: canonical_json(value_of(member))[:-1] for member in cls}

    def write(value, append, depth: int) -> None:
        try:
            append(texts[value])
        except (KeyError, TypeError):  # TypeError: an unhashable value
            _write_value(value_of(value), append, depth)

    return _Codec(write, decode)


def _checked(check):
    """Override: the dataclass codec, then ``check`` on every decoded value."""

    def build(cls) -> _Codec:
        codec = _dataclass_codec(cls)
        decode = codec.decode
        return _Codec(codec.write, lambda value: check(decode(value)))

    return build


class _Text:
    """Canonical text of a value at depth 0, without the trailing newline,
    for a writer to write in the value's place; ``last`` is the depth it
    was last written at and its text there."""

    def __init__(self, text: str):
        self.text, self.last = text, (0, text)

    def at(self, depth: int) -> str:
        """The text with every newline indented to ``depth`` (canonical text
        escapes the newlines inside strings)."""
        last = self.last  # one read and one write: threads may share the text
        if last[0] != depth:
            last = self.last = (depth, self.text.replace("\n", _INDENT[depth]))
        return last[1]


def _written(hint, value) -> _Text:
    """A model value's text, for ``canonical_json`` to write in its place."""
    return _Text(_text_of(_codec(hint).write, value))


def _written_once(cls) -> _Codec:
    """Override: the dataclass codec, but each object's canonical text is
    written once and kept, as a ``_Text``, in its ``__dict__`` (not a field,
    so equality, hashing, ``repr`` and ``dataclasses`` do not see it); the
    record's class declares ``__slots__ = ("__dict__",)`` for it.
    Filling it is idempotent: two threads that race on an object compute
    the same text."""
    codec = _dataclass_codec(cls)
    write_fields = codec.write

    def write(value, append, depth: int) -> None:
        text = value.__dict__.get("_canonical_text")
        if text is None:
            text = value.__dict__["_canonical_text"] = _Text(_text_of(write_fields, value))
        append(text.at(depth))

    return _Codec(write, codec.decode)


def _pairs(label: str):
    """Override for ``tuple[tuple[A, B], ...]``: an array of two-element
    arrays; a fault in either (scalar) item is reported at the pair's path."""

    def build(hint) -> _Codec:
        first, second = map(_codec, typing.get_args(typing.get_args(hint)[0]))
        write_first, write_second = first.write, second.write
        read_first, read_second = first.decode, second.decode

        def write_pair(pair, append, depth: int) -> None:
            a, b = pair
            lead, sep, end = _BRACKETS[depth]
            append(lead)
            write_first(a, append, depth + 1)
            append(sep)
            write_second(b, append, depth + 1)
            append(end)

        def pair(item) -> tuple:
            if not isinstance(item, list) or len(item) != 2:
                raise _fail(f"expected a {label} pair")
            return read_first(item[0]), read_second(item[1])

        return _Codec(_array_writer(write_pair), _array_decoder(pair, tuple))

    return build


def _tagged(noun: str, kind_noun: str, members: dict[str, type]):
    """Override for a union of dataclasses: an object whose ``kind`` names
    the member."""

    def build(union) -> _Codec:
        codecs = {tag: _dataclass_codec(cls, tag) for tag, cls in members.items()}
        by_tag = {tag: codec.decode for tag, codec in codecs.items()}
        by_type = {members[tag]: codec.write for tag, codec in codecs.items()}

        def decode(value):
            if not isinstance(value, dict) or "kind" not in value:
                raise _fail(f"expected {noun} with a 'kind' tag")
            kind = value["kind"]
            decode_member = by_tag.get(kind) if isinstance(kind, str) else None
            if decode_member is None:
                raise _fail(f"unknown {kind_noun} kind {kind!r}")
            return decode_member(value)

        def write(value, append, depth: int) -> None:
            by_type[type(value)](value, append, depth)

        return _Codec(write, decode)

    return build


def _write_loads(loads, append, depth: int) -> None:
    """``SlicePlan.offered_load_mbps`` as an object of region id -> Mbps."""
    _write_value(dict(loads), append, depth)


# Every departure of the JSON from the fields.  A (class, field) key gives
# either the field's JSON key ("outer.inner" nests it) or a codec builder
# for the field's type hint; a type key gives a codec builder for the type.
_OVERRIDES = {
    (InstantiationLevel, "role_capacity"): "role",
    (Pop, "host_capacity_vcpu"): "host_capacity.vcpu",
    (Pop, "host_capacity_ram_gb"): "host_capacity.ram_gb",
    (SlicePlan, "offered_load_mbps"): lambda hint: _Codec(_write_loads, _loads),
    (GnbSubsetKey, "served_regions"): _pairs("[region_class, fronthaul_tech]"),
    (ProfilerPolicy, "latency_to_mu_thresholds"): _pairs("[max_latency_ms, mu]"),
    RoleCapacity: _tagged("a role object", "role",
                          {"DU": DuIlCapacity, "CU": CuIlCapacity, "GNB": GnbIlCapacity}),
    SubsetKey: _tagged("a subset key", "subset key",
                       {"DU": DuSubsetKey, "CU": CuSubsetKey, "GNB": GnbSubsetKey}),
    Sst: lambda hint: _members(Sst, int, _sst),
    IlSubset: _written_once,
    DeploymentArea: _checked(_loaded_area),
    SliceRequest: _checked(_valid_sd),
}

_PRIMITIVES = {str: _str, int: _int, float: _num}


@functools.cache
def _codec(hint) -> _Codec:
    """The codec for a type hint, built on first use."""
    if hint in _OVERRIDES:
        return _OVERRIDES[hint](hint)
    if hint in _PRIMITIVES:
        return _Codec(_write_value, _PRIMITIVES[hint])
    if isinstance(hint, type) and issubclass(hint, Enum):
        return _members(hint, attrgetter("value"), functools.partial(_enum, {m.value: m for m in hint}))
    if dataclasses.is_dataclass(hint):
        return _dataclass_codec(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, UnionType) and len(args) == 2 and NoneType in args:
        return _optional(_codec(args[0] if args[1] is NoneType else args[1]))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = _codec(args[0])
        return _Codec(_array_writer(item.write), _array_decoder(item.decode, tuple))
    if origin is frozenset:  # an array sorted by the items' JSON values
        item = _codec(args[0])
        write = _array_writer(item.write)
        value_of = attrgetter("value") if isinstance(args[0], type) and issubclass(args[0], Enum) else None
        return _Codec(lambda items, append, depth: write(sorted(items, key=value_of), append, depth),
                      _array_decoder(item.decode, frozenset))
    raise TypeError(f"no document codec for {hint!r}")


# ---------------------------------------------------------------------------
# envelope operations

def envelope_for(body: object) -> DocumentEnvelope:
    """Wrap a typed body in an envelope, inferring the kind."""
    for kind, body_type in _BODY_TYPES.items():
        if isinstance(body, body_type):
            return DocumentEnvelope(kind, body)
    raise TypeError(f"no document kind for {type(body).__name__}")


def parse_document(text: str) -> DocumentEnvelope:
    """Parse a document; strict about shape, version and kind."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError("PARSE_ERROR", err.msg, line=err.lineno, column=err.colno) from None
    except RecursionError:
        raise DocumentError("PARSE_ERROR", "document nests too deeply to parse") from None
    except ValueError:  # an integer literal past the interpreter's int-string digit limit
        raise DocumentError("PARSE_ERROR", "integer literal has too many digits to parse") from None
    if not isinstance(raw, dict):
        raise DocumentError("PARSE_ERROR", "document must be a JSON object", path="$")
    unknown = sorted(set(raw) - {"schema_version", "kind", "body"})
    if unknown:
        raise DocumentError("PARSE_ERROR", f"unknown envelope field(s): {', '.join(unknown)}", path="$")
    missing = sorted({"schema_version", "kind", "body"} - set(raw))
    if missing:
        raise DocumentError("PARSE_ERROR", f"missing envelope field(s): {', '.join(missing)}", path="$")
    version = raw["schema_version"]
    if version != SCHEMA_VERSION:
        raise DocumentError("UNSUPPORTED_VERSION",
                            f"schema version {version!r} is not supported (expected {SCHEMA_VERSION})")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _BODY_TYPES:
        raise DocumentError("UNKNOWN_KIND", f"unknown document kind {kind!r}")
    try:
        return DocumentEnvelope(kind, _codec(_BODY_TYPES[kind]).decode(raw["body"]))
    except DocumentError as err:
        err.path = f"body{err.path}"
        raise


def serialize_document(envelope: DocumentEnvelope) -> str:
    """Canonical text for an envelope: sorted keys, stable formatting."""
    body_type = _BODY_TYPES.get(envelope.kind)
    if body_type is None:
        raise DocumentError("UNKNOWN_KIND", f"unknown document kind {envelope.kind!r}")
    if not isinstance(envelope.body, body_type):
        raise TypeError(f"a {envelope.kind} body must be a {body_type.__name__}, not {type(envelope.body).__name__}")
    parts = ['{\n  "body": ']
    _codec(body_type).write(envelope.body, parts.append, 1)
    parts.append(f',\n  "kind": {_quote(envelope.kind)},\n  "schema_version": {_quote(SCHEMA_VERSION)}\n}}\n')
    return "".join(parts)


def _float_text(value) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _subclass_text(value) -> str:
    """A scalar whose type subclasses str, int or float (an enum member
    with a mixin, say), written as its base type's value."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# Text of a scalar, by its exact type.
_SCALAR_TEXT = {
    str: _quote,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    NoneType: lambda value: "null",
}


class _ByDepth(dict):
    """Text for each depth, made by ``make(depth)`` on first use.  Making it
    is idempotent, so threads may race on a depth."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, depth: int):
        self[depth] = text = self.make(depth)
        return text


_INDENT = _ByDepth(lambda depth: "\n" + "  " * depth)  # a newline and the indent of a depth
# An array's or object's opening, separator and close at a depth.
_BRACKETS = _ByDepth(lambda depth: ("[" + _INDENT[depth + 1], "," + _INDENT[depth + 1], _INDENT[depth] + "]"))
_BRACES = _ByDepth(lambda depth: ("{" + _INDENT[depth + 1], "," + _INDENT[depth + 1], _INDENT[depth] + "}"))


def _write_value(value, append, depth: int) -> None:
    """Append the canonical text of a JSON value met at ``depth``.

    This is ``canonical_json``'s walker, and the writer of a ``str``,
    ``int`` or ``float`` field: a scalar is written by its exact type.  A
    ``_Text`` is written as the value it was made from.
    """
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        append(text(value))
    elif isinstance(value, (list, tuple)):
        _write_array(value, append, depth)
    elif not isinstance(value, dict):
        append(value.at(depth) if type(value) is _Text else _subclass_text(value))
    elif not value:
        append("{}")
    else:
        lead, sep, end = _BRACES[depth]
        scalar = _SCALAR_TEXT.get
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            text = scalar(type(item))
            if text is None:
                append(f"{lead}{_quote(key)}: ")
                _write_value(item, append, depth + 1)
            else:
                append(f"{lead}{_quote(key)}: {text(item)}")
            lead = sep
        append(end)


_write_array = _array_writer(_write_value)


def canonical_json(payload) -> str:
    """Canonical text of a JSON value: the bytes of ``json.dumps(payload,
    sort_keys=True, indent=2, ensure_ascii=True, allow_nan=False) + "\\n"``.

    Object keys must be strings.  NaN and infinities raise ``ValueError``,
    any other type ``TypeError``.  With an indent, ``json.dumps`` falls
    back to CPython's pure-Python encoder; this writer skips its generator
    chain and writes scalars inside each container's own loop.

    A ``_Text`` (a record's text from its writer) is written as the value
    it was made from: its depth-0 text with every newline indented to the
    depth it is met at.
    """
    parts: list[str] = []
    _write_value(payload, parts.append, 0)
    parts.append("\n")
    return "".join(parts)


def parse_path(path: str | Path) -> DocumentEnvelope:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise DocumentError("PARSE_ERROR", f"not UTF-8 text: {err.reason} at byte {err.start}") from None
    return parse_document(text)


def write_atomic(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written document."""
    path = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    except OSError as err:  # name the target, not the temp file that could not be made
        raise type(err)(err.errno, err.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# onboarding bundle

def _dangling(message: str) -> DocumentError:
    return DocumentError("DANGLING_PLAN_REFERENCE", message)


def emit_onboarding_bundle(plan: SlicePlan, catalog: Catalog) -> dict[str, str]:
    """The files a plan hands to the orchestrator, by file name: the
    flavor/IL manifest, the selected RUs' PNFDs, and an excerpt of the gNB
    NSD and of each VNFD the gNB levels reference, cut down to the flavors
    the plan uses.

    The plan is first re-verified against the catalog alone, by
    ``verify_plan`` without an area; its problems, joined by "; ", fail
    with one DANGLING_PLAN_REFERENCE.  Past ten problems the message lists
    ten and states the total (``model.listed``).  A gNB IL's reference to a
    VNFD IL that no longer resolves fails the same way.
    """
    problems = verify_plan(plan, None, catalog)
    if problems:
        raise _dangling("; ".join(listed(problems)))
    nsd = catalog.gnb_nsd(plan.nsst.nsd_ref)
    rus = [catalog.ru(ru_id) for ru_id in plan.selected_rus]
    ru_ids_by_site: dict[str, list[str]] = {}
    for ru in rus:
        ru_ids_by_site.setdefault(ru.location.cell_site, []).append(ru.ru_id)
    used_vnf_refs: dict[str, set[int]] = {}
    manifest_gnbs = []
    for gnb in plan.gnbs:
        cu_refs: list = []
        du_ref_pool: list = []
        for level in gnb.nsd_il_subset.levels:
            role = level.role_capacity
            if not isinstance(role, GnbIlCapacity):
                continue
            for ref in (role.cu_il_ref, *role.du_il_refs):
                if catalog.resolve_vnf_il(ref) is None:
                    raise _dangling(f"{gnb.gnb_id}: VNFD IL reference {ref} does not resolve")
                used_vnf_refs.setdefault(ref.vnfd_id, set()).add(ref.flavor_id)
            cu_refs.append(role.cu_il_ref)
            du_ref_pool.extend(role.du_il_refs)

        def du_vnfd_ids(du) -> list[str]:
            return sorted({ref.vnfd_id for ref in du_ref_pool if ref.il_id in du.il_subset.level_ids})
        gnb_sites = {site for du in gnb.dus for site in du.served_cell_sites}
        gnb_rus = sorted(ru_id for site in gnb_sites for ru_id in ru_ids_by_site.get(site, ()))
        manifest_gnbs.append(
            {
                "gnb_id": gnb.gnb_id,
                "nsd_ref": nsd.descriptor_id,
                "flavor_id": gnb.nsd_flavor_id,
                "il_subset_key": _written(SubsetKey, gnb.nsd_il_subset.key),
                "cu": {
                    "host_pop": gnb.cu.host_pop,
                    "vnfd_ids": sorted({ref.vnfd_id for ref in cu_refs}),
                    "il_subset_key": _written(SubsetKey, gnb.cu.il_subset.key),
                },
                "dus": [
                    {
                        "du_id": du.du_id,
                        "region_id": du.region_id,
                        "vnfd_ids": du_vnfd_ids(du),
                        "vnfd_flavor": du.vnfd_flavor.value,
                        "il_subset_key": _written(SubsetKey, du.il_subset.key),
                        "served_cell_sites": list(du.served_cell_sites),
                        "host_pop": du.host_pop,
                    }
                    for du in gnb.dus
                ],
                "rus": gnb_rus,
            }
        )
    files = {
        "manifest.json": canonical_json({
            "s_nssai": _written(SNssai, plan.s_nssai),
            "nsst_ref": plan.nsst_ref,
            "radio_config": _written(RadioConfig, plan.nsst.radio_config),
            "offered_load_mbps": dict(plan.offered_load_mbps),
            "gnbs": manifest_gnbs,
        }),
        "pnfd-list.json": canonical_json(_written(tuple[RuPnfd, ...], rus)),
    }
    excerpts = [("nsd", nsd, {gnb.nsd_flavor_id for gnb in plan.gnbs})]
    excerpts += [("vnfd", catalog.vnfd(vnfd_id), used_vnf_refs[vnfd_id])  # every ref resolved above
                 for vnfd_id in sorted(used_vnf_refs)]
    for prefix, descriptor, flavor_ids in excerpts:
        files[f"{prefix}-{descriptor.descriptor_id}.json"] = canonical_json({
            "descriptor_id": descriptor.descriptor_id,
            "flavors": _written(tuple[Flavor, ...], [f for f in descriptor.flavors if f.flavor_id in flavor_ids]),
        })
    return files


_BUNDLE_NAME = re.compile(r"manifest\.json|pnfd-list\.json|(nsd|vnfd)-.+\.json")


def write_bundle(bundle: dict[str, str], out_dir: str | Path) -> list[Path]:
    """Check every name, write each file atomically, then remove the other
    bundle files in ``out_dir``, so an older bundle leaves nothing behind."""
    for name in bundle:
        if name in ("", ".", "..") or {"/", "\0", os.sep, os.altsep} & set(name):
            raise DocumentError("UNSAFE_BUNDLE_NAME", f"bundle file name {name!r} is not a plain file name")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / name for name in sorted(bundle)]
    for target in written:
        write_atomic(target, bundle[target.name])
    for stale in out.iterdir():
        if stale.name not in bundle and _BUNDLE_NAME.fullmatch(stale.name) and stale.is_file():
            stale.unlink()
    return written

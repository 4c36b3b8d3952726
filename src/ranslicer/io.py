"""Document formats, canonical serialization and descriptor emission.

Every persisted artifact travels inside a DocumentEnvelope: a JSON object
with ``schema_version``, ``kind`` and a kind-specific ``body``.  Parsing
is strict (unknown or missing fields are diagnostics, not warnings) and
serialization is canonical: sorted keys, two-space indent, trailing
newline, so equal documents always render to equal bytes and
``serialize(parse(serialize(x))) == serialize(x)``.  One writer,
``canonical_json``, makes all canonical text (documents and bundle files);
its output equals ``json.dumps(payload, sort_keys=True, indent=2,
ensure_ascii=True, allow_nan=False) + "\n"`` byte for byte.  An
``IlSubset`` (a plan cites the catalog's own subset objects many times) is
written once per object: its canonical text, at depth 0, is kept on the
object outside its fields, and the writer re-indents that text to the
depth it meets the subset at.

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

Each codec is built on first use and cached, so type hints are resolved
once per class, not per value.  Error paths are built only when a decode
fails: a decoder takes just the JSON value, and each enclosing object or
array catches a PARSE_ERROR on its way out and prepends ``.key`` or ``[i]``.

The onboarding bundle is just its files: ``emit_onboarding_bundle``
returns a dict of file name -> canonical text, and ``write_bundle`` writes
each file atomically.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import tempfile
import typing
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from pathlib import Path
from types import NoneType, UnionType
from typing import Callable, NamedTuple

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
)
from .planner import PlannerConfig, SlicePlan, verify_plan
from .radio import ProfilerPolicy
from .topology import DeploymentArea, Pop, load_area

SCHEMA_VERSION = "1.0.0"


@dataclass(frozen=True)
class SliceRequest:
    """A vertical's slice order: service type, optional differentiator,
    and the requirement vector."""

    sst: Sst
    sd: str | None
    requirements: SliceRequirements


@dataclass(frozen=True)
class DocumentEnvelope:
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

class _Codec(NamedTuple):
    encode: Callable | None  # model value -> JSON value; None writes the value as it is
    decode: Callable  # JSON value -> model value


def _itself(value):
    return value


def _as_tuple(*values):
    return values


def _object_codec(make, entries, tag: str | None = None) -> _Codec:
    """A JSON object with one key per entry, decoded into ``make(*values)``.

    Entries are ``(key, get, codec, add)``: ``get`` reads the value to
    encode, and ``add`` puts the decoded value into ``make``'s arguments
    (``list.extend`` spreads a nested object over several fields).  A
    ``ValueError`` from ``make`` is a diagnostic at the object's path.
    """
    keys = frozenset([key for key, *_ in entries] + (["kind"] if tag else []))
    writers = [(key, get, codec.encode) for key, get, codec, _ in entries]
    readers = [(key, codec.decode, add) for key, _, codec, add in entries]

    def encode(value) -> dict:
        out = {"kind": tag} if tag else {}
        for key, get, write in writers:
            field = get(value)
            out[key] = field if write is None else write(field)
        return out

    def decode(value):
        if not isinstance(value, dict):
            raise _fail(f"expected an object, got {type(value).__name__}")
        if value.keys() != keys:
            unknown = sorted(value.keys() - keys)
            raise _fail(f"unknown field(s): {', '.join(unknown)}" if unknown
                        else f"missing field(s): {', '.join(sorted(keys - value.keys()))}")
        args: list = []
        try:
            for key, read, add in readers:
                add(args, read(value[key]))
        except DocumentError as err:
            err.path = f".{key}{err.path}"
            raise
        try:
            return make(*args)
        except ValueError as err:
            raise _fail(str(err)) from None

    return _Codec(encode, decode)


def _dataclass_codec(cls, tag: str | None = None) -> _Codec:
    hints = typing.get_type_hints(cls)
    fields = []
    for f in dataclasses.fields(cls):
        override = _OVERRIDES.get((cls, f.name))
        key = override if isinstance(override, str) else f.name
        codec = override(hints[f.name]) if callable(override) else _codec(hints[f.name])
        fields.append((key, attrgetter(f.name), codec, list.append))
    entries = []
    for outer, group in itertools.groupby(fields, key=lambda entry: entry[0].partition(".")[0]):
        group = list(group)
        if outer == group[0][0]:
            entries += group
        else:  # "outer.inner" keys: these fields nest in one object under "outer"
            inner = [(key.partition(".")[2], *rest) for key, *rest in group]
            entries.append((outer, _itself, _object_codec(_as_tuple, inner), list.extend))
    return _object_codec(cls, entries, tag)


def _array(item: _Codec, make, write) -> _Codec:
    """A tuple or frozenset as a JSON array: ``make`` builds the model value
    from the decoded items, ``write`` the array from the encoded ones."""

    def decode(value):
        if not isinstance(value, list):
            raise _fail("expected an array")
        items: list = []
        try:
            for x in value:
                items.append(item.decode(x))
        except DocumentError as err:
            err.path = f"[{len(items)}]{err.path}"
            raise
        return make(items)

    if item.encode is None:
        return _Codec(write, decode)
    return _Codec(lambda value: write(map(item.encode, value)), decode)


def _optional(inner: _Codec) -> _Codec:
    def decode(value):
        return None if value is None else inner.decode(value)

    if inner.encode is None:
        return _Codec(None, decode)
    return _Codec(lambda value: None if value is None else inner.encode(value), decode)


def _fixed(encode, decode):
    """Override: a codec given outright."""
    return lambda hint: _Codec(encode, decode)


def _checked(check):
    """Override: the dataclass codec, then ``check`` on every decoded value."""

    def build(cls) -> _Codec:
        encode, decode = _dataclass_codec(cls)
        return _Codec(encode, lambda value: check(decode(value)))

    return build


class _Text:
    """Canonical text of a value at depth 0, without the trailing newline,
    for ``canonical_json`` to write in the value's place."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _written_once(cls) -> _Codec:
    """Override: the dataclass codec, but each object's canonical text is
    written once and kept in its ``__dict__`` (not a field, so equality,
    hashing, ``repr`` and ``dataclasses`` do not see it).  Filling it is
    idempotent: two threads that race on an object compute the same text."""
    encode, decode = _dataclass_codec(cls)

    def encode_text(value) -> _Text:
        text = value.__dict__.get("_canonical_text")
        if text is None:
            text = value.__dict__["_canonical_text"] = canonical_json(encode(value))[:-1]
        return _Text(text)

    return _Codec(encode_text, decode)


def _pairs(label: str):
    """Override for ``tuple[tuple[A, B], ...]``: an array of two-element
    arrays; a fault in either (scalar) item is reported at the pair's path."""

    def build(hint) -> _Codec:
        first, second = map(_codec, typing.get_args(typing.get_args(hint)[0]))
        write_first, write_second = first.encode or _itself, second.encode or _itself

        def encode(pairs) -> list:
            return [[write_first(a), write_second(b)] for a, b in pairs]

        def pair(item) -> tuple:
            if not isinstance(item, list) or len(item) != 2:
                raise _fail(f"expected a {label} pair")
            return first.decode(item[0]), second.decode(item[1])

        return _Codec(encode, _array(_Codec(None, pair), tuple, list).decode)

    return build


def _tagged(noun: str, kind_noun: str, members: dict[str, type]):
    """Override for a union of dataclasses: an object whose ``kind`` names
    the member."""

    def build(union) -> _Codec:
        by_tag = {tag: _dataclass_codec(cls, tag) for tag, cls in members.items()}
        by_type = {cls: by_tag[tag].encode for tag, cls in members.items()}

        def decode(value):
            if not isinstance(value, dict) or "kind" not in value:
                raise _fail(f"expected {noun} with a 'kind' tag")
            kind = value["kind"]
            member = by_tag.get(kind) if isinstance(kind, str) else None
            if member is None:
                raise _fail(f"unknown {kind_noun} kind {kind!r}")
            return member.decode(value)

        return _Codec(lambda value: by_type[type(value)](value), decode)

    return build


# Every departure of the JSON from the fields.  A (class, field) key gives
# either the field's JSON key ("outer.inner" nests it) or a codec builder
# for the field's type hint; a type key gives a codec builder for the type.
_OVERRIDES = {
    (InstantiationLevel, "role_capacity"): "role",
    (Pop, "host_capacity_vcpu"): "host_capacity.vcpu",
    (Pop, "host_capacity_ram_gb"): "host_capacity.ram_gb",
    (SlicePlan, "offered_load_mbps"): _fixed(dict, _loads),
    (GnbSubsetKey, "served_regions"): _pairs("[region_class, fronthaul_tech]"),
    (ProfilerPolicy, "latency_to_mu_thresholds"): _pairs("[max_latency_ms, mu]"),
    RoleCapacity: _tagged("a role object", "role",
                          {"DU": DuIlCapacity, "CU": CuIlCapacity, "GNB": GnbIlCapacity}),
    SubsetKey: _tagged("a subset key", "subset key",
                       {"DU": DuSubsetKey, "CU": CuSubsetKey, "GNB": GnbSubsetKey}),
    Sst: _fixed(int, _sst),
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
        return _Codec(None, _PRIMITIVES[hint])
    if isinstance(hint, type) and issubclass(hint, Enum):
        return _Codec(attrgetter("value"), functools.partial(_enum, {m.value: m for m in hint}))
    if dataclasses.is_dataclass(hint):
        return _dataclass_codec(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, UnionType) and len(args) == 2 and NoneType in args:
        return _optional(_codec(args[0] if args[1] is NoneType else args[1]))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _array(_codec(args[0]), tuple, list)
    if origin is frozenset:
        return _array(_codec(args[0]), frozenset, sorted)
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
    if envelope.kind not in _BODY_TYPES:
        raise DocumentError("UNKNOWN_KIND", f"unknown document kind {envelope.kind!r}")
    return canonical_json({
        "schema_version": SCHEMA_VERSION,
        "kind": envelope.kind,
        "body": _codec(_BODY_TYPES[envelope.kind]).encode(envelope.body),
    })


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


def canonical_json(payload) -> str:
    """Canonical text of a JSON value: the bytes of ``json.dumps(payload,
    sort_keys=True, indent=2, ensure_ascii=True, allow_nan=False) + "\\n"``.

    Object keys must be strings.  NaN and infinities raise ``ValueError``,
    any other type ``TypeError``.  With an indent, ``json.dumps`` falls
    back to CPython's pure-Python encoder; this writer skips its generator
    chain and writes scalars inside each container's own loop.

    A ``_Text`` from the codec is written as the value it was made from:
    its depth-0 text with every newline indented to the depth it is met at
    (canonical text escapes the newlines inside strings).
    """
    parts: list[str] = []
    append = parts.append
    scalar = _SCALAR_TEXT.get
    indents = ["\n"]  # indents[d]: a newline and the indent of depth d

    def write(value, depth: int) -> None:
        text = scalar(type(value))
        if text is not None:
            append(text(value))
            return
        is_dict = isinstance(value, dict)
        if not is_dict and not isinstance(value, (list, tuple)):
            append(value.text.replace("\n", indents[depth]) if type(value) is _Text
                   else _subclass_text(value))
            return
        if not value:
            append("{}" if is_dict else "[]")
            return
        depth += 1
        if depth == len(indents):
            indents.append(indents[-1] + "  ")
        lead, sep = indents[depth], "," + indents[depth]
        if is_dict:
            append("{")
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                item = value[key]
                text = scalar(type(item))
                if text is None:
                    append(f"{lead}{_quote(key)}: ")
                    write(item, depth)
                else:
                    append(f"{lead}{_quote(key)}: {text(item)}")
                lead = sep
            append(indents[depth - 1] + "}")
        else:
            append("[")
            for item in value:
                text = scalar(type(item))
                if text is None:
                    append(lead)
                    write(item, depth)
                else:
                    append(lead + text(item))
                lead = sep
            append(indents[depth - 1] + "]")

    write(payload, 0)
    append("\n")
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
    with one DANGLING_PLAN_REFERENCE.  So does a gNB IL's reference to a
    VNFD IL that no longer resolves.
    """
    problems = verify_plan(plan, None, catalog)
    if problems:
        raise _dangling("; ".join(problems))
    nsd = catalog.gnb_nsd(plan.nsst.nsd_ref)
    rus = [catalog.ru(ru_id) for ru_id in plan.selected_rus]
    subset_key = _codec(SubsetKey).encode
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
            il_ids = {lvl.il_id for lvl in du.il_subset.levels}
            return sorted({ref.vnfd_id for ref in du_ref_pool if ref.il_id in il_ids})
        gnb_sites = {site for du in gnb.dus for site in du.served_cell_sites}
        gnb_rus = sorted(ru.ru_id for ru in rus if ru.location.cell_site in gnb_sites)
        manifest_gnbs.append(
            {
                "gnb_id": gnb.gnb_id,
                "nsd_ref": nsd.descriptor_id,
                "flavor_id": gnb.nsd_flavor_id,
                "il_subset_key": subset_key(gnb.nsd_il_subset.key),
                "cu": {
                    "host_pop": gnb.cu.host_pop,
                    "vnfd_ids": sorted({ref.vnfd_id for ref in cu_refs}),
                    "il_subset_key": subset_key(gnb.cu.il_subset.key),
                },
                "dus": [
                    {
                        "du_id": du.du_id,
                        "region_id": du.region_id,
                        "vnfd_ids": du_vnfd_ids(du),
                        "vnfd_flavor": du.vnfd_flavor.value,
                        "il_subset_key": subset_key(du.il_subset.key),
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
            "s_nssai": _codec(SNssai).encode(plan.s_nssai),
            "nsst_ref": plan.nsst_ref,
            "radio_config": _codec(RadioConfig).encode(plan.nsst.radio_config),
            "offered_load_mbps": dict(plan.offered_load_mbps),
            "gnbs": manifest_gnbs,
        }),
        "pnfd-list.json": canonical_json([_codec(RuPnfd).encode(ru) for ru in rus]),
    }
    excerpts = [("nsd", nsd, {gnb.nsd_flavor_id for gnb in plan.gnbs})]
    excerpts += [("vnfd", catalog.vnfd(vnfd_id), used_vnf_refs[vnfd_id])  # every ref resolved above
                 for vnfd_id in sorted(used_vnf_refs)]
    for prefix, descriptor, flavor_ids in excerpts:
        files[f"{prefix}-{descriptor.descriptor_id}.json"] = canonical_json({
            "descriptor_id": descriptor.descriptor_id,
            "flavors": [_codec(Flavor).encode(f) for f in descriptor.flavors if f.flavor_id in flavor_ids],
        })
    return files


def write_bundle(bundle: dict[str, str], out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(bundle):
        target = out / name
        write_atomic(target, bundle[name])
        written.append(target)
    return written

"""Document round-trips, strict parsing, canonical form, bundle emission."""

import dataclasses
import enum
import gc
import hashlib
import json
import os
import pickle
import random
import sys
import threading
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import docgen
from ranslicer import io as io_module
from ranslicer.builtin import builtin_catalog, reference_requests
from ranslicer.errors import DocumentError
from ranslicer.io import (
    DocumentEnvelope,
    SliceRequest,
    _Text,
    canonical_json,
    emit_onboarding_bundle,
    envelope_for,
    parse_document,
    serialize_document,
    write_atomic,
    write_bundle,
)
from ranslicer.model import (
    DuIlCapacity,
    FronthaulTech,
    GnbIlCapacity,
    GnbSubsetKey,
    IlSubset,
    InstantiationLevel,
    Sst,
    VmSpec,
    VnfIlRef,
)
from ranslicer.planner import PlannerConfig, plan_slice, verify_plan
from ranslicer.topology import DeploymentArea, Pop, PopTier, TransportLink

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("kind", sorted(docgen.GENERATORS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_roundtrip_identity(kind, seed):
    body = docgen.GENERATORS[kind](random.Random(seed))
    envelope = envelope_for(body)
    assert envelope.kind == kind
    text = serialize_document(envelope)
    parsed = parse_document(text)
    assert parsed == envelope
    assert serialize_document(parsed) == text


def test_builtin_catalog_roundtrips_bit_exact(catalog):
    text = serialize_document(envelope_for(catalog))
    assert serialize_document(parse_document(text)) == text
    assert parse_document(text).body == catalog


def test_reference_plan_roundtrips(catalog, area, requests):
    plan = plan_slice(requests[Sst.MMTC], Sst.MMTC, area, catalog)
    text = serialize_document(envelope_for(plan))
    assert parse_document(text).body == plan
    assert serialize_document(parse_document(text)) == text


def test_field_order_does_not_matter(catalog):
    # The same subset key written with its pairs swapped canonicalizes to
    # identical bytes.
    a = GnbSubsetKey((("SUBURBAN", FronthaulTech.CPRI), ("CITY_CENTER", FronthaulTech.ECPRI)))
    b = GnbSubsetKey((("CITY_CENTER", FronthaulTech.ECPRI), ("SUBURBAN", FronthaulTech.CPRI)))
    assert a == b
    nsd = catalog.gnb_nsds[0]
    reordered = dataclasses.replace(catalog, gnb_nsds=(nsd,), ru_pnfds=tuple(catalog.ru_pnfds))
    assert serialize_document(envelope_for(reordered)) == serialize_document(
        envelope_for(dataclasses.replace(catalog))
    )


def test_codecs_are_built_once_per_type(catalog, area, requests, monkeypatch):
    plan = plan_slice(requests[Sst.MMTC], Sst.MMTC, area, catalog)

    def round_trip():
        for body in (catalog, area, plan):
            parse_document(serialize_document(envelope_for(body)))
        emit_onboarding_bundle(plan, catalog)

    round_trip()

    def no_reflection(*args, **kwargs):
        raise AssertionError("type reflection after the codecs were built")

    monkeypatch.setattr(typing, "get_type_hints", no_reflection)
    monkeypatch.setattr(io_module, "_type_hints", no_reflection)
    monkeypatch.setattr(dataclasses, "fields", no_reflection)
    monkeypatch.setattr(dataclasses, "is_dataclass", no_reflection)
    round_trip()


def test_codec_type_hints_are_typings():
    """For every class a codec of the six body types reads, the codec's
    resolved hints equal ``typing.get_type_hints``."""
    todo, seen = list(io_module._BODY_TYPES.values()), set()

    def classes_in(hint):
        if dataclasses.is_dataclass(hint):
            yield hint
        for arg in typing.get_args(hint):
            yield from classes_in(arg)

    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        hints = typing.get_type_hints(cls)
        assert io_module._type_hints(cls) == hints, cls.__qualname__
        todo += [c for hint in hints.values() for c in classes_in(hint)]
    assert len(seen) > 30  # the walk reached the records inside the bodies


def test_canonical_output_has_sorted_keys(catalog):
    text = serialize_document(envelope_for(catalog))
    raw = json.loads(text)
    assert list(raw) == sorted(raw)
    assert text.endswith("\n")


class _Level(enum.IntEnum):
    LOW = 1
    HUGE = 10**30


class _Tag(str, enum.Enum):
    PLAIN = "plain"
    ODD = "\u00e9\x01\ud800"


class _Ratio(float):
    def __repr__(self):
        return "not the number"


# Strings that need escaping turn up often: non-ASCII, control characters,
# lone surrogates, quotes, backslashes and the JSON-legal line separators.
_strings = st.one_of(
    st.text(st.characters(codec=None, exclude_categories=()), max_size=8),
    st.sampled_from(["", "\u00e9", "\x00", "\x1f\x7f", "\ud800", "\udfff\ud83d", "\U0001f600",
                     "\u2028\u2029", '"\\/', "\n\t\r\b\f"]),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e16, 0.1, 2.0**53 + 2]),
    st.floats(allow_nan=False, allow_infinity=False).map(_Ratio),
    _strings,
    st.sampled_from([*_Level, *_Tag]),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(_strings, st.sampled_from(list(_Tag))), children, max_size=4),
    )


_json_values = st.recursive(_scalars, _containers, max_leaves=24)


@st.composite
def _aliased_values(draw):
    """A JSON value in which container objects recur at several places and
    depths: one or two drawn containers as leaves of a drawn tree, and the
    tree itself twice at one depth and again one and two levels deeper."""
    small = st.recursive(_scalars, _containers, max_leaves=6)
    shared = draw(st.lists(_containers(small), min_size=1, max_size=2))
    tree = draw(st.recursive(st.one_of(_scalars, st.sampled_from(shared)), _containers, max_leaves=16))
    return [tree, *shared, {"again": tree, "deeper": [tree]}, tree]


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True, allow_nan=False)


@st.composite
def _marked_values(draw):
    """A JSON value, and a copy of it in which random container subtrees,
    at any depth and the value itself included, are text markers holding
    the subtree's depth-0 text; a subtree that recurs gets one marker."""
    value = draw(st.one_of(_json_values, _aliased_values()))
    markers: dict[int, _Text | None] = {}

    def mark(sub):
        if not isinstance(sub, (dict, list, tuple)):
            return sub
        if id(sub) not in markers:
            markers[id(sub)] = _Text(_dumps(sub)) if draw(st.booleans()) else None
        if markers[id(sub)] is not None:
            return markers[id(sub)]
        if isinstance(sub, dict):
            return {key: mark(item) for key, item in sub.items()}
        return type(sub)(map(mark, sub))

    return value, mark(value)


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(values=_marked_values())
    def test_equals_json_dumps(self, values):
        value, marked = values
        expected = _dumps(value) + "\n"
        assert canonical_json(value) == expected
        # A marker is written as the subtree it holds, re-indented to the depth it is met at.
        assert canonical_json(marked) == expected

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), _Ratio("nan")])
    def test_non_finite_floats_raise_value_error(self, bad):
        for value in (bad, [1, bad], {"a": {"b": bad}}):
            with pytest.raises(ValueError):
                canonical_json(value)

    @pytest.mark.parametrize("bad", [{1, 2}, b"bytes", frozenset(), object(), {1: "int key"}])
    def test_other_types_raise_type_error(self, bad):
        for value in (bad, [bad], {"a": (1, bad)}):
            with pytest.raises(TypeError):
                canonical_json(value)


class _Name(str):
    def __repr__(self):
        return "not the name"

    __str__ = __repr__


class TestFieldValuesOffTheirHints:
    """A field is written by its value's exact type, as ``canonical_json``
    writes it, not by its hint; these texts are those of the codec's
    earlier encoder, which built a JSON dict first."""

    def test_bools_ints_and_subclasses_keep_their_text(self):
        area = DeploymentArea((), (Pop(_Name("p\u00e9"), PopTier.EDGE, True, 2),),
                              (TransportLink("a", _Name("b"), _Ratio(1.5)),), ())
        assert serialize_document(envelope_for(area)) == """{
  "body": {
    "links": [
      {
        "a": "a",
        "b": "b",
        "latency_ms": 1.5
      }
    ],
    "pops": [
      {
        "host_capacity": {
          "ram_gb": 2,
          "vcpu": true
        },
        "pop_id": "p\\u00e9",
        "tier": "EDGE"
      }
    ],
    "regions": [],
    "rus": []
  },
  "kind": "TOPOLOGY",
  "schema_version": "1.0.0"
}
"""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_floats_raise_value_error(self, bad):
        for area, shown in ((DeploymentArea((), (Pop("p", PopTier.EDGE, 1, bad),), (), ()), repr(bad)),
                            (DeploymentArea((), (), (TransportLink("a", "b", _Ratio(bad)),), ()), "not the number")):
            with pytest.raises(ValueError) as info:
                serialize_document(envelope_for(area))
            assert str(info.value) == f"Out of range float values are not JSON compliant: {shown}"


def _plans(catalog, area, requests) -> dict[str, object]:
    """Reference plans on ``catalog`` and a scaled greedy plan on a catalog of its own."""
    plans = {sst.name: plan_slice(requests[sst], sst, area, catalog) for sst in requests}
    plans["scaled"] = docgen.scaled_greedy_plan(random.Random(5))
    return plans


def test_shared_and_distinct_subsets_serialize_alike(catalog, area, requests):
    texts = {name: (plan, serialize_document(envelope_for(plan)))
             for name, plan in _plans(catalog, area, requests).items()}
    scaled = texts["scaled"][0]  # a fresh plan: its DUs share the catalog's subset objects
    assert len({id(du.il_subset) for gnb in scaled.gnbs for du in gnb.dus}) < len(scaled.gnbs)
    for name, (plan, text) in texts.items():
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text, name
        parsed = parse_document(text).body  # equal subsets, each its own object
        subsets = [du.il_subset for gnb in parsed.gnbs for du in gnb.dus]
        assert len({id(s) for s in subsets}) == len(subsets), name
        assert serialize_document(envelope_for(parsed)) == text, name


@pytest.mark.parametrize("first", ["bundle", "plan"])
def test_subset_text_is_reindented_wherever_it_is_met(area, requests, first):
    """A subset's text is kept where it is first written: in a bundle
    excerpt, whose flavors nest it deeper than a plan does, or in a plan."""
    for sst, requirements in requests.items():
        name = sst.name.lower()
        catalog = builtin_catalog()  # no subset of it written yet
        plan = plan_slice(requirements, sst, area, catalog)
        pinned = (DATA / f"plan_{name}.json").read_text()
        bundle = {path.name: path.read_text() for path in (DATA / f"bundle_{name}").iterdir()}
        if first == "bundle":
            assert emit_onboarding_bundle(plan, catalog) == bundle, name
        assert [serialize_document(envelope_for(plan)) for _ in range(2)] == [pinned] * 2, name
        parsed = parse_document(pinned).body
        assert [serialize_document(envelope_for(parsed)) for _ in range(2)] == [pinned] * 2, name
        assert emit_onboarding_bundle(plan, catalog) == bundle, name
        assert emit_onboarding_bundle(parsed, catalog) == bundle, name


def test_written_subset_equals_a_never_written_copy(catalog):
    serialize_document(envelope_for(catalog))
    for descriptor in (catalog.gnb_nsds[0], catalog.cu_vnfds[0], catalog.du_vnfds[0]):
        written = descriptor.flavors[0].il_subsets[0]
        copy = IlSubset(written.key, written.levels)
        assert set(vars(written)) > set(vars(copy))  # the written one keeps its text
        assert [f.name for f in dataclasses.fields(written)] == ["key", "levels"]
        assert written == copy and hash(written) == hash(copy)
        assert repr(written) == repr(copy)
        assert dataclasses.asdict(written) == dataclasses.asdict(copy)
        assert dataclasses.replace(written) == copy
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(written, protocol))
            assert loaded == copy and hash(loaded) == hash(copy) and repr(loaded) == repr(copy)


def test_subsets_made_after_freed_ones_get_their_own_text():
    # Each catalog is freed before the next is drawn, so a new subset may
    # get the id of a freed one that was written with other content.
    for seed in range(40):
        body = docgen.GENERATORS["CATALOG"](random.Random(seed))
        text = serialize_document(envelope_for(body))
        assert parse_document(text).body == body, seed
        del body, text
        gc.collect()


def test_concurrent_serializes_match_serial_ones(catalog, area, requests):
    texts = {name: serialize_document(envelope_for(plan))
             for name, plan in _plans(catalog, area, requests).items()}
    # Cold memos: these plans cite a catalog parsed here and not yet serialized.
    parsed = parse_document(serialize_document(envelope_for(catalog))).body
    plans = _plans(parsed, area, requests)
    results: dict[str, list[str]] = {name: [] for name in plans}
    start = threading.Barrier(len(plans))

    def serialize(name):
        start.wait(timeout=30)
        for _ in range(20):
            results[name].append(serialize_document(envelope_for(plans[name])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=serialize, args=(name,)) for name in plans]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == 4 and not any(thread.is_alive() for thread in threads)
    for name, text in texts.items():
        assert results[name] == [text] * 20, name


def _every_region_plan(n_regions: int):
    """The area, catalog and greedy plan of every region of a
    ``docgen.grid_area`` (one edge PoP per ten regions), planned against
    ``suburban_catalog`` given the area's RU PNFDs."""
    area = docgen.grid_area(random.Random(n_regions), n_regions, n_regions // 10)
    request = dataclasses.replace(reference_requests()[Sst.URLLC],
                                  target_regions=tuple(region.region_id for region in area.regions))
    catalog = dataclasses.replace(docgen.suburban_catalog(), ru_pnfds=area.rus)
    return area, catalog, plan_slice(request, Sst.URLLC, area, catalog)


def _scaled_digests(n_regions: int) -> dict[str, str]:
    """SHA-256 of the greedy plan of every region of a ``docgen.grid_area``
    (one edge PoP per ten regions), and of the plan's bundle."""
    _, catalog, plan = _every_region_plan(n_regions)
    bundle = emit_onboarding_bundle(plan, catalog)
    texts = {"plan": serialize_document(envelope_for(plan)),
             "bundle": "".join(f"{name}\n{text}" for name, text in sorted(bundle.items()))}
    return {part: hashlib.sha256(text.encode()).hexdigest() for part, text in texts.items()}


@pytest.mark.parametrize("n_regions", [800, 1600])
def test_greedy_plans_and_bundles_at_scale_match_their_pins(n_regions):
    # No reference plan has more than 48 target regions, so these pins are what
    # guards the greedy path's and the writers' bytes at scale.
    pins = json.loads((DATA / "scaled_digests.json").read_text())
    assert _scaled_digests(n_regions) == pins[str(n_regions)]


@pytest.mark.parametrize("n_regions, missing_rus", [(100, 9), (100, 10), (800, 4800)])
def test_dangling_message_lists_at_most_ten_problems(n_regions, missing_rus):
    # The greedy plan of every region, emitted against a catalog that lacks
    # the first RU PNFDs: one problem per missing RU, then one for their sites.
    area, catalog, plan = _every_region_plan(n_regions)
    lacking = dataclasses.replace(catalog, ru_pnfds=area.rus[missing_rus:])
    problems = verify_plan(plan, None, lacking)
    assert len(problems) == missing_rus + 1
    with pytest.raises(DocumentError) as err:
        emit_onboarding_bundle(plan, lacking)
    assert (err.value.code, err.value.stage) == ("DANGLING_PLAN_REFERENCE", None)
    more = [f"and {len(problems) - 10} more, {len(problems)} in all"] if len(problems) > 10 else []
    assert err.value.args[0] == "; ".join(problems[:10] + more)


def test_coverage_problems_list_at_most_ten_sites():
    # Without its selected RUs, the plan of every region of 800 serves
    # 4,800 cell sites that no selected RU covers: one problem, ten sites named.
    _, catalog, plan = _every_region_plan(800)
    sites = sorted(site for gnb in plan.gnbs for du in gnb.dus for site in du.served_cell_sites)
    bare = dataclasses.replace(plan, selected_rus=())
    expected = (f"served cell sites without a selected RU: {', '.join(sites[:10])}, "
                f"and {len(sites) - 10} more, {len(sites)} in all")
    assert len(sites) == 4800 and verify_plan(bare, None, catalog) == [expected]
    with pytest.raises(DocumentError) as err:
        emit_onboarding_bundle(bare, catalog)
    assert err.value.args[0] == expected
    # The other coverage problem: selected RUs whose sites no DU serves.
    unserved = dataclasses.replace(plan, gnbs=plan.gnbs[:1])
    problems = verify_plan(unserved, None, catalog)
    served = {site for du in plan.gnbs[0].dus for site in du.served_cell_sites}
    missing = [site for site in sites if site not in served]
    assert (f"cell sites of selected RUs not served: {', '.join(missing[:10])}, "
            f"and {len(missing) - 10} more, {len(missing)} in all") in problems


class TestStrictParsing:
    def test_truncated_document_reports_position(self, catalog):
        text = serialize_document(envelope_for(catalog))[:200]
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert err.value.code == "PARSE_ERROR"
        assert err.value.line is not None and err.value.column is not None
        with pytest.raises(DocumentError) as err:
            parse_document("{")
        assert str(err.value) == "PARSE_ERROR: Expecting property name enclosed in double quotes at line 1, column 2"

    def test_unknown_envelope_field(self):
        with pytest.raises(DocumentError) as err:
            parse_document('{"schema_version": "1.0.0", "kind": "PLANNER_CONFIG", "body": {}, "x": 1}')
        assert err.value.code == "PARSE_ERROR"
        assert "x" in str(err.value)

    def test_missing_envelope_field(self):
        with pytest.raises(DocumentError) as err:
            parse_document('{"schema_version": "1.0.0", "kind": "PLANNER_CONFIG"}')
        assert (err.value.code, err.value.path, err.value.args[0]) == (
            "PARSE_ERROR", "$", "missing envelope field(s): body")

    def test_unsupported_version(self):
        with pytest.raises(DocumentError) as err:
            parse_document('{"schema_version": "9.0.0", "kind": "PLANNER_CONFIG", "body": {}}')
        assert err.value.code == "UNSUPPORTED_VERSION"

    def test_unknown_kind(self):
        with pytest.raises(DocumentError) as err:
            parse_document('{"schema_version": "1.0.0", "kind": "WIBBLE", "body": {}}')
        assert err.value.code == "UNKNOWN_KIND"
        for kind in ("[1]", "{}"):
            with pytest.raises(DocumentError) as err:
                parse_document(f'{{"schema_version": "1.0.0", "kind": {kind}, "body": {{}}}}')
            assert (err.value.code, err.value.args[0]) == ("UNKNOWN_KIND", f"unknown document kind {kind}")
        with pytest.raises(DocumentError) as err:
            serialize_document(DocumentEnvelope("NOPE", PlannerConfig()))
        assert str(err.value) == "UNKNOWN_KIND: unknown document kind 'NOPE'"

    def test_serializing_a_body_of_another_kind_is_a_type_error(self, catalog, area, policy, requests):
        plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog)
        bodies = (catalog, area, SliceRequest(Sst.EMBB, None, requests[Sst.EMBB]), plan, policy, PlannerConfig())
        kinds = [envelope_for(body).kind for body in bodies]
        assert sorted(kinds) == sorted(docgen.GENERATORS)
        for kind in kinds:
            for body in bodies:
                if envelope_for(body).kind != kind:
                    with pytest.raises(TypeError, match=f"^a {kind} body must be a .+, not {type(body).__name__}$"):
                        serialize_document(DocumentEnvelope(kind, body))

    def test_kind_body_mismatch_is_a_shape_diagnostic(self, area):
        topology_body = json.loads(serialize_document(envelope_for(area)))["body"]
        mismatched = json.dumps(
            {"schema_version": "1.0.0", "kind": "CATALOG", "body": topology_body}
        )
        with pytest.raises(DocumentError) as err:
            parse_document(mismatched)
        assert err.value.code == "PARSE_ERROR"
        assert "field" in str(err.value)

    def test_unknown_body_field_rejected(self, config):
        text = serialize_document(envelope_for(config))
        raw = json.loads(text)
        raw["body"]["surprise"] = 1
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(raw))
        assert "surprise" in str(err.value)

    def test_invalid_topology_rejected_at_parse(self, area):
        raw = json.loads(serialize_document(envelope_for(area)))
        raw["body"]["rus"] = raw["body"]["rus"][1:]  # first cell site loses its RU
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(raw))
        assert err.value.code == "PARSE_ERROR"
        assert "hosts no RU" in str(err.value)

    def test_non_object_document(self):
        with pytest.raises(DocumentError):
            parse_document("[1, 2, 3]")


class TestOnboardingBundle:
    def test_mmtc_bundle_names_flavor_3_and_the_triple(self, catalog, area, requests):
        plan = plan_slice(requests[Sst.MMTC], Sst.MMTC, area, catalog)
        bundle = emit_onboarding_bundle(plan, catalog)
        entry = json.loads(bundle["manifest.json"])["gnbs"][0]
        assert entry["flavor_id"] == 3
        assert entry["il_subset_key"]["served_regions"] == [
            ["CITY_CENTER", "ECPRI"], ["INDUSTRIAL", "ECPRI"], ["SUBURBAN", "CPRI"],
        ]
        assert entry["nsd_ref"] == "nsd-gnb-v1"
        assert {d["du_id"] for d in entry["dus"]} == {du.du_id for du in plan.gnbs[0].dus}
        assert all(d["vnfd_ids"] == ["vnfd-du-v1"] for d in entry["dus"])
        assert entry["cu"]["vnfd_ids"] == ["vnfd-cu-v1"]
        assert sorted(entry["rus"]) == sorted(plan.selected_rus)
        assert set(bundle) == {
            "manifest.json", "pnfd-list.json", "nsd-nsd-gnb-v1.json",
            "vnfd-vnfd-cu-v1.json", "vnfd-vnfd-du-v1.json",
        }

    def test_embb_bundle_names_flavor_2(self, catalog, area, requests):
        plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog)
        bundle = emit_onboarding_bundle(plan, catalog)
        manifest = json.loads(bundle["manifest.json"])
        assert manifest["gnbs"][0]["flavor_id"] == 2
        assert manifest["radio_config"]["numerology_mu"] == 2
        nsd_excerpt = json.loads(bundle["nsd-nsd-gnb-v1.json"])
        assert [f["flavor_id"] for f in nsd_excerpt["flavors"]] == [2]

    def test_deleted_vnfd_is_dangling(self, catalog, area, requests):
        plan = plan_slice(requests[Sst.URLLC], Sst.URLLC, area, catalog)
        gutted = dataclasses.replace(catalog, du_vnfds=())
        with pytest.raises(DocumentError) as err:
            emit_onboarding_bundle(plan, gutted)
        assert err.value.code == "DANGLING_PLAN_REFERENCE"

    def test_deleted_rus_are_dangling(self, catalog, area, requests):
        plan = plan_slice(requests[Sst.URLLC], Sst.URLLC, area, catalog)
        gutted = dataclasses.replace(catalog, ru_pnfds=catalog.ru_pnfds[:2])
        with pytest.raises(DocumentError) as err:
            emit_onboarding_bundle(plan, gutted)
        assert err.value.code == "DANGLING_PLAN_REFERENCE"

    def test_deleted_nsd_is_dangling(self, catalog, area, requests):
        plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog)
        with pytest.raises(DocumentError) as err:
            emit_onboarding_bundle(plan, dataclasses.replace(catalog, gnb_nsds=()))
        assert err.value.code == "DANGLING_PLAN_REFERENCE"
        assert str(err.value) == (
            "DANGLING_PLAN_REFERENCE: gNB NSD 'nsd-gnb-v1' not in catalog; "
            "gnb-01: gNB IL subset is not gNB NSD nsd-gnb-v1 flavor 2's subset for 2 DUs in (CITY_CENTER, ECPRI)"
        )

    def test_flavor_without_the_subset_is_dangling(self, catalog, area, requests):
        plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog)
        moved = dataclasses.replace(plan, gnbs=(dataclasses.replace(plan.gnbs[0], nsd_flavor_id=3),))
        with pytest.raises(DocumentError) as err:
            emit_onboarding_bundle(moved, catalog)
        assert err.value.code == "DANGLING_PLAN_REFERENCE"
        assert str(err.value) == ("DANGLING_PLAN_REFERENCE: gnb-01: gNB IL subset is not gNB NSD nsd-gnb-v1 "
                                  "flavor 3's subset for 2 DUs in (CITY_CENTER, ECPRI); gnb-01: gNB NSD flavor 3 "
                                  "is not the flavor for fronthaul ECPRI")

    @staticmethod
    def _embb_plan_with(catalog, area, requests, rename):
        """The eMBB plan with one IL subset's IL ids suffixed "-x", serialized
        and parsed back, so it no longer shares objects with the catalog."""
        plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog)

        def renamed(subset):
            levels = tuple(dataclasses.replace(lvl, il_id=f"{lvl.il_id}-x") for lvl in subset.levels)
            return dataclasses.replace(subset, levels=levels)

        gnbs = (rename(plan.gnbs[0], renamed),) + plan.gnbs[1:]
        text = serialize_document(envelope_for(dataclasses.replace(plan, gnbs=gnbs)))
        return parse_document(text).body

    def test_du_subset_no_gnb_level_references_is_dangling(self, catalog, area, requests):
        def rename(gnb, renamed):
            du = dataclasses.replace(gnb.dus[0], il_subset=renamed(gnb.dus[0].il_subset))
            return dataclasses.replace(gnb, dus=(du,) + gnb.dus[1:])

        plan = self._embb_plan_with(catalog, area, requests, rename)
        with pytest.raises(DocumentError) as err:
            emit_onboarding_bundle(plan, catalog)
        assert err.value.code == "DANGLING_PLAN_REFERENCE"
        assert str(err.value) == (
            "DANGLING_PLAN_REFERENCE: du-city-center-01: IL subset is not the DU VNFD's subset for 4 cell sites "
            "in (CITY_CENTER, ECPRI); gnb-01: gNB IL subset is not gNB NSD nsd-gnb-v1 flavor 2's subset for "
            "2 DUs in (CITY_CENTER, ECPRI)"
        )

    def test_du_subset_the_catalog_lacks_is_dangling(self, catalog, area, requests):
        def rekeyed(gnb, _):  # the catalog's levels under a key no DU subset carries
            du = gnb.dus[0]
            subset = dataclasses.replace(du.il_subset, key=dataclasses.replace(du.il_subset.key, max_cell_sites=7))
            return dataclasses.replace(gnb, dus=(dataclasses.replace(du, il_subset=subset),) + gnb.dus[1:])

        plan = self._embb_plan_with(catalog, area, requests, rekeyed)
        missing = "du-city-center-01: IL subset is not the DU VNFD's subset for 4 cell sites in (CITY_CENTER, ECPRI)"
        no_gnb_subset = ("gnb-01: gNB IL subset is not gNB NSD nsd-gnb-v1 flavor 2's subset for 2 DUs in "
                         "(CITY_CENTER, ECPRI) + (CITY_CENTER, ECPRI)")
        assert verify_plan(plan, None, catalog) == [missing, no_gnb_subset]
        assert verify_plan(plan, area, catalog) == [missing, no_gnb_subset]
        with pytest.raises(DocumentError) as err:
            emit_onboarding_bundle(plan, catalog)
        assert str(err.value) == f"DANGLING_PLAN_REFERENCE: {missing}; {no_gnb_subset}"

    def test_cu_subset_no_gnb_level_references_is_dangling(self, catalog, area, requests):
        def rename(gnb, renamed):
            return dataclasses.replace(gnb, cu=dataclasses.replace(gnb.cu, il_subset=renamed(gnb.cu.il_subset)))

        plan = self._embb_plan_with(catalog, area, requests, rename)
        with pytest.raises(DocumentError) as err:
            emit_onboarding_bundle(plan, catalog)
        assert err.value.code == "DANGLING_PLAN_REFERENCE"
        assert str(err.value).endswith(
            f"{plan.gnbs[0].gnb_id}: gNB IL subset is not gNB NSD nsd-gnb-v1 flavor 2's subset for 2 DUs in "
            "(CITY_CENTER, ECPRI)"
        )

    @staticmethod
    def _with_city_center_level(catalog, level):
        """The catalog with ``level`` appended to gNB NSD flavor 2's city-center IL subset."""
        nsd = catalog.gnb_nsds[0]
        city_center = GnbSubsetKey((("CITY_CENTER", FronthaulTech.ECPRI),))
        flavors = tuple(
            dataclasses.replace(f, il_subsets=tuple(
                dataclasses.replace(s, levels=s.levels + (level,)) if s.key == city_center else s
                for s in f.il_subsets))
            if f.flavor_id == 2 else f
            for f in nsd.flavors
        )
        return dataclasses.replace(catalog, gnb_nsds=(dataclasses.replace(nsd, flavors=flavors),))

    def test_levels_without_a_gnb_role_are_skipped(self, catalog, area, requests):
        level = InstantiationLevel("gnb-f2-cc-du-role", VmSpec(2, 2.0, 4.0), DuIlCapacity(8, 1_000.0))
        extended = self._with_city_center_level(catalog, level)
        plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, extended)
        assert all(gnb.nsd_il_subset.levels[-1] is level for gnb in plan.gnbs)
        manifest = json.loads(emit_onboarding_bundle(plan, extended)["manifest.json"])
        assert [gnb["cu"]["vnfd_ids"] for gnb in manifest["gnbs"]] == [["vnfd-cu-v1"]] * len(plan.gnbs)
        assert {tuple(du["vnfd_ids"]) for gnb in manifest["gnbs"] for du in gnb["dus"]} == {("vnfd-du-v1",)}

    def test_unresolved_vnfd_il_reference_is_dangling(self, catalog, area, requests):
        missing = VnfIlRef("vnfd-du-v1", 1, "du-missing")
        role = GnbIlCapacity(1, VnfIlRef("vnfd-cu-v1", 1, "cu-s2-l1"), (missing,), 1_000.0)
        extended = self._with_city_center_level(catalog, InstantiationLevel("gnb-f2-cc-l3", VmSpec(2, 2.0, 4.0), role))
        plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, extended)
        with pytest.raises(DocumentError) as err:
            emit_onboarding_bundle(plan, extended)
        assert str(err.value) == (
            "DANGLING_PLAN_REFERENCE: gnb-01: VNFD IL reference "
            "VnfIlRef(vnfd_id='vnfd-du-v1', flavor_id=1, il_id='du-missing') does not resolve"
        )

    def test_bundle_files_are_canonical_and_written_atomically(self, catalog, area, requests, tmp_path):
        plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog)
        bundle = emit_onboarding_bundle(plan, catalog)
        written = write_bundle(bundle, tmp_path / "bundle")
        assert sorted(p.name for p in written) == sorted(bundle)
        for path in written:
            text = path.read_text()
            assert text == bundle[path.name]
            parsed = json.loads(text)
            assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text
        assert not [p for p in (tmp_path / "bundle").iterdir() if p.name.startswith(".")]


@pytest.mark.parametrize("name", ["x/../../escaped.json", "../escaped.json", "nsd-a\x00b.json", ".", "..", "",
                                  f"nsd-x{os.sep}y.json", "/abs.json"])
def test_write_bundle_checks_every_name_before_it_touches_the_out_dir(tmp_path, name):
    out_dir = tmp_path / "out" / "bundle"
    out_dir.mkdir(parents=True)
    (out_dir / "manifest.json").write_text("old\n")
    (out_dir / "nsd-old.json").write_text("old\n")
    (out_dir / "nsd-x").mkdir()
    with pytest.raises(DocumentError) as err:
        write_bundle({"manifest.json": "new\n", "pnfd-list.json": "[]\n", name: "{}\n"}, out_dir)
    assert (err.value.code, err.value.args[0]) == (
        "UNSAFE_BUNDLE_NAME", f"bundle file name {name!r} is not a plain file name")
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "out", "out/bundle", "out/bundle/manifest.json", "out/bundle/nsd-old.json", "out/bundle/nsd-x"]
    assert (out_dir / "manifest.json").read_text() == "old\n"
    with pytest.raises(DocumentError):
        write_bundle({name: "{}\n"}, tmp_path / "missing")
    assert not (tmp_path / "missing").exists()


def test_write_atomic_replaces_content(tmp_path):
    target = tmp_path / "doc.json"
    write_atomic(target, "one\n")
    write_atomic(target, "two\n")
    assert target.read_text() == "two\n"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_write_atomic_keeps_the_target_when_the_rename_fails(tmp_path, monkeypatch):
    target = tmp_path / "doc.json"
    write_atomic(target, "one\n")

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", str(dst))

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError):
        write_atomic(target, "two\n")
    assert target.read_text() == "one\n"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


_DROP = object()

# One single-fault document per decoder branch: (kind, location of the fault
# inside the body, value written there or _DROP to delete it) and the exact
# (code, path, message) the parser must report.
_DIAGNOSTIC_CASES = {
    "wrong-type-string": (
        "CATALOG", ("nssts", 0, "nsst_id"), 5,
        ("PARSE_ERROR", "body.nssts[0].nsst_id", "expected a string"),
    ),
    "wrong-type-int": (
        "PLANNER_CONFIG", ("exact_solver_limit",), True,
        ("PARSE_ERROR", "body.exact_solver_limit", "expected an integer"),
    ),
    "wrong-type-number": (
        "PLANNER_CONFIG", ("cu_du_latency_budget_ms",), "fast",
        ("PARSE_ERROR", "body.cu_du_latency_budget_ms", "expected a number"),
    ),
    "wrong-type-optional-number": (
        "SLICE_REQUEST", ("requirements", "reliability_pct"), "high",
        ("PARSE_ERROR", "body.requirements.reliability_pct", "expected a number"),
    ),
    "wrong-type-optional-int": (
        "CATALOG", ("du_vnfds", 0, "flavors", 0, "split_option"), "7",
        ("PARSE_ERROR", "body.du_vnfds[0].flavors[0].split_option", "expected an integer"),
    ),
    "wrong-type-object": (
        "CATALOG", ("ru_pnfds", 0, "location"), [],
        ("PARSE_ERROR", "body.ru_pnfds[0].location", "expected an object, got list"),
    ),
    "wrong-type-array": (
        "TOPOLOGY", ("regions", 0, "cell_sites"), "cs-cc-01",
        ("PARSE_ERROR", "body.regions[0].cell_sites", "expected an array"),
    ),
    "wrong-type-array-item": (
        "TOPOLOGY", ("regions", 0, "cell_sites", 1), 7,
        ("PARSE_ERROR", "body.regions[0].cell_sites[1]", "expected a string"),
    ),
    "non-finite-number": (
        "TOPOLOGY", ("links", 0, "latency_ms"), float("inf"),
        ("PARSE_ERROR", "body.links[0].latency_ms", "numbers must be finite"),
    ),
    "number-beyond-float-range": (
        "TOPOLOGY", ("links", 0, "latency_ms"), 10**400,
        ("PARSE_ERROR", "body.links[0].latency_ms", "numbers must be finite"),
    ),
    "bad-enum": (
        "TOPOLOGY", ("regions", 0, "fronthaul_tech"), "WIFI",
        ("PARSE_ERROR", "body.regions[0].fronthaul_tech", "expected one of 'CPRI', 'ECPRI', got 'WIFI'"),
    ),
    "unhashable-enum": (
        "TOPOLOGY", ("regions", 0, "fronthaul_tech"), [],
        ("PARSE_ERROR", "body.regions[0].fronthaul_tech", "expected one of 'CPRI', 'ECPRI', got []"),
    ),
    "boolean-enum": (
        "TOPOLOGY", ("regions", 1, "fronthaul_tech"), True,
        ("PARSE_ERROR", "body.regions[1].fronthaul_tech", "expected one of 'CPRI', 'ECPRI', got True"),
    ),
    "bad-enum-in-set": (
        "CATALOG", ("gnb_nsds", 0, "flavors", 0, "fronthaul_techs", 0), "WIFI",
        ("PARSE_ERROR", "body.gnb_nsds[0].flavors[0].fronthaul_techs[0]",
         "expected one of 'CPRI', 'ECPRI', got 'WIFI'"),
    ),
    "unknown-field": (
        "CATALOG", ("ru_pnfds", 0, "location", "z_km"), 0.0,
        ("PARSE_ERROR", "body.ru_pnfds[0].location", "unknown field(s): z_km"),
    ),
    "missing-field": (
        "CATALOG", ("ru_pnfds", 0, "location", "x_km"), _DROP,
        ("PARSE_ERROR", "body.ru_pnfds[0].location", "missing field(s): x_km"),
    ),
    "unknown-role-kind": (
        "CATALOG", ("du_vnfds", 0, "flavors", 0, "il_subsets", 0, "levels", 0, "role", "kind"), "RU",
        ("PARSE_ERROR", "body.du_vnfds[0].flavors[0].il_subsets[0].levels[0].role", "unknown role kind 'RU'"),
    ),
    "untagged-role": (
        "CATALOG", ("du_vnfds", 0, "flavors", 0, "il_subsets", 0, "levels", 0, "role", "kind"), _DROP,
        ("PARSE_ERROR", "body.du_vnfds[0].flavors[0].il_subsets[0].levels[0].role",
         "expected a role object with a 'kind' tag"),
    ),
    "role-field-for-other-kind": (
        "CATALOG", ("cu_vnfds", 0, "flavors", 0, "il_subsets", 0, "levels", 0, "role", "kind"), "DU",
        ("PARSE_ERROR", "body.cu_vnfds[0].flavors[0].il_subsets[0].levels[0].role",
         "unknown field(s): max_dus"),
    ),
    "unknown-subset-key-kind": (
        "CATALOG", ("cu_vnfds", 0, "flavors", 0, "il_subsets", 0, "key", "kind"), "RU",
        ("PARSE_ERROR", "body.cu_vnfds[0].flavors[0].il_subsets[0].key", "unknown subset key kind 'RU'"),
    ),
    "untagged-subset-key": (
        "CATALOG", ("cu_vnfds", 0, "flavors", 0, "il_subsets", 0, "key"), [],
        ("PARSE_ERROR", "body.cu_vnfds[0].flavors[0].il_subsets[0].key",
         "expected a subset key with a 'kind' tag"),
    ),
    "malformed-served-regions-pair": (
        "CATALOG", ("gnb_nsds", 0, "flavors", 0, "il_subsets", 0, "key", "served_regions", 0), ["SUBURBAN"],
        ("PARSE_ERROR", "body.gnb_nsds[0].flavors[0].il_subsets[0].key.served_regions[0]",
         "expected a [region_class, fronthaul_tech] pair"),
    ),
    "served-regions-pair-item": (
        "CATALOG", ("gnb_nsds", 0, "flavors", 0, "il_subsets", 0, "key", "served_regions", 0, 1), "WIFI",
        ("PARSE_ERROR", "body.gnb_nsds[0].flavors[0].il_subsets[0].key.served_regions[0]",
         "expected one of 'CPRI', 'ECPRI', got 'WIFI'"),
    ),
    "malformed-threshold-pair": (
        "PROFILER_POLICY", ("latency_to_mu_thresholds", 1), [2.0, 1, 0],
        ("PARSE_ERROR", "body.latency_to_mu_thresholds[1]", "expected a [max_latency_ms, mu] pair"),
    ),
    "threshold-pair-item": (
        "PROFILER_POLICY", ("latency_to_mu_thresholds", 0, 1), 1.5,
        ("PARSE_ERROR", "body.latency_to_mu_thresholds[0]", "expected an integer"),
    ),
    "request-negative-mobility": (
        "SLICE_REQUEST", ("requirements", "max_mobility_kmh"), -1,
        ("PARSE_ERROR", "body.requirements", "mobility must be non-negative"),
    ),
    "request-negative-throughput": (
        "SLICE_REQUEST", ("requirements", "throughput_ul_mbps"), -1,
        ("PARSE_ERROR", "body.requirements", "throughputs must be non-negative"),
    ),
    "request-zero-ue-density": (
        "SLICE_REQUEST", ("requirements", "ue_density_per_km2"), 0,
        ("PARSE_ERROR", "body.requirements", "UE density must be positive"),
    ),
    "sst-out-of-range": (
        "SLICE_REQUEST", ("sst",), 4,
        ("PARSE_ERROR", "body.sst", "sst must be 1, 2 or 3"),
    ),
    "plan-sst-out-of-range": (
        "SLICE_PLAN", ("s_nssai", "sst"), 4,
        ("PARSE_ERROR", "body.s_nssai.sst", "sst must be 1, 2 or 3"),
    ),
    "bad-request-sd": (
        "SLICE_REQUEST", ("sd",), "xyz!",
        ("PARSE_ERROR", "body.sd", "sd must be at most 6 hex characters, got 'xyz!'"),
    ),
    "bad-s-nssai-sd": (
        "SLICE_PLAN", ("s_nssai", "sd"), "",
        ("PARSE_ERROR", "body.s_nssai", "sd must be non-empty when present"),
    ),
    "non-object-offered-load": (
        "SLICE_PLAN", ("offered_load_mbps",), [],
        ("PARSE_ERROR", "body.offered_load_mbps", "expected an object of region -> Mbps"),
    ),
    "offered-load-value": (
        "SLICE_PLAN", ("offered_load_mbps", "industrial"), "lots",
        ("PARSE_ERROR", "body.offered_load_mbps.industrial", "expected a number"),
    ),
    "model-value-error": (
        "CATALOG", ("nssts", 0, "radio_config", "bands", 0, "carrier_bandwidth_mhz"), 1000,
        ("PARSE_ERROR", "body.nssts[0].radio_config.bands[0]",
         "carrier bandwidth 1000.0 MHz outside [5.0, 100.0] for SUB6_450_6000"),
    ),
    "model-value-error-in-later-item": (
        "CATALOG", ("nssts", 0, "radio_config", "bands", 1, "carrier_bandwidth_mhz"), 1000,
        ("PARSE_ERROR", "body.nssts[0].radio_config.bands[1]",
         "carrier bandwidth 1000.0 MHz outside [5.0, 400.0] for MMWAVE_24250_52600"),
    ),
    "nested-array-later-item": (
        "TOPOLOGY", ("regions", 2, "cell_sites", 4), 7,
        ("PARSE_ERROR", "body.regions[2].cell_sites[4]", "expected a string"),
    ),
    "body-value-error": (
        "PLANNER_CONFIG", ("cu_du_latency_budget_ms",), -1,
        ("PARSE_ERROR", "body", "latency budget must be positive"),
    ),
    "planner-config-activity-factor": (
        "PLANNER_CONFIG", ("activity_factor",), 0.5,
        ("PARSE_ERROR", "body", "unknown field(s): activity_factor"),
    ),
    "planner-config-solver-limit": (
        "PLANNER_CONFIG", ("exact_solver_limit",), -1,
        ("PARSE_ERROR", "body", "exact solver limit must be non-negative"),
    ),
    # One case per ProfilerPolicy invariant, on the default policy.
    "policy-no-latency-thresholds": (
        "PROFILER_POLICY", ("latency_to_mu_thresholds",), [],
        ("PARSE_ERROR", "body", "latency thresholds must be non-empty"),
    ),
    "policy-unbounded-threshold-first": (
        "PROFILER_POLICY", ("latency_to_mu_thresholds", 0, 0), None,
        ("PARSE_ERROR", "body", "only the last latency threshold may be unbounded"),
    ),
    "policy-thresholds-not-increasing": (
        "PROFILER_POLICY", ("latency_to_mu_thresholds", 1, 0), 1.0,
        ("PARSE_ERROR", "body", "latency thresholds must be strictly increasing"),
    ),
    "policy-mu-not-decreasing": (
        "PROFILER_POLICY", ("latency_to_mu_thresholds", 1, 1), 3,
        ("PARSE_ERROR", "body", "mu values must be strictly decreasing along the thresholds"),
    ),
    "policy-mu-out-of-range": (
        "PROFILER_POLICY", ("latency_to_mu_thresholds", 0, 1), 4,
        ("PARSE_ERROR", "body", "mu values must lie in 0..3"),
    ),
    "policy-no-slot-formats": (
        "PROFILER_POLICY", ("slot_format_table",), [],
        ("PARSE_ERROR", "body", "slot format table must be non-empty"),
    ),
    "policy-slot-formats-miss-zero": (
        "PROFILER_POLICY", ("slot_format_table", 0, "min_dl_ul_ratio"), 0.1,
        ("PARSE_ERROR", "body", "slot format ratio intervals must cover (0, inf)"),
    ),
    "policy-slot-formats-gap": (
        "PROFILER_POLICY", ("slot_format_table", 0, "max_dl_ul_ratio"), 0.2,
        ("PARSE_ERROR", "body", "slot format ratio intervals must tile without gaps or overlaps"),
    ),
    "policy-no-5qi": (
        "PROFILER_POLICY", ("fiveqi_table",), [],
        ("PARSE_ERROR", "body", "5QI table must be non-empty"),
    ),
    "policy-mcs-threshold": (
        "PROFILER_POLICY", ("mcs_threshold_mbps",), 0,
        ("PARSE_ERROR", "body", "thresholds must be positive"),
    ),
    "policy-mobility-uplift": (
        "PROFILER_POLICY", ("mobility_uplift_kmh",), -1,
        ("PARSE_ERROR", "body", "mobility and narrowband thresholds must be non-negative"),
    ),
    "policy-narrowband-threshold": (
        "PROFILER_POLICY", ("narrowband_rate_threshold_mbps",), -0.5,
        ("PARSE_ERROR", "body", "mobility and narrowband thresholds must be non-negative"),
    ),
    "policy-activity-factor": (
        "PROFILER_POLICY", ("activity_factor",), 0,
        ("PARSE_ERROR", "body", "activity factor must lie in (0, 1]"),
    ),
    "policy-spectral-efficiency": (
        "PROFILER_POLICY", ("spectral_efficiency_bps_per_hz",), 0,
        ("PARSE_ERROR", "body", "demand-model constants must be positive"),
    ),
    "host-capacity-field": (
        "TOPOLOGY", ("pops", 0, "host_capacity", "vcpu"), 1.5,
        ("PARSE_ERROR", "body.pops[0].host_capacity.vcpu", "expected an integer"),
    ),
    "host-capacity-shape": (
        "TOPOLOGY", ("pops", 0, "host_capacity", "cores"), 4,
        ("PARSE_ERROR", "body.pops[0].host_capacity", "unknown field(s): cores"),
    ),
    "invalid-topology": (
        "TOPOLOGY", ("regions", 0, "aggregation_pop"), "pop-nowhere",
        ("PARSE_ERROR", "body",
         "invalid deployment area: INVALID_TOPOLOGY: region city-center: aggregation PoP "
         "pop-nowhere missing"),
    ),
}


@pytest.fixture(scope="module")
def document_bodies(catalog, area, policy, requests):
    plan = plan_slice(requests[Sst.MMTC], Sst.MMTC, area, catalog)
    bodies = (catalog, area, SliceRequest(Sst.EMBB, None, requests[Sst.EMBB]), plan, policy,
              PlannerConfig())
    return {envelope_for(b).kind: serialize_document(envelope_for(b)) for b in bodies}


# Documents with several faults: (kind, [(location, value or _DROP), ...]) and
# the one (code, path, message) the parser reports.  A wrong shape wins over
# any field's fault, and an array reports its first failing item.
_MULTI_FAULT_CASES = {
    "shape-beats-earlier-field": (
        "CATALOG", [(("ru_pnfds", 0, "location", "region_id"), 5), (("ru_pnfds", 0, "location", "x_km"), _DROP),
                    (("ru_pnfds", 0, "location", "z_km"), 0.0)],
        ("PARSE_ERROR", "body.ru_pnfds[0].location", "unknown field(s): z_km"),
    ),
    "shape-with-missing-last-field": (
        "CATALOG", [(("ru_pnfds", 3, "location", "y_km"), _DROP), (("ru_pnfds", 3, "location", "z_km"), 0.0)],
        ("PARSE_ERROR", "body.ru_pnfds[3].location", "unknown field(s): z_km"),
    ),
    "string-array-first-failing-item": (
        "TOPOLOGY", [(("regions", 0, "cell_sites", 3), True), (("regions", 0, "cell_sites", 6), 7)],
        ("PARSE_ERROR", "body.regions[0].cell_sites[3]", "expected a string"),
    ),
    "object-array-first-failing-item": (
        "CATALOG", [(("ru_pnfds", 4, "ru_id"), 5), (("ru_pnfds", 9, "connection_tech"), "WIFI")],
        ("PARSE_ERROR", "body.ru_pnfds[4].ru_id", "expected a string"),
    ),
}


@pytest.mark.parametrize("case", sorted(_DIAGNOSTIC_CASES))
def test_single_fault_diagnostics(case, document_bodies):
    kind, where, value, expected = _DIAGNOSTIC_CASES[case]
    raw = json.loads(document_bodies[kind])
    parent = raw["body"]
    for step in where[:-1]:
        parent = parent[step]
    if value is _DROP:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(raw))
    assert (err.value.code, err.value.path, err.value.args[0]) == expected


@pytest.mark.parametrize("case", sorted(_MULTI_FAULT_CASES))
def test_multi_fault_diagnostics(case, document_bodies):
    kind, edits, expected = _MULTI_FAULT_CASES[case]
    raw = json.loads(document_bodies[kind])
    for where, value in edits:
        parent = raw["body"]
        for step in where[:-1]:
            parent = parent[step]
        if value is _DROP:
            del parent[where[-1]]
        else:
            parent[where[-1]] = value
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(raw))
    assert (err.value.code, err.value.path, err.value.args[0]) == expected


# Keys whose value is an array of two-element arrays: a fault in either item
# of a pair is reported at the pair.
_PAIR_KEYS = {"served_regions", "latency_to_mu_thresholds"}

# For each JSON scalar type, values of other JSON types (never null, which an
# optional field accepts).
_WRONG_TYPES = {
    str: [0, 2.5, True, [], {}],
    int: ["7", True, [], {}],
    float: ["7", True, [], {}],
}


def _scalar_leaves(value, path: str, key=None):
    """Yield ``(container, step, reported_at)`` for every non-null scalar in a
    JSON value, where ``reported_at`` is the path a wrong-typed value there
    is reported at: its own, except that a tagged object's ``kind`` reports
    at the object and an item of a pair at the pair."""
    if isinstance(value, dict):
        for step, item in value.items():
            at = f"{path}.{step}"
            if isinstance(item, (dict, list)):
                yield from _scalar_leaves(item, at, step)
            elif item is not None:
                yield value, step, path if step == "kind" else at
        return
    for i, item in enumerate(value):
        at = f"{path}[{i}]"
        if key in _PAIR_KEYS:
            yield from ((item, j, at) for j, x in enumerate(item) if x is not None)
        elif isinstance(item, (dict, list)):
            yield from _scalar_leaves(item, at)
        elif item is not None:
            yield value, i, at


@pytest.mark.parametrize("kind", sorted(docgen.GENERATORS))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), data=st.data())
def test_wrong_typed_leaf_is_reported_at_its_path(kind, seed, data):
    raw = json.loads(serialize_document(envelope_for(docgen.GENERATORS[kind](random.Random(seed)))))
    leaves = list(_scalar_leaves(raw["body"], "body"))
    container, step, reported_at = data.draw(st.sampled_from(leaves))
    container[step] = data.draw(st.sampled_from(_WRONG_TYPES[type(container[step])]))
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(raw))
    assert (err.value.code, err.value.path) == ("PARSE_ERROR", reported_at)


# Faults at the leaves that the generated decoders check in place, written
# into the reference documents as raw JSON text: (kind, location of the
# fault inside the body, JSON text written there) and the exact
# (code, path, message) the parser must report.
_INLINE_LEAF_CASES = {
    "true-in-int": (
        "TOPOLOGY", ("pops", 0, "host_capacity", "vcpu"), "true",
        ("PARSE_ERROR", "body.pops[0].host_capacity.vcpu", "expected an integer"),
    ),
    "false-in-int": (
        "CATALOG", ("du_vnfds", 0, "flavors", 1, "il_subsets", 0, "levels", 1, "vm_spec", "vcpu_count"), "false",
        ("PARSE_ERROR", "body.du_vnfds[0].flavors[1].il_subsets[0].levels[1].vm_spec.vcpu_count",
         "expected an integer"),
    ),
    "true-in-float": (
        "TOPOLOGY", ("links", 0, "latency_ms"), "true",
        ("PARSE_ERROR", "body.links[0].latency_ms", "expected a number"),
    ),
    "float-in-int": (
        "TOPOLOGY", ("pops", 1, "host_capacity", "vcpu"), "8.0",
        ("PARSE_ERROR", "body.pops[1].host_capacity.vcpu", "expected an integer"),
    ),
    "nan": (
        "TOPOLOGY", ("links", 0, "latency_ms"), "NaN",
        ("PARSE_ERROR", "body.links[0].latency_ms", "numbers must be finite"),
    ),
    "infinity": (
        "CATALOG", ("ru_pnfds", 3, "location", "x_km"), "Infinity",
        ("PARSE_ERROR", "body.ru_pnfds[3].location.x_km", "numbers must be finite"),
    ),
    "minus-infinity": (
        "PLANNER_CONFIG", ("cu_du_latency_budget_ms",), "-Infinity",
        ("PARSE_ERROR", "body.cu_du_latency_budget_ms", "numbers must be finite"),
    ),
    "float-literal-beyond-range": (
        "TOPOLOGY", ("links", 2, "latency_ms"), "1e999",
        ("PARSE_ERROR", "body.links[2].latency_ms", "numbers must be finite"),
    ),
    "400-digit-integer-in-float": (
        "CATALOG", ("ru_pnfds", 3, "location", "y_km"), "9" * 400,
        ("PARSE_ERROR", "body.ru_pnfds[3].location.y_km", "numbers must be finite"),
    ),
    "array-in-enum": (
        "CATALOG", ("ru_pnfds", 3, "connection_tech"), '["ECPRI"]',
        ("PARSE_ERROR", "body.ru_pnfds[3].connection_tech", "expected one of 'CPRI', 'ECPRI', got ['ECPRI']"),
    ),
    "object-in-enum": (
        "TOPOLOGY", ("pops", 0, "tier"), '{"EDGE": 1}',
        ("PARSE_ERROR", "body.pops[0].tier", "expected one of 'AGGREGATION', 'EDGE', got {'EDGE': 1}"),
    ),
    "number-in-enum": (
        "CATALOG", ("ru_pnfds", 3, "connection_tech"), "1",
        ("PARSE_ERROR", "body.ru_pnfds[3].connection_tech", "expected one of 'CPRI', 'ECPRI', got 1"),
    ),
    "fault-in-nested-array-of-objects": (
        "CATALOG", ("du_vnfds", 0, "flavors", 1, "il_subsets", 0, "levels", 1, "vm_spec", "cpu_ghz"), '"fast"',
        ("PARSE_ERROR", "body.du_vnfds[0].flavors[1].il_subsets[0].levels[1].vm_spec.cpu_ghz",
         "expected a number"),
    ),
    "string-in-nested-array-of-objects": (
        "CATALOG", ("gnb_nsds", 0, "flavors", 2, "il_subsets", 1, "levels", 0, "role", "cu_il_ref", "vnfd_id"), "7",
        ("PARSE_ERROR", "body.gnb_nsds[0].flavors[2].il_subsets[1].levels[0].role.cu_il_ref.vnfd_id",
         "expected a string"),
    ),
}


def _with_json_text(document: str, where: tuple, text: str) -> str:
    """``document`` with the JSON ``text`` written at ``where`` in its body."""
    raw = json.loads(document)
    parent = raw["body"]
    for step in where[:-1]:
        parent = parent[step]
    parent[where[-1]] = "\x00marker"
    return json.dumps(raw).replace('"\\u0000marker"', text)


@pytest.mark.parametrize("case", sorted(_INLINE_LEAF_CASES))
def test_inline_leaf_faults(case, document_bodies):
    kind, where, text, expected = _INLINE_LEAF_CASES[case]
    with pytest.raises(DocumentError) as err:
        parse_document(_with_json_text(document_bodies[kind], where, text))
    assert (err.value.code, err.value.path, err.value.args[0]) == expected


def test_integer_in_float_field_decodes_as_float(document_bodies):
    text = _with_json_text(document_bodies["TOPOLOGY"], ("links", 0, "latency_ms"), "5")
    area = parse_document(text).body
    assert type(area.links[0].latency_ms) is float and area.links[0].latency_ms == 5.0
    config = parse_document(_with_json_text(document_bodies["PLANNER_CONFIG"], ("cu_du_latency_budget_ms",), "5"))
    assert type(config.body.cu_du_latency_budget_ms) is float
    assert '"cu_du_latency_budget_ms": 5.0,' in serialize_document(config)
    assert '"latency_ms": 5.0\n' in serialize_document(envelope_for(area))


def test_decoded_objects_are_made_by_their_constructors(document_bodies):
    # GnbSubsetKey.__post_init__ sorts served_regions.
    where = ("gnb_nsds", 0, "flavors", 2, "il_subsets", 0, "key", "served_regions")
    text = _with_json_text(document_bodies["CATALOG"], where,
                           '[["SUBURBAN", "CPRI"], ["INDUSTRIAL", "ECPRI"], ["CITY_CENTER", "ECPRI"]]')
    key = parse_document(text).body.gnb_nsds[0].flavors[2].il_subsets[0].key
    assert key.served_regions == (("CITY_CENTER", FronthaulTech.ECPRI), ("INDUSTRIAL", FronthaulTech.ECPRI),
                                  ("SUBURBAN", FronthaulTech.CPRI))
    assert serialize_document(parse_document(text)) == document_bodies["CATALOG"]

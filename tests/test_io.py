"""Document round-trips, strict parsing, canonical form, bundle emission."""

import dataclasses
import enum
import json
import random
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import docgen
from ranslicer.errors import DocumentError
from ranslicer.io import (
    SliceRequest,
    canonical_json,
    emit_onboarding_bundle,
    envelope_for,
    parse_document,
    serialize_document,
    write_atomic,
    write_bundle,
)
from ranslicer.model import FronthaulTech, GnbSubsetKey, Sst
from ranslicer.planner import PlannerConfig, plan_slice


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
    monkeypatch.setattr(dataclasses, "fields", no_reflection)
    monkeypatch.setattr(dataclasses, "is_dataclass", no_reflection)
    round_trip()


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
_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(_strings, st.sampled_from(list(_Tag))), children, max_size=4),
    ),
    max_leaves=24,
)


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(value=_json_values)
    def test_equals_json_dumps(self, value):
        expected = json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True, allow_nan=False) + "\n"
        assert canonical_json(value) == expected

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


class TestStrictParsing:
    def test_truncated_document_reports_position(self, catalog):
        text = serialize_document(envelope_for(catalog))[:200]
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert err.value.code == "PARSE_ERROR"
        assert err.value.line is not None and err.value.column is not None

    def test_unknown_envelope_field(self):
        with pytest.raises(DocumentError) as err:
            parse_document('{"schema_version": "1.0.0", "kind": "PLANNER_CONFIG", "body": {}, "x": 1}')
        assert err.value.code == "PARSE_ERROR"
        assert "x" in str(err.value)

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
        entry = bundle.manifest["gnbs"][0]
        assert entry["flavor_id"] == 3
        assert entry["il_subset_key"]["served_regions"] == [
            ["CITY_CENTER", "ECPRI"], ["INDUSTRIAL", "ECPRI"], ["SUBURBAN", "CPRI"],
        ]
        assert entry["nsd_ref"] == "nsd-gnb-v1"
        assert {d["du_id"] for d in entry["dus"]} == {du.du_id for du in plan.gnbs[0].dus}
        assert all(d["vnfd_ids"] == ["vnfd-du-v1"] for d in entry["dus"])
        assert entry["cu"]["vnfd_ids"] == ["vnfd-cu-v1"]
        assert sorted(entry["rus"]) == sorted(plan.selected_rus)
        assert set(bundle.files) == {
            "manifest.json", "pnfd-list.json", "nsd-nsd-gnb-v1.json",
            "vnfd-vnfd-cu-v1.json", "vnfd-vnfd-du-v1.json",
        }

    def test_embb_bundle_names_flavor_2(self, catalog, area, requests):
        plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog)
        bundle = emit_onboarding_bundle(plan, catalog)
        assert bundle.manifest["gnbs"][0]["flavor_id"] == 2
        assert bundle.manifest["radio_config"]["numerology_mu"] == 2
        nsd_excerpt = json.loads(bundle.files["nsd-nsd-gnb-v1.json"])
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

    def test_bundle_files_are_canonical_and_written_atomically(self, catalog, area, requests, tmp_path):
        plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog)
        bundle = emit_onboarding_bundle(plan, catalog)
        written = write_bundle(bundle, tmp_path / "bundle")
        assert sorted(p.name for p in written) == sorted(bundle.files)
        for path in written:
            text = path.read_text()
            assert text == bundle.files[path.name]
            parsed = json.loads(text)
            assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text
        assert not [p for p in (tmp_path / "bundle").iterdir() if p.name.startswith(".")]


def test_write_atomic_replaces_content(tmp_path):
    target = tmp_path / "doc.json"
    write_atomic(target, "one\n")
    write_atomic(target, "two\n")
    assert target.read_text() == "two\n"
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
    "body-value-error": (
        "PLANNER_CONFIG", ("cu_du_latency_budget_ms",), -1,
        ("PARSE_ERROR", "body", "latency budget must be positive"),
    ),
    "planner-config-activity-factor": (
        "PLANNER_CONFIG", ("activity_factor",), 0.5,
        ("PARSE_ERROR", "body", "unknown field(s): activity_factor"),
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

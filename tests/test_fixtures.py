"""The shipped fixture files must stay in sync with the builtin data."""

from pathlib import Path

import pytest

from ranslicer.io import SliceRequest, emit_onboarding_bundle, envelope_for, parse_path, serialize_document
from ranslicer.planner import plan_slice

FIXTURES = Path(__file__).parent.parent / "fixtures"
DATA = Path(__file__).parent / "data"


def test_catalog_fixture_matches_builtin(catalog):
    assert (FIXTURES / "builtin_catalog.json").read_text() == serialize_document(envelope_for(catalog))


def test_topology_fixture_matches_reference(area):
    assert (FIXTURES / "reference_topology.json").read_text() == serialize_document(envelope_for(area))


def test_request_fixtures_match_reference_rows(requests):
    for sst, requirements in requests.items():
        expected = serialize_document(envelope_for(SliceRequest(sst, None, requirements)))
        assert (FIXTURES / f"request_{sst.name.lower()}.json").read_text() == expected


def test_reference_plans_match_pinned_bytes(catalog, area, requests):
    for sst, requirements in requests.items():
        plan = plan_slice(requirements, sst, area, catalog)
        assert (DATA / f"plan_{sst.name.lower()}.json").read_text() == serialize_document(envelope_for(plan))


@pytest.mark.parametrize("source", ["fresh", "parsed"])
def test_reference_bundles_match_pinned_bytes(catalog, area, requests, source):
    for sst, requirements in requests.items():
        name = sst.name.lower()
        if source == "fresh":  # the plan cites the catalog's own IL subset objects
            plan = plan_slice(requirements, sst, area, catalog)
        else:
            plan = parse_path(DATA / f"plan_{name}.json").body
        pinned = {path.name: path.read_text() for path in (DATA / f"bundle_{name}").iterdir()}
        assert emit_onboarding_bundle(plan, catalog) == pinned, name


def test_shipped_topology_parses_to_a_topology_envelope(area):
    envelope = parse_path(FIXTURES / "reference_topology.json")
    assert envelope.kind == "TOPOLOGY"
    assert envelope.body == area

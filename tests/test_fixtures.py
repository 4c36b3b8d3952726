"""The shipped fixture files must stay in sync with the builtin data."""

from pathlib import Path

from ranslicer.io import SliceRequest, envelope_for, serialize_document
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


def test_shipped_topology_parses_to_a_topology_envelope(area):
    from ranslicer.io import parse_path

    envelope = parse_path(FIXTURES / "reference_topology.json")
    assert envelope.kind == "TOPOLOGY"
    assert envelope.body == area

"""Deployment-area queries: RU coverage, fronthaul techs, PoP latency,
and the per-area lookup indexes behind them."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ranslicer.topology as topology
from cu_oracle import floyd_warshall, make_instance
from ranslicer.builtin import builtin_catalog, reference_requests
from ranslicer.errors import TopologyError
from ranslicer.io import DocumentEnvelope, serialize_document
from ranslicer.model import FronthaulTech, Sst
from ranslicer.planner import plan_slice
from ranslicer.topology import (
    DeploymentArea,
    Pop,
    PopTier,
    TransportLink,
    check_area,
    fronthaul_techs,
    pop_latency,
    reference_area,
    select_rus,
)


class TestSelectRus:
    def test_city_center_only(self, area):
        rus = select_rus(area, ["city-center"])
        assert [r.ru_id for r in rus] == [f"ru-cc-{i:02d}" for i in range(1, 9)]

    def test_all_regions_gives_all_rus(self, area):
        rus = select_rus(area, ["city-center", "industrial", "suburban"])
        assert len(rus) == len(area.rus)
        assert [r.ru_id for r in rus] == sorted(r.ru_id for r in area.rus)

    def test_empty_targets(self, area):
        assert select_rus(area, []) == []

    def test_unknown_region(self, area):
        with pytest.raises(TopologyError) as err:
            select_rus(area, ["mars"])
        assert err.value.code == "UNKNOWN_REGION"

    @given(
        a=st.sets(st.sampled_from(["city-center", "industrial", "suburban"])),
        b=st.sets(st.sampled_from(["city-center", "industrial", "suburban"])),
    )
    def test_union_distributes(self, a, b):
        area = reference_area()
        union = {r.ru_id for r in select_rus(area, sorted(a | b))}
        parts = {r.ru_id for r in select_rus(area, sorted(a))} | {
            r.ru_id for r in select_rus(area, sorted(b))
        }
        assert union == parts


class TestFronthaulTechs:
    def test_reference_regions(self, area):
        assert fronthaul_techs(area, ["suburban"]) == {FronthaulTech.CPRI}
        assert fronthaul_techs(area, ["city-center"]) == {FronthaulTech.ECPRI}
        assert fronthaul_techs(area, ["city-center", "industrial", "suburban"]) == {
            FronthaulTech.CPRI, FronthaulTech.ECPRI,
        }

    def test_ru_tech_matches_region(self, area):
        for ru in area.rus:
            assert ru.connection_tech is area.region(ru.location.region_id).fronthaul_tech


def _triangle() -> DeploymentArea:
    pops = tuple(Pop(p, PopTier.EDGE, 8, 16.0) for p in ("pa", "pb", "pc"))
    links = (
        TransportLink("pa", "pb", 1.0),
        TransportLink("pb", "pc", 1.0),
        TransportLink("pa", "pc", 2.5),
    )
    return DeploymentArea((), pops, links, ())


def _enumerate_paths(area: DeploymentArea, src: str, dst: str) -> float | None:
    """Oracle: cheapest simple path by exhaustive enumeration."""
    pops = [p.pop_id for p in area.pops]
    best = None
    for length in range(len(pops)):
        for middle in itertools.permutations([p for p in pops if p not in (src, dst)], length):
            path = (src, *middle, dst)
            total = 0.0
            ok = True
            for a, b in zip(path, path[1:]):
                weights = [
                    l.latency_ms for l in area.links if {l.a, l.b} == {a, b}
                ]
                if not weights:
                    ok = False
                    break
                total += min(weights)
            if ok and (best is None or total < best):
                best = total
    return best


class TestPopLatency:
    def test_self_is_zero(self, area):
        assert pop_latency(area, "pop-edge-1", "pop-edge-1") == 0.0

    def test_single_edge(self, area):
        assert pop_latency(area, "pop-agg-city-center", "pop-edge-1") == 0.5

    def test_triangle_two_hop_beats_direct(self):
        tri = _triangle()
        assert pop_latency(tri, "pa", "pc") == 2.0
        assert pop_latency(tri, "pa", "pc") == _enumerate_paths(tri, "pa", "pc")

    def test_matches_exhaustive_oracle_on_reference_area(self, area):
        for a, b in itertools.combinations([p.pop_id for p in area.pops], 2):
            assert pop_latency(area, a, b) == pytest.approx(_enumerate_paths(area, a, b))

    def test_symmetry_and_triangle_inequality(self, area):
        ids = [p.pop_id for p in area.pops]
        for a, b in itertools.combinations(ids, 2):
            assert pop_latency(area, a, b) == pop_latency(area, b, a)
        for a, b, c in itertools.permutations(ids, 3):
            assert pop_latency(area, a, c) <= pop_latency(area, a, b) + pop_latency(area, b, c) + 1e-9

    def test_unreachable(self, area):
        island = dataclasses.replace(
            area, pops=area.pops + (Pop("pop-island", PopTier.EDGE, 8, 16.0),)
        )
        with pytest.raises(TopologyError) as err:
            pop_latency(island, "pop-edge-1", "pop-island")
        assert err.value.code == "UNREACHABLE"

    def test_unknown_pop(self, area):
        with pytest.raises(TopologyError):
            pop_latency(area, "pop-edge-1", "nope")


class TestAreaChecks:
    def test_reference_area_is_clean(self, area):
        assert check_area(area) == []

    def test_detects_uncovered_cell_site(self, area):
        stripped = dataclasses.replace(area, rus=area.rus[1:])
        problems = check_area(stripped)
        assert any("hosts no RU" in p for p in problems)

    def test_detects_shared_aggregation_pop(self, area):
        regions = list(area.regions)
        regions[1] = dataclasses.replace(regions[1], aggregation_pop=regions[0].aggregation_pop)
        shared = dataclasses.replace(area, regions=tuple(regions))
        problems = check_area(shared)
        assert any("serves both" in p for p in problems)


class TestAreaIndex:
    def test_one_search_per_source_pop(self, monkeypatch):
        sources = []
        search = topology._shortest_paths

        def counting(links, source):
            sources.append(source)
            return search(links, source)

        monkeypatch.setattr(topology, "_shortest_paths", counting)
        area, catalog = reference_area(), builtin_catalog()
        request = reference_requests()[Sst.MMTC]
        first = plan_slice(request, Sst.MMTC, area, catalog)
        searched = len(sources)
        assert plan_slice(request, Sst.MMTC, area, catalog) == first
        assert len(sources) == searched
        assert sorted(sources) == sorted(set(sources)) == ["pop-edge-1", "pop-edge-2"]

    @given(seed=st.integers(0, 2**32 - 1))
    def test_latency_matches_floyd_warshall(self, seed):
        _, area, _, _ = make_instance(random.Random(seed))
        dist = floyd_warshall(area)
        for a, b in itertools.product(dist, repeat=2):
            if dist[a][b] == float("inf"):
                with pytest.raises(TopologyError) as err:
                    pop_latency(area, a, b)
                assert err.value.code == "UNREACHABLE"
            else:
                # The two algorithms add the same link latencies in different
                # orders, so they may differ in the last bits of a float64.
                assert pop_latency(area, a, b) == pytest.approx(dist[a][b], rel=1e-12, abs=0)

    def test_duplicate_ids_resolve_to_the_first_entry(self):
        area = reference_area()
        first_region, first_pop = area.region("city-center"), area.pop("pop-agg-city-center")
        twin_region = dataclasses.replace(
            first_region, fronthaul_tech=FronthaulTech.CPRI, cell_sites=("cs-dup-01",)
        )
        twin_pop = Pop("pop-agg-city-center", PopTier.EDGE, 4, 8.0)
        first_ru = area.rus[0]
        twin_ru = dataclasses.replace(first_ru)  # equal, but not the same object
        dup = dataclasses.replace(
            area, regions=area.regions + (twin_region,), pops=area.pops + (twin_pop,), rus=area.rus + (twin_ru,)
        )
        assert dup.region("city-center") is first_region
        assert dup.pop("pop-agg-city-center") is first_pop
        assert dup.ru(first_ru.ru_id) is first_ru
        assert dup.ru("ru-nowhere") is None
        assert check_area(dup) == [
            "duplicate PoP ids",
            "duplicate region ids",
            "aggregation PoP pop-agg-city-center serves both city-center and city-center",
            "duplicate RU ids",
            "cell site cs-dup-01 (city-center) hosts no RU",
        ]

    def test_replaced_links_are_not_served_from_the_old_memo(self):
        area = reference_area()
        assert pop_latency(area, "pop-edge-1", "pop-agg-city-center") == 0.5
        slower = tuple(
            dataclasses.replace(link, latency_ms=link.latency_ms * 4) for link in area.links
        )
        moved = dataclasses.replace(area, links=slower)
        assert pop_latency(moved, "pop-edge-1", "pop-agg-city-center") == 2.0
        assert pop_latency(area, "pop-edge-1", "pop-agg-city-center") == 0.5

    def test_queries_leave_equality_hash_and_bytes_alone(self):
        queried, fresh = reference_area(), reference_area()
        text = serialize_document(DocumentEnvelope("TOPOLOGY", queried))
        for a, b in itertools.product([p.pop_id for p in queried.pops], repeat=2):
            pop_latency(queried, a, b)
        assert queried.region("suburban") and queried.pop("pop-edge-2")
        assert queried == fresh
        assert hash(queried) == hash(fresh)
        assert serialize_document(DocumentEnvelope("TOPOLOGY", queried)) == text

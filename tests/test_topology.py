"""Deployment-area queries: RU coverage, fronthaul techs, PoP latency,
the area checks, and the per-area lookup indexes behind them."""

import dataclasses
import functools
import itertools
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import docgen
import ranslicer.topology as topology
from cu_oracle import floyd_warshall, make_instance, make_scaled_instance
from ranslicer.builtin import builtin_catalog, reference_requests
from ranslicer.errors import RanSliceError, TopologyError
from ranslicer.io import DocumentEnvelope, serialize_document
from ranslicer.model import FronthaulTech, Sst
from ranslicer.planner import PlannerConfig, plan_slice, verify_plan
from ranslicer.topology import (
    DeploymentArea,
    Pop,
    PopTier,
    TransportLink,
    check_area,
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

    @pytest.mark.parametrize("mutate, expected", [
        (lambda a: _mutant(a, "regions", 0, area_km2=0.0),
         ["region city-center: area must be positive"]),
        (lambda a: _mutant(a, "regions", 1, cell_sites=()),
         ["region industrial: no cell sites"]
         + [f"RU ru-ind-{i:02d}: cell site cs-ind-{i:02d} not in its region" for i in range(1, 5)]),
        (lambda a: _mutant(a, "regions", 1, cell_sites=a.regions[1].cell_sites + ("cs-cc-01",)),
         ["cell site cs-cc-01 appears in both city-center and industrial"]),
        (lambda a: _mutant(a, "pops", 0, tier=PopTier.EDGE),
         ["region city-center: PoP pop-agg-city-center is not aggregation-tier"]),
        (lambda a: _mutant(a, "pops", 1, host_capacity_ram_gb=0.0),
         ["PoP pop-agg-industrial: host capacity must be positive"]),
        (lambda a: _mutant(a, "links", 0, latency_ms=0.0),
         ["link pop-agg-city-center-pop-edge-1: latency must be positive"]),
        (lambda a: _mutant(a, "links", 0, b="pop-nowhere"),
         ["link endpoint pop-nowhere is not a PoP"]),
        (lambda a: _mutant(a, "rus", 0, location=dataclasses.replace(a.rus[0].location, region_id="mars")),
         ["RU ru-cc-01: unknown region mars", "cell site cs-cc-01 (city-center) hosts no RU"]),
        (lambda a: _mutant(a, "rus", 0, location=dataclasses.replace(a.rus[0].location, cell_site="cs-ind-01")),
         ["RU ru-cc-01: cell site cs-ind-01 not in its region", "cell site cs-cc-01 (city-center) hosts no RU"]),
        (lambda a: _mutant(a, "rus", 0, connection_tech=FronthaulTech.CPRI),
         ["RU ru-cc-01: connection tech CPRI differs from region fronthaul ECPRI"]),
    ], ids=["region-area", "region-without-sites", "site-in-two-regions", "aggregation-pop-tier",
            "host-capacity", "link-latency", "link-endpoint", "ru-unknown-region", "ru-site-outside-region",
            "ru-tech"])
    def test_each_rule_on_a_single_field_mutant(self, area, mutate, expected):
        assert check_area(mutate(area)) == expected


def _mutant(area: DeploymentArea, collection: str, index: int, **changes) -> DeploymentArea:
    """``area`` with fields of one region, PoP, link or RU replaced."""
    items = list(getattr(area, collection))
    items[index] = dataclasses.replace(items[index], **changes)
    return dataclasses.replace(area, **{collection: tuple(items)})


class TestAreaIndex:
    def test_one_search_per_source_pop(self, monkeypatch):
        sources = []
        search = topology._shortest_paths

        def counting(area, source, bound):
            sources.append(source)
            return search(area, source, bound)

        builds = []
        adjacency = DeploymentArea.__dict__["_adjacency"].func

        def counting_adjacency(area):
            builds.append(area)
            return adjacency(area)

        counted = functools.cached_property(counting_adjacency)
        counted.__set_name__(DeploymentArea, "_adjacency")
        monkeypatch.setattr(topology, "_shortest_paths", counting)
        monkeypatch.setattr(DeploymentArea, "_adjacency", counted)
        area, catalog = reference_area(), builtin_catalog()
        request = reference_requests()[Sst.MMTC]
        first = plan_slice(request, Sst.MMTC, area, catalog)
        searched = len(sources)
        assert plan_slice(request, Sst.MMTC, area, catalog) == first
        assert len(sources) == searched
        assert sorted(sources) == sorted(set(sources)) == ["pop-edge-1", "pop-edge-2"]
        assert len(builds) == 1 and builds[0] is area
        other = reference_area()
        plan_slice(request, Sst.MMTC, other, catalog)
        assert len(builds) == 2 and builds[1] is other

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
        assert select_rus(queried, ["industrial"]) and queried.latency_row("pop-edge-1", 1.0)
        assert queried == fresh
        assert hash(queried) == hash(fresh)
        assert serialize_document(DocumentEnvelope("TOPOLOGY", queried)) == text


def _exact_budget_area() -> DeploymentArea:
    """Edge PoP ``e`` reaches ``a1`` over one link and ``a2`` over two hops
    (4.0 + 6.0), both in exactly 10.0 ms, ``a3`` in 10.5 ms and ``island``
    not at all; ``ghost`` is a link end but not a PoP (as ``check_area``
    would report), so no row holds it."""
    pops = (
        Pop("e", PopTier.EDGE, 8, 16.0),
        Pop("m", PopTier.EDGE, 8, 16.0),
        *(Pop(p, PopTier.AGGREGATION, 8, 16.0) for p in ("a1", "a2", "a3", "island")),
    )
    links = (
        TransportLink("e", "a1", 10.0),
        TransportLink("e", "m", 4.0),
        TransportLink("m", "a2", 6.0),
        TransportLink("m", "a3", 6.5),
        TransportLink("e", "ghost", 1.0),
    )
    return DeploymentArea((), pops, links, ())


def _cut(row: dict[str, float], bound: float) -> dict[str, float]:
    return {pop_id: latency for pop_id, latency in row.items() if latency <= bound}


def _plan_outcome(area, catalog, request, budget):
    """A plan's bytes, or its error's code, stage and message."""
    try:
        plan = plan_slice(request, Sst.URLLC, area, catalog, PlannerConfig(cu_du_latency_budget_ms=budget))
    except RanSliceError as err:
        return err.code, err.stage, str(err)
    return serialize_document(DocumentEnvelope("SLICE_PLAN", plan))


class TestBoundedRows:
    def test_a_path_at_exactly_the_bound_is_kept(self):
        area = _exact_budget_area()
        full = {"e": 0.0, "m": 4.0, "a1": 10.0, "a2": 10.0, "a3": 10.5}
        assert topology._shortest_paths(area, "e", math.inf) == full
        assert topology._shortest_paths(area, "e", 10.0) == _cut(full, 10.0)
        assert topology._shortest_paths(area, "e", 9.999) == _cut(full, 4.0)

    def test_full_queries_after_a_bounded_one(self):
        area = _exact_budget_area()
        assert area.latency_row("e", 10.0) == {"e": 0.0, "m": 4.0, "a1": 10.0, "a2": 10.0}
        assert pop_latency(area, "e", "a3") == 10.5
        with pytest.raises(TopologyError) as err:
            pop_latency(area, "e", "island")
        assert err.value.code == "UNREACHABLE"
        assert area.latency_row("e", 10.0)["a3"] == 10.5  # the full row now serves bounded queries

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cut=st.floats(0.0, 20.0))
    def test_bounded_rows_are_cut_full_rows(self, seed, cut):
        rng = random.Random(seed)
        _, area, _, _ = make_scaled_instance(rng)
        pop_ids = [p.pop_id for p in area.pops]
        for source in rng.sample(pop_ids, 8):
            full = topology._shortest_paths(area, source, math.inf)
            # A drawn bound, the default budget and bounds at exactly a row entry.
            for bound in (cut, 10.0, *rng.sample(sorted(full.values()), min(3, len(full)))):
                assert topology._shortest_paths(area, source, bound) == _cut(full, bound)
                fresh = dataclasses.replace(area)
                assert fresh.latency_row(source, bound) == _cut(full, bound)
                for pop_id in pop_ids:
                    if pop_id in full:
                        assert pop_latency(fresh, source, pop_id) == full[pop_id]
                    else:
                        with pytest.raises(TopologyError) as err:
                            pop_latency(fresh, source, pop_id)
                        assert err.value.code == "UNREACHABLE"

    @pytest.mark.parametrize("tight", [2.0, 4.5, 7.0])
    def test_plans_across_budgets_on_one_area_match_fresh_areas(self, tight):
        rng = random.Random(41)
        area, catalog = docgen.grid_area(rng, 120, 12), docgen.suburban_catalog()
        request = dataclasses.replace(
            reference_requests()[Sst.URLLC], target_regions=tuple(r.region_id for r in area.regions[:40])
        )
        budgets = (tight, 10.0)
        expected = {b: _plan_outcome(dataclasses.replace(area), catalog, request, b) for b in budgets}
        assert expected[tight] != expected[10.0]
        for order in (budgets, budgets[::-1]):
            shared = dataclasses.replace(area)
            for budget in order:
                assert _plan_outcome(shared, catalog, request, budget) == expected[budget]
        # The over-budget messages of a plan checked against the tight budget.
        plan = plan_slice(request, Sst.URLLC, shared, catalog)
        tight_config = PlannerConfig(cu_du_latency_budget_ms=tight)
        problems = verify_plan(plan, dataclasses.replace(area), catalog, tight_config)
        assert problems and all("ms budget" in p for p in problems)
        assert verify_plan(plan, shared, catalog, tight_config) == problems

    def test_verifier_reports_full_latencies_past_a_cut_row(self, catalog):
        area, tight = reference_area(), PlannerConfig(cu_du_latency_budget_ms=0.6)
        plan = plan_slice(reference_requests()[Sst.MMTC], Sst.MMTC, area, catalog)  # rows cut at 10 ms
        over = [f"{du}: {ms} ms to CU at pop-edge-1 exceeds 0.6 ms budget"
                for du, ms in (("du-industrial-01", 0.8), ("du-suburban-01", 1.2), ("du-suburban-02", 1.2))]
        assert verify_plan(plan, area, catalog, tight) == over
        assert verify_plan(plan, reference_area(), catalog, tight) == over
        island = dataclasses.replace(area, links=tuple(l for l in area.links if l.a != "pop-agg-suburban"))
        assert verify_plan(plan, island, catalog, tight) == [over[0]] + [p.replace("1.2 ms", "inf ms") for p in over[1:]]

    def test_racing_bounded_and_full_queries_get_exact_rows(self):
        _, area, _, _ = make_scaled_instance(random.Random(7))
        source = area.edge_pops()[0].pop_id
        full = topology._shortest_paths(area, source, math.inf)
        bounds = (2.0, 5.0, math.inf, 8.0, math.inf, 5.0)  # more threads than a small host has cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                fresh = dataclasses.replace(area)
                barrier = threading.Barrier(len(bounds))
                rows = {}

                def query(i, bound):
                    barrier.wait(timeout=10)
                    if bound == math.inf:
                        rows[i] = {p: pop_latency(fresh, source, p) for p in full}
                    else:
                        rows[i] = fresh.latency_row(source, bound)

                threads = [threading.Thread(target=query, args=item) for item in enumerate(bounds)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert all(_cut(rows[i], bound) == _cut(full, bound) for i, bound in enumerate(bounds))
                assert {p: pop_latency(fresh, source, p) for p in full} == full
        finally:
            sys.setswitchinterval(interval)

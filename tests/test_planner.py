"""Planner: DU dimensioning, CU minimization against the independent
oracle, gNB IL-subset lookup, scaling, and the end-to-end reference
plans."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cu_oracle import make_cu_vnfd, make_instance, oracle_min_cus
from ranslicer.errors import PlannerError
from ranslicer.model import (
    CITY_CENTER,
    INDUSTRIAL,
    SUBURBAN,
    DuIlCapacity,
    DuSubsetKey,
    DuVnfd,
    Flavor,
    FronthaulTech,
    GnbSubsetKey,
    IlSubset,
    InstantiationLevel,
    VmSpec,
)
from ranslicer.planner import (
    DU_FLAVOR_FOR_TECH,
    DuFlavor,
    DuPlan,
    PlannerConfig,
    assign_dus_to_cus,
    derive_gnb_il_subset,
    dimension_dus,
    plan_slice,
    select_gnb_flavor,
    select_il_for_traffic,
    verify_plan,
)
from ranslicer.model import Sst
from ranslicer.radio import area_load_mbps, default_policy, select_operation_bands
from ranslicer.topology import Region, pop_latency


def test_select_gnb_flavor():
    assert select_gnb_flavor(frozenset({FronthaulTech.CPRI})) == 1
    assert select_gnb_flavor(frozenset({FronthaulTech.ECPRI})) == 2
    assert select_gnb_flavor(frozenset(FronthaulTech)) == 3
    with pytest.raises(ValueError):
        select_gnb_flavor(frozenset())


# ---------------------------------------------------------------------------
# DU dimensioning

def _test_du_vnfd(region_class, tech, ranges):
    """One-flavor DU VNFD with (lo, hi, top_capacity) subsets."""
    subsets = []
    for lo, hi, top in ranges:
        levels = (
            InstantiationLevel(f"il-{lo}-{hi}-a", VmSpec(2, 2.0, 4.0), DuIlCapacity(hi, top / 2)),
            InstantiationLevel(f"il-{lo}-{hi}-b", VmSpec(4, 2.0, 8.0), DuIlCapacity(hi, top)),
        )
        subsets.append(IlSubset(DuSubsetKey(region_class, tech, lo, hi), levels))
    flavor_id = 1 if tech is FronthaulTech.ECPRI else 2
    split = 7 if tech is FronthaulTech.ECPRI else 8
    return DuVnfd("vnfd-du-test", (Flavor(flavor_id, frozenset({tech}), split, tuple(subsets)),))


def _region(n_sites, region_class=SUBURBAN, tech=FronthaulTech.CPRI):
    return Region(
        region_id="testville",
        region_class=region_class,
        area_km2=4.0,
        fronthaul_tech=tech,
        cell_sites=tuple(f"site-{i:02d}" for i in range(1, n_sites + 1)),
        aggregation_pop="agg-test",
    )


def _oracle_min_dus(n_sites, ranges, peak):
    """Exhaustive search over DU counts, straight from the definition."""
    for n in range(1, n_sites + 1):
        hi_size = math.ceil(n_sites / n)
        lo_size = n_sites // n
        covering = [r for r in ranges if r[0] <= hi_size <= r[1]]
        if not covering:
            continue
        if lo_size not in (0, hi_size) and not any(r[0] <= lo_size <= r[1] for r in ranges):
            continue
        if covering[0][2] * n >= peak:
            return n
    return None


class TestDimensionDus:
    RANGES = ((1, 4, 10_000.0), (5, 8, 20_000.0))

    def test_twelve_sites_need_two_dus(self):
        # Derived: n=1 gives 12 sites/DU which no subset covers; n=2 gives
        # 6 per DU, inside [5, 8]; exhaustive search agrees.
        vnfd = _test_du_vnfd(SUBURBAN, FronthaulTech.CPRI, self.RANGES)
        plans = dimension_dus(_region(12), 1000.0, vnfd)
        assert _oracle_min_dus(12, self.RANGES, 1000.0) == 2
        assert len(plans) == 2
        assert [len(p.served_cell_sites) for p in plans] == [6, 6]
        assert all(p.il_subset.key.min_cell_sites == 5 for p in plans)
        assert all(p.vnfd_flavor is DuFlavor.SPLIT8_CPRI for p in plans)

    def test_three_sites_zero_load_one_du(self):
        vnfd = _test_du_vnfd(SUBURBAN, FronthaulTech.CPRI, self.RANGES)
        plans = dimension_dus(_region(3), 0.0, vnfd)
        assert len(plans) == 1
        assert plans[0].served_cell_sites == ("site-01", "site-02", "site-03")
        assert (plans[0].il_subset.key.min_cell_sites, plans[0].il_subset.key.max_cell_sites) == (1, 4)

    def test_overload_is_insufficient_capacity(self):
        vnfd = _test_du_vnfd(SUBURBAN, FronthaulTech.CPRI, ((1, 1, 100.0),))
        with pytest.raises(PlannerError) as err:
            dimension_dus(_region(1), 200.0, vnfd)
        assert err.value.code == "INSUFFICIENT_DU_CAPACITY"

    def test_sites_partition_without_overlap(self):
        vnfd = _test_du_vnfd(SUBURBAN, FronthaulTech.CPRI, self.RANGES)
        region = _region(11)
        plans = dimension_dus(region, 15_000.0, vnfd)
        served = [s for p in plans for s in p.served_cell_sites]
        assert sorted(served) == sorted(region.cell_sites)
        assert len(set(served)) == len(served)
        sizes = [len(p.served_cell_sites) for p in plans]
        assert max(sizes) - min(sizes) <= 1

    @given(
        n_sites=st.integers(min_value=1, max_value=16),
        peak=st.floats(min_value=0.0, max_value=60_000.0),
    )
    def test_matches_exhaustive_oracle(self, n_sites, peak):
        ranges = ((1, 4, 10_000.0), (5, 8, 20_000.0))
        vnfd = _test_du_vnfd(SUBURBAN, FronthaulTech.CPRI, ranges)
        expected = _oracle_min_dus(n_sites, ranges, peak)
        if expected is None:
            with pytest.raises(PlannerError):
                dimension_dus(_region(n_sites), peak, vnfd)
        else:
            plans = dimension_dus(_region(n_sites), peak, vnfd)
            assert len(plans) == expected


# ---------------------------------------------------------------------------
# CU assignment

class TestAssignDusToCus:
    def test_three_dus_one_cu(self):
        rng = random.Random(1)
        dus, area, cu_vnfd, capacity = make_instance(rng)
        # Craft the textbook case directly instead of relying on the rng.
        from ranslicer.topology import DeploymentArea, Pop, PopTier, TransportLink

        pops = (
            Pop("edge-1", PopTier.EDGE, 64, 128.0),
            Pop("agg-01", PopTier.AGGREGATION, 32, 64.0),
            Pop("agg-02", PopTier.AGGREGATION, 32, 64.0),
            Pop("agg-03", PopTier.AGGREGATION, 32, 64.0),
        )
        links = tuple(TransportLink(f"agg-{i:02d}", "edge-1", 1.0) for i in (1, 2, 3))
        area = DeploymentArea((), pops, links, ())
        dus = [dataclasses.replace(dus[0], du_id=f"du-{i:02d}", host_pop=f"agg-{i:02d}") for i in (1, 2, 3)]
        skeletons = assign_dus_to_cus(dus, area, make_cu_vnfd(4), PlannerConfig())
        assert len(skeletons) == 1
        assert skeletons[0].cu_host_pop == "edge-1"
        assert len(skeletons[0].dus) == 3

    def test_split_coverage_needs_two_cus(self):
        # d1..d3 reach only p1, d4..d5 only p2; brute force says 2 CUs.
        from ranslicer.topology import DeploymentArea, Pop, PopTier, TransportLink

        pops = [Pop("p1", PopTier.EDGE, 64, 128.0), Pop("p2", PopTier.EDGE, 64, 128.0)]
        links = []
        dus = []
        base = make_instance(random.Random(0))[0][0]
        for i in range(1, 6):
            agg = f"agg-{i:02d}"
            pops.append(Pop(agg, PopTier.AGGREGATION, 32, 64.0))
            target = "p1" if i <= 3 else "p2"
            links.append(TransportLink(agg, target, 2.0))
            dus.append(dataclasses.replace(base, du_id=f"du-{i:02d}", host_pop=agg))
        area = DeploymentArea((), tuple(pops), tuple(links), ())
        config = PlannerConfig()
        skeletons = assign_dus_to_cus(dus, area, make_cu_vnfd(4), config)
        assert len(skeletons) == 2
        assert oracle_min_cus(dus, area, config.cu_du_latency_budget_ms, 4) == 2

    def test_stranded_du_is_infeasible(self):
        from ranslicer.topology import DeploymentArea, Pop, PopTier, TransportLink

        pops = (
            Pop("edge-1", PopTier.EDGE, 64, 128.0),
            Pop("agg-01", PopTier.AGGREGATION, 32, 64.0),
        )
        links = (TransportLink("agg-01", "edge-1", 50.0),)  # above the budget
        area = DeploymentArea((), pops, links, ())
        du = dataclasses.replace(make_instance(random.Random(0))[0][0], du_id="du-01", host_pop="agg-01")
        with pytest.raises(PlannerError) as err:
            assign_dus_to_cus([du], area, make_cu_vnfd(2), PlannerConfig())
        assert err.value.code == "INFEASIBLE_LATENCY"
        assert oracle_min_cus([du], area, 10.0, 2) is None

    def _check_skeletons(self, skeletons, area, budget, capacity, dus):
        assigned = [d.du_id for s in skeletons for d in s.dus]
        assert sorted(assigned) == sorted(d.du_id for d in dus)
        for skeleton in skeletons:
            assert len(skeleton.dus) <= capacity
            for du in skeleton.dus:
                assert pop_latency(area, skeleton.cu_host_pop, du.host_pop) <= budget

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_exact_solver_matches_oracle(self, seed):
        rng = random.Random(seed)
        dus, area, cu_vnfd, capacity = make_instance(rng)
        config = PlannerConfig()
        expected = oracle_min_cus(dus, area, config.cu_du_latency_budget_ms, capacity)
        if expected is None:
            with pytest.raises(PlannerError):
                assign_dus_to_cus(dus, area, cu_vnfd, config)
        else:
            skeletons = assign_dus_to_cus(dus, area, cu_vnfd, config)
            assert len(skeletons) == expected
            self._check_skeletons(skeletons, area, config.cu_du_latency_budget_ms, capacity, dus)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_greedy_is_sound_and_never_beats_exact(self, seed):
        rng = random.Random(seed)
        dus, area, cu_vnfd, capacity = make_instance(rng)
        greedy_config = PlannerConfig(exact_solver_limit=0)
        expected = oracle_min_cus(dus, area, greedy_config.cu_du_latency_budget_ms, capacity)
        if expected is None:
            with pytest.raises(PlannerError):
                assign_dus_to_cus(dus, area, cu_vnfd, greedy_config)
            return
        skeletons = assign_dus_to_cus(dus, area, cu_vnfd, greedy_config)
        assert len(skeletons) >= expected
        self._check_skeletons(skeletons, area, greedy_config.cu_du_latency_budget_ms, capacity, dus)

    def test_deterministic_assignment(self):
        rng = random.Random(42)
        dus, area, cu_vnfd, _ = make_instance(rng)
        config = PlannerConfig()
        try:
            first = assign_dus_to_cus(dus, area, cu_vnfd, config)
            second = assign_dus_to_cus(dus, area, cu_vnfd, config)
        except PlannerError:
            return
        assert first == second


# ---------------------------------------------------------------------------
# gNB IL subset lookup

class TestDeriveGnbIlSubset:
    def _dus(self, catalog, region_class, tech, subset_range, count, first=1):
        flavor = catalog.du_vnfds[0].flavor_for_tech(tech)
        subset = next(
            s for s in flavor.il_subsets
            if s.key.region_class == region_class
            and (s.key.min_cell_sites, s.key.max_cell_sites) == subset_range
        )
        region_id = {CITY_CENTER: "city-center", INDUSTRIAL: "industrial", SUBURBAN: "suburban"}[region_class]
        return [
            DuPlan(f"du-{region_id}-{i:02d}", region_id, (f"{region_id}-site-{i}",),
                   DU_FLAVOR_FOR_TECH[tech], subset, f"pop-agg-{region_id}")
            for i in range(first, first + count)
        ]

    def _cu_selection(self, catalog, dus_range):
        cu = catalog.cu_vnfds[0]
        subset = next(
            s for s in cu.flavors[0].il_subsets
            if (s.key.min_dus, s.key.max_dus) == dus_range
        )
        return (cu.descriptor_id, subset)

    def test_three_region_triple_under_flavor_3(self, catalog):
        nsd = catalog.gnb_nsds[0]
        subset = derive_gnb_il_subset(
            nsd, 3,
            self._cu_selection(catalog, (3, 5)),
            self._dus(catalog, INDUSTRIAL, FronthaulTech.ECPRI, (3, 4), 1)
            + self._dus(catalog, SUBURBAN, FronthaulTech.CPRI, (1, 3), 2)
            + self._dus(catalog, CITY_CENTER, FronthaulTech.ECPRI, (5, 8), 1),
            catalog.du_vnfds[0].descriptor_id,
        )
        assert subset.key == GnbSubsetKey((
            (CITY_CENTER, FronthaulTech.ECPRI),
            (INDUSTRIAL, FronthaulTech.ECPRI),
            (SUBURBAN, FronthaulTech.CPRI),
        ))

    def test_city_center_pair_under_flavor_2(self, catalog):
        nsd = catalog.gnb_nsds[0]
        subset = derive_gnb_il_subset(
            nsd, 2,
            self._cu_selection(catalog, (1, 2)),
            self._dus(catalog, CITY_CENTER, FronthaulTech.ECPRI, (1, 4), 2),
            catalog.du_vnfds[0].descriptor_id,
        )
        assert subset.key == GnbSubsetKey(((CITY_CENTER, FronthaulTech.ECPRI),))

    def test_missing_combination(self, catalog):
        nsd = catalog.gnb_nsds[0]
        [du] = self._dus(catalog, INDUSTRIAL, FronthaulTech.ECPRI, (3, 4), 1)
        bogus = dataclasses.replace(
            du, il_subset=dataclasses.replace(
                du.il_subset, key=dataclasses.replace(du.il_subset.key, region_class="RURAL")
            ),
        )
        with pytest.raises(PlannerError) as err:
            derive_gnb_il_subset(nsd, 2, self._cu_selection(catalog, (1, 2)), [bogus],
                                 catalog.du_vnfds[0].descriptor_id)
        assert err.value.code == "NO_MATCHING_SUBSET"

    def test_region_with_two_du_subsets_counts_twice(self, catalog):
        nsd = catalog.gnb_nsds[0]
        dus = (self._dus(catalog, CITY_CENTER, FronthaulTech.ECPRI, (1, 4), 1)
               + self._dus(catalog, CITY_CENTER, FronthaulTech.ECPRI, (5, 8), 1, first=2))
        with pytest.raises(PlannerError) as err:
            derive_gnb_il_subset(nsd, 2, self._cu_selection(catalog, (1, 2)), dus,
                                 catalog.du_vnfds[0].descriptor_id)
        assert err.value.code == "NO_MATCHING_SUBSET"
        pair = f"({CITY_CENTER}, {FronthaulTech.ECPRI.value})"
        assert f"has no IL subset for {pair} + {pair} referencing" in str(err.value)


# ---------------------------------------------------------------------------
# IL selection for traffic

def _subset_with_capacities(*caps):
    levels = tuple(
        InstantiationLevel(f"il-{i}", VmSpec(2 * (i + 1), 2.0, 4.0 * (i + 1)),
                           DuIlCapacity(4, cap))
        for i, cap in enumerate(caps)
    )
    return IlSubset(DuSubsetKey(SUBURBAN, FronthaulTech.CPRI, 1, 4), levels)


class TestSelectIlForTraffic:
    def test_zero_load_gives_lowest(self):
        subset = _subset_with_capacities(100.0, 250.0, 600.0)
        assert select_il_for_traffic(subset, 0.0).il_id == "il-0"

    def test_boundary_is_inclusive(self):
        subset = _subset_with_capacities(100.0, 250.0, 600.0)
        assert select_il_for_traffic(subset, 250.0).il_id == "il-1"

    def test_linear_scan_oracle(self):
        caps = (100.0, 250.0, 600.0)
        subset = _subset_with_capacities(*caps)
        expected = next(i for i, c in enumerate(caps) if c >= 300.0)
        assert select_il_for_traffic(subset, 300.0).il_id == f"il-{expected}"
        assert expected == 2

    def test_overload(self):
        subset = _subset_with_capacities(100.0, 250.0, 600.0)
        with pytest.raises(PlannerError) as err:
            select_il_for_traffic(subset, 601.0)
        assert err.value.code == "LOAD_EXCEEDS_SUBSET"

    @given(
        caps=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=6),
        l1=st.floats(min_value=0.0, max_value=1e6),
        l2=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_monotone_in_load(self, caps, l1, l2):
        subset = _subset_with_capacities(*sorted(set(caps)))
        ids = [lvl.il_id for lvl in subset.levels]
        lo, hi = sorted((l1, l2))

        def index_or_none(load):
            try:
                return ids.index(select_il_for_traffic(subset, load).il_id)
            except PlannerError:
                return None

        a, b = index_or_none(lo), index_or_none(hi)
        if b is None:
            return  # overload at the high end says nothing about ordering
        assert a is not None and a <= b

    @given(
        caps=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=6),
        l1=st.floats(min_value=0.0, max_value=1e6),
        l2=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_selection_changes_only_across_capacity_boundaries(self, caps, l1, l2):
        ordered = sorted(set(caps))
        subset = _subset_with_capacities(*ordered)
        lo, hi = sorted((l1, l2))
        if hi > ordered[-1]:
            return
        crossed = any(lo <= cap < hi for cap in ordered)
        same = select_il_for_traffic(subset, lo) == select_il_for_traffic(subset, hi)
        assert same != crossed or lo == hi


# ---------------------------------------------------------------------------
# end-to-end plans on the reference inputs

class TestPlanSlice:
    def test_embb_plan(self, catalog, area, requests, config):
        plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog)
        assert [g.nsd_flavor_id for g in plan.gnbs] == [2]
        assert plan.selected_rus == tuple(f"ru-cc-{i:02d}" for i in range(1, 9))
        gnb = plan.gnbs[0]
        assert gnb.cu.host_pop == "pop-edge-1"
        assert [d.du_id for d in gnb.dus] == ["du-city-center-01", "du-city-center-02"]
        assert [d.served_cell_sites for d in gnb.dus] == [
            tuple(f"cs-cc-{i:02d}" for i in range(1, 5)),
            tuple(f"cs-cc-{i:02d}" for i in range(5, 9)),
        ]
        assert all(
            (d.il_subset.key.min_cell_sites, d.il_subset.key.max_cell_sites) == (1, 4)
            for d in gnb.dus
        )
        assert (gnb.cu.il_subset.key.min_dus, gnb.cu.il_subset.key.max_dus) == (1, 2)
        expected_load = 5000.0 * 1.0 * 300.0 * 0.1
        assert plan.offered_load_mbps == (("city-center", expected_load),)

    def test_mmtc_plan(self, catalog, area, requests):
        plan = plan_slice(requests[Sst.MMTC], Sst.MMTC, area, catalog)
        assert [g.nsd_flavor_id for g in plan.gnbs] == [3]
        assert len(plan.selected_rus) == 18
        gnb = plan.gnbs[0]
        by_region = {}
        for du in gnb.dus:
            by_region.setdefault(du.region_id, []).append(du)
        assert {r: len(v) for r, v in by_region.items()} == {
            "city-center": 1, "industrial": 1, "suburban": 2,
        }
        assert (gnb.cu.il_subset.key.min_dus, gnb.cu.il_subset.key.max_dus) == (3, 5)
        assert dict(plan.offered_load_mbps) == {
            "city-center": 500_000.0 * 1.0 * 0.1 * 0.1,
            "industrial": 500_000.0 * 2.0 * 0.1 * 0.1,
            "suburban": 500_000.0 * 8.0 * 0.1 * 0.1,
        }

    def test_urllc_plan(self, catalog, area, requests):
        plan = plan_slice(requests[Sst.URLLC], Sst.URLLC, area, catalog)
        assert [g.nsd_flavor_id for g in plan.gnbs] == [1]
        assert plan.selected_rus == tuple(f"ru-sub-{i:02d}" for i in range(1, 7))
        gnb = plan.gnbs[0]
        assert len(gnb.dus) == 1
        assert gnb.dus[0].served_cell_sites == tuple(f"cs-sub-{i:02d}" for i in range(1, 7))
        assert gnb.dus[0].vnfd_flavor is DuFlavor.SPLIT8_CPRI

    def test_plans_are_deterministic(self, catalog, area, requests):
        from ranslicer.io import envelope_for, serialize_document

        a = plan_slice(requests[Sst.MMTC], Sst.MMTC, area, catalog)
        b = plan_slice(requests[Sst.MMTC], Sst.MMTC, area, catalog)
        assert a == b
        assert serialize_document(envelope_for(a)) == serialize_document(envelope_for(b))

    def test_verifier_accepts_reference_plans(self, catalog, area, requests):
        for sst in (Sst.EMBB, Sst.MMTC, Sst.URLLC):
            plan = plan_slice(requests[sst], sst, area, catalog)
            assert verify_plan(plan, area, catalog) == []

    def test_verifier_catches_tampering(self, catalog, area, requests):
        plan = plan_slice(requests[Sst.URLLC], Sst.URLLC, area, catalog)
        gnb = plan.gnbs[0]
        moved = dataclasses.replace(
            plan, gnbs=(dataclasses.replace(gnb, cu=dataclasses.replace(gnb.cu, host_pop="pop-agg-industrial")),)
        )
        config = PlannerConfig(cu_du_latency_budget_ms=1.0)
        assert verify_plan(moved, area, catalog, config)

    def test_coverage_conservation(self, catalog, area, requests):
        plan = plan_slice(requests[Sst.MMTC], Sst.MMTC, area, catalog)
        served = [s for g in plan.gnbs for d in g.dus for s in d.served_cell_sites]
        assert len(served) == len(set(served))
        ru_sites = {
            next(r for r in area.rus if r.ru_id == ru_id).location.cell_site
            for ru_id in plan.selected_rus
        }
        assert set(served) == ru_sites

    def test_empty_target_regions_rejected_at_validation(self, requests):
        with pytest.raises(ValueError):
            dataclasses.replace(requests[Sst.EMBB], target_regions=())

    def test_sd_is_carried_through(self, catalog, area, requests):
        plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog, sd="0abc12")
        assert plan.s_nssai.sd == "0abc12"

    def test_peak_load_formula(self, area, requests, policy):
        region = area.region("suburban")
        request = requests[Sst.URLLC]
        per_ue = max(request.throughput_dl_mbps, request.throughput_ul_mbps)
        load = area_load_mbps(request.ue_density_per_km2, region.area_km2, per_ue, policy)
        assert load == 50.0 * 8.0 * 25.0 * 0.1

    @pytest.mark.parametrize("factor", [0.2, 1.0])
    def test_activity_factor_sizes_carriers_and_regional_load(self, catalog, area, requests, factor):
        request = requests[Sst.URLLC]
        policy = dataclasses.replace(default_policy(), activity_factor=factor)
        plan = plan_slice(request, Sst.URLLC, area, catalog, policy=policy)
        per_ue = max(request.throughput_dl_mbps, request.throughput_ul_mbps)
        assert plan.offered_load_mbps == tuple(
            (rid, request.ue_density_per_km2 * area.region(rid).area_km2 * per_ue * factor)
            for rid in sorted(set(request.target_regions))
        )
        radio = plan.nsst.radio_config
        assert radio.bands == select_operation_bands(
            request.throughput_dl_mbps, request.throughput_ul_mbps,
            request.ue_density_per_km2, radio.numerology_mu, policy,
        )
        default = plan_slice(request, Sst.URLLC, area, catalog)
        assert plan.offered_load_mbps != default.offered_load_mbps

    def test_verifier_checks_gnb_il_subset_key(self, catalog, area, requests):
        plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog)
        industrial = next(
            s for s in catalog.gnb_nsds[0].flavor(2).il_subsets
            if s.key == GnbSubsetKey(((INDUSTRIAL, FronthaulTech.ECPRI),))
        )
        gnb = plan.gnbs[0]
        swapped = dataclasses.replace(plan, gnbs=(dataclasses.replace(gnb, nsd_il_subset=industrial),))
        problems = verify_plan(swapped, area, catalog)
        assert problems == [
            f"{gnb.gnb_id}: gNB IL subset is not keyed by its DU layout (CITY_CENTER, ECPRI)"
        ]

    def test_verifier_checks_du_capacity_covers_offered_load(self, catalog, area, requests):
        for sst in (Sst.EMBB, Sst.MMTC, Sst.URLLC):
            for n in range(1, 4):
                for regions in itertools.combinations(sorted(r.region_id for r in area.regions), n):
                    request = dataclasses.replace(requests[sst], target_regions=regions)
                    try:
                        plan = plan_slice(request, sst, area, catalog)
                    except PlannerError:
                        continue
                    assert verify_plan(plan, area, catalog) == []
        plan = plan_slice(requests[Sst.MMTC], Sst.MMTC, area, catalog)
        loads = tuple((rid, load * 10 if rid == "suburban" else load) for rid, load in plan.offered_load_mbps)
        problems = verify_plan(dataclasses.replace(plan, offered_load_mbps=loads), area, catalog)
        assert len(problems) == 1 and problems[0].startswith("region suburban: 2 DU(s) carry ")
        orphan = dataclasses.replace(plan, offered_load_mbps=plan.offered_load_mbps + (("mars", 1.0),))
        assert verify_plan(orphan, area, catalog) == ["region mars: no DU carries its 1 Mbps offered load"]

"""Planner: DU dimensioning, CU minimization against the independent
oracle, gNB IL-subset lookup, scaling, and the end-to-end reference
plans."""

import dataclasses
import functools
import itertools
import math
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import docgen
from cu_oracle import bellman_ford, greedy_oracle, make_cu_vnfd, make_instance, make_scaled_instance, oracle_min_cus
from ranslicer import planner
from ranslicer.builtin import builtin_catalog, reference_requests
from ranslicer.errors import PlannerError, TopologyError
from ranslicer.io import envelope_for, parse_document, serialize_document
from ranslicer.model import (
    CITY_CENTER,
    INDUSTRIAL,
    SUBURBAN,
    CuIlCapacity,
    CuSubsetKey,
    DuIlCapacity,
    DuSubsetKey,
    DuVnfd,
    Flavor,
    FronthaulTech,
    GnbSubsetKey,
    IlSubset,
    InstantiationLevel,
    SNssai,
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

DATA = Path(__file__).parent / "data"


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
    return len(layout) if (layout := _oracle_layout(n_sites, ranges, peak)) else None


def _oracle_layout(n_sites, ranges, peak):
    """The fewest balanced groups, larger first, each with the first range
    in (lo, hi) order covering it, whose largest group's top capacity times
    the group count carries ``peak``: [(group size, range)], or None."""
    ordered = sorted(ranges, key=lambda r: (r[0], r[1]))
    for n in range(1, n_sites + 1):
        sizes = [math.ceil(n_sites / n)] * (n_sites % n) + [n_sites // n] * (n - n_sites % n)
        covering = [next((r for r in ordered if r[0] <= size <= r[1]), None) for size in sizes]
        if None not in covering and covering[0][2] * n >= peak:
            return list(zip(sizes, covering))
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

    def test_count_whose_smaller_group_is_uncovered_is_skipped(self):
        # n=2 and n=3 leave a 3-site group, which neither (1, 2) nor (4, 4) covers.
        vnfd = _test_du_vnfd(SUBURBAN, FronthaulTech.CPRI, ((1, 2, 10_000.0), (4, 4, 20_000.0)))
        plans = dimension_dus(_region(7), 0.0, vnfd)
        assert [len(p.served_cell_sites) for p in plans] == [2, 2, 2, 1]
        assert {(p.il_subset.key.min_cell_sites, p.il_subset.key.max_cell_sites) for p in plans} == {(1, 2)}

    @given(
        n_sites=st.integers(min_value=1, max_value=16),
        peak=st.floats(min_value=0.0, max_value=60_000.0),
        ranges=st.lists(
            st.tuples(st.integers(1, 10), st.integers(0, 4), st.sampled_from((5_000.0, 10_000.0, 20_000.0)))
            .map(lambda r: (r[0], r[0] + r[1], r[2])),
            min_size=1, max_size=4,
        ),
    )
    def test_matches_exhaustive_oracle(self, n_sites, peak, ranges):
        # Ranges come gapped, overlapping and unsorted, in the VNFD's order.
        vnfd = _test_du_vnfd(SUBURBAN, FronthaulTech.CPRI, ranges)
        region = _region(n_sites)
        expected = _oracle_layout(n_sites, ranges, peak)
        if expected is None:
            with pytest.raises(PlannerError) as err:
                dimension_dus(region, peak, vnfd)
            assert err.value.code == "INSUFFICIENT_DU_CAPACITY"
            return
        plans = dimension_dus(region, peak, vnfd)
        assert [(len(p.served_cell_sites), p.il_subset.key.min_cell_sites, p.il_subset.key.max_cell_sites,
                 p.il_subset.levels[-1].role_capacity.aggregate_capacity_mbps) for p in plans] == [
            (size, lo, hi, top) for size, (lo, hi, top) in expected]
        assert tuple(s for p in plans for s in p.served_cell_sites) == region.cell_sites


# ---------------------------------------------------------------------------
# CU assignment

def _per_du_compat(dus, area, budget_ms) -> dict[str, list[str]]:
    """Each DU's edge PoPs within the budget, in edge-PoP id order, asked
    of ``pop_latency`` per DU; a PoP it cannot reach is skipped."""
    compat = {}
    for du in sorted(dus, key=lambda d: d.du_id):
        compat[du.du_id] = []
        for pop in area.edge_pops():
            try:
                if pop_latency(area, pop.pop_id, du.host_pop) <= budget_ms:
                    compat[du.du_id].append(pop.pop_id)
            except TopologyError:
                pass
    return compat


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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9), scaled=st.booleans())
    def test_greedy_layout_matches_greedy_oracle(self, seed, scaled):
        rng = random.Random(seed)
        dus, area, cu_vnfd, capacity = (make_scaled_instance if scaled else make_instance)(rng)
        config = PlannerConfig(exact_solver_limit=0)
        # The planner's own latencies: this property pins the greedy layout, not compatibility.
        edge_pop_ids = [p.pop_id for p in area.edge_pops()]
        compat = _per_du_compat(dus, area, config.cu_du_latency_budget_ms)
        if not all(compat.values()):
            with pytest.raises(PlannerError):
                assign_dus_to_cus(dus, area, cu_vnfd, config)
            return
        ordered = sorted(dus, key=lambda d: d.du_id)
        expected = sorted((pop, tuple(d.du_id for d in members))
                          for pop, members in greedy_oracle(ordered, compat, edge_pop_ids, capacity))
        skeletons = assign_dus_to_cus(dus, area, cu_vnfd, config)
        assert [(s.cu_host_pop, tuple(d.du_id for d in s.dus)) for s in skeletons] == expected

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9), stranded=st.booleans())
    def test_compatibility_lists_equal_a_per_du_build(self, seed, stranded):
        dus, area, cu_vnfd, _ = make_scaled_instance(random.Random(seed))
        if stranded:  # an unknown host PoP reaches no edge PoP
            dus[seed % len(dus)] = dataclasses.replace(dus[seed % len(dus)], host_pop="agg-unknown")
        config = PlannerConfig(exact_solver_limit=0)
        compat = _per_du_compat(dus, area, config.cu_du_latency_budget_ms)
        if stranded:
            with pytest.raises(PlannerError) as err:
                assign_dus_to_cus(dus, area, cu_vnfd, config)
            ids = ", ".join(sorted(du_id for du_id, pops in compat.items() if not pops))
            budget = f"{config.cu_du_latency_budget_ms:g}"
            assert (err.value.code, err.value.args[0]) == (
                "INFEASIBLE_LATENCY", f"no edge PoP within {budget} ms of DU(s): {ids}")
            return
        with mock.patch.object(planner, "_greedy_cu_assignment", wraps=planner._greedy_cu_assignment) as spy:
            assign_dus_to_cus(dus, area, cu_vnfd, config)
        assert {du_id: list(pops) for du_id, pops in spy.call_args.args[1].items()} == compat

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

    def _city_center_pair(self, catalog):
        """Arguments under which flavor 2's city-center subset matches."""
        return {
            "gnb_nsd": catalog.gnb_nsds[0],
            "flavor_id": 2,
            "cu_selection": self._cu_selection(catalog, (1, 2)),
            "dus": self._dus(catalog, CITY_CENTER, FronthaulTech.ECPRI, (1, 4), 2),
            "du_vnfd_id": catalog.du_vnfds[0].descriptor_id,
        }

    @staticmethod
    def _nsd_with_cu_roles(nsd):
        """The NSD with every gNB level's role replaced by a CU capacity."""
        flavors = tuple(
            dataclasses.replace(flavor, il_subsets=tuple(
                dataclasses.replace(subset, levels=tuple(
                    dataclasses.replace(level, role_capacity=CuIlCapacity(2, 1.0)) for level in subset.levels))
                for subset in flavor.il_subsets))
            for flavor in nsd.flavors
        )
        return dataclasses.replace(nsd, flavors=flavors)

    LEVEL_MISMATCHES = {
        "no-level-runs-three-dus": lambda self, catalog, args: dict(
            args, dus=self._dus(catalog, CITY_CENTER, FronthaulTech.ECPRI, (1, 4), 3)),
        "level-role-is-not-a-gnbs": lambda self, catalog, args: dict(
            args, gnb_nsd=self._nsd_with_cu_roles(args["gnb_nsd"])),
        "cu-ref-to-another-vnfd": lambda self, catalog, args: dict(
            args, cu_selection=("vnfd-cu-v2", args["cu_selection"][1])),
        "cu-ref-to-another-il": lambda self, catalog, args: dict(
            args, cu_selection=self._cu_selection(catalog, (3, 5))),
        "du-ref-to-another-vnfd": lambda self, catalog, args: dict(args, du_vnfd_id="vnfd-du-v2"),
    }

    @pytest.mark.parametrize("case", sorted(LEVEL_MISMATCHES))
    def test_no_level_matching_the_layout_is_rejected(self, catalog, case):
        args = self._city_center_pair(catalog)
        assert derive_gnb_il_subset(**args).key == GnbSubsetKey(((CITY_CENTER, FronthaulTech.ECPRI),))
        with pytest.raises(PlannerError) as err:
            derive_gnb_il_subset(**self.LEVEL_MISMATCHES[case](self, catalog, args))
        assert err.value.code == "NO_MATCHING_SUBSET"
        assert str(err.value) == (
            f"NO_MATCHING_SUBSET: gNB NSD nsd-gnb-v1 flavor 2 has no IL subset for "
            f"({CITY_CENTER}, {FronthaulTech.ECPRI.value}) referencing the selected CU/DU IL subsets"
        )


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
            assert verify_plan(plan, None, catalog) == []

    def test_verifier_catches_tampering(self, catalog, area, requests):
        plan = plan_slice(requests[Sst.URLLC], Sst.URLLC, area, catalog)
        gnb = plan.gnbs[0]
        moved = dataclasses.replace(
            plan, gnbs=(dataclasses.replace(gnb, cu=dataclasses.replace(gnb.cu, host_pop="pop-agg-industrial")),)
        )
        config = PlannerConfig(cu_du_latency_budget_ms=1.0)
        assert verify_plan(moved, area, catalog, config)

    @pytest.mark.parametrize("sst", [Sst.EMBB, Sst.MMTC, Sst.URLLC])
    def test_verifier_checks_cu_is_on_an_edge_pop(self, catalog, area, requests, sst):
        plan = plan_slice(requests[sst], sst, area, catalog)
        gnb = plan.gnbs[0]
        aggregation = gnb.dus[0].host_pop  # within every DU's latency budget: only the new check fires
        moved = dataclasses.replace(
            plan, gnbs=(dataclasses.replace(gnb, cu=dataclasses.replace(gnb.cu, host_pop=aggregation)),
                        *plan.gnbs[1:]),
        )
        assert verify_plan(moved, area, catalog) == [f"{gnb.gnb_id}: CU host {aggregation} is not an edge PoP"]

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
        assert problems == [f"{gnb.gnb_id}: {NOT_THE_GNB_NSDS} 2's subset for 2 DUs in (CITY_CENTER, ECPRI)"]

    @staticmethod
    def _renamed(subset: IlSubset) -> IlSubset:
        levels = tuple(dataclasses.replace(level, il_id=level.il_id + "-x") for level in subset.levels)
        return dataclasses.replace(subset, levels=levels)

    @pytest.mark.parametrize("parsed", [False, True])
    def test_verifier_checks_il_subsets_are_the_catalogs(self, catalog, area, requests, parsed):
        from ranslicer.io import envelope_for, parse_document, serialize_document

        plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog)
        gnb = plan.gnbs[0]
        du = gnb.dus[0]
        region = area.region(du.region_id)
        no_gnb_subset = (f"{gnb.gnb_id}: gNB IL subset is not gNB NSD {plan.nsst.nsd_ref} flavor "
                         f"{gnb.nsd_flavor_id}'s subset for 2 DUs in (CITY_CENTER, ECPRI)")
        mutants = [
            (dataclasses.replace(
                gnb, dus=(dataclasses.replace(du, il_subset=self._renamed(du.il_subset)), *gnb.dus[1:])), [
                f"{du.du_id}: IL subset is not the DU VNFD's subset for {len(du.served_cell_sites)} cell sites "
                f"in ({region.region_class}, {region.fronthaul_tech.value})",
                no_gnb_subset,
            ]),
            (dataclasses.replace(gnb, cu=dataclasses.replace(gnb.cu, il_subset=self._renamed(gnb.cu.il_subset))), [
                f"{gnb.gnb_id}: CU IL subset is not the CU VNFD's subset for {len(gnb.dus)} DUs",
                no_gnb_subset,
            ]),
            (dataclasses.replace(gnb, nsd_il_subset=self._renamed(gnb.nsd_il_subset)), [no_gnb_subset]),
        ]
        for mutated, expected in mutants:
            tampered = dataclasses.replace(plan, gnbs=(mutated, *plan.gnbs[1:]))
            if parsed:  # distinct objects equal to the catalog's, as a plan read from a file holds
                tampered = parse_document(serialize_document(envelope_for(tampered))).body
            assert verify_plan(tampered, area, catalog) == expected

    def test_verifier_accepts_parsed_reference_plans(self, catalog, area, requests):
        from ranslicer.io import envelope_for, parse_document, parse_path, serialize_document

        for sst in (Sst.EMBB, Sst.MMTC, Sst.URLLC):
            plan = plan_slice(requests[sst], sst, area, catalog)
            parsed = parse_document(serialize_document(envelope_for(plan))).body
            assert parsed.gnbs[0].cu.il_subset is not plan.gnbs[0].cu.il_subset
            pinned = parse_path(DATA / f"plan_{sst.name.lower()}.json").body
            for checked in (parsed, pinned):
                assert verify_plan(checked, area, catalog) == []
                assert verify_plan(checked, None, catalog) == []

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
                    assert verify_plan(plan, None, catalog) == []
        plan = plan_slice(requests[Sst.MMTC], Sst.MMTC, area, catalog)
        loads = tuple((rid, load * 10 if rid == "suburban" else load) for rid, load in plan.offered_load_mbps)
        problems = verify_plan(dataclasses.replace(plan, offered_load_mbps=loads), area, catalog)
        assert len(problems) == 1 and problems[0].startswith("region suburban: 2 DU(s) carry ")
        orphan = dataclasses.replace(plan, offered_load_mbps=plan.offered_load_mbps + (("mars", 1.0),))
        assert verify_plan(orphan, area, catalog) == [
            "region mars: offered load entry but not a target region of its NSST",
            "region mars: no DU carries its 1 Mbps offered load",
        ]


class TestScaledPlans:
    """End to end on ``docgen.grid_area`` areas of 100-400 regions and
    10-40 edge PoPs, against the Bellman-Ford latency oracle; each area and
    plan also round-trips through its document."""

    @staticmethod
    def _round_trips(body) -> None:
        text = serialize_document(envelope_for(body))
        parsed = parse_document(text).body
        assert parsed == body
        assert serialize_document(envelope_for(parsed)) == text

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_regions=st.integers(100, 400), n_edges=st.integers(10, 40),
           budget=st.floats(2.0, 12.0))
    def test_plan_or_infeasible_latency_agrees_with_the_oracle(self, seed, n_regions, n_edges, budget):
        rng = random.Random(seed)
        area = docgen.grid_area(rng, n_regions, n_edges)
        self._round_trips(area)
        targets = sorted(rng.sample([r.region_id for r in area.regions], rng.randint(13, 48)))
        request = dataclasses.replace(reference_requests()[Sst.URLLC], target_regions=tuple(targets))
        nearest = bellman_ford(area, [p.pop_id for p in area.edge_pops()])
        stranded = [f"du-{region_id}-01" for region_id in targets
                    if nearest.get(area.region(region_id).aggregation_pop, math.inf) > budget]
        config = PlannerConfig(cu_du_latency_budget_ms=budget)
        try:
            plan = plan_slice(request, Sst.URLLC, area, docgen.suburban_catalog(), config)
        except PlannerError as err:
            assert err.code == "INFEASIBLE_LATENCY"
            assert str(err).endswith(f" ms of DU(s): {', '.join(stranded)}") and stranded
            return
        assert stranded == []
        assert sorted(du.region_id for gnb in plan.gnbs for du in gnb.dus) == targets
        for gnb in plan.gnbs:
            latency = bellman_ford(area, [gnb.cu.host_pop])
            assert all(latency[du.host_pop] <= budget for du in gnb.dus)
        self._round_trips(plan)


def _warm_plan_calls(n_regions: int) -> int:
    """``call`` and ``c_call`` profiler events of a warm ``plan_slice`` of
    every region of a ``docgen.grid_area`` with one edge PoP per ten
    regions: the count is deterministic, where timings on a shared host are not."""
    area = docgen.grid_area(random.Random(n_regions), n_regions, n_regions // 10)
    request = dataclasses.replace(reference_requests()[Sst.URLLC],
                                  target_regions=tuple(region.region_id for region in area.regions))
    catalog = docgen.suburban_catalog()
    plan_slice(request, Sst.URLLC, area, catalog)  # fills the area's indexes and latency rows
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        plan_slice(request, Sst.URLLC, area, catalog)
    finally:
        sys.setprofile(previous)
    return calls


def test_warm_plan_calls_grow_linearly_in_regions():
    # Measured on Python 3.10-3.13: 2.01-2.10x per doubling; with a reach
    # loop over every DU host PoP per edge PoP and a min over every edge PoP
    # per CU, 2.29-2.51x.
    calls = [_warm_plan_calls(n) for n in (100, 200, 400, 800)]
    growth = [later / earlier for earlier, later in zip(calls, calls[1:])]
    assert max(growth) <= 2.15, (calls, growth)


# ---------------------------------------------------------------------------
# planning errors: one change to the builtin catalog per error path

def _with_cu_flavor(catalog, **changes):
    cu = catalog.cu_vnfds[0]
    flavor = dataclasses.replace(cu.flavors[0], **changes)
    return dataclasses.replace(catalog, cu_vnfds=(dataclasses.replace(cu, flavors=(flavor,)),))


def _cu_subsets_rekeyed(catalog, old, new):
    return tuple(dataclasses.replace(s, key=CuSubsetKey(*new)) if (s.key.min_dus, s.key.max_dus) == old else s
                 for s in catalog.cu_vnfds[0].flavors[0].il_subsets)


def _cu_subsets_with_du_roles(catalog):
    return tuple(
        dataclasses.replace(s, levels=tuple(
            dataclasses.replace(level, role_capacity=DuIlCapacity(level.role_capacity.max_dus, 1.0))
            for level in s.levels))
        for s in catalog.cu_vnfds[0].flavors[0].il_subsets
    )


def _du_flavors_without(catalog, tech):
    du = catalog.du_vnfds[0]
    flavors = tuple(f for f in du.flavors if tech not in f.fronthaul_techs)
    return dataclasses.replace(catalog, du_vnfds=(dataclasses.replace(du, flavors=flavors),))


PLANNER_ERRORS = {
    "cu-two-flavors": (
        lambda c: dataclasses.replace(c, cu_vnfds=(
            dataclasses.replace(c.cu_vnfds[0], flavors=c.cu_vnfds[0].flavors * 2),)),
        "assign_dus_to_cus", "CU VNFD vnfd-cu-v1 must carry exactly one flavor",
    ),
    "cu-no-subset-for-the-count": (
        lambda c: _with_cu_flavor(c, il_subsets=_cu_subsets_rekeyed(c, (1, 2), (1, 1))),
        "assign_dus_to_cus", "CU VNFD vnfd-cu-v1 has no IL subset for 2 served DUs",
    ),
    "cu-no-cu-levels": (
        lambda c: _with_cu_flavor(c, il_subsets=_cu_subsets_with_du_roles(c)),
        "assign_dus_to_cus", "CU VNFD defines no CU instantiation levels",
    ),
    "du-no-flavor-for-the-tech": (
        lambda c: _du_flavors_without(c, FronthaulTech.ECPRI),
        "dimension_dus", "DU VNFD vnfd-du-v1 has no flavor for ECPRI",
    ),
    "no-gnb-nsd": (lambda c: dataclasses.replace(c, gnb_nsds=()), "plan_slice", "catalog has no gNB NSD"),
    "no-cu-vnfd": (lambda c: dataclasses.replace(c, cu_vnfds=()), "plan_slice", "catalog lacks CU or DU VNFDs"),
    "no-du-vnfd": (lambda c: dataclasses.replace(c, du_vnfds=()), "plan_slice", "catalog lacks CU or DU VNFDs"),
}


@pytest.mark.parametrize("name", sorted(PLANNER_ERRORS))
def test_planner_error_paths(name, catalog, area, requests):
    mutate, stage, message = PLANNER_ERRORS[name]
    with pytest.raises(PlannerError) as err:
        plan_slice(requests[Sst.EMBB], Sst.EMBB, area, mutate(catalog))
    assert (err.value.code, err.value.stage, err.value.args[0]) == ("NO_MATCHING_SUBSET", stage, message)
    assert str(err.value) == f"NO_MATCHING_SUBSET (stage {stage}): {message}"


# ---------------------------------------------------------------------------
# verifier: one mutation of a reference plan per problem branch

def _with_gnb(plan, **changes):
    return dataclasses.replace(plan, gnbs=(dataclasses.replace(plan.gnbs[0], **changes), *plan.gnbs[1:]))


def _with_cu(plan, **changes):
    return _with_gnb(plan, cu=dataclasses.replace(plan.gnbs[0].cu, **changes))


def _with_cu_subset(plan, **changes):
    return _with_cu(plan, il_subset=dataclasses.replace(plan.gnbs[0].cu.il_subset, **changes))


def _with_du(plan, i, **changes):
    dus = list(plan.gnbs[0].dus)
    dus[i] = dataclasses.replace(dus[i], **changes)
    return _with_gnb(plan, dus=tuple(dus))


def _cc_sites(*numbers):
    return tuple(f"cs-cc-{n:02d}" for n in numbers)


def _with_sites_swapped(plan, du_a, site_a, du_b, site_b):
    """The plan with ``site_a`` of DU ``du_a`` and ``site_b`` of DU ``du_b`` traded."""
    trade = {(du_a, site_a): site_b, (du_b, site_b): site_a}
    return _with_gnb(plan, dus=tuple(
        dataclasses.replace(du, served_cell_sites=tuple(trade.get((du.du_id, s), s) for s in du.served_cell_sites))
        for du in plan.gnbs[0].dus))


def _cu_levels_capped(plan, max_dus):
    return tuple(
        dataclasses.replace(level, role_capacity=dataclasses.replace(level.role_capacity, max_dus=max_dus))
        for level in plan.gnbs[0].cu.il_subset.levels
    )


def _with_ids_repeated(plan):
    """The scaled plan with gNB ids, DU ids, offered-load regions and
    selected RUs repeated, the first-seen repeat of each kind listed three
    times and sorting after the second."""
    gnb_ids = ["gnb-01", "gnb-05", "gnb-03", "gnb-05", "gnb-05", "gnb-06", "gnb-03", "gnb-08"]
    renamed = {"du-sub-20-01": "du-sub-01-01", "du-sub-29-01": "du-sub-21-01", "du-sub-30-01": "du-sub-21-01"}
    gnbs = tuple(dataclasses.replace(gnb, gnb_id=gnb_id, dus=tuple(
        dataclasses.replace(du, du_id=renamed.get(du.du_id, du.du_id)) for du in gnb.dus))
        for gnb, gnb_id in zip(plan.gnbs, gnb_ids, strict=True))
    loads = dict(plan.offered_load_mbps)
    return dataclasses.replace(
        plan, gnbs=gnbs, offered_load_mbps=tuple((rid, loads[rid]) for rid in ("sub-09", "sub-02", "sub-09"))
        + plan.offered_load_mbps, selected_rus=("ru-02-1", "ru-01-1", "ru-02-1") + plan.selected_rus)


NOT_THE_CU_VNFDS = "gnb-01: CU IL subset is not the CU VNFD's subset for 2 DUs"
NOT_THE_GNB_NSDS = "gNB IL subset is not gNB NSD nsd-gnb-v1 flavor"
CC_SITES_FROM_MARS = "du-city-center-01: serves a cell site of region city-center, outside its region mars"
MARS_WITHOUT_LOAD = "region mars: 1 DU(s) but no offered load entry"
SCALED = "scaled"  # a case on _scaled_inputs' plan instead of a reference plan

VERIFIER_REPORTS = {
    "cu-wrong-key-kind": (
        Sst.EMBB,
        lambda p: _with_cu_subset(p, key=p.gnbs[0].dus[0].il_subset.key),
        [NOT_THE_CU_VNFDS],
    ),
    "cu-range": (
        Sst.EMBB,
        lambda p: _with_cu_subset(p, key=CuSubsetKey(3, 5)),
        [NOT_THE_CU_VNFDS],
    ),
    "cu-capacity": (
        Sst.EMBB,
        lambda p: _with_cu_subset(p, levels=_cu_levels_capped(p, 1)),
        ["gnb-01: DU count 2 exceeds CU capacity 1", NOT_THE_CU_VNFDS],
    ),
    "unknown-region": (
        Sst.MMTC,
        lambda p: _with_du(p, 0, region_id="mars"),
        [
            "du-city-center-01: unknown region mars",
            MARS_WITHOUT_LOAD,
            "region city-center: no DU carries its 5000 Mbps offered load",
            CC_SITES_FROM_MARS,
        ],
    ),
    "unreachable-cu-host": (
        Sst.EMBB,
        lambda p: _with_cu(p, host_pop="pop-nowhere"),
        [
            "gnb-01: CU host pop-nowhere is not an edge PoP",
            "du-city-center-01: inf ms to CU at pop-nowhere exceeds 10 ms budget",
            "du-city-center-02: inf ms to CU at pop-nowhere exceeds 10 ms budget",
        ],
    ),
    "du-flavor-vs-region-tech": (
        Sst.EMBB,
        lambda p: _with_du(p, 0, vnfd_flavor=DuFlavor.SPLIT8_CPRI),
        ["du-city-center-01: flavor SPLIT8_CPRI mismatches region fronthaul"],
    ),
    "region-tech-not-in-gnb-flavor": (
        Sst.EMBB,
        lambda p: _with_gnb(p, nsd_flavor_id=1),
        [
            f"gnb-01: {NOT_THE_GNB_NSDS} 1's subset for 2 DUs in (CITY_CENTER, ECPRI)",
            "gnb-01: gNB NSD flavor 1 is not the flavor for fronthaul ECPRI",
        ],
    ),
    "du-off-its-aggregation-pop": (
        Sst.EMBB,
        lambda p: _with_du(p, 0, host_pop="pop-edge-1"),
        ["du-city-center-01: not hosted on its region's aggregation PoP"],
    ),
    "du-subset-of-another-region-class": (
        Sst.EMBB,
        lambda p: _with_du(p, 1, il_subset=next(  # a catalog subset covering its 4 sites
            s for s in builtin_catalog().du_vnfds[0].flavors[0].il_subsets
            if s.key == DuSubsetKey(INDUSTRIAL, FronthaulTech.ECPRI, 3, 4))),
        [
            "du-city-center-02: IL subset is not the DU VNFD's subset for 4 cell sites in (CITY_CENTER, ECPRI)",
            f"gnb-01: {NOT_THE_GNB_NSDS} 2's subset for 2 DUs in (CITY_CENTER, ECPRI) + (CITY_CENTER, ECPRI)",
        ],
    ),
    "group-outside-subset-range": (
        Sst.EMBB,
        lambda p: _with_du(_with_du(p, 1, served_cell_sites=_cc_sites(6, 7, 8)),
                           0, served_cell_sites=_cc_sites(1, 2, 3, 4, 5)),
        ["du-city-center-01: IL subset is not the DU VNFD's subset for 5 cell sites in (CITY_CENTER, ECPRI)"],
    ),
    "doubly-served-site": (
        Sst.EMBB,
        lambda p: _with_du(p, 1, served_cell_sites=_cc_sites(4, 6, 7, 8)),
        [
            "cell site cs-cc-04 served by both du-city-center-01 and du-city-center-02",
            "cell sites of selected RUs not served: cs-cc-05",
        ],
    ),
    "du-serves-another-regions-site": (
        Sst.MMTC,
        lambda p: _with_sites_swapped(p, "du-city-center-01", "cs-cc-01", "du-industrial-01", "cs-ind-01"),
        [
            "du-industrial-01: serves a cell site of region city-center, outside its region industrial",
            "du-city-center-01: serves a cell site of region industrial, outside its region city-center",
        ],
    ),
    "ru-not-found": (
        Sst.EMBB,
        lambda p: dataclasses.replace(p, selected_rus=p.selected_rus + ("ru-nowhere",)),
        ["selected RU ru-nowhere not found"],
    ),
    "coverage-missing": (
        Sst.EMBB,
        lambda p: dataclasses.replace(p, selected_rus=p.selected_rus + ("ru-ind-01",)),
        ["cell sites of selected RUs not served: cs-ind-01"],
    ),
    "coverage-extra": (
        Sst.EMBB,
        lambda p: dataclasses.replace(p, selected_rus=p.selected_rus[:-1]),
        ["served cell sites without a selected RU: cs-cc-08"],
    ),
    "nsst-ref-not-the-nssts-id": (
        Sst.EMBB,
        lambda p: dataclasses.replace(p, nsst_ref="nsst-other"),
        ["nsst_ref 'nsst-other' is not its NSST's id 'nsst-embb'"],
    ),
    "s-nssai-not-the-nssts": (
        Sst.EMBB,
        lambda p: dataclasses.replace(p, s_nssai=SNssai(Sst.EMBB, "ABCDEF")),
        ["S-NSSAI EMBB/ABCDEF is not its NSST's EMBB/None"],
    ),
    "du-id-twice": (
        Sst.EMBB,
        lambda p: _with_du(p, 1, du_id="du-city-center-01"),
        ["DU id du-city-center-01 names 2 DUs"],
    ),
    "region-without-a-load-entry": (
        Sst.EMBB,
        lambda p: dataclasses.replace(p, offered_load_mbps=()),
        ["region city-center: 2 DU(s) but no offered load entry"],
    ),
    "selected-ru-twice": (
        Sst.EMBB,
        lambda p: dataclasses.replace(p, selected_rus=p.selected_rus + p.selected_rus[:1]),
        ["selected RU ru-cc-01 listed 2 times"],
    ),
    "gnb-id-twice": (
        SCALED,
        lambda p: dataclasses.replace(p, gnbs=(p.gnbs[0], dataclasses.replace(p.gnbs[1], gnb_id="gnb-01"),
                                               *p.gnbs[2:])),
        ["gNB id gnb-01 names 2 gNBs"],
    ),
    "region-load-twice": (
        Sst.EMBB,
        lambda p: dataclasses.replace(p, offered_load_mbps=p.offered_load_mbps * 2),
        ["region city-center: 2 offered load entries"],
    ),
    "region-load-twice-scaled": (
        SCALED,
        lambda p: dataclasses.replace(p, offered_load_mbps=p.offered_load_mbps[:1] + p.offered_load_mbps),
        ["region sub-01: 2 offered load entries"],
    ),
    "several-ids-repeat-scaled": (  # each kind's first repeat sorts after its second and is listed thrice
        SCALED,
        _with_ids_repeated,
        [
            "gNB id gnb-05 names 3 gNBs",
            "gNB id gnb-03 names 2 gNBs",
            "DU id du-sub-21-01 names 3 DUs",
            "DU id du-sub-01-01 names 2 DUs",
            "region sub-09: 3 offered load entries",
            "region sub-02: 2 offered load entries",
            "selected RU ru-02-1 listed 3 times",
            "selected RU ru-01-1 listed 2 times",
        ],
    ),
    "region-load-negative": (
        Sst.EMBB,
        lambda p: dataclasses.replace(p, offered_load_mbps=tuple((rid, -load) for rid, load in p.offered_load_mbps)),
        ["region city-center: offered load -150000 Mbps must be non-negative"],
    ),
    "nsst-targets-another-region": (
        Sst.EMBB,
        lambda p: dataclasses.replace(p, nsst=dataclasses.replace(p.nsst, requirement_profile=dataclasses.replace(
            p.nsst.requirement_profile, target_regions=("suburban",)))),
        [
            "region suburban: target region of its NSST but no offered load entry",
            "region city-center: offered load entry but not a target region of its NSST",
        ],
    ),
    "region-load-nan-scaled": (
        SCALED,
        lambda p: dataclasses.replace(p, offered_load_mbps=(("sub-01", math.nan),) + p.offered_load_mbps[1:]),
        ["region sub-01: offered load nan Mbps must be non-negative"],
    ),
}



@functools.cache
def _scaled_inputs():
    """``docgen.scaled_greedy_plan(random.Random(5))`` (8 gNBs), its area, and
    ``suburban_catalog`` with the area's RUs, so coverage checks without an area too."""
    area = docgen.scaled_greedy_area(random.Random(5))
    catalog = dataclasses.replace(docgen.suburban_catalog(), ru_pnfds=area.rus)
    return docgen.scaled_greedy_plan(random.Random(5)), area, catalog


def _case_inputs(source, catalog, area, requests):
    """The plan a VERIFIER_REPORTS case mutates, with its area and catalog:
    the reference plan of an Sst, or the scaled plan for ``SCALED``."""
    if source == SCALED:
        return _scaled_inputs()
    return plan_slice(requests[source], source, area, catalog), area, catalog


def test_scaled_case_plan_verifies_clean():
    plan, area, catalog = _scaled_inputs()
    assert len(plan.gnbs) == 8
    assert verify_plan(plan, area, catalog) == verify_plan(plan, None, catalog) == []


@pytest.mark.parametrize("name", sorted(VERIFIER_REPORTS))
def test_verifier_single_mutation_exact_report(name, catalog, area, requests):
    source, mutate, expected = VERIFIER_REPORTS[name]
    plan, area, catalog = _case_inputs(source, catalog, area, requests)
    assert verify_plan(mutate(plan), area, catalog) == expected


def test_verifier_takes_the_areas_ru_over_the_catalogs(catalog, area, requests):
    """plan_slice selects the area's RUs, so with an area coverage is checked
    against those; without one, against the catalog's."""
    ru = catalog.ru_pnfds[0]
    moved = dataclasses.replace(catalog, ru_pnfds=(
        dataclasses.replace(ru, location=dataclasses.replace(ru.location, cell_site="x")),) + catalog.ru_pnfds[1:])
    plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog)
    assert plan_slice(requests[Sst.EMBB], Sst.EMBB, area, moved) == plan
    assert verify_plan(plan, area, moved) == []
    assert verify_plan(plan, None, moved) == [
        "cell sites of selected RUs not served: x", "served cell sites without a selected RU: cs-cc-01"]


# Without an area the checks that need one drop out; every other case reports as with one.
WITHOUT_AREA = {
    "unknown-region": [MARS_WITHOUT_LOAD, "region city-center: no DU carries its 5000 Mbps offered load",
                       CC_SITES_FROM_MARS],
    "unreachable-cu-host": [],
    "du-off-its-aggregation-pop": [],
    "du-subset-of-another-region-class": [
        f"gnb-01: {NOT_THE_GNB_NSDS} 2's subset for 2 DUs in (CITY_CENTER, ECPRI) + (INDUSTRIAL, ECPRI)",
    ],
}


@pytest.mark.parametrize("name", sorted(VERIFIER_REPORTS))
def test_verifier_without_an_area_checks_the_area_free_facts(name, catalog, area, requests):
    source, mutate, expected = VERIFIER_REPORTS[name]
    plan, _, catalog = _case_inputs(source, catalog, area, requests)
    assert verify_plan(mutate(plan), None, catalog) == WITHOUT_AREA.get(name, expected)


def _gnb_flavor_3_with_copies(catalog, *keys):
    """The catalog with the subsets of gNB flavors 1 and 2 keyed ``keys``
    appended to flavor 3 under fresh IL ids, and those copies."""
    nsd = catalog.gnb_nsds[0]
    copies = tuple(
        dataclasses.replace(s, levels=tuple(
            dataclasses.replace(lvl, il_id=lvl.il_id.replace(f"gnb-f{flavor_id}-", "gnb-f3-")) for lvl in s.levels))
        for key in keys for flavor_id in (1, 2) for s in nsd.flavor(flavor_id).subsets_keyed(key))
    flavors = tuple(dataclasses.replace(f, il_subsets=f.il_subsets + copies) if f.flavor_id == 3 else f
                    for f in nsd.flavors)
    return dataclasses.replace(catalog, gnb_nsds=(dataclasses.replace(nsd, flavors=flavors),)), copies


def _embb_plan_citing_gnb_flavor_3(catalog, area, requests):
    """The eMBB plan on a catalog whose flavor 3 holds a copy of flavor 2's
    (CITY_CENTER, ECPRI) subset, moved to flavor 3 and that copy."""
    widened, [copy] = _gnb_flavor_3_with_copies(catalog, GnbSubsetKey(((CITY_CENTER, FronthaulTech.ECPRI),)))
    plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, widened)
    assert [gnb.nsd_flavor_id for gnb in plan.gnbs] == [2]
    return _with_gnb(plan, nsd_flavor_id=3, nsd_il_subset=copy), widened


@pytest.mark.parametrize("with_area", [True, False], ids=["area", "no-area"])
def test_verifier_checks_the_gnb_flavor_against_the_flavor_rule(with_area, catalog, area, requests):
    """Flavor 3 cites a subset for the plan's DUs, but its DUs run eCPRI only, so the rule picks flavor 2."""
    from ranslicer.validate import validate_catalog

    plan, widened = _embb_plan_citing_gnb_flavor_3(catalog, area, requests)
    assert validate_catalog(widened, area) == []
    assert verify_plan(plan, area if with_area else None, widened) == [
        "gnb-01: gNB NSD flavor 3 is not the flavor for fronthaul ECPRI"]


def test_verifier_takes_the_gnb_flavor_from_all_the_plans_dus(catalog, area, requests):
    """plan_slice picks one flavor per slice, so a gNB whose own DUs run one
    tech keeps the flavor of both when the slice's other gNB runs the other."""
    widened, _ = _gnb_flavor_3_with_copies(
        catalog, GnbSubsetKey(((INDUSTRIAL, FronthaulTech.ECPRI),)), GnbSubsetKey(((SUBURBAN, FronthaulTech.CPRI),)))
    request = dataclasses.replace(requests[Sst.URLLC], target_regions=("industrial", "suburban"))
    plan = plan_slice(request, Sst.URLLC, area, widened, PlannerConfig(cu_du_latency_budget_ms=0.9))
    assert [(gnb.nsd_flavor_id, gnb.nsd_il_subset.key.served_regions) for gnb in plan.gnbs] == [
        (3, ((INDUSTRIAL, FronthaulTech.ECPRI),)), (3, ((SUBURBAN, FronthaulTech.CPRI),))]
    assert verify_plan(plan, area, widened) == verify_plan(plan, None, widened) == []


def test_emit_refuses_a_plan_with_another_gnb_flavor_or_another_regions_site(catalog, area, requests):
    from ranslicer.errors import DocumentError
    from ranslicer.io import emit_onboarding_bundle

    sst, swap, _ = VERIFIER_REPORTS["du-serves-another-regions-site"]
    cases = [_embb_plan_citing_gnb_flavor_3(catalog, area, requests),
             (swap(plan_slice(requests[sst], sst, area, catalog)), catalog)]
    for plan, plan_catalog in cases:
        with pytest.raises(DocumentError) as err:
            emit_onboarding_bundle(plan, plan_catalog)
        assert err.value.code == "DANGLING_PLAN_REFERENCE"


def test_emit_refuses_a_negative_offered_load(catalog):
    from ranslicer.errors import DocumentError
    from ranslicer.io import emit_onboarding_bundle, parse_path

    plan = parse_path(DATA / "plan_embb.json").body
    negated = dataclasses.replace(plan, offered_load_mbps=tuple((rid, -load) for rid, load in plan.offered_load_mbps))
    with pytest.raises(DocumentError) as err:
        emit_onboarding_bundle(negated, catalog)
    assert "offered load -150000 Mbps must be non-negative" in str(err.value)


# ---------------------------------------------------------------------------
# verifier: a cited CU or DU IL subset is the one the catalog's rule selects

def _level_refs(level):
    return (level.role_capacity.cu_il_ref, *level.role_capacity.du_il_refs)


def _with_overlapping_twin(catalog, vnfds, key, twin_key):
    """The catalog with a twin of the ``vnfds`` (``"cu_vnfds"`` or
    ``"du_vnfds"``) subset keyed ``key``: its levels, ids suffixed "-t",
    under the overlapping ``twin_key``.  In each gNB IL subset, the first
    level that references the subset references the twin instead; later
    levels keep referencing the original."""
    vnfd = getattr(catalog, vnfds)[0]
    flavor = next(f for f in vnfd.flavors if any(s.key == key for s in f.il_subsets))
    subset = next(s for s in flavor.il_subsets if s.key == key)
    twin_ids = {level.il_id: f"{level.il_id}-t" for level in subset.levels}
    twin = IlSubset(twin_key, tuple(dataclasses.replace(lvl, il_id=twin_ids[lvl.il_id]) for lvl in subset.levels))
    flavors = tuple(dataclasses.replace(f, il_subsets=f.il_subsets + (twin,)) if f is flavor else f
                    for f in vnfd.flavors)

    def retargeted(ref):
        return dataclasses.replace(ref, il_id=twin_ids.get(ref.il_id, ref.il_id))

    def levels(gnb_subset):
        first = next((lvl for lvl in gnb_subset.levels if {r.il_id for r in _level_refs(lvl)} & twin_ids.keys()),
                     None)
        return tuple(lvl if lvl is not first else dataclasses.replace(lvl, role_capacity=dataclasses.replace(
            lvl.role_capacity, cu_il_ref=retargeted(lvl.role_capacity.cu_il_ref),
            du_il_refs=tuple(map(retargeted, lvl.role_capacity.du_il_refs)))) for lvl in gnb_subset.levels)

    nsd = catalog.gnb_nsds[0]
    nsd = dataclasses.replace(nsd, flavors=tuple(
        dataclasses.replace(f, il_subsets=tuple(dataclasses.replace(s, levels=levels(s)) for s in f.il_subsets))
        for f in nsd.flavors))
    return dataclasses.replace(catalog, gnb_nsds=(nsd,), **{vnfds: (dataclasses.replace(vnfd, flavors=flavors),)})


ECPRI_INDUSTRIAL = (INDUSTRIAL, FronthaulTech.ECPRI)

# rule -> (request's target regions, the VNFDs, the builtin subset's key, its twin's key sorting first)
OVERLAPPING_SUBSETS = {
    "du": (("industrial",), "du_vnfds", DuSubsetKey(*ECPRI_INDUSTRIAL, 3, 4), DuSubsetKey(*ECPRI_INDUSTRIAL, 2, 4)),
    "cu": (("city-center", "industrial", "suburban"), "cu_vnfds", CuSubsetKey(3, 5), CuSubsetKey(2, 5)),
}


def _overlapping_plan(rule, catalog, area, requests):
    """The URLLC plan on the twin catalog, that catalog, its twin subset,
    and the builtin subset, which covers too but sorts later."""
    regions, vnfds, key, twin_key = OVERLAPPING_SUBSETS[rule]
    twinned = _with_overlapping_twin(catalog, vnfds, key, twin_key)
    request = dataclasses.replace(requests[Sst.URLLC], target_regions=regions)
    subsets = {s.key: s for f in getattr(twinned, vnfds)[0].flavors for s in f.il_subsets}
    return plan_slice(request, Sst.URLLC, area, twinned), twinned, subsets[twin_key], subsets[key]


@pytest.mark.parametrize("rule", sorted(OVERLAPPING_SUBSETS))
def test_plan_cites_the_first_of_overlapping_subsets(rule, catalog, area, requests):
    from ranslicer.validate import validate_catalog

    plan, twinned, twin, shadowed = _overlapping_plan(rule, catalog, area, requests)
    vnfd = getattr(twinned, OVERLAPPING_SUBSETS[rule][1])[0]
    [(fi, si)] = [(fi, si) for fi, f in enumerate(vnfd.flavors) for si, s in enumerate(f.il_subsets) if s is shadowed]
    assert [(v.document_id, v.path, v.rule) for v in validate_catalog(twinned, area)] == [
        (vnfd.descriptor_id, f"flavors[{fi}].il_subsets[{si}]", "unreachable-subset")]
    gnb = plan.gnbs[0]
    assert (gnb.dus[0].il_subset if rule == "du" else gnb.cu.il_subset) is twin
    assert verify_plan(plan, area, twinned) == []
    assert verify_plan(plan, None, twinned) == []


@pytest.mark.parametrize("rule", sorted(OVERLAPPING_SUBSETS))
def test_verifier_flags_a_later_covering_subset(rule, catalog, area, requests):
    plan, twinned, _, later = _overlapping_plan(rule, catalog, area, requests)
    gnb = plan.gnbs[0]
    if rule == "du":
        mutant = _with_du(plan, 0, il_subset=later)
        expected = ["du-industrial-01: IL subset is not the DU VNFD's subset for 4 cell sites in (INDUSTRIAL, ECPRI)"]
    else:
        mutant = _with_cu(plan, il_subset=later)
        expected = ["gnb-01: CU IL subset is not the CU VNFD's subset for 3 DUs",
                    f"gnb-01: {NOT_THE_GNB_NSDS} 3's subset for 3 DUs in (CITY_CENTER, ECPRI) + (INDUSTRIAL, ECPRI) "
                    "+ (SUBURBAN, CPRI)"]
    if rule == "du":
        assert later.key.min_cell_sites <= len(gnb.dus[0].served_cell_sites) <= later.key.max_cell_sites
    else:
        assert later.key.min_dus <= len(gnb.dus) <= later.key.max_dus
    referenced = {ref.il_id for lvl in gnb.nsd_il_subset.levels for ref in _level_refs(lvl)}
    assert {lvl.il_id for lvl in later.levels} & referenced  # only the rule tells the two subsets apart
    assert verify_plan(mutant, area, twinned) == expected
    assert verify_plan(mutant, None, twinned) == expected


# ---------------------------------------------------------------------------
# verifier: a cited gNB IL subset is the first keyed one with a level that runs the gNB

def test_verifier_flags_a_gnb_subset_without_a_level_for_its_dus(catalog, area, requests):
    """The eMBB plan with one DU: city center's gNB subset has a level for
    one DU and one for two, but the one-DU level references a DU IL of the
    5-8 site subset, not the cited 1-4 one, so no level runs the gNB."""
    from ranslicer.errors import DocumentError
    from ranslicer.io import emit_onboarding_bundle

    plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog)
    gnb = plan.gnbs[0]
    dropped = set(gnb.dus[1].served_cell_sites)
    one_du = dataclasses.replace(
        plan, gnbs=(dataclasses.replace(gnb, dus=gnb.dus[:1]),),
        selected_rus=tuple(ru_id for ru_id in plan.selected_rus if area.ru(ru_id).location.cell_site not in dropped),
        offered_load_mbps=(("city-center", 50_000.0),))
    expected = [f"gnb-01: {NOT_THE_GNB_NSDS} 2's subset for 1 DUs in (CITY_CENTER, ECPRI)"]
    assert verify_plan(one_du, area, catalog) == expected
    assert verify_plan(one_du, None, catalog) == expected
    with pytest.raises(DocumentError) as err:
        emit_onboarding_bundle(one_du, catalog)
    assert err.value.code == "DANGLING_PLAN_REFERENCE"


def _with_shared_il_id(catalog, tech, owner, sharer, level):
    """The catalog with level ``level`` of DU subset ``sharer`` renamed to
    the IL id of the same level of ``owner``, both in ``tech``'s flavor."""
    du = catalog.du_vnfds[0]
    flavor = du.flavor_for_tech(tech)
    subsets = list(flavor.il_subsets)
    levels = list(subsets[sharer].levels)
    levels[level] = dataclasses.replace(levels[level], il_id=subsets[owner].levels[level].il_id)
    subsets[sharer] = dataclasses.replace(subsets[sharer], levels=tuple(levels))
    flavors = tuple(dataclasses.replace(f, il_subsets=tuple(subsets)) if f is flavor else f for f in du.flavors)
    return dataclasses.replace(catalog, du_vnfds=(dataclasses.replace(du, flavors=flavors),))


def test_subsets_sharing_an_il_id_plan_clean_or_fail_cleanly(catalog, area, requests):
    """The planner and the verifier apply one gNB rule, so a catalog in
    which two DU subsets share an IL id yields, for every reference request
    over every set of regions, a plan that verifies or a RanSliceError,
    never plan_slice's RuntimeError."""
    from ranslicer.errors import RanSliceError

    region_ids = sorted(r.region_id for r in area.regions)
    requests_over_regions = [
        (sst, dataclasses.replace(requests[sst], target_regions=regions))
        for sst in (Sst.EMBB, Sst.MMTC, Sst.URLLC)
        for n in range(1, len(region_ids) + 1) for regions in itertools.combinations(region_ids, n)
    ]
    for tech, n in ((FronthaulTech.ECPRI, 4), (FronthaulTech.CPRI, 2)):
        for (owner, sharer), level in itertools.product(itertools.permutations(range(n), 2), range(3)):
            shared = _with_shared_il_id(catalog, tech, owner, sharer, level)
            for sst, request in requests_over_regions:
                try:
                    plan = plan_slice(request, sst, area, shared)
                except RanSliceError:
                    continue
                assert verify_plan(plan, area, shared) == verify_plan(plan, None, shared) == [], (tech, owner, sharer)


@pytest.mark.parametrize("first_runs", [False, True])
def test_planner_and_verifier_take_the_first_same_keyed_gnb_subset_that_runs(first_runs, catalog, area, requests):
    """A twin of city center's gNB subset, IL ids suffixed "-t", sits just
    before it under the same key; its levels run the eMBB gNB or, with
    du_count raised by one, do not."""
    nsd = catalog.gnb_nsds[0]
    flavor = nsd.flavor(2)
    key = GnbSubsetKey(((CITY_CENTER, FronthaulTech.ECPRI),))
    original = flavor.subsets_keyed(key)[0]
    twin = IlSubset(key, tuple(
        dataclasses.replace(lvl, il_id=f"{lvl.il_id}-t", role_capacity=dataclasses.replace(
            lvl.role_capacity, du_count=lvl.role_capacity.du_count + (0 if first_runs else 1)))
        for lvl in original.levels))
    at = flavor.il_subsets.index(original)
    flavors = tuple(dataclasses.replace(f, il_subsets=f.il_subsets[:at] + (twin,) + f.il_subsets[at:])
                    if f is flavor else f for f in nsd.flavors)
    twinned = dataclasses.replace(catalog, gnb_nsds=(dataclasses.replace(nsd, flavors=flavors),))
    plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, twinned)
    chosen, other = (twin, original) if first_runs else (original, twin)
    assert plan.gnbs[0].nsd_il_subset is chosen
    assert verify_plan(plan, area, twinned) == verify_plan(plan, None, twinned) == []
    mutant = _with_gnb(plan, nsd_il_subset=other)
    expected = [f"gnb-01: {NOT_THE_GNB_NSDS} 2's subset for 2 DUs in (CITY_CENTER, ECPRI)"]
    assert verify_plan(mutant, area, twinned) == verify_plan(mutant, None, twinned) == expected

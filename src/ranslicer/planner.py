"""Slice-subnet planning over a deployment area.

Implements the planning procedure a slice-subnet manager runs per
request: select covering RUs, pick the gNB NSD flavor from the fronthaul
technologies in play, dimension DUs per region, distribute the DUs over
the minimum number of CUs subject to the CU-DU transport-latency budget,
and look up the gNB NSD IL subset matching the resulting layout.  The
flavor rules are ``model.GNB_FLAVOR_TECHS`` for the gNB flavor and
``model.SPLIT_FOR_TECH``, by whose split option each DU flavor is named.
The subset rules are ``model.Flavor``'s: ``covering_subset`` picks each DU
and CU IL subset, ``running_subset`` each gNB NSD IL subset.

CU minimization is solved exactly on small instances (slot-multiset
enumeration over edge PoPs plus bipartite matching) and by a first-fit
heuristic over edge PoPs ordered by feasible-DU count on large ones.
Every emitted plan is re-checked by an independent verifier pass.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .errors import PlannerError, RanSliceError
from .model import (
    GNB_FLAVOR_TECHS,
    SPLIT_FOR_TECH,
    Catalog,
    CuIlCapacity,
    CuVnfd,
    DuSubsetKey,
    DuVnfd,
    FronthaulTech,
    GnbNsd,
    GnbSubsetKey,
    IlSubset,
    InstantiationLevel,
    RanNsst,
    SliceRequirements,
    SNssai,
    Sst,
    level_capacity_mbps,
)
from .radio import ProfilerPolicy, area_load_mbps, build_ran_nsst, default_policy
from .topology import DeploymentArea, PopTier, Region, pop_latency, select_rus  # noqa: F401 (perfbench's tracer)


class DuFlavor(Enum):
    """DU deployment variant, named by split option and fronthaul tech."""

    SPLIT7_ECPRI = "SPLIT7_ECPRI"
    SPLIT8_CPRI = "SPLIT8_CPRI"


DU_FLAVOR_FOR_TECH = {tech: DuFlavor(f"SPLIT{split}_{tech.value}") for tech, split in SPLIT_FOR_TECH.items()}


@dataclass(frozen=True)
class PlannerConfig:
    cu_du_latency_budget_ms: float = 10.0
    exact_solver_limit: int = 12

    def __post_init__(self):
        if self.cu_du_latency_budget_ms <= 0:
            raise ValueError("latency budget must be positive")
        if self.exact_solver_limit < 0:
            raise ValueError("exact solver limit must be non-negative")


@dataclass(frozen=True)
class DuPlan:
    du_id: str
    region_id: str
    served_cell_sites: tuple[str, ...]
    vnfd_flavor: DuFlavor
    il_subset: IlSubset
    host_pop: str


@dataclass(frozen=True)
class CuPlacement:
    host_pop: str
    il_subset: IlSubset


@dataclass(frozen=True)
class GnbPlan:
    gnb_id: str
    cu: CuPlacement
    dus: tuple[DuPlan, ...]
    nsd_flavor_id: int
    nsd_il_subset: IlSubset


@dataclass(frozen=True)
class GnbSkeleton:
    """CU placement with its DUs, before the gNB-level lookup."""

    cu_host_pop: str
    cu_il_subset: IlSubset
    dus: tuple[DuPlan, ...]


@dataclass(frozen=True)
class SlicePlan:
    s_nssai: SNssai
    nsst_ref: str
    nsst: RanNsst
    gnbs: tuple[GnbPlan, ...]
    selected_rus: tuple[str, ...]
    offered_load_mbps: tuple[tuple[str, float], ...]


def _first_descriptors(catalog: Catalog) -> tuple[GnbNsd | None, CuVnfd | None, DuVnfd | None]:
    """The catalog's first gNB NSD, CU VNFD and DU VNFD by descriptor id; None for a kind it lacks."""
    def first(docs):
        return min(docs, key=lambda d: d.descriptor_id, default=None)
    return first(catalog.gnb_nsds), first(catalog.cu_vnfds), first(catalog.du_vnfds)


def select_gnb_flavor(techs: frozenset[FronthaulTech]) -> int:
    """gNB NSD flavor id for a set of fronthaul technologies."""
    if not techs:
        raise ValueError("at least one fronthaul technology is required")
    return next(flavor_id for flavor_id, flavor_techs in GNB_FLAVOR_TECHS.items() if techs == flavor_techs)


def dimension_dus(region: Region, peak_load_mbps: float, du_vnfd: DuVnfd) -> list[DuPlan]:
    """Minimal DU count for a region, with balanced cell-site groups.

    For a DU count n the sites, in id order, split into n groups whose
    sizes differ by at most one, larger groups first; each group takes the
    IL subset ``Flavor.covering_subset`` picks for its size under the
    region's (class, tech).  n is feasible when every group has one and
    the top IL capacity of the largest group's subset (0 for a subset
    without levels), times n, carries the region's peak load.
    """
    if not region.cell_sites:
        raise ValueError(f"region {region.region_id} has no cell sites")
    if peak_load_mbps < 0:
        raise ValueError("peak load must be non-negative")
    flavor = du_vnfd.flavor_for_tech(region.fronthaul_tech)
    if flavor is None:
        raise PlannerError(
            "NO_MATCHING_SUBSET",
            f"DU VNFD {du_vnfd.descriptor_id} has no flavor for {region.fronthaul_tech.value}",
        )
    group = (region.region_class, region.fronthaul_tech)
    sites = sorted(region.cell_sites)
    for n in range(1, len(sites) + 1):
        small, larger = divmod(len(sites), n)
        sizes = [small + 1] * larger + [small] * (n - larger)
        chosen = [flavor.covering_subset(group, size) for size in sizes]
        if None in chosen:
            continue
        levels = chosen[0].levels
        if (level_capacity_mbps(levels[-1]) if levels else 0.0) * n < peak_load_mbps:
            continue
        starts = list(itertools.accumulate(sizes, initial=0))
        return [
            DuPlan(
                du_id=f"du-{region.region_id}-{i + 1:02d}",
                region_id=region.region_id,
                served_cell_sites=tuple(sites[starts[i]:starts[i + 1]]),
                vnfd_flavor=DU_FLAVOR_FOR_TECH[region.fronthaul_tech],
                il_subset=subset,
                host_pop=region.aggregation_pop,
            )
            for i, subset in enumerate(chosen)
        ]
    raise PlannerError(
        "INSUFFICIENT_DU_CAPACITY",
        f"region {region.region_id}: no DU count up to {len(sites)} carries "
        f"{peak_load_mbps:g} Mbps with the available IL subsets",
    )


def _cu_capacity(cu_vnfd: CuVnfd) -> int:
    """A CU's capacity in DUs: the largest CU level's max_dus of the CU VNFD's one flavor."""
    if len(cu_vnfd.flavors) != 1:
        raise PlannerError(
            "NO_MATCHING_SUBSET",
            f"CU VNFD {cu_vnfd.descriptor_id} must carry exactly one flavor",
        )
    subsets = cu_vnfd.flavors[0].il_subsets
    caps = [
        level.role_capacity.max_dus
        for subset in subsets
        for level in subset.levels
        if isinstance(level.role_capacity, CuIlCapacity)
    ]
    if not caps:
        raise PlannerError("NO_MATCHING_SUBSET", "CU VNFD defines no CU instantiation levels")
    if max(caps) < 1:  # both solvers need a CU to take at least one DU
        raise PlannerError(
            "NO_MATCHING_SUBSET",
            f"CU VNFD {cu_vnfd.descriptor_id} has no CU level that serves a DU (largest max_dus {max(caps)})",
        )
    return max(caps)


def _match_slots(dus: list[DuPlan], compat: dict[str, list[str]], slots: dict[str, int], capacity: int) -> dict[str, str] | None:
    """Assign every DU to a PoP with free slot capacity; None if impossible.

    Kuhn-style augmenting search over PoPs with node capacities
    ``slots[pop] * capacity``: a saturated PoP is entered by relocating
    one of its current DUs along an augmenting chain.
    """
    limit = {pop: n * capacity for pop, n in slots.items()}
    members: dict[str, list[str]] = {pop: [] for pop in limit}
    assigned: dict[str, str] = {}

    def augment(du_id: str, visited: set[str]) -> bool:
        for pop in compat[du_id]:
            if pop not in limit or pop in visited:
                continue
            visited.add(pop)
            if len(members[pop]) < limit[pop]:
                members[pop].append(du_id)
                assigned[du_id] = pop
                return True
            for other in list(members[pop]):
                if augment(other, visited):
                    members[pop].remove(other)
                    members[pop].append(du_id)
                    assigned[du_id] = pop
                    return True
        return False

    for du in dus:
        if not augment(du.du_id, set()):
            return None
    return assigned


def _exact_cu_assignment(
    dus: list[DuPlan], compat: dict[str, list[str]], edge_pop_ids: list[str], capacity: int
) -> list[tuple[str, list[DuPlan]]]:
    """Minimal CU count by enumerating CU-slot multisets over edge PoPs.

    CU count k is tried in ascending order; for each k, every multiset of
    k PoPs (PoPs may host several CUs) is checked for an assignment that
    respects latency compatibility and per-CU capacity.  The first
    feasible k is optimal because adding a slot never hurts.
    """
    lower = max(1, math.ceil(len(dus) / capacity))
    for k in range(lower, len(dus) + 1):
        for combo in itertools.combinations_with_replacement(edge_pop_ids, k):
            slots: dict[str, int] = {}
            for pop in combo:
                slots[pop] = slots.get(pop, 0) + 1
            assigned = _match_slots(dus, compat, slots, capacity)
            if assigned is None:
                continue
            groups: list[tuple[str, list[DuPlan]]] = []
            for pop in sorted(slots):
                members = sorted((d for d in dus if assigned[d.du_id] == pop), key=lambda d: d.du_id)
                for i in range(0, len(members), capacity):
                    groups.append((pop, members[i:i + capacity]))
            return groups
    raise AssertionError("one CU per DU is always feasible here")  # pragma: no cover


def _greedy_cu_assignment(
    dus: list[DuPlan], compat: dict[str, list[str]], capacity: int
) -> list[tuple[str, list[DuPlan]]]:
    """First-fit over edge PoPs ordered by feasible-DU count (ties by id).

    Each PoP's unassigned feasible DUs, in ``du_id`` order, and their count
    are built once; placing a CU drops the DUs it takes from the counts of
    every PoP they reach.
    """
    by_id = {du.du_id: du for du in dus}
    reach = {du_id: list(dict.fromkeys(compat[du_id])) for du_id in by_id}  # a repeated PoP counts once
    feasible: dict[str, list[DuPlan]] = {}
    for du_id in sorted(by_id):
        for pop in reach[du_id]:
            feasible.setdefault(pop, []).append(by_id[du_id])
    counts = {pop: len(members) for pop, members in feasible.items()}
    assigned: set[str] = set()
    groups: list[tuple[str, list[DuPlan]]] = []
    while len(assigned) < len(by_id):
        pop = min(counts, key=lambda p: (-counts[p], p))
        members = [du for du in feasible[pop] if du.du_id not in assigned]
        take, feasible[pop] = members[:capacity], members[capacity:]
        for du in take:
            assigned.add(du.du_id)
            for other in reach[du.du_id]:
                counts[other] -= 1
        groups.append((pop, take))
    return groups


def assign_dus_to_cus(
    dus: list[DuPlan],
    area: DeploymentArea,
    cu_vnfd: CuVnfd,
    config: PlannerConfig,
) -> list[GnbSkeleton]:
    """Distribute DUs over the minimum number of CUs on edge PoPs.

    A DU is compatible with an edge PoP when the transport latency from
    the PoP to the DU's aggregation PoP stays within the CU-DU budget.
    Each edge PoP's latency row is read once, cut at the budget, and the
    DUs on one aggregation PoP share one list of compatible edge PoPs.
    Each CU takes the CU IL subset ``Flavor.covering_subset`` picks for its
    DU count; the CU capacity is the largest CU level's ``max_dus``.
    """
    if not dus:
        raise ValueError("at least one DU is required")
    budget = config.cu_du_latency_budget_ms
    edge_pop_ids = [p.pop_id for p in area.edge_pops()]
    reachable_from: dict[str, list[str]] = {host_pop: [] for host_pop in {du.host_pop for du in dus}}
    for pop_id in edge_pop_ids:
        row = area.latency_row(pop_id, budget)
        for host_pop, reachable in reachable_from.items():
            if row.get(host_pop, math.inf) <= budget:
                reachable.append(pop_id)
    ordered = sorted(dus, key=lambda d: d.du_id)
    compat = {du.du_id: reachable_from[du.host_pop] for du in ordered}
    stranded = [du_id for du_id, pops in compat.items() if not pops]
    if stranded:
        raise PlannerError(
            "INFEASIBLE_LATENCY",
            f"no edge PoP within {budget:g} ms of DU(s): {', '.join(stranded)}",
        )
    capacity = _cu_capacity(cu_vnfd)
    if len(ordered) <= config.exact_solver_limit:
        groups = _exact_cu_assignment(ordered, compat, edge_pop_ids, capacity)
    else:
        groups = _greedy_cu_assignment(ordered, compat, capacity)
    skeletons = []
    for pop, members in groups:
        subset = cu_vnfd.flavors[0].covering_subset((), len(members))
        if subset is None:
            raise PlannerError(
                "NO_MATCHING_SUBSET",
                f"CU VNFD {cu_vnfd.descriptor_id} has no IL subset for {len(members)} served DUs",
            )
        skeletons.append(GnbSkeleton(pop, subset, tuple(sorted(members, key=lambda d: d.du_id))))
    return sorted(skeletons, key=lambda s: (s.cu_host_pop, s.dus[0].du_id))


def derive_gnb_il_subset(
    gnb_nsd: GnbNsd,
    flavor_id: int,
    cu_selection: tuple[str, IlSubset],
    dus: Sequence[DuPlan],
    du_vnfd_id: str,
) -> IlSubset:
    """gNB NSD IL subset matching a planned CU/DU layout.

    The subset key must equal the multiset of (region class, fronthaul
    tech) pairs of the DU IL subset keys, one per distinct (region, DU IL
    subset key), so a region whose DUs use two subsets counts twice.
    ``Flavor.running_subset`` picks the subset with that key that runs the
    chosen CU IL subset and the DUs under ``du_vnfd_id``.
    """
    flavor = gnb_nsd.flavor(flavor_id)
    if flavor is None:
        raise PlannerError("NO_MATCHING_SUBSET", f"gNB NSD {gnb_nsd.descriptor_id} has no flavor {flavor_id}")
    layout = {(du.region_id, du.il_subset.key) for du in dus}  # GnbSubsetKey puts the pairs in order
    want_key = GnbSubsetKey(tuple((key.region_class, key.fronthaul_tech) for _, key in layout))
    subset = flavor.running_subset(want_key, cu_selection, du_vnfd_id, [du.il_subset for du in dus])
    if subset is not None:
        return subset
    key_text = " + ".join(f"({cls}, {tech.value})" for cls, tech in want_key.served_regions)
    raise PlannerError(
        "NO_MATCHING_SUBSET",
        f"gNB NSD {gnb_nsd.descriptor_id} flavor {flavor_id} has no IL subset for {key_text} "
        f"referencing the selected CU/DU IL subsets",
    )


def select_il_for_traffic(il_subset: IlSubset, offered_load_mbps: float) -> InstantiationLevel:
    """Smallest IL whose aggregate capacity covers the offered load."""
    if offered_load_mbps < 0:
        raise ValueError("offered load must be non-negative")
    if not il_subset.levels:
        raise ValueError("IL subset has no levels")
    for level in il_subset.levels:
        if level_capacity_mbps(level) >= offered_load_mbps:
            return level
    top = level_capacity_mbps(il_subset.levels[-1])
    raise PlannerError(
        "LOAD_EXCEEDS_SUBSET",
        f"offered load {offered_load_mbps:g} Mbps exceeds the largest IL capacity {top:g} Mbps",
    )


def _staged(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except RanSliceError as err:
        if err.stage is None:
            err.stage = stage
        raise


def plan_slice(
    requirements: SliceRequirements,
    sst: Sst,
    area: DeploymentArea,
    catalog: Catalog,
    config: PlannerConfig | None = None,
    *,
    policy: ProfilerPolicy | None = None,
    sd: str | None = None,
) -> SlicePlan:
    """Run the full planning procedure for one slice request.

    Deterministic: identical inputs produce identical plans, including
    identifier assignment.  Errors carry the failing stage.
    """
    config = config or PlannerConfig()
    policy = policy or default_policy()
    gnb_nsd, cu_vnfd, du_vnfd = _first_descriptors(catalog)
    if gnb_nsd is None:
        raise PlannerError("NO_MATCHING_SUBSET", "catalog has no gNB NSD", stage="plan_slice")
    if cu_vnfd is None or du_vnfd is None:
        raise PlannerError("NO_MATCHING_SUBSET", "catalog lacks CU or DU VNFDs", stage="plan_slice")

    nsst = _staged(
        "build_ran_nsst", build_ran_nsst, requirements, sst, gnb_nsd.descriptor_id, policy, sd=sd
    )
    rus = _staged("select_rus", select_rus, area, requirements.target_regions)
    regions = [area.region(rid) for rid in sorted(set(requirements.target_regions))]
    flavor_id = select_gnb_flavor(frozenset(region.fronthaul_tech for region in regions))
    loads: list[tuple[str, float]] = []
    all_dus: list[DuPlan] = []
    per_ue = max(requirements.throughput_dl_mbps, requirements.throughput_ul_mbps)
    for region in regions:
        load = area_load_mbps(requirements.ue_density_per_km2, region.area_km2, per_ue, policy)
        loads.append((region.region_id, load))
        all_dus.extend(_staged("dimension_dus", dimension_dus, region, load, du_vnfd))

    skeletons = _staged("assign_dus_to_cus", assign_dus_to_cus, all_dus, area, cu_vnfd, config)

    gnbs: list[GnbPlan] = []
    for i, skeleton in enumerate(skeletons, start=1):
        nsd_subset = _staged(
            "derive_gnb_il_subset",
            derive_gnb_il_subset,
            gnb_nsd,
            flavor_id,
            (cu_vnfd.descriptor_id, skeleton.cu_il_subset),
            skeleton.dus,
            du_vnfd.descriptor_id,
        )
        gnbs.append(
            GnbPlan(
                gnb_id=f"gnb-{i:02d}",
                cu=CuPlacement(skeleton.cu_host_pop, skeleton.cu_il_subset),
                dus=skeleton.dus,
                nsd_flavor_id=flavor_id,
                nsd_il_subset=nsd_subset,
            )
        )

    plan = SlicePlan(
        s_nssai=nsst.s_nssai,
        nsst_ref=nsst.nsst_id,
        nsst=nsst,
        gnbs=tuple(gnbs),
        selected_rus=tuple(ru.ru_id for ru in rus),
        offered_load_mbps=tuple(sorted(loads)),
    )
    problems = verify_plan(plan, area, catalog, config)
    if problems:  # pragma: no cover - solver bug guard
        raise RuntimeError("planner emitted an invalid plan: " + "; ".join(problems))
    return plan


def verify_plan(
    plan: SlicePlan, area: DeploymentArea | None, catalog: Catalog, config: PlannerConfig | None = None
) -> list[str]:
    """Independent feasibility check of an emitted plan.

    Re-derives each CU's edge-PoP host, latency, CU capacity, coverage
    conservation and each region's DU capacity from the area and catalog
    instead of trusting the solver.  The plan's ``nsst_ref`` and S-NSSAI
    must be its NSST's, no DU id or selected RU may repeat, and a region
    with DUs needs an offered-load entry.  Each cited IL subset must be
    the one the catalog's rules on ``model.Flavor`` select, compared by
    identity, then equality: a CU's is ``covering_subset`` of the CU
    VNFD's first flavor for its gNB's DU count; a DU's, ``covering_subset``
    of the DU VNFD's flavor for its tech (``DuVnfd.flavor_for_tech``)
    under its (region class, fronthaul tech) for its cell-site count; a gNB's,
    ``running_subset`` of its NSD flavor under the pairs of its DUs'
    distinct (region, DU key).  A DU's pair is its region's, or, without
    an area or in an unknown region, its own key's.  The pairs fix the
    flavors too: a DU's must be its tech's split, and every gNB's the
    ``GNB_FLAVOR_TECHS`` flavor of the techs of all the plan's DUs, as
    plan_slice picks one per slice.  The VNFDs are the catalog's first by
    descriptor id, as plan_slice picks them; the NSD is the one the plan's
    NSST references.  Coverage is checked against the area's RUs, which
    plan_slice selects (the catalog's for an id the area lacks), and a DU
    may serve only cell sites whose RU is in its region.  Without an area,
    coverage is checked against the catalog's RUs, and the CU hosts,
    latencies, DU hosts and region ids go unchecked.
    """
    config = config or PlannerConfig()
    problems: list[str] = []
    _, cu_vnfd, du_vnfd = _first_descriptors(catalog)
    nsd = catalog.gnb_nsd(plan.nsst.nsd_ref)
    if nsd is None:
        problems.append(f"gNB NSD {plan.nsst.nsd_ref!r} not in catalog")
    if plan.nsst_ref != plan.nsst.nsst_id:
        problems.append(f"nsst_ref {plan.nsst_ref!r} is not its NSST's id {plan.nsst.nsst_id!r}")
    if plan.s_nssai != plan.nsst.s_nssai:
        problems.append(f"S-NSSAI {plan.s_nssai.sst.name}/{plan.s_nssai.sd} is not its NSST's "
                        f"{plan.nsst.s_nssai.sst.name}/{plan.nsst.s_nssai.sd}")
    cu_flavor = cu_vnfd.flavors[0] if cu_vnfd and cu_vnfd.flavors else None
    du_flavors = {tech: du_vnfd.flavor_for_tech(tech) for tech in FronthaulTech} if du_vnfd else {}
    cu_id, du_id = (vnfd.descriptor_id if vnfd else None for vnfd in (cu_vnfd, du_vnfd))

    def selected(subset: IlSubset, first: IlSubset | None) -> bool:
        """Identity first: a fresh plan holds the catalog's own subset objects."""
        return first is subset or first == subset

    site_owner: dict[str, DuPlan] = {}
    techs: set[FronthaulTech] = set()
    region_dus: dict[str, list[DuPlan]] = {}
    for gnb in plan.gnbs:
        if area is not None:
            cu_pop = area.pop(gnb.cu.host_pop)
            if cu_pop is None or cu_pop.tier is not PopTier.EDGE:
                problems.append(f"{gnb.gnb_id}: CU host {gnb.cu.host_pop} is not an edge PoP")
            cu_row = area.latency_row(cu_pop.pop_id, config.cu_du_latency_budget_ms) if cu_pop else {}
        cu_caps = [lvl.role_capacity.max_dus for lvl in gnb.cu.il_subset.levels
                   if isinstance(lvl.role_capacity, CuIlCapacity)]
        if cu_caps and len(gnb.dus) > max(cu_caps):
            problems.append(f"{gnb.gnb_id}: DU count {len(gnb.dus)} exceeds CU capacity {max(cu_caps)}")
        if not selected(gnb.cu.il_subset, cu_flavor and cu_flavor.covering_subset((), len(gnb.dus))):
            problems.append(f"{gnb.gnb_id}: CU IL subset is not the CU VNFD's subset for {len(gnb.dus)} DUs")
        layout: list[tuple[str, object, tuple[str, FronthaulTech] | None]] = []  # distinct (region, DU key, pair)
        for du in gnb.dus:
            region_dus.setdefault(du.region_id, []).append(du)
            for site in du.served_cell_sites:
                if site in site_owner:
                    problems.append(f"cell site {site} served by both {site_owner[site].du_id} and {du.du_id}")
                site_owner[site] = du
            key = du.il_subset.key
            region = area.region(du.region_id) if area is not None else None
            where = ((region.region_class, region.fronthaul_tech) if region is not None
                     else (key.region_class, key.fronthaul_tech) if isinstance(key, DuSubsetKey) else None)
            if (du.region_id, key, where) not in layout:  # a list: equal keys are found without hashing them
                layout.append((du.region_id, key, where))
            sites = len(du.served_cell_sites)
            du_flavor = du_flavors.get(where[1]) if where else None
            if not selected(du.il_subset, du_flavor and du_flavor.covering_subset(where, sites)):
                named = f" in ({where[0]}, {where[1].value})" if where else ""
                problems.append(f"{du.du_id}: IL subset is not the DU VNFD's subset for {sites} cell sites{named}")
            if where and DU_FLAVOR_FOR_TECH[where[1]] is not du.vnfd_flavor:
                problems.append(f"{du.du_id}: flavor {du.vnfd_flavor.value} mismatches region fronthaul")
            if area is None:
                continue
            if region is None:
                problems.append(f"{du.du_id}: unknown region {du.region_id}")
                continue
            if cu_row.get(du.host_pop, math.inf) > config.cu_du_latency_budget_ms:
                latency = area.latency_row(cu_pop.pop_id, math.inf).get(du.host_pop, math.inf) if cu_pop else math.inf
                problems.append(f"{du.du_id}: {latency:g} ms to CU at {gnb.cu.host_pop} exceeds "
                                f"{config.cu_du_latency_budget_ms:g} ms budget")
            if du.host_pop != region.aggregation_pop:
                problems.append(f"{du.du_id}: not hosted on its region's aggregation PoP")
        want_key = GnbSubsetKey(tuple(pair for _, _, pair in layout if pair))
        techs.update(tech for _, tech in want_key.served_regions)
        nsd_flavor = nsd.flavor(gnb.nsd_flavor_id) if nsd else None
        cu, du_subsets = (cu_id, gnb.cu.il_subset), [du.il_subset for du in gnb.dus]
        if not selected(gnb.nsd_il_subset, nsd_flavor and nsd_flavor.running_subset(want_key, cu, du_id, du_subsets)):
            key_text = " + ".join(f"({cls}, {tech.value})" for cls, tech in want_key.served_regions)
            problems.append(f"{gnb.gnb_id}: gNB IL subset is not gNB NSD {plan.nsst.nsd_ref} flavor "
                            f"{gnb.nsd_flavor_id}'s subset for {len(gnb.dus)} DUs in {key_text}")
    du_ids = [du.du_id for gnb in plan.gnbs for du in gnb.dus]
    if len(set(du_ids)) < len(du_ids):  # Counter only on a repeat: it costs twice the set
        problems.extend(f"DU id {du_id} names {n} DUs" for du_id, n in Counter(du_ids).items() if n > 1)
    problems.extend(f"{gnb.gnb_id}: gNB NSD flavor {gnb.nsd_flavor_id} is not the flavor for fronthaul "
                    + (" + ".join(sorted(tech.value for tech in techs)) or "none")
                    for gnb in plan.gnbs if GNB_FLAVOR_TECHS.get(gnb.nsd_flavor_id) != techs)
    loaded = {region_id for region_id, _ in plan.offered_load_mbps}
    problems.extend(f"region {region_id}: {len(dus)} DU(s) but no offered load entry"
                    for region_id, dus in region_dus.items() if region_id not in loaded)
    for region_id, load in plan.offered_load_mbps:
        dus = region_dus.get(region_id)
        if not dus:
            problems.append(f"region {region_id}: no DU carries its {load:g} Mbps offered load")
            continue
        # The rule dimension_dus applies: DU count x top capacity of the largest group's subset.
        levels = max(dus, key=lambda du: len(du.served_cell_sites)).il_subset.levels
        capacity = level_capacity_mbps(levels[-1]) * len(dus) if levels else 0.0
        if capacity < load:
            problems.append(
                f"region {region_id}: {len(dus)} DU(s) carry {capacity:g} Mbps, "
                f"below its {load:g} Mbps offered load"
            )
    if len(set(plan.selected_rus)) < len(plan.selected_rus):
        problems.extend(f"selected RU {ru_id} listed {n} times" for ru_id, n in Counter(plan.selected_rus).items() if n > 1)
    ru_sites: set[str] = set()
    off_region: dict[tuple[str, str, str], None] = {}  # (DU, its region, a served site's other region)
    for ru_id in plan.selected_rus:
        ru = (area.ru(ru_id) if area is not None else None) or catalog.ru(ru_id)
        if ru is None:
            problems.append(f"selected RU {ru_id} not found")
            continue
        ru_sites.add(ru.location.cell_site)
        du = site_owner.get(ru.location.cell_site)
        if du is not None and du.region_id != ru.location.region_id:
            off_region[du.du_id, du.region_id, ru.location.region_id] = None
    problems.extend(f"{name}: serves a cell site of region {other}, outside its region {own}"
                    for name, own, other in off_region)
    served = set(site_owner)
    if missing := sorted(ru_sites - served):
        problems.append(f"cell sites of selected RUs not served: {', '.join(missing)}")
    if extra := sorted(served - ru_sites):
        problems.append(f"served cell sites without a selected RU: {', '.join(extra)}")
    return problems

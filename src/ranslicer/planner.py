"""Slice-subnet planning over a deployment area.

Implements the planning procedure a slice-subnet manager runs per
request: select covering RUs, pick the gNB NSD flavor from the fronthaul
technologies in play, dimension DUs per region, distribute the DUs over
the minimum number of CUs subject to the CU-DU transport-latency budget,
and look up the gNB NSD IL subset matching the resulting layout.

CU minimization is solved exactly on small instances (slot-multiset
enumeration over edge PoPs plus bipartite matching) and by a first-fit
heuristic over edge PoPs ordered by feasible-DU count on large ones.
Every emitted plan is re-checked by an independent verifier pass.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .errors import PlannerError, RanSliceError, TopologyError
from .model import (
    Catalog,
    CuIlCapacity,
    CuSubsetKey,
    CuVnfd,
    DuSubsetKey,
    DuVnfd,
    FronthaulTech,
    GnbIlCapacity,
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
from .topology import DeploymentArea, Region, fronthaul_techs, pop_latency, select_rus
from .validate import GNB_FLAVOR_TECHS


class DuFlavor(Enum):
    """DU deployment variant, named by split option and fronthaul tech."""

    SPLIT7_ECPRI = "SPLIT7_ECPRI"
    SPLIT8_CPRI = "SPLIT8_CPRI"


DU_FLAVOR_FOR_TECH = {
    FronthaulTech.ECPRI: DuFlavor.SPLIT7_ECPRI,
    FronthaulTech.CPRI: DuFlavor.SPLIT8_CPRI,
}


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


def select_gnb_flavor(techs: frozenset[FronthaulTech]) -> int:
    """gNB NSD flavor id for a set of fronthaul technologies."""
    if not techs:
        raise ValueError("at least one fronthaul technology is required")
    for flavor_id, flavor_techs in GNB_FLAVOR_TECHS.items():
        if techs == flavor_techs:
            return flavor_id
    raise ValueError(f"unmappable technology set {techs!r}")  # pragma: no cover


def _du_subsets_for(du_vnfd: DuVnfd, region: Region) -> list[IlSubset]:
    flavor = du_vnfd.flavor_for_tech(region.fronthaul_tech)
    if flavor is None:
        raise PlannerError(
            "NO_MATCHING_SUBSET",
            f"DU VNFD {du_vnfd.descriptor_id} has no flavor for {region.fronthaul_tech.value}",
        )
    subsets = [
        s
        for s in flavor.il_subsets
        if isinstance(s.key, DuSubsetKey)
        and s.key.region_class == region.region_class
        and s.key.fronthaul_tech is region.fronthaul_tech
    ]
    return sorted(subsets, key=lambda s: (s.key.min_cell_sites, s.key.max_cell_sites))


def _covering_subset(subsets: list[IlSubset], group_size: int) -> IlSubset | None:
    return next((s for s in subsets if s.key.covers(group_size)), None)


def dimension_dus(region: Region, peak_load_mbps: float, du_vnfd: DuVnfd) -> list[DuPlan]:
    """Minimal DU count for a region, with balanced cell-site groups.

    A DU count n is feasible when every group size has an IL subset
    covering it and the top IL capacity of the subset covering the
    largest group, times n, carries the region's peak load.
    """
    if not region.cell_sites:
        raise ValueError(f"region {region.region_id} has no cell sites")
    if peak_load_mbps < 0:
        raise ValueError("peak load must be non-negative")
    subsets = _du_subsets_for(du_vnfd, region)
    sites = sorted(region.cell_sites)
    for n in range(1, len(sites) + 1):
        size_hi = math.ceil(len(sites) / n)
        size_lo = len(sites) // n
        subset_hi = _covering_subset(subsets, size_hi)
        if subset_hi is None:
            continue
        if size_lo != size_hi and size_lo > 0 and _covering_subset(subsets, size_lo) is None:
            continue
        top_capacity = level_capacity_mbps(subset_hi.levels[-1])
        if top_capacity * n < peak_load_mbps:
            continue
        plans = []
        cursor = 0
        remainder = len(sites) % n
        for i in range(n):
            size = size_hi if i < remainder or remainder == 0 else size_lo
            group = tuple(sites[cursor:cursor + size])
            cursor += size
            plans.append(
                DuPlan(
                    du_id=f"du-{region.region_id}-{i + 1:02d}",
                    region_id=region.region_id,
                    served_cell_sites=group,
                    vnfd_flavor=DU_FLAVOR_FOR_TECH[region.fronthaul_tech],
                    il_subset=_covering_subset(subsets, len(group)),
                    host_pop=region.aggregation_pop,
                )
            )
        return plans
    raise PlannerError(
        "INSUFFICIENT_DU_CAPACITY",
        f"region {region.region_id}: no DU count up to {len(sites)} carries "
        f"{peak_load_mbps:g} Mbps with the available IL subsets",
    )


def _cu_flavor(cu_vnfd: CuVnfd):
    if len(cu_vnfd.flavors) != 1:
        raise PlannerError(
            "NO_MATCHING_SUBSET",
            f"CU VNFD {cu_vnfd.descriptor_id} must carry exactly one flavor",
        )
    return cu_vnfd.flavors[0]


def _cu_subset_for_count(cu_vnfd: CuVnfd, count: int) -> IlSubset:
    flavor = _cu_flavor(cu_vnfd)
    subsets = sorted(
        (s for s in flavor.il_subsets if isinstance(s.key, CuSubsetKey) and s.key.covers(count)),
        key=lambda s: (s.key.min_dus, s.key.max_dus),
    )
    if not subsets:
        raise PlannerError(
            "NO_MATCHING_SUBSET",
            f"CU VNFD {cu_vnfd.descriptor_id} has no IL subset for {count} served DUs",
        )
    return subsets[0]


def _cu_capacity_dus(cu_vnfd: CuVnfd) -> int:
    flavor = _cu_flavor(cu_vnfd)
    caps = [
        level.role_capacity.max_dus
        for subset in flavor.il_subsets
        for level in subset.levels
        if isinstance(level.role_capacity, CuIlCapacity)
    ]
    if not caps:
        raise PlannerError("NO_MATCHING_SUBSET", "CU VNFD defines no CU instantiation levels")
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
    by_id = {du.du_id: du for du in dus}
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
    dus: list[DuPlan], compat: dict[str, list[str]], edge_pop_ids: list[str], capacity: int
) -> list[tuple[str, list[DuPlan]]]:
    """First-fit over edge PoPs ordered by feasible-DU count (ties by id)."""
    remaining = {du.du_id: du for du in dus}
    groups: list[tuple[str, list[DuPlan]]] = []
    while remaining:
        counts = {
            pop: sum(1 for du_id in remaining if pop in compat[du_id]) for pop in edge_pop_ids
        }
        pop = min(edge_pop_ids, key=lambda p: (-counts[p], p))
        feasible = sorted(du_id for du_id in remaining if pop in compat[du_id])
        take = [remaining.pop(du_id) for du_id in feasible[:capacity]]
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
    """
    if not dus:
        raise ValueError("at least one DU is required")
    edge_pops = area.edge_pops()
    edge_pop_ids = [p.pop_id for p in edge_pops]
    compat: dict[str, list[str]] = {}
    for du in sorted(dus, key=lambda d: d.du_id):
        reachable = []
        for pop_id in edge_pop_ids:
            try:
                latency = pop_latency(area, pop_id, du.host_pop)
            except TopologyError:
                continue
            if latency <= config.cu_du_latency_budget_ms:
                reachable.append(pop_id)
        compat[du.du_id] = reachable
    stranded = sorted(du_id for du_id, pops in compat.items() if not pops)
    if stranded:
        raise PlannerError(
            "INFEASIBLE_LATENCY",
            f"no edge PoP within {config.cu_du_latency_budget_ms:g} ms of DU(s): {', '.join(stranded)}",
        )
    capacity = _cu_capacity_dus(cu_vnfd)
    ordered = sorted(dus, key=lambda d: d.du_id)
    if len(ordered) <= config.exact_solver_limit:
        groups = _exact_cu_assignment(ordered, compat, edge_pop_ids, capacity)
    else:
        groups = _greedy_cu_assignment(ordered, compat, edge_pop_ids, capacity)
    skeletons = [
        GnbSkeleton(
            cu_host_pop=pop,
            cu_il_subset=_cu_subset_for_count(cu_vnfd, len(members)),
            dus=tuple(sorted(members, key=lambda d: d.du_id)),
        )
        for pop, members in groups
    ]
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
    subset key), so a region whose DUs use two subsets counts twice.  At
    least one of its levels must reference the chosen CU IL subset and
    those DU IL subsets of ``du_vnfd_id`` with the planned multiplicities.
    """
    flavor = gnb_nsd.flavor(flavor_id)
    if flavor is None:
        raise ValueError(f"gNB NSD {gnb_nsd.descriptor_id} has no flavor {flavor_id}")
    cu_vnfd_id, cu_subset = cu_selection
    by_subset: dict[tuple[str, DuSubsetKey], list[DuPlan]] = {}
    for du in dus:
        by_subset.setdefault((du.region_id, du.il_subset.key), []).append(du)
    groups = sorted(by_subset.items(), key=lambda item: (item[0][0], item[0][1].min_cell_sites))
    want_key = GnbSubsetKey(tuple((key.region_class, key.fronthaul_tech) for (_, key), _ in groups))
    cu_il_ids = {level.il_id for level in cu_subset.levels}

    def level_matches(level: InstantiationLevel) -> bool:
        role = level.role_capacity
        if not isinstance(role, GnbIlCapacity):
            return False
        if role.du_count != len(dus):
            return False
        if role.cu_il_ref.vnfd_id != cu_vnfd_id or role.cu_il_ref.il_id not in cu_il_ids:
            return False
        pools = [[len(group), {lvl.il_id for lvl in group[0].il_subset.levels}] for _, group in groups]
        for ref in role.du_il_refs:
            owner = next((p for p in pools if p[0] > 0 and ref.il_id in p[1]), None)
            if ref.vnfd_id != du_vnfd_id or owner is None:
                return False
            owner[0] -= 1
        return all(p[0] == 0 for p in pools)

    for subset in flavor.il_subsets:
        if not isinstance(subset.key, GnbSubsetKey) or subset.key != want_key:
            continue
        if any(level_matches(level) for level in subset.levels):
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
    if not catalog.gnb_nsds:
        raise PlannerError("NO_MATCHING_SUBSET", "catalog has no gNB NSD", stage="plan_slice")
    gnb_nsd = sorted(catalog.gnb_nsds, key=lambda d: d.descriptor_id)[0]
    if not catalog.du_vnfds or not catalog.cu_vnfds:
        raise PlannerError("NO_MATCHING_SUBSET", "catalog lacks CU or DU VNFDs", stage="plan_slice")
    du_vnfd = sorted(catalog.du_vnfds, key=lambda d: d.descriptor_id)[0]
    cu_vnfd = sorted(catalog.cu_vnfds, key=lambda d: d.descriptor_id)[0]

    nsst = _staged(
        "build_ran_nsst", build_ran_nsst, requirements, sst, gnb_nsd.descriptor_id, policy, sd=sd
    )
    rus = _staged("select_rus", select_rus, area, requirements.target_regions)
    techs = _staged("fronthaul_techs", fronthaul_techs, area, requirements.target_regions)
    flavor_id = select_gnb_flavor(techs)

    regions = [area.region(rid) for rid in sorted(set(requirements.target_regions))]
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
    plan: SlicePlan, area: DeploymentArea, catalog: Catalog, config: PlannerConfig | None = None
) -> list[str]:
    """Independent feasibility check of an emitted plan.

    Re-derives latency, CU capacity, coverage conservation, flavor
    consistency, each gNB's IL-subset key and each region's DU capacity
    from the area and catalog instead of trusting the solver.
    """
    config = config or PlannerConfig()
    problems: list[str] = []
    site_owner: dict[str, str] = {}
    region_dus: dict[str, list[DuPlan]] = {}
    for gnb in plan.gnbs:
        if not isinstance(gnb.cu.il_subset.key, CuSubsetKey):
            problems.append(f"{gnb.gnb_id}: CU IL subset has the wrong key kind")
        else:
            key = gnb.cu.il_subset.key
            if not key.covers(len(gnb.dus)):
                problems.append(
                    f"{gnb.gnb_id}: {len(gnb.dus)} DUs outside CU subset range "
                    f"[{key.min_dus}, {key.max_dus}]"
                )
        cu_caps = [
            lvl.role_capacity.max_dus
            for lvl in gnb.cu.il_subset.levels
            if isinstance(lvl.role_capacity, CuIlCapacity)
        ]
        if cu_caps and len(gnb.dus) > max(cu_caps):
            problems.append(f"{gnb.gnb_id}: DU count {len(gnb.dus)} exceeds CU capacity {max(cu_caps)}")
        expected_techs = GNB_FLAVOR_TECHS.get(gnb.nsd_flavor_id, frozenset())
        layout: dict[tuple[str, object], tuple[str, FronthaulTech]] = {}
        for du in gnb.dus:
            region_dus.setdefault(du.region_id, []).append(du)
            region = area.region(du.region_id)
            if region is None:
                problems.append(f"{du.du_id}: unknown region {du.region_id}")
                continue
            layout[(du.region_id, du.il_subset.key)] = (region.region_class, region.fronthaul_tech)
            try:
                latency = pop_latency(area, gnb.cu.host_pop, du.host_pop)
            except TopologyError:
                latency = math.inf
            if latency > config.cu_du_latency_budget_ms:
                problems.append(
                    f"{du.du_id}: {latency:g} ms to CU at {gnb.cu.host_pop} exceeds "
                    f"{config.cu_du_latency_budget_ms:g} ms budget"
                )
            if DU_FLAVOR_FOR_TECH[region.fronthaul_tech] is not du.vnfd_flavor:
                problems.append(f"{du.du_id}: flavor {du.vnfd_flavor.value} mismatches region fronthaul")
            if region.fronthaul_tech not in expected_techs:
                problems.append(
                    f"{du.du_id}: region tech {region.fronthaul_tech.value} not in gNB flavor "
                    f"{gnb.nsd_flavor_id}"
                )
            if du.host_pop != region.aggregation_pop:
                problems.append(f"{du.du_id}: not hosted on its region's aggregation PoP")
            key = du.il_subset.key
            if not isinstance(key, DuSubsetKey) or not key.covers(len(du.served_cell_sites)):
                problems.append(f"{du.du_id}: cell-site group outside its IL subset range")
            for site in du.served_cell_sites:
                if site in site_owner:
                    problems.append(f"cell site {site} served by both {site_owner[site]} and {du.du_id}")
                site_owner[site] = du.du_id
        want_key = GnbSubsetKey(tuple(layout.values()))
        if gnb.nsd_il_subset.key != want_key:
            key_text = " + ".join(f"({cls}, {tech.value})" for cls, tech in want_key.served_regions)
            problems.append(f"{gnb.gnb_id}: gNB IL subset is not keyed by its DU layout {key_text}")
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
    ru_sites: set[str] = set()
    for ru_id in plan.selected_rus:
        ru = catalog.ru(ru_id) or area.ru(ru_id)
        if ru is None:
            problems.append(f"selected RU {ru_id} not found")
            continue
        ru_sites.add(ru.location.cell_site)
    served = set(site_owner)
    if ru_sites != served:
        missing = sorted(ru_sites - served)
        extra = sorted(served - ru_sites)
        if missing:
            problems.append(f"cell sites of selected RUs not served: {', '.join(missing)}")
        if extra:
            problems.append(f"served cell sites without a selected RU: {', '.join(extra)}")
    return problems

"""Seeded synthetic inputs for the benchmark.

Everything is drawn from a ``random.Random`` the caller seeds, so one seed
always yields the same documents.  The generator builds the program's own
model objects; the workloads hand them to the program only as serialized
documents.

* ``make_area``: regions x cell sites x edge PoPs x link density, laid out
  on a plane so CU sharing follows geography.  Every aggregation PoP has a
  direct link to an edge PoP inside the CU-DU budget, so every DU has a CU.
* ``make_catalog``: one DU subset per region type covering every group
  size, one CU subset, and a gNB NSD with an IL subset for every
  region-type multiset up to the CU capacity (with a level for every DU
  split), so ``derive_gnb_il_subset`` succeeds for any greedy layout.
* ``make_requests``: compact clusters of target regions, sized by a fixed
  schedule so that the per-run mix does not depend on the seed.
* ``make_cu_instance``: a bare CU-assignment instance with sparse latency
  compatibility, for the exact solver.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from ranslicer.builtin import reference_requests
from ranslicer.io import SliceRequest
from ranslicer.model import (
    CITY_CENTER,
    INDUSTRIAL,
    SUBURBAN,
    Catalog,
    CuIlCapacity,
    CuSubsetKey,
    CuVnfd,
    DuIlCapacity,
    DuSubsetKey,
    DuVnfd,
    Flavor,
    FronthaulTech,
    GnbIlCapacity,
    GnbNsd,
    GnbSubsetKey,
    IlSubset,
    InstantiationLevel,
    Priority,
    RuLocation,
    RuPnfd,
    SliceRequirements,
    Sst,
    VmSpec,
    VnfIlRef,
)
from ranslicer.planner import DuFlavor, DuPlan
from ranslicer.radio import build_ran_nsst
from ranslicer.topology import DeploymentArea, Pop, PopTier, Region, TransportLink

# The CU-DU budget of the default planner configuration; links are drawn
# around it so that some paths fit and some do not.
BUDGET_MS = 10.0

REGION_TYPES = (
    (CITY_CENTER, FronthaulTech.ECPRI),
    (INDUSTRIAL, FronthaulTech.ECPRI),
    (SUBURBAN, FronthaulTech.CPRI),
)
DU_FLAVOR_ID = {FronthaulTech.ECPRI: 1, FronthaulTech.CPRI: 2}
GNB_FLAVOR_TECHS = {
    1: (FronthaulTech.CPRI,),
    2: (FronthaulTech.ECPRI,),
    3: (FronthaulTech.CPRI, FronthaulTech.ECPRI),
}
# Top DU IL capacity; requests keep a region's load under three DUs' worth.
DU_TOP_MBPS = 20_000.0

GNB_NSD_ID = "nsd-gnb-synth"
CU_VNFD_ID = "vnfd-cu-synth"
DU_VNFD_ID = "vnfd-du-synth"


@dataclass(frozen=True)
class AreaSpec:
    regions: int
    edge_pops: int
    min_sites: int = 3
    max_sites: int = 8
    links_per_region: int = 3  # agg -> nearest edge PoPs; the link density knob
    edge_neighbours: int = 2  # edge -> nearest edge PoPs


def _jittered_grid(n: int, size_km: float, rng: random.Random) -> list[tuple[float, float]]:
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    return [
        (size_km * (i % cols + rng.uniform(0.2, 0.8)) / cols, size_km * (i // cols + rng.uniform(0.2, 0.8)) / rows)
        for i in range(n)
    ]


def make_area(spec: AreaSpec, rng: random.Random) -> DeploymentArea:
    # Regions and edge PoPs sit on jittered grids, so the shortest-path work
    # of a request of given size varies little from seed to seed.  Region
    # areas fall in three bands of [1, 2] km2 (one DU in the lowest, two in
    # the others) laid out in diagonal stripes over the region grid, so any
    # compact set of regions holds the bands in near-equal shares and a
    # request's DU count follows its size.
    size_km = 10.0 * math.sqrt(spec.regions)
    edges = [(f"edge-{e:03d}", x, y) for e, (x, y) in enumerate(_jittered_grid(spec.edge_pops, size_km, rng))]
    cols = math.ceil(math.sqrt(spec.regions))
    areas = [round(1.0 + ((i % cols + i // cols) % 3 + 0.1 + 0.8 * rng.random()) / 3, 2) for i in range(spec.regions)]
    pops = [Pop(pid, PopTier.EDGE, 512, 1024.0) for pid, _, _ in edges]
    links: list[TransportLink] = []
    linked: set[tuple[str, str]] = set()

    def link(a: str, b: str, latency: float) -> None:
        if (a, b) not in linked and (b, a) not in linked:
            linked.add((a, b))
            links.append(TransportLink(a, b, round(latency, 3)))

    for pid, x, y in edges:
        near = sorted((math.hypot(x - x2, y - y2), p2) for p2, x2, y2 in edges if p2 != pid)
        for dist, other in near[:spec.edge_neighbours]:
            link(pid, other, 0.3 + 0.05 * dist)
    regions, rus = [], []
    for r, (x, y) in enumerate(_jittered_grid(spec.regions, size_km, rng)):
        rid = f"r-{r:04d}"
        region_class, tech = rng.choice(REGION_TYPES)
        sites = tuple(f"cs-{r:04d}-{s:02d}" for s in range(rng.randint(spec.min_sites, spec.max_sites)))
        agg = f"agg-{r:04d}"
        pops.append(Pop(agg, PopTier.AGGREGATION, 64, 128.0))
        near = sorted((math.hypot(x - ex, y - ey), pid) for pid, ex, ey in edges)
        for i, (dist, pid) in enumerate(near[:spec.links_per_region]):
            latency = 0.5 + 0.15 * dist + rng.uniform(0.0, 3.0)
            # The nearest edge PoP is always inside the budget.
            link(agg, pid, min(latency, BUDGET_MS - 1.0) if i == 0 else latency)
        regions.append(Region(rid, region_class, areas[r], tech, sites, agg))
        for s, site in enumerate(sites):
            rus.append(RuPnfd(f"ru-{r:04d}-{s:02d}", RuLocation(rid, site, round(x + 0.1 * s, 3), round(y, 3)), tech))
    return DeploymentArea(tuple(regions), tuple(pops), tuple(links), tuple(rus))


def _du_vnfd(max_sites: int) -> DuVnfd:
    flavors = []
    for tech, flavor_id in sorted(DU_FLAVOR_ID.items(), key=lambda kv: kv[1]):
        subsets = tuple(
            IlSubset(
                DuSubsetKey(cls, tech, 1, max_sites),
                tuple(
                    InstantiationLevel(f"du-{cls.lower()}-l{i}", VmSpec(4 * i, 2.4, 8.0 * i),
                                       DuIlCapacity(max_sites, DU_TOP_MBPS * i / 3))
                    for i in (1, 2, 3)
                ),
            )
            for cls, t in REGION_TYPES if t is tech
        )
        flavors.append(Flavor(flavor_id, frozenset({tech}), 7 if tech is FronthaulTech.ECPRI else 8, subsets))
    return DuVnfd(DU_VNFD_ID, tuple(flavors))


def _cu_vnfd(capacity: int) -> CuVnfd:
    levels = tuple(
        InstantiationLevel(f"cu-l{j}", VmSpec(4 * j, 2.6, 8.0 * j), CuIlCapacity(j, 50_000.0 * j))
        for j in range(1, capacity + 1)
    )
    return CuVnfd(CU_VNFD_ID, (Flavor(1, frozenset(), 2, (IlSubset(CuSubsetKey(1, capacity), levels),)),))


def _gnb_nsd(capacity: int) -> GnbNsd:
    flavors = []
    for flavor_id, techs in GNB_FLAVOR_TECHS.items():
        types = [t for t in REGION_TYPES if t[1] in techs]
        subsets = []
        # regions[i] regions of types[i] in the gNB, dus[i] >= regions[i] DUs of them.
        for regions in itertools.product(range(capacity + 1), repeat=len(types)):
            if not 0 < sum(regions) <= capacity:
                continue
            splits = [
                dus for dus in itertools.product(range(capacity + 1), repeat=len(types))
                if sum(dus) <= capacity and all((r == 0) == (d == 0) and d >= r for r, d in zip(regions, dus))
            ]
            splits.sort(key=lambda dus: (sum(dus), dus))
            tag = "-".join(f"{t[0].lower()}{n}" for t, n in zip(types, regions) if n)
            levels = []
            for i, dus in enumerate(splits):
                refs = tuple(
                    VnfIlRef(DU_VNFD_ID, DU_FLAVOR_ID[t[1]], f"du-{t[0].lower()}-l3")
                    for t, n in zip(types, dus) for _ in range(n)
                )
                levels.append(InstantiationLevel(
                    f"gnb-f{flavor_id}-{tag}-{'.'.join(map(str, dus))}",
                    VmSpec(8 + i, 2.6, 16.0 + i),
                    GnbIlCapacity(len(refs), VnfIlRef(CU_VNFD_ID, 1, f"cu-l{len(refs)}"), refs, 1_000.0 + i),
                ))
            key = GnbSubsetKey(tuple(t for t, n in zip(types, regions) for _ in range(n)))
            subsets.append(IlSubset(key, tuple(levels)))
        flavors.append(Flavor(flavor_id, frozenset(techs), None, tuple(subsets)))
    return GnbNsd(GNB_NSD_ID, tuple(flavors))


def make_catalog(area: DeploymentArea, cu_capacity: int, max_sites: int) -> Catalog:
    nssts = tuple(
        build_ran_nsst(profile, sst, GNB_NSD_ID)
        for sst, profile in sorted(reference_requests().items(), key=lambda kv: kv[0].value)
    )
    return Catalog(
        nssts=nssts,
        gnb_nsds=(_gnb_nsd(cu_capacity),),
        cu_vnfds=(_cu_vnfd(cu_capacity),),
        du_vnfds=(_du_vnfd(max_sites),),
        ru_pnfds=area.rus,
    )


def make_requests(area: DeploymentArea, rng: random.Random, sizes) -> list[SliceRequest]:
    """One request per entry of ``sizes``: that many regions around a
    random centre, with one or two DUs per region."""
    coords = {}
    for ru in area.rus:
        coords.setdefault(ru.location.region_id, (ru.location.x_km, ru.location.y_km))
    requests = []
    for size in sizes:
        cx, cy = coords[rng.choice(sorted(coords))]
        targets = sorted(sorted(coords, key=lambda rid: math.hypot(coords[rid][0] - cx, coords[rid][1] - cy))[:size])
        per_ue = rng.uniform(20.0, 200.0)
        # A region's load (density * area * per_ue * 0.1) is 0.75 top-capacity
        # DUs per km2: one DU below 1.33 km2, two above.  The ratio is fixed
        # so the DU count of a request depends on its size, not on the seed.
        density = 0.75 * DU_TOP_MBPS / (per_ue * 0.1)
        sst = rng.choice(list(Sst))
        requirements = SliceRequirements(
            latency_ms=rng.choice((10.0, 20.0, 50.0)),
            max_mobility_kmh=rng.choice((0.0, 10.0, 120.0)),
            throughput_ul_mbps=round(per_ue / rng.choice((1, 2, 8)), 3),
            throughput_dl_mbps=round(per_ue, 3),
            ue_density_per_km2=round(density, 3),
            reliability_pct=None,
            priority=rng.choice(list(Priority)),
            ue_type="synthetic",
            target_regions=tuple(targets),
        )
        requests.append(SliceRequest(sst, None, requirements))
    return requests


# CU-assignment strata: every run cycles through all of them in this order.
CU_STRATA = tuple((edges, capacity) for edges in (4, 8, 12, 16) for capacity in (2, 3, 4, 5, 6))
# The instance structures, edge PoP ids included, come from this fixed
# seed; the run seed relabels the DUs and their aggregation PoPs and
# shuffles the order inside each cycle.  Fresh structures per seed moved
# the solve-time quantiles by 15-30% between seeds, because a run sees a
# few hundred instances of a distribution spanning three decades, and
# relabelling the edge PoPs moved them by up to 20%, because the exact
# solver enumerates placements in PoP-id order.  This way every run meets
# the same tail.
CU_FAMILY_SEED = 20260810


def make_cu_pool(seed: int, rounds: int) -> list:
    """``rounds`` instances per stratum, one stratum after another in each
    round, so that every prefix of whole rounds is balanced."""
    family = random.Random(CU_FAMILY_SEED)
    rng = random.Random(seed)
    pool = []
    for _ in range(rounds):
        block = [make_cu_instance(family, rng, edges, family.randint(6, 12), capacity)
                 for edges, capacity in CU_STRATA]
        rng.shuffle(block)
        pool.extend(block)
    return pool


def make_cu_instance(family: random.Random, rng: random.Random, n_edges: int, n_dus: int, capacity: int):
    """DUs on their own aggregation PoPs, each with one edge PoP inside the
    budget and a sparse set of further links (some beyond the budget).
    ``family`` draws the structure, ``rng`` the DU labels.
    Returns ``(dus, area, cu_vnfd)``."""
    edge = [f"edge-{e:02d}" for e in range(n_edges)]
    label = rng.sample(range(n_dus), n_dus)
    pops = [Pop(pop_id, PopTier.EDGE, 64, 128.0) for pop_id in edge]
    links, dus = [], []
    subset = IlSubset(
        DuSubsetKey(SUBURBAN, FronthaulTech.CPRI, 1, 1),
        (InstantiationLevel("du-stub", VmSpec(2, 2.0, 4.0), DuIlCapacity(1, 1000.0)),),
    )
    for i in range(n_dus):
        agg = f"agg-{label[i]:02d}"
        pops.append(Pop(agg, PopTier.AGGREGATION, 32, 64.0))
        home = family.randrange(n_edges)
        links.append(TransportLink(agg, edge[home], round(family.uniform(1.0, BUDGET_MS - 0.5), 2)))
        for e in range(n_edges):
            if e != home and family.random() < 0.1:
                links.append(TransportLink(agg, edge[e], round(family.uniform(1.0, 14.0), 2)))
        dus.append(DuPlan(f"du-{label[i]:02d}", f"region-{label[i]:02d}", (f"cs-{label[i]:02d}",),
                          DuFlavor.SPLIT8_CPRI, subset, agg))
    return dus, DeploymentArea((), tuple(pops), tuple(links), ()), _cu_vnfd(capacity)

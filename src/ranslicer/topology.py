"""Deployment-area model: regions, cell sites, RUs, PoPs and transport links.

The area answers the two queries planning needs: which RUs cover a set
of regions, and the minimal transport latency between two PoPs.  Areas
are immutable once loaded; all queries are read-only.

Lookups are indexed on first use and memoised per area object: the
region-id, PoP-id and RU-id indexes (the first entry wins on duplicate ids,
which ``check_area`` reports), the RUs of each region, one adjacency map of
the links and, for each source PoP asked about, one row of shortest-path
latencies together with the bound it is exact to.  The memo is not a
dataclass field, so it is invisible to equality, hashing,
``dataclasses.replace`` and serialization.  Filling it is idempotent and
every row is exact up to its bound, so two threads that race on one source
each get a correct row (the race can cost one more search later, never a
wrong latency) and concurrent planning on one area stays safe.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import TopologyError
from .model import (
    CITY_CENTER,
    INDUSTRIAL,
    SUBURBAN,
    FronthaulTech,
    RuLocation,
    RuPnfd,
)


class PopTier(Enum):
    AGGREGATION = "AGGREGATION"
    EDGE = "EDGE"


@dataclass(frozen=True)
class Region:
    region_id: str
    region_class: str
    area_km2: float
    fronthaul_tech: FronthaulTech
    cell_sites: tuple[str, ...]
    aggregation_pop: str


@dataclass(frozen=True)
class Pop:
    pop_id: str
    tier: PopTier
    host_capacity_vcpu: int
    host_capacity_ram_gb: float


@dataclass(frozen=True)
class TransportLink:
    a: str
    b: str
    latency_ms: float


@dataclass(frozen=True)
class DeploymentArea:
    regions: tuple[Region, ...]
    pops: tuple[Pop, ...]
    links: tuple[TransportLink, ...]
    rus: tuple[RuPnfd, ...]

    @cached_property
    def _regions_by_id(self) -> dict[str, Region]:
        return {r.region_id: r for r in reversed(self.regions)}  # reversed: the first entry wins

    @cached_property
    def _pops_by_id(self) -> dict[str, Pop]:
        return {p.pop_id: p for p in reversed(self.pops)}

    @cached_property
    def _rus_by_id(self) -> dict[str, RuPnfd]:
        return {r.ru_id: r for r in reversed(self.rus)}

    @cached_property
    def _rus_by_region(self) -> dict[str, list[RuPnfd]]:
        rus: dict[str, list[RuPnfd]] = {}
        for ru in self.rus:
            rus.setdefault(ru.location.region_id, []).append(ru)
        return rus

    @cached_property
    def _adjacency(self) -> dict[str, list[tuple[str, float]]]:
        adjacency: dict[str, list[tuple[str, float]]] = {}
        for link in self.links:
            adjacency.setdefault(link.a, []).append((link.b, link.latency_ms))
            adjacency.setdefault(link.b, []).append((link.a, link.latency_ms))
        return adjacency

    @cached_property
    def _latency_rows(self) -> dict[str, tuple[float, dict[str, float]]]:
        """Source PoP id -> (bound, the row ``latency_row`` returns for it)."""
        return {}

    def region(self, region_id: str) -> Region | None:
        return self._regions_by_id.get(region_id)

    def pop(self, pop_id: str) -> Pop | None:
        return self._pops_by_id.get(pop_id)

    def ru(self, ru_id: str) -> RuPnfd | None:
        return self._rus_by_id.get(ru_id)

    def edge_pops(self) -> tuple[Pop, ...]:
        return tuple(sorted((p for p in self.pops if p.tier is PopTier.EDGE), key=lambda p: p.pop_id))

    def latency_row(self, source: str, bound: float) -> dict[str, float]:
        """Shortest-path latency from ``source`` to every PoP within ``bound``
        ms; it may hold PoPs beyond ``bound`` too, each exact.

        The memoised row is reused when it is exact to at least ``bound``,
        else searched again up to ``bound`` and kept in its place.
        """
        memo = self._latency_rows.get(source)
        if memo is None or memo[0] < bound:
            memo = self._latency_rows[source] = (bound, _shortest_paths(self, source, bound))
        return memo[1]


def check_area(area: DeploymentArea) -> list[str]:
    """Structural problems in a deployment area; empty means loadable."""
    problems: list[str] = []
    pop_ids = [p.pop_id for p in area.pops]
    if len(set(pop_ids)) != len(pop_ids):
        problems.append("duplicate PoP ids")
    region_ids = [r.region_id for r in area.regions]
    if len(set(region_ids)) != len(region_ids):
        problems.append("duplicate region ids")
    site_owner: dict[str, str] = {}
    agg_used: dict[str, str] = {}
    for region in area.regions:
        if region.area_km2 <= 0:
            problems.append(f"region {region.region_id}: area must be positive")
        if not region.cell_sites:
            problems.append(f"region {region.region_id}: no cell sites")
        for site in region.cell_sites:
            if site in site_owner:
                problems.append(f"cell site {site} appears in both {site_owner[site]} and {region.region_id}")
            site_owner[site] = region.region_id
        pop = area.pop(region.aggregation_pop)
        if pop is None:
            problems.append(f"region {region.region_id}: aggregation PoP {region.aggregation_pop} missing")
        elif pop.tier is not PopTier.AGGREGATION:
            problems.append(f"region {region.region_id}: PoP {pop.pop_id} is not aggregation-tier")
        if region.aggregation_pop in agg_used:
            problems.append(
                f"aggregation PoP {region.aggregation_pop} serves both "
                f"{agg_used[region.aggregation_pop]} and {region.region_id}"
            )
        agg_used[region.aggregation_pop] = region.region_id
    for pop in area.pops:
        if pop.host_capacity_vcpu <= 0 or pop.host_capacity_ram_gb <= 0:
            problems.append(f"PoP {pop.pop_id}: host capacity must be positive")
    for link in area.links:
        if link.latency_ms <= 0:
            problems.append(f"link {link.a}-{link.b}: latency must be positive")
        for end in (link.a, link.b):
            if area.pop(end) is None:
                problems.append(f"link endpoint {end} is not a PoP")
    ru_ids = [r.ru_id for r in area.rus]
    if len(set(ru_ids)) != len(ru_ids):
        problems.append("duplicate RU ids")
    covered: set[str] = set()
    for ru in area.rus:
        region = area.region(ru.location.region_id)
        if region is None:
            problems.append(f"RU {ru.ru_id}: unknown region {ru.location.region_id}")
            continue
        if ru.location.cell_site not in region.cell_sites:
            problems.append(f"RU {ru.ru_id}: cell site {ru.location.cell_site} not in its region")
        if ru.connection_tech is not region.fronthaul_tech:
            problems.append(
                f"RU {ru.ru_id}: connection tech {ru.connection_tech.value} differs from "
                f"region fronthaul {region.fronthaul_tech.value}"
            )
        covered.add(ru.location.cell_site)
    for site, owner in sorted(site_owner.items()):
        if site not in covered:
            problems.append(f"cell site {site} ({owner}) hosts no RU")
    return problems


def load_area(area: DeploymentArea) -> DeploymentArea:
    """Validate an area; raise with every problem listed if it is broken."""
    problems = check_area(area)
    if problems:
        raise TopologyError("INVALID_TOPOLOGY", "; ".join(problems))
    return area


def select_rus(area: DeploymentArea, target_regions) -> list[RuPnfd]:
    """All RUs covering the target regions, sorted by RU id."""
    regions = sorted(set(target_regions))
    unknown = [region_id for region_id in regions if region_id not in area._regions_by_id]
    if unknown:
        raise TopologyError("UNKNOWN_REGION", f"unknown region(s): {', '.join(unknown)}")
    by_region = area._rus_by_region
    return sorted((ru for region_id in regions for ru in by_region.get(region_id, ())), key=lambda r: r.ru_id)


def _shortest_paths(area: DeploymentArea, source: str, bound: float) -> dict[str, float]:
    """Dijkstra from ``source`` over the area's adjacency map: latency to
    every PoP it reaches within ``bound`` ms, or to all it reaches when
    ``bound`` is ``math.inf``.

    The search stops at the first popped latency beyond ``bound``.  Every
    node popped by then is final, so each latency is bit-identical to the
    one a search without a bound finds.
    """
    adjacency, pops = area._adjacency, area._pops_by_id
    row: dict[str, float] = {}
    best: dict[str, float] = {source: 0.0}
    queue: list[tuple[float, str]] = [(0.0, source)]
    while queue:
        dist, node = heapq.heappop(queue)
        if dist > bound:
            break
        if dist > best[node]:
            continue
        if node in pops:
            row[node] = dist
        for neighbor, weight in adjacency.get(node, ()):
            candidate = dist + weight
            if candidate < best.get(neighbor, math.inf):
                best[neighbor] = candidate
                heapq.heappush(queue, (candidate, neighbor))
    return row


def pop_latency(area: DeploymentArea, pop_a: str, pop_b: str) -> float:
    """Minimal transport latency between two PoPs (shortest path, ms).

    Reads ``pop_a``'s whole latency row, without a bound.  The first such
    query from ``pop_a`` runs one Dijkstra over the area, or a second one
    when planning has already cut ``pop_a``'s row at its budget; later
    queries from ``pop_a`` are dictionary reads.
    """
    for pop_id in (pop_a, pop_b):
        if area.pop(pop_id) is None:
            raise TopologyError("UNKNOWN_POP", f"PoP {pop_id!r} not in deployment area")
    row = area.latency_row(pop_a, math.inf)
    if pop_b not in row:
        raise TopologyError("UNREACHABLE", f"no transport path between {pop_a} and {pop_b}")
    return row[pop_b]


def reference_area() -> DeploymentArea:
    """The three-region reference city.

    An industrial area and the city center run eCPRI fronthaul, the
    suburban belt runs CPRI.  Each region aggregates its cell sites into
    one aggregation PoP; two edge PoPs host CUs.  Link latencies are
    fixture data chosen so every aggregation PoP reaches an edge PoP
    comfortably within the default CU-DU budget.
    """
    regions = (
        Region("city-center", CITY_CENTER, 1.0, FronthaulTech.ECPRI,
               tuple(f"cs-cc-{i:02d}" for i in range(1, 9)), "pop-agg-city-center"),
        Region("industrial", INDUSTRIAL, 2.0, FronthaulTech.ECPRI,
               tuple(f"cs-ind-{i:02d}" for i in range(1, 5)), "pop-agg-industrial"),
        Region("suburban", SUBURBAN, 8.0, FronthaulTech.CPRI,
               tuple(f"cs-sub-{i:02d}" for i in range(1, 7)), "pop-agg-suburban"),
    )
    pops = (
        Pop("pop-agg-city-center", PopTier.AGGREGATION, 256, 512.0),
        Pop("pop-agg-industrial", PopTier.AGGREGATION, 128, 256.0),
        Pop("pop-agg-suburban", PopTier.AGGREGATION, 192, 384.0),
        Pop("pop-edge-1", PopTier.EDGE, 512, 1024.0),
        Pop("pop-edge-2", PopTier.EDGE, 512, 1024.0),
    )
    links = (
        TransportLink("pop-agg-city-center", "pop-edge-1", 0.5),
        TransportLink("pop-agg-city-center", "pop-edge-2", 1.0),
        TransportLink("pop-agg-industrial", "pop-edge-1", 0.8),
        TransportLink("pop-agg-suburban", "pop-edge-1", 1.2),
        TransportLink("pop-agg-suburban", "pop-edge-2", 0.6),
        TransportLink("pop-edge-1", "pop-edge-2", 0.7),
    )
    rus = []
    for region, prefix in ((regions[0], "cc"), (regions[1], "ind"), (regions[2], "sub")):
        for i, site in enumerate(region.cell_sites, start=1):
            rus.append(
                RuPnfd(
                    ru_id=f"ru-{prefix}-{i:02d}",
                    location=RuLocation(region.region_id, site, x_km=float(i), y_km=float(len(prefix))),
                    connection_tech=region.fronthaul_tech,
                )
            )
    return load_area(DeploymentArea(regions=regions, pops=pops, links=links, rus=tuple(rus)))

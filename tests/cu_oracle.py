"""Independent oracle and instance generators for CU minimization.

The oracle recomputes PoP compatibility with Floyd-Warshall and minimizes
the CU count by branch-and-bound over set partitions (the planner uses
Dijkstra, and enumerates placement multisets plus matching), so the two
sides share no code path; ``bellman_ford`` recomputes latencies bit for
bit.  ``greedy_oracle`` is a frozen copy of the planner's original greedy
CU heuristic, which recounted every PoP's feasible DUs after each CU: the
reference for the greedy layout.
"""

from __future__ import annotations

import random

from ranslicer.model import (
    CuIlCapacity,
    CuSubsetKey,
    CuVnfd,
    DuIlCapacity,
    DuSubsetKey,
    Flavor,
    FronthaulTech,
    IlSubset,
    InstantiationLevel,
    VmSpec,
)
from ranslicer.planner import DuFlavor, DuPlan
from ranslicer.topology import DeploymentArea, Pop, PopTier, TransportLink


def make_cu_vnfd(capacity: int) -> CuVnfd:
    levels = tuple(
        InstantiationLevel(f"cu-il-{i}", VmSpec(4 * i, 2.0, 8.0 * i), CuIlCapacity(i, 1000.0 * i))
        for i in range(1, capacity + 1)
    )
    subset = IlSubset(CuSubsetKey(1, capacity), levels)
    return CuVnfd("vnfd-cu-test", (Flavor(1, frozenset(), 2, (subset,)),))


def _stub_du_subset() -> IlSubset:
    return IlSubset(
        DuSubsetKey("SUBURBAN", FronthaulTech.CPRI, 1, 1),
        (InstantiationLevel("du-il-stub", VmSpec(2, 2.0, 4.0), DuIlCapacity(1, 1000.0)),),
    )


def make_instance(rng: random.Random):
    """Random CU-assignment instance: DUs on their own aggregation PoPs,
    1-4 edge PoPs, random link latencies, random CU capacity."""
    n_dus = rng.randint(1, 12)
    n_edges = rng.randint(1, 4)
    capacity = rng.randint(1, 6)
    pops = [Pop(f"edge-{e}", PopTier.EDGE, 64, 128.0) for e in range(1, n_edges + 1)]
    links = []
    dus = []
    subset = _stub_du_subset()
    for i in range(1, n_dus + 1):
        agg = f"agg-{i:02d}"
        pops.append(Pop(agg, PopTier.AGGREGATION, 32, 64.0))
        for e in range(1, n_edges + 1):
            if rng.random() < 0.85:
                links.append(TransportLink(agg, f"edge-{e}", round(rng.uniform(1.0, 14.0), 2)))
        dus.append(
            DuPlan(
                du_id=f"du-{i:02d}",
                region_id=f"region-{i:02d}",
                served_cell_sites=(f"cs-{i:02d}",),
                vnfd_flavor=DuFlavor.SPLIT8_CPRI,
                il_subset=subset,
                host_pop=agg,
            )
        )
    if n_edges > 1 and rng.random() < 0.3:
        a, b = rng.sample(range(1, n_edges + 1), 2)
        links.append(TransportLink(f"edge-{a}", f"edge-{b}", round(rng.uniform(0.5, 8.0), 2)))
    area = DeploymentArea((), tuple(pops), tuple(links), ())
    return dus, area, make_cu_vnfd(capacity), capacity


def make_scaled_instance(rng: random.Random):
    """Random greedy-scale instance: 100-160 DUs sharing 25-60 aggregation
    PoPs, 20-40 edge PoPs listed in shuffled order, CU capacity 2-6.  Each
    aggregation PoP links to 1-3 edge PoPs, the first within the default
    latency budget, so every DU reaches at least one edge PoP."""
    n_dus = rng.randint(100, 160)
    n_edges = rng.randint(20, 40)
    n_aggs = rng.randint(25, 60)
    capacity = rng.randint(2, 6)
    edges = [f"edge-{e}" for e in range(1, n_edges + 1)]
    pops = [Pop(edge, PopTier.EDGE, 64, 128.0) for edge in edges]
    rng.shuffle(pops)
    links = []
    for a in range(1, n_aggs + 1):
        agg = f"agg-{a:02d}"
        pops.append(Pop(agg, PopTier.AGGREGATION, 32, 64.0))
        for k, edge in enumerate(rng.sample(edges, rng.randint(1, 3))):
            latency = rng.uniform(1.0, 9.0) if k == 0 else rng.uniform(1.0, 14.0)
            links.append(TransportLink(agg, edge, round(latency, 2)))
    subset = _stub_du_subset()
    dus = [
        DuPlan(
            du_id=f"du-{i:03d}",
            region_id=f"region-{i:03d}",
            served_cell_sites=(f"cs-{i:03d}",),
            vnfd_flavor=DuFlavor.SPLIT8_CPRI,
            il_subset=subset,
            host_pop=f"agg-{rng.randint(1, n_aggs):02d}",
        )
        for i in range(1, n_dus + 1)
    ]
    area = DeploymentArea((), tuple(pops), tuple(links), ())
    return dus, area, make_cu_vnfd(capacity), capacity


def greedy_oracle(
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


def floyd_warshall(area: DeploymentArea) -> dict[str, dict[str, float]]:
    """All-pairs shortest latencies between the area's PoPs; inf when unreachable."""
    pop_ids = [p.pop_id for p in area.pops]
    index = {p: i for i, p in enumerate(pop_ids)}
    n = len(pop_ids)
    inf = float("inf")
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for link in area.links:
        a, b = index[link.a], index[link.b]
        w = min(dist[a][b], link.latency_ms)
        dist[a][b] = dist[b][a] = w
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            for j in range(n):
                alt = dik + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return {a: dict(zip(pop_ids, row)) for a, row in zip(pop_ids, dist)}


def bellman_ford(area: DeploymentArea, sources) -> dict[str, float]:
    """Shortest latency from the nearest of ``sources`` to every node the
    links reach, by Bellman-Ford rounds over the link list until none
    improves.  Each latency is summed from its source along the path, as
    the planner's Dijkstra sums it, and float addition is monotone, so the
    two agree bit for bit."""
    arcs = [(l.a, l.b, l.latency_ms) for l in area.links] + [(l.b, l.a, l.latency_ms) for l in area.links]
    dist = {source: 0.0 for source in sources}
    changed = True
    while changed:
        changed = False
        for a, b, latency in arcs:
            if a in dist and dist[a] + latency < dist.get(b, float("inf")):
                dist[b] = dist[a] + latency
                changed = True
    return dist


def oracle_min_cus(dus, area: DeploymentArea, budget_ms: float, capacity: int) -> int | None:
    """Minimal CU count, or None when some DU reaches no edge PoP."""
    dist = floyd_warshall(area)
    edges = sorted(p.pop_id for p in area.pops if p.tier is PopTier.EDGE)
    compat = [
        frozenset(e for e in edges if dist[e][du.host_pop] <= budget_ms)
        for du in sorted(dus, key=lambda d: d.du_id)
    ]
    if any(not c for c in compat):
        return None
    best = [len(compat)]
    groups: list[list] = []  # [candidate pops, member count]

    def descend(i: int) -> None:
        if len(groups) >= best[0] and i < len(compat):
            return
        if i == len(compat):
            best[0] = min(best[0], len(groups))
            return
        for group in groups:
            narrowed = group[0] & compat[i]
            if narrowed and group[1] < capacity:
                saved = group[0]
                group[0] = narrowed
                group[1] += 1
                descend(i + 1)
                group[0] = saved
                group[1] -= 1
        if len(groups) + 1 <= best[0]:
            groups.append([set(compat[i]), 1])
            descend(i + 1)
            groups.pop()

    descend(0)
    return best[0]

"""Independent oracle and instance generator for CU minimization.

The oracle recomputes PoP compatibility with Floyd-Warshall (the planner
uses Dijkstra) and minimizes the CU count by branch-and-bound over set
partitions (the planner enumerates placement multisets plus matching),
so the two sides share no code path.
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

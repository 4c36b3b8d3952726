"""Output checks that share no code with ranslicer.

They read the documents as plain JSON and recompute what a plan claims:
CU-DU latencies from a shortest-path table built here, one DU per selected
cell site, DU hosting on the region's aggregation PoP and CU capacity.
Each check returns a list of problems; empty means the output is right.
"""

from __future__ import annotations

import heapq
import json
import math
from pathlib import Path

BUDGET_MS = 10.0  # default CU-DU latency budget; no workload passes a config


class TopologyFacts:
    """What the checks need from a TOPOLOGY document, read as JSON."""

    def __init__(self, topology_text: str):
        body = json.loads(topology_text)["body"]
        self.agg_pop = {r["region_id"]: r["aggregation_pop"] for r in body["regions"]}
        self.edges = sorted(p["pop_id"] for p in body["pops"] if p["tier"] == "EDGE")
        self.ru_site = {ru["ru_id"]: ru["location"]["cell_site"] for ru in body["rus"]}
        self.rus_of_region: dict[str, list[str]] = {}
        for ru in body["rus"]:
            self.rus_of_region.setdefault(ru["location"]["region_id"], []).append(ru["ru_id"])
        adjacency: dict[str, list[tuple[str, float]]] = {}
        for link in body["links"]:
            adjacency.setdefault(link["a"], []).append((link["b"], link["latency_ms"]))
            adjacency.setdefault(link["b"], []).append((link["a"], link["latency_ms"]))
        self.latency = {edge: _distances(adjacency, edge) for edge in self.edges}


def _distances(adjacency, source: str) -> dict[str, float]:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done: set[str] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for nxt, w in adjacency.get(node, ()):
            if d + w < dist.get(nxt, math.inf):
                dist[nxt] = d + w
                heapq.heappush(heap, (d + w, nxt))
    return dist


def cu_capacity_from_catalog(catalog_text: str) -> int:
    body = json.loads(catalog_text)["body"]
    return max(
        level["role"]["max_dus"]
        for vnfd in body["cu_vnfds"] for flavor in vnfd["flavors"]
        for subset in flavor["il_subsets"] for level in subset["levels"]
        if level["role"]["kind"] == "CU"
    )


def check_plan(plan_text: str, request_text: str, facts: TopologyFacts, cu_capacity: int) -> list[str]:
    """Latency, coverage, hosting and capacity facts of one SLICE_PLAN."""
    plan = json.loads(plan_text)
    if plan.get("kind") != "SLICE_PLAN":
        return [f"expected a SLICE_PLAN, got {plan.get('kind')!r}"]
    body = plan["body"]
    targets = json.loads(request_text)["body"]["requirements"]["target_regions"]
    problems = []
    want_rus = sorted(ru for region in targets for ru in facts.rus_of_region.get(region, ()))
    if sorted(body["selected_rus"]) != want_rus:
        problems.append("selected RUs differ from the RUs of the target regions")
    served: dict[str, int] = {}
    for gnb in body["gnbs"]:
        cu_pop = gnb["cu"]["host_pop"]
        if cu_pop not in facts.latency:
            problems.append(f"{gnb['gnb_id']}: CU on {cu_pop}, not an edge PoP")
            continue
        if not 1 <= len(gnb["dus"]) <= cu_capacity:
            problems.append(f"{gnb['gnb_id']}: {len(gnb['dus'])} DUs for CU capacity {cu_capacity}")
        for du in gnb["dus"]:
            if du["host_pop"] != facts.agg_pop.get(du["region_id"]):
                problems.append(f"{du['du_id']}: not on its region's aggregation PoP")
            latency = facts.latency[cu_pop].get(du["host_pop"], math.inf)
            if latency > BUDGET_MS + 1e-9:
                problems.append(f"{du['du_id']}: {latency:g} ms to its CU exceeds {BUDGET_MS:g} ms")
            for site in du["served_cell_sites"]:
                served[site] = served.get(site, 0) + 1
    want_sites = sorted(facts.ru_site[ru] for ru in want_rus)
    if sorted(served) != want_sites or any(n != 1 for n in served.values()):
        problems.append("selected cell sites are not each served exactly once")
    return problems


def plan_cu_counts(plan_text: str, cu_capacity: int) -> tuple[int, int]:
    """(CUs in the plan, ceil(DUs / capacity))."""
    gnbs = json.loads(plan_text)["body"]["gnbs"]
    dus = sum(len(g["dus"]) for g in gnbs)
    return len(gnbs), math.ceil(dus / cu_capacity)


def check_bundle(paths, plan_text: str) -> list[str]:
    """Every bundle file parses as JSON; the manifest and PNFD list match the plan."""
    body = json.loads(plan_text)["body"]
    files = {}
    for path in paths:
        try:
            files[Path(path).name] = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            return [f"bundle file {path}: {err}"]
    problems = []
    for name in ("manifest.json", "pnfd-list.json"):
        if name not in files:
            problems.append(f"bundle lacks {name}")
    if problems:
        return problems
    if len(files["manifest.json"]["gnbs"]) != len(body["gnbs"]):
        problems.append("manifest gNB count differs from the plan")
    if sorted(p["ru_id"] for p in files["pnfd-list.json"]) != sorted(body["selected_rus"]):
        problems.append("PNFD list differs from the plan's selected RUs")
    if not any(n.startswith("nsd-") for n in files) or not any(n.startswith("vnfd-") for n in files):
        problems.append("bundle lacks the NSD or VNFD excerpts")
    return problems

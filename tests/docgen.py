"""Seeded random document generators for round-trip testing.

Everything here produces *constructible* documents (field-level
invariants hold) so the codecs, not the validators, are what gets
exercised.  Generated topologies additionally pass the load-time checks
because parsing enforces them, and generated plans come from the real
planner over the reference inputs.
"""

from __future__ import annotations

import random

from ranslicer.builtin import builtin_catalog
from ranslicer.io import SliceRequest
from ranslicer.model import (
    BAND_BW_LIMITS_MHZ,
    BandRange,
    CarrierBand,
    Catalog,
    CuIlCapacity,
    CuSubsetKey,
    CuVnfd,
    DuIlCapacity,
    DuSubsetKey,
    DuVnfd,
    FiveQi,
    Flavor,
    FronthaulTech,
    GnbIlCapacity,
    GnbNsd,
    GnbSubsetKey,
    IlSubset,
    InstantiationLevel,
    McsSet,
    Priority,
    RadioConfig,
    RanNsst,
    RuLocation,
    RuPnfd,
    SchedulerPolicy,
    SliceRequirements,
    SNssai,
    Sst,
    VmSpec,
    VnfIlRef,
)
from ranslicer.planner import PlannerConfig, plan_slice
from ranslicer.radio import ProfilerPolicy, SlotFormatRow
from ranslicer.topology import (
    DeploymentArea,
    Pop,
    PopTier,
    Region,
    TransportLink,
    load_area,
    reference_area,
)

REGION_CLASSES = ("INDUSTRIAL", "SUBURBAN", "CITY_CENTER", "RURAL", "CAMPUS")

# Region combinations the builtin gNB NSD carries IL subsets for.
PLANNABLE_TARGETS = (
    ("city-center",),
    ("industrial",),
    ("suburban",),
    ("city-center", "industrial"),
    ("city-center", "suburban"),
    ("industrial", "suburban"),
    ("city-center", "industrial", "suburban"),
)


def _ident(rng: random.Random, prefix: str) -> str:
    return f"{prefix}-{rng.randrange(16**6):06x}"


def rand_fiveqi(rng: random.Random) -> FiveQi:
    return FiveQi(
        id=rng.randint(1, 99),
        priority_level=rng.randint(1, 99),
        packet_delay_budget_ms=round(rng.uniform(1.0, 500.0), 3),
        packet_error_rate=10.0 ** -rng.randint(2, 8),
    )


def rand_requirements(rng: random.Random, *, plannable: bool = False) -> SliceRequirements:
    if plannable:
        targets = rng.choice(PLANNABLE_TARGETS)
        latency = round(rng.uniform(5.0, 500.0), 3)
        dl = round(rng.uniform(0.05, 30.0), 3)
        ul = round(rng.uniform(0.05, 30.0), 3)
        density = round(rng.uniform(1.0, 500.0), 3)
    else:
        targets = tuple(_ident(rng, "region") for _ in range(rng.randint(1, 4)))
        latency = round(rng.uniform(0.1, 1e6), 3)
        dl = round(rng.uniform(0.0, 1000.0), 3)
        ul = round(rng.uniform(0.01, 1000.0), 3)
        density = round(rng.uniform(0.1, 1e6), 3)
    return SliceRequirements(
        latency_ms=latency,
        max_mobility_kmh=round(rng.uniform(0.0, 500.0), 3),
        throughput_ul_mbps=ul,
        throughput_dl_mbps=dl,
        ue_density_per_km2=density,
        reliability_pct=None if rng.random() < 0.5 else round(rng.uniform(90.0, 99.999), 4),
        priority=rng.choice(list(Priority)),
        ue_type=rng.choice(("sensors", "pedestrians", "vehicles", "cameras")),
        target_regions=targets,
    )


def rand_radio_config(rng: random.Random) -> RadioConfig:
    mu = rng.choice((0, 1, 2, 3))
    if mu == 3:
        ranges = [BandRange.MMWAVE_24250_52600]
    elif mu == 0:
        ranges = [BandRange.SUB6_450_6000]
    else:
        ranges = rng.choice(
            ([BandRange.SUB6_450_6000], [BandRange.MMWAVE_24250_52600],
             [BandRange.SUB6_450_6000, BandRange.MMWAVE_24250_52600])
        )
    bands = tuple(
        CarrierBand(r, round(rng.uniform(*BAND_BW_LIMITS_MHZ[r]), 2)) for r in ranges
    )
    return RadioConfig(
        numerology_mu=mu,
        bands=bands,
        slot_format_id=rng.randint(0, 61),
        five_qi=rand_fiveqi(rng),
        mcs_set=rng.choice(list(McsSet)),
        scheduler_policy=rng.choice(list(SchedulerPolicy)),
    )


def rand_snssai(rng: random.Random) -> SNssai:
    sd = None if rng.random() < 0.5 else f"{rng.randrange(16**6):06x}"
    return SNssai(rng.choice(list(Sst)), sd)


def rand_nsst(rng: random.Random) -> RanNsst:
    return RanNsst(
        nsst_id=_ident(rng, "nsst"),
        s_nssai=rand_snssai(rng),
        radio_config=rand_radio_config(rng),
        nsd_ref=_ident(rng, "nsd"),
        requirement_profile=rand_requirements(rng),
    )


def _rand_vm(rng: random.Random) -> VmSpec:
    return VmSpec(rng.randint(1, 64), round(rng.uniform(1.0, 4.0), 2), round(rng.uniform(2.0, 256.0), 2))


def _rand_du_subset(rng: random.Random) -> IlSubset:
    lo = rng.randint(1, 4)
    hi = rng.randint(lo, lo + 6)
    key = DuSubsetKey(rng.choice(REGION_CLASSES), rng.choice(list(FronthaulTech)), lo, hi)
    levels = tuple(
        InstantiationLevel(
            _ident(rng, "du-il"), _rand_vm(rng),
            DuIlCapacity(hi, round(rng.uniform(100.0, 50_000.0), 1)),
        )
        for _ in range(rng.randint(1, 3))
    )
    return IlSubset(key, levels)


def _rand_cu_subset(rng: random.Random) -> IlSubset:
    lo = rng.randint(1, 3)
    hi = rng.randint(lo, lo + 5)
    levels = tuple(
        InstantiationLevel(
            _ident(rng, "cu-il"), _rand_vm(rng),
            CuIlCapacity(rng.randint(lo, hi), round(rng.uniform(1_000.0, 300_000.0), 1)),
        )
        for _ in range(rng.randint(1, 3))
    )
    return IlSubset(CuSubsetKey(lo, hi), levels)


def _rand_gnb_subset(rng: random.Random, techs: frozenset[FronthaulTech]) -> IlSubset:
    pairs = tuple(
        (rng.choice(REGION_CLASSES), rng.choice(sorted(techs, key=lambda t: t.value)))
        for _ in range(rng.randint(1, 3))
    )
    levels = []
    for _ in range(rng.randint(1, 2)):
        du_refs = tuple(
            VnfIlRef(_ident(rng, "vnfd-du"), rng.randint(1, 2), _ident(rng, "du-il"))
            for _ in range(rng.randint(1, 3))
        )
        levels.append(
            InstantiationLevel(
                _ident(rng, "gnb-il"), _rand_vm(rng),
                GnbIlCapacity(
                    len(du_refs),
                    VnfIlRef(_ident(rng, "vnfd-cu"), 1, _ident(rng, "cu-il")),
                    du_refs,
                    round(rng.uniform(1_000.0, 200_000.0), 1),
                ),
            )
        )
    return IlSubset(GnbSubsetKey(pairs), tuple(levels))


def rand_catalog(rng: random.Random) -> Catalog:
    gnb = GnbNsd(
        _ident(rng, "nsd"),
        flavors=(
            Flavor(1, frozenset({FronthaulTech.CPRI}), None,
                   tuple(_rand_gnb_subset(rng, frozenset({FronthaulTech.CPRI}))
                         for _ in range(rng.randint(1, 2)))),
            Flavor(2, frozenset({FronthaulTech.ECPRI}), None,
                   tuple(_rand_gnb_subset(rng, frozenset({FronthaulTech.ECPRI}))
                         for _ in range(rng.randint(1, 2)))),
            Flavor(3, frozenset(FronthaulTech), None,
                   (_rand_gnb_subset(rng, frozenset(FronthaulTech)),)),
        ),
    )
    du = DuVnfd(
        _ident(rng, "vnfd-du"),
        flavors=(
            Flavor(1, frozenset({FronthaulTech.ECPRI}), 7,
                   tuple(_rand_du_subset(rng) for _ in range(rng.randint(1, 3)))),
            Flavor(2, frozenset({FronthaulTech.CPRI}), 8,
                   tuple(_rand_du_subset(rng) for _ in range(rng.randint(1, 3)))),
        ),
    )
    cu = CuVnfd(
        _ident(rng, "vnfd-cu"),
        flavors=(Flavor(1, frozenset(), 2, tuple(_rand_cu_subset(rng) for _ in range(rng.randint(1, 2)))),),
    )
    rus = tuple(
        RuPnfd(
            _ident(rng, "ru"),
            RuLocation(_ident(rng, "region"), _ident(rng, "cs"),
                       round(rng.uniform(-20, 20), 3), round(rng.uniform(-20, 20), 3)),
            rng.choice(list(FronthaulTech)),
        )
        for _ in range(rng.randint(0, 5))
    )
    return Catalog(
        nssts=tuple(rand_nsst(rng) for _ in range(rng.randint(0, 3))),
        gnb_nsds=(gnb,),
        cu_vnfds=(cu,),
        du_vnfds=(du,),
        ru_pnfds=rus,
    )


def rand_topology(rng: random.Random) -> DeploymentArea:
    n_regions = rng.randint(1, 3)
    n_edges = rng.randint(1, 3)
    regions = []
    pops = []
    links = []
    rus = []
    edge_ids = [f"pop-edge-{i}" for i in range(1, n_edges + 1)]
    for pop_id in edge_ids:
        pops.append(Pop(pop_id, PopTier.EDGE, rng.randint(64, 1024), round(rng.uniform(64, 2048), 1)))
    for r in range(1, n_regions + 1):
        region_id = f"region-{r}"
        agg_id = f"pop-agg-{r}"
        tech = rng.choice(list(FronthaulTech))
        sites = tuple(f"cs-{r}-{i}" for i in range(1, rng.randint(1, 4) + 1))
        pops.append(Pop(agg_id, PopTier.AGGREGATION, rng.randint(32, 512), round(rng.uniform(32, 1024), 1)))
        regions.append(
            Region(region_id, rng.choice(REGION_CLASSES), round(rng.uniform(0.5, 20.0), 2),
                   tech, sites, agg_id)
        )
        for pop_id in rng.sample(edge_ids, rng.randint(1, n_edges)):
            links.append(TransportLink(agg_id, pop_id, round(rng.uniform(0.2, 15.0), 2)))
        for i, site in enumerate(sites, start=1):
            rus.append(
                RuPnfd(f"ru-{r}-{i}", RuLocation(region_id, site, float(i), float(r)), tech)
            )
    if n_edges > 1 and rng.random() < 0.5:
        links.append(TransportLink(edge_ids[0], edge_ids[1], round(rng.uniform(0.2, 5.0), 2)))
    return load_area(DeploymentArea(tuple(regions), tuple(pops), tuple(links), tuple(rus)))


def rand_request(rng: random.Random) -> SliceRequest:
    snssai = rand_snssai(rng)
    return SliceRequest(snssai.sst, snssai.sd, rand_requirements(rng))


_PLAN_INPUTS = None


def rand_plan(rng: random.Random):
    global _PLAN_INPUTS
    if _PLAN_INPUTS is None:
        _PLAN_INPUTS = (builtin_catalog(), reference_area())
    catalog, area = _PLAN_INPUTS
    requirements = rand_requirements(rng, plannable=True)
    return plan_slice(requirements, rng.choice(list(Sst)), area, catalog)


def rand_policy(rng: random.Random) -> ProfilerPolicy:
    a = round(rng.uniform(2.5, 8.0), 2)
    b = round(a + rng.uniform(1.0, 30.0), 2)
    c = round(b + rng.uniform(1.0, 300.0), 2)
    r1 = round(rng.uniform(0.05, 0.9), 3)
    r2 = round(r1 + rng.uniform(0.5, 10.0), 3)
    return ProfilerPolicy(
        latency_to_mu_thresholds=((a, 3), (b, 2), (c, 1), (None, 0)),
        slot_format_table=(
            SlotFormatRow(10, 0.0, r1, 0, 13, 1),
            SlotFormatRow(45, r1, r2, 6, 6, 2),
            SlotFormatRow(28, r2, None, 12, 1, 1),
        ),
        fiveqi_table=tuple(rand_fiveqi(rng) for _ in range(rng.randint(1, 5))),
        mcs_threshold_mbps=round(rng.uniform(10.0, 500.0), 2),
        mobility_uplift_kmh=round(rng.uniform(50.0, 400.0), 1),
        min_latency_ms=round(rng.uniform(0.5, 2.4), 2),
        reference_cell_area_km2=round(rng.uniform(0.01, 1.0), 3),
        activity_factor=round(rng.uniform(0.01, 1.0), 3),
        spectral_efficiency_bps_per_hz=round(rng.uniform(1.0, 30.0), 2),
        narrowband_rate_threshold_mbps=round(rng.uniform(0.1, 5.0), 3),
    )


def rand_config(rng: random.Random) -> PlannerConfig:
    return PlannerConfig(
        cu_du_latency_budget_ms=round(rng.uniform(0.5, 30.0), 2),
        exact_solver_limit=rng.randint(0, 20),
    )


GENERATORS = {
    "CATALOG": rand_catalog,
    "TOPOLOGY": rand_topology,
    "SLICE_REQUEST": rand_request,
    "SLICE_PLAN": rand_plan,
    "PROFILER_POLICY": rand_policy,
    "PLANNER_CONFIG": rand_config,
}

"""Builtin reference catalog: three slice templates over one shared gNB NSD.

The templates cover the broadband / machine-type / low-latency service
archetypes and are compiled from their requirement profiles with the
default profiler policy.  VM sizings and IL capacities are illustrative
catalog data sized so that planning over the reference deployment area
is feasible; they are not normative.

``paper_example`` plans the three reference requests on this catalog and
the reference area, and checks every derived parameter against the
reference values pinned here (``ranslicer paper-example``).
"""

from __future__ import annotations

from operator import attrgetter

from .model import (
    CITY_CENTER,
    CU_SPLIT_OPTION,
    INDUSTRIAL,
    SPLIT_FOR_TECH,
    SUBURBAN,
    BandRange,
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
    McsSet,
    Priority,
    RadioConfig,
    SchedulerPolicy,
    SliceRequirements,
    Sst,
    VmSpec,
    VnfIlRef,
)
from .planner import plan_slice
from .radio import build_ran_nsst
from .topology import reference_area

GNB_NSD_ID = "nsd-gnb-v1"
CU_VNFD_ID = "vnfd-cu-v1"
DU_VNFD_ID = "vnfd-du-v1"

_CPRI = FronthaulTech.CPRI
_ECPRI = FronthaulTech.ECPRI


def reference_requests() -> dict[Sst, SliceRequirements]:
    """The three reference requirement rows the builtin templates serve."""
    return {
        Sst.EMBB: SliceRequirements(
            latency_ms=10.0,
            max_mobility_kmh=10.0,
            throughput_ul_mbps=50.0,
            throughput_dl_mbps=300.0,
            ue_density_per_km2=5_000.0,
            reliability_pct=None,
            priority=Priority.LOW,
            ue_type="Pedestrians",
            target_regions=("city-center",),
        ),
        # "Seconds to hours" latency tolerance, pinned at one hour.
        Sst.MMTC: SliceRequirements(
            latency_ms=3_600_000.0,
            max_mobility_kmh=0.0,
            throughput_ul_mbps=0.1,
            throughput_dl_mbps=0.1,
            ue_density_per_km2=500_000.0,
            reliability_pct=None,
            priority=Priority.MEDIUM,
            ue_type="Stationary sensors",
            target_regions=("city-center", "industrial", "suburban"),
        ),
        Sst.URLLC: SliceRequirements(
            latency_ms=5.0,
            max_mobility_kmh=250.0,
            throughput_ul_mbps=25.0,
            throughput_dl_mbps=1.0,
            ue_density_per_km2=50.0,
            reliability_pct=99.999,
            priority=Priority.HIGH,
            ue_type="Remote-controlled vehicles",
            target_regions=("suburban",),
        ),
    }


def _du_level(il_id: str, vcpu: int, ghz: float, ram: float, sites: int, mbps: float) -> InstantiationLevel:
    return InstantiationLevel(il_id, VmSpec(vcpu, ghz, ram), DuIlCapacity(sites, mbps))


def _cu_level(il_id: str, vcpu: int, ghz: float, ram: float, dus: int, mbps: float) -> InstantiationLevel:
    return InstantiationLevel(il_id, VmSpec(vcpu, ghz, ram), CuIlCapacity(dus, mbps))


def _builtin_du_vnfd() -> DuVnfd:
    ecpri_subsets = (
        IlSubset(
            DuSubsetKey(INDUSTRIAL, _ECPRI, 1, 2),
            (
                _du_level("du-e-ind-s2-l1", 4, 2.0, 8.0, 2, 2_000.0),
                _du_level("du-e-ind-s2-l2", 8, 2.0, 16.0, 2, 4_000.0),
                _du_level("du-e-ind-s2-l3", 12, 2.4, 24.0, 2, 8_000.0),
            ),
        ),
        IlSubset(
            DuSubsetKey(INDUSTRIAL, _ECPRI, 3, 4),
            (
                _du_level("du-e-ind-s4-l1", 6, 2.0, 12.0, 4, 3_000.0),
                _du_level("du-e-ind-s4-l2", 10, 2.4, 20.0, 4, 6_000.0),
                _du_level("du-e-ind-s4-l3", 16, 2.6, 32.0, 4, 12_000.0),
            ),
        ),
        IlSubset(
            DuSubsetKey(CITY_CENTER, _ECPRI, 1, 4),
            (
                _du_level("du-e-cc-s4-l1", 8, 2.4, 16.0, 4, 10_000.0),
                _du_level("du-e-cc-s4-l2", 16, 2.6, 32.0, 4, 40_000.0),
                _du_level("du-e-cc-s4-l3", 24, 3.0, 48.0, 4, 80_000.0),
            ),
        ),
        IlSubset(
            DuSubsetKey(CITY_CENTER, _ECPRI, 5, 8),
            (
                _du_level("du-e-cc-s8-l1", 12, 2.4, 24.0, 8, 20_000.0),
                _du_level("du-e-cc-s8-l2", 20, 2.6, 40.0, 8, 60_000.0),
                _du_level("du-e-cc-s8-l3", 32, 3.0, 64.0, 8, 100_000.0),
            ),
        ),
    )
    cpri_subsets = (
        IlSubset(
            DuSubsetKey(SUBURBAN, _CPRI, 1, 3),
            (
                _du_level("du-c-sub-s3-l1", 4, 2.0, 8.0, 3, 5_000.0),
                _du_level("du-c-sub-s3-l2", 8, 2.4, 16.0, 3, 12_000.0),
                _du_level("du-c-sub-s3-l3", 12, 2.6, 24.0, 3, 25_000.0),
            ),
        ),
        IlSubset(
            DuSubsetKey(SUBURBAN, _CPRI, 4, 6),
            (
                _du_level("du-c-sub-s6-l1", 6, 2.0, 12.0, 6, 6_000.0),
                _du_level("du-c-sub-s6-l2", 10, 2.4, 20.0, 6, 12_000.0),
                _du_level("du-c-sub-s6-l3", 16, 2.6, 32.0, 6, 24_000.0),
            ),
        ),
    )
    return DuVnfd(
        DU_VNFD_ID,
        flavors=(
            Flavor(1, frozenset({_ECPRI}), split_option=SPLIT_FOR_TECH[_ECPRI], il_subsets=ecpri_subsets),
            Flavor(2, frozenset({_CPRI}), split_option=SPLIT_FOR_TECH[_CPRI], il_subsets=cpri_subsets),
        ),
    )


def _builtin_cu_vnfd() -> CuVnfd:
    subsets = (
        IlSubset(
            CuSubsetKey(1, 2),
            (
                _cu_level("cu-s2-l1", 4, 2.4, 8.0, 1, 30_000.0),
                _cu_level("cu-s2-l2", 8, 2.6, 16.0, 2, 120_000.0),
                _cu_level("cu-s2-l3", 12, 3.0, 24.0, 2, 200_000.0),
            ),
        ),
        IlSubset(
            CuSubsetKey(3, 5),
            (
                _cu_level("cu-s5-l1", 8, 2.4, 16.0, 3, 60_000.0),
                _cu_level("cu-s5-l2", 12, 2.6, 24.0, 4, 90_000.0),
                _cu_level("cu-s5-l3", 16, 3.0, 32.0, 5, 150_000.0),
            ),
        ),
    )
    return CuVnfd(CU_VNFD_ID, flavors=(Flavor(1, frozenset(), split_option=CU_SPLIT_OPTION, il_subsets=subsets),))


def _cu_ref(il_id: str) -> VnfIlRef:
    return VnfIlRef(CU_VNFD_ID, 1, il_id)


def _du_ref(flavor_id: int, il_id: str) -> VnfIlRef:
    return VnfIlRef(DU_VNFD_ID, flavor_id, il_id)


def _gnb_level(il_id: str, vcpu: int, ghz: float, ram: float, cu_ref: VnfIlRef,
               du_refs: tuple[VnfIlRef, ...], mbps: float) -> InstantiationLevel:
    return InstantiationLevel(
        il_id, VmSpec(vcpu, ghz, ram), GnbIlCapacity(len(du_refs), cu_ref, du_refs, mbps)
    )


def _builtin_gnb_nsd() -> GnbNsd:
    flavor1 = Flavor(
        1,
        frozenset({_CPRI}),
        split_option=None,
        il_subsets=(
            IlSubset(
                GnbSubsetKey(((SUBURBAN, _CPRI),)),
                (
                    _gnb_level("gnb-f1-sub-l1", 10, 2.0, 20.0, _cu_ref("cu-s2-l1"),
                               (_du_ref(2, "du-c-sub-s6-l1"),), 6_000.0),
                    _gnb_level("gnb-f1-sub-l2", 20, 2.6, 40.0, _cu_ref("cu-s2-l1"),
                               (_du_ref(2, "du-c-sub-s6-l3"),), 24_000.0),
                ),
            ),
        ),
    )
    flavor2 = Flavor(
        2,
        frozenset({_ECPRI}),
        split_option=None,
        il_subsets=(
            IlSubset(
                GnbSubsetKey(((CITY_CENTER, _ECPRI),)),
                (
                    _gnb_level("gnb-f2-cc-l1", 16, 2.4, 32.0, _cu_ref("cu-s2-l1"),
                               (_du_ref(1, "du-e-cc-s8-l2"),), 30_000.0),
                    _gnb_level("gnb-f2-cc-l2", 56, 3.0, 112.0, _cu_ref("cu-s2-l3"),
                               (_du_ref(1, "du-e-cc-s4-l3"), _du_ref(1, "du-e-cc-s4-l3")), 160_000.0),
                ),
            ),
            IlSubset(
                GnbSubsetKey(((INDUSTRIAL, _ECPRI),)),
                (
                    _gnb_level("gnb-f2-ind-l1", 10, 2.0, 20.0, _cu_ref("cu-s2-l1"),
                               (_du_ref(1, "du-e-ind-s4-l1"),), 3_000.0),
                    _gnb_level("gnb-f2-ind-l2", 20, 2.6, 40.0, _cu_ref("cu-s2-l1"),
                               (_du_ref(1, "du-e-ind-s4-l3"),), 12_000.0),
                ),
            ),
            IlSubset(
                GnbSubsetKey(((CITY_CENTER, _ECPRI), (INDUSTRIAL, _ECPRI))),
                (
                    _gnb_level("gnb-f2-cc-ind-l1", 26, 2.4, 52.0, _cu_ref("cu-s2-l2"),
                               (_du_ref(1, "du-e-cc-s8-l1"), _du_ref(1, "du-e-ind-s4-l1")), 23_000.0),
                    _gnb_level("gnb-f2-cc-ind-l2", 36, 2.6, 72.0, _cu_ref("cu-s2-l2"),
                               (_du_ref(1, "du-e-cc-s8-l2"), _du_ref(1, "du-e-ind-s4-l1")), 63_000.0),
                ),
            ),
        ),
    )
    flavor3 = Flavor(
        3,
        frozenset({_CPRI, _ECPRI}),
        split_option=None,
        il_subsets=(
            IlSubset(
                GnbSubsetKey(((CITY_CENTER, _ECPRI), (INDUSTRIAL, _ECPRI), (SUBURBAN, _CPRI))),
                (
                    _gnb_level(
                        "gnb-f3-city-l1", 32, 2.4, 64.0, _cu_ref("cu-s5-l1"),
                        (_du_ref(1, "du-e-cc-s8-l1"), _du_ref(1, "du-e-ind-s4-l1"),
                         _du_ref(2, "du-c-sub-s6-l1")),
                        29_000.0,
                    ),
                    _gnb_level(
                        "gnb-f3-city-l2", 88, 3.0, 176.0, _cu_ref("cu-s5-l3"),
                        (_du_ref(1, "du-e-cc-s8-l3"), _du_ref(1, "du-e-ind-s4-l3"),
                         _du_ref(2, "du-c-sub-s3-l3"), _du_ref(2, "du-c-sub-s3-l3")),
                        150_000.0,
                    ),
                ),
            ),
            IlSubset(
                GnbSubsetKey(((CITY_CENTER, _ECPRI), (SUBURBAN, _CPRI))),
                (
                    _gnb_level("gnb-f3-cc-sub-l1", 22, 2.4, 44.0, _cu_ref("cu-s2-l2"),
                               (_du_ref(1, "du-e-cc-s8-l1"), _du_ref(2, "du-c-sub-s6-l1")), 26_000.0),
                    _gnb_level(
                        "gnb-f3-cc-sub-l2", 64, 3.0, 128.0, _cu_ref("cu-s5-l2"),
                        (_du_ref(1, "du-e-cc-s4-l3"), _du_ref(1, "du-e-cc-s4-l3"),
                         _du_ref(2, "du-c-sub-s3-l3"), _du_ref(2, "du-c-sub-s3-l3")),
                        90_000.0,
                    ),
                ),
            ),
            IlSubset(
                GnbSubsetKey(((INDUSTRIAL, _ECPRI), (SUBURBAN, _CPRI))),
                (
                    _gnb_level("gnb-f3-ind-sub-l1", 14, 2.0, 28.0, _cu_ref("cu-s2-l2"),
                               (_du_ref(1, "du-e-ind-s4-l1"), _du_ref(2, "du-c-sub-s6-l1")), 9_000.0),
                    _gnb_level(
                        "gnb-f3-ind-sub-l2", 42, 2.6, 84.0, _cu_ref("cu-s5-l1"),
                        (_du_ref(1, "du-e-ind-s4-l3"), _du_ref(2, "du-c-sub-s3-l3"),
                         _du_ref(2, "du-c-sub-s3-l3")),
                        60_000.0,
                    ),
                ),
            ),
        ),
    )
    return GnbNsd(GNB_NSD_ID, flavors=(flavor1, flavor2, flavor3))


def builtin_catalog() -> Catalog:
    """The reference catalog: three compiled templates, one shared gNB
    NSD, one CU and one DU VNFD, and the reference area's RU PNFDs."""
    requests = reference_requests()
    nssts = tuple(
        build_ran_nsst(profile, sst, GNB_NSD_ID)
        for sst, profile in sorted(requests.items(), key=lambda kv: kv[0].value)
    )
    return Catalog(
        nssts=nssts,
        gnb_nsds=(_builtin_gnb_nsd(),),
        cu_vnfds=(_builtin_cu_vnfd(),),
        du_vnfds=(_builtin_du_vnfd(),),
        ru_pnfds=reference_area().rus,
    )


# ---------------------------------------------------------------------------
# the reference example: the three reference requests, planned and checked

def _rus(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"ru-{prefix}-{i:02d}" for i in range(1, count + 1))


_SLICES = {"eMBB": Sst.EMBB, "mMTC": Sst.MMTC, "uRLLC": Sst.URLLC}

_SUB6, _MMWAVE = BandRange.SUB6_450_6000, BandRange.MMWAVE_24250_52600
_FIVEQI_FIELDS = attrgetter("id", "priority_level", "packet_delay_budget_ms", "packet_error_rate")

# One row per check, in the order they run: its name, how to read it off a
# plan, and its reference value for each slice in _SLICES order (None: not
# pinned; uRLLC's carrier bandwidths are left to the band range).
_EXPECTED = (
    ("numerology", lambda p: p.nsst.radio_config.numerology_mu, (2, 0, 3)),
    ("band ranges", lambda p: tuple(b.band_range for b in p.nsst.radio_config.bands),
     ((_SUB6, _MMWAVE), (_SUB6,), (_MMWAVE,))),
    ("carrier bandwidths", lambda p: tuple(b.carrier_bandwidth_mhz for b in p.nsst.radio_config.bands),
     ((100.0, 400.0), (5.0,), None)),
    ("slot format", lambda p: p.nsst.radio_config.slot_format_id, (28, 45, 10)),
    ("5QI", lambda p: _FIVEQI_FIELDS(p.nsst.radio_config.five_qi),
     ((80, 66, 10.0, 1e-6), (4, 50, 300.0, 1e-6), (81, 11, 5.0, 1e-5))),
    ("MCS set", lambda p: p.nsst.radio_config.mcs_set,
     (McsSet.EXTENDED_256QAM, McsSet.LTE_COMPATIBLE, McsSet.LTE_COMPATIBLE)),
    ("scheduler", lambda p: p.nsst.radio_config.scheduler_policy,
     (SchedulerPolicy.DYNAMIC_GUARANTEED_THROUGHPUT, SchedulerPolicy.SEMI_PERSISTENT,
      SchedulerPolicy.DYNAMIC_GUARANTEED_DELAY)),
    ("gNB NSD flavor", lambda p: {g.nsd_flavor_id for g in p.gnbs}, ({2}, {3}, {1})),
    ("selected RUs", lambda p: p.selected_rus,
     (_rus("cc", 8), _rus("cc", 8) + _rus("ind", 4) + _rus("sub", 6), _rus("sub", 6))),
    ("RU count", lambda p: len(p.selected_rus), (8, 18, 6)),
    ("gNB count", lambda p: len(p.gnbs), (1, 1, 1)),
    ("gNB IL subset key", lambda p: {g.nsd_il_subset.key for g in p.gnbs}, (
        {GnbSubsetKey(((CITY_CENTER, FronthaulTech.ECPRI),))},
        {GnbSubsetKey(((CITY_CENTER, FronthaulTech.ECPRI), (INDUSTRIAL, FronthaulTech.ECPRI),
                       (SUBURBAN, FronthaulTech.CPRI)))},
        {GnbSubsetKey(((SUBURBAN, FronthaulTech.CPRI),))},
    )),
)

_BAND_SHORT = {_SUB6: "SUB6", _MMWAVE: "MMWAVE"}


def _fmt_bands(config: RadioConfig) -> str:
    return " + ".join(
        f"{_BAND_SHORT[b.band_range]} {b.carrier_bandwidth_mhz:g} MHz" for b in config.bands
    )


def _fmt_fiveqi(config: RadioConfig) -> str:
    q = config.five_qi
    return (
        f"5QI={q.id} (prio {q.priority_level}, delay {q.packet_delay_budget_ms:g} ms, "
        f"loss {q.packet_error_rate:g})"
    )


def _fmt_subset_key(pairs) -> str:
    return " + ".join(f"{cls}/{tech.value}" for cls, tech in pairs)


def _render_table(rows: list[tuple[str, list[str]]], headers: list[str]) -> str:
    widths = [len(h) for h in headers]
    for label, cells in rows:
        widths[0] = max(widths[0], len(label))
        for i, cell in enumerate(cells, start=1):
            widths[i] = max(widths[i], len(cell))
    def line(label, cells):
        parts = [label.ljust(widths[0])] + [c.ljust(widths[i + 1]) for i, c in enumerate(cells)]
        return " | ".join(parts).rstrip()
    out = [line(headers[0], headers[1:])]
    out.append("-+-".join("-" * w for w in widths))
    for label, cells in rows:
        out.append(line(label, cells))
    return "\n".join(out)


def paper_example() -> tuple[str, list[str]]:
    """Plan the three reference requests against the builtin catalog and the
    reference area, and compare every pinned parameter of ``_EXPECTED``.

    Returns the report (a table of the derived parameters and the count of
    checks matched) and one ``"<slice>: <check>: expected ..., got ..."``
    line per mismatch."""
    catalog, area, requests = builtin_catalog(), reference_area(), reference_requests()
    plans = [plan_slice(requests[sst], sst, area, catalog) for sst in _SLICES.values()]
    checks = [(f"{label}: {name}", read(plan), wants[i])
              for i, (label, plan) in enumerate(zip(_SLICES, plans))
              for name, read, wants in _EXPECTED if wants[i] is not None]
    failures = [f"{check}: expected {want!r}, got {got!r}" for check, got, want in checks if got != want]

    def row(name: str, fn) -> tuple[str, list[str]]:
        return name, [fn(plan) for plan in plans]

    rows = [
        row("numerology", lambda p: f"mu={p.nsst.radio_config.numerology_mu}"),
        row("operation bands", lambda p: _fmt_bands(p.nsst.radio_config)),
        row("slot format", lambda p: f"#{p.nsst.radio_config.slot_format_id}"),
        row("5QI", lambda p: _fmt_fiveqi(p.nsst.radio_config)),
        row("MCS set", lambda p: p.nsst.radio_config.mcs_set.value),
        row("scheduler", lambda p: p.nsst.radio_config.scheduler_policy.value),
        row("selected RUs", lambda p: f"{len(p.selected_rus)} RUs ("
                                      + "+".join(r for r, _ in p.offered_load_mbps) + ")"),
        row("gNB count", lambda p: str(len(p.gnbs))),
        row("gNB NSD flavor", lambda p: f"#{p.gnbs[0].nsd_flavor_id}"),
        row("gNB IL subset", lambda p: _fmt_subset_key(p.gnbs[0].nsd_il_subset.key.served_regions)),
    ]
    report = "\n".join([
        "reference slice requests vs derived templates and plans",
        "",
        _render_table(rows, ["parameter", *_SLICES]),
        "",
        f"checks: {len(checks) - len(failures)}/{len(checks)} matched",
    ])
    return report, failures

"""Builtin reference catalog: three slice templates over one shared gNB NSD.

The templates cover the broadband / machine-type / low-latency service
archetypes and are compiled from their requirement profiles with the
default profiler policy.  VM sizings and IL capacities are illustrative
catalog data sized so that planning over the reference deployment area
is feasible; they are not normative.
"""

from __future__ import annotations

from .model import (
    CITY_CENTER,
    CU_SPLIT_OPTION,
    INDUSTRIAL,
    SPLIT_FOR_TECH,
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
    SliceRequirements,
    Sst,
    VmSpec,
    VnfIlRef,
)
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

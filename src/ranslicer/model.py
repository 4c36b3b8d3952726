"""Typed model of the harmonized RAN slice descriptor set.

Covers the slice-facing template (RAN NSST wrapping a radio
configuration), the NFV-facing descriptors (gNB NSD, CU/DU VNFDs, RU
PNFDs) and the requirement vector that drives template compilation.

Value types that feed the radio profiler (S-NSSAI, 5QI, radio config,
slice requirements) validate themselves at construction and raise
``ValueError`` on nonsense.  Catalog-structural types (flavors, IL
subsets, descriptors) deliberately accept broken content: catalog
consistency is reported, not raised, by ``ranslicer.validate`` so a
defective catalog can be loaded and diagnosed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property
from typing import NamedTuple, Sequence, Union


class Sst(IntEnum):
    """Slice/service type codes carried in an S-NSSAI."""

    EMBB = 1
    URLLC = 2
    MMTC = 3


class FronthaulTech(Enum):
    CPRI = "CPRI"
    ECPRI = "ECPRI"

    # Members are singletons, so the identity hash agrees with equality and
    # runs in C; Enum's own hashes the name in Python on every lookup.
    __hash__ = object.__hash__


# The descriptor set's fixed flavor rules: catalogs must honour them and
# planning keys off them.  gNB NSD flavor id -> the fronthaul techs it spans.
GNB_FLAVOR_TECHS: dict[int, frozenset[FronthaulTech]] = {
    1: frozenset({FronthaulTech.CPRI}),
    2: frozenset({FronthaulTech.ECPRI}),
    3: frozenset({FronthaulTech.CPRI, FronthaulTech.ECPRI}),
}

# DU-RU split option of the DU flavor for each fronthaul technology.
SPLIT_FOR_TECH: dict[FronthaulTech, int] = {
    FronthaulTech.ECPRI: 7,
    FronthaulTech.CPRI: 8,
}

# CU-DU split option of the CU VNFD's single flavor.
CU_SPLIT_OPTION = 2


class BandRange(Enum):
    SUB6_450_6000 = "SUB6_450_6000"
    MMWAVE_24250_52600 = "MMWAVE_24250_52600"


class McsSet(Enum):
    LTE_COMPATIBLE = "LTE_COMPATIBLE"
    EXTENDED_256QAM = "EXTENDED_256QAM"


class SchedulerPolicy(Enum):
    DYNAMIC_GUARANTEED_THROUGHPUT = "DYNAMIC_GUARANTEED_THROUGHPUT"
    SEMI_PERSISTENT = "SEMI_PERSISTENT"
    DYNAMIC_GUARANTEED_DELAY = "DYNAMIC_GUARANTEED_DELAY"


class Priority(Enum):
    LOW = "LOW"
    MEDIUM = "MEDIUM"
    HIGH = "HIGH"


# Region classes are open-ended catalog data; these three are the ones the
# reference deployment area uses.
INDUSTRIAL = "INDUSTRIAL"
SUBURBAN = "SUBURBAN"
CITY_CENTER = "CITY_CENTER"

# Carrier bandwidth limits per operation band range, MHz.
BAND_BW_LIMITS_MHZ: dict[BandRange, tuple[float, float]] = {
    BandRange.SUB6_450_6000: (5.0, 100.0),
    BandRange.MMWAVE_24250_52600: (5.0, 400.0),
}

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


@dataclass(frozen=True)
class SNssai:
    """Slice identity: service type plus optional differentiator tag.

    The differentiator is stored opaquely and never interpreted.
    """

    sst: Sst
    sd: str | None = None

    def __post_init__(self):
        if not isinstance(self.sst, Sst):
            object.__setattr__(self, "sst", Sst(self.sst))
        if self.sd is not None:
            if not self.sd:
                raise ValueError("sd must be non-empty when present")
            if len(self.sd) > 6 or not set(self.sd) <= _HEX_DIGITS:
                raise ValueError(f"sd must be at most 6 hex characters, got {self.sd!r}")


@dataclass(frozen=True)
class FiveQi:
    """QoS class: priority, packet delay budget and packet error rate."""

    id: int
    priority_level: int
    packet_delay_budget_ms: float
    packet_error_rate: float

    def __post_init__(self):
        if self.id <= 0 or self.priority_level <= 0:
            raise ValueError("5QI id and priority level must be positive")
        if self.packet_delay_budget_ms <= 0:
            raise ValueError("packet delay budget must be positive")
        if not 0 < self.packet_error_rate < 1:
            raise ValueError("packet error rate must lie in (0, 1)")


@dataclass(frozen=True)
class CarrierBand:
    band_range: BandRange
    carrier_bandwidth_mhz: float

    def __post_init__(self):
        lo, hi = BAND_BW_LIMITS_MHZ[self.band_range]
        if not lo <= self.carrier_bandwidth_mhz <= hi:
            raise ValueError(
                f"carrier bandwidth {self.carrier_bandwidth_mhz} MHz outside "
                f"[{lo}, {hi}] for {self.band_range.value}"
            )


@dataclass(frozen=True)
class RadioConfig:
    """The configuration-parameter half of a RAN NSST."""

    numerology_mu: int
    bands: tuple[CarrierBand, ...]
    slot_format_id: int
    five_qi: FiveQi
    mcs_set: McsSet
    scheduler_policy: SchedulerPolicy

    def __post_init__(self):
        if self.numerology_mu not in (0, 1, 2, 3):
            raise ValueError(f"numerology mu must be in 0..3, got {self.numerology_mu}")
        if not self.bands:
            raise ValueError("at least one operation band is required")
        if self.numerology_mu == 3 and any(
            b.band_range is not BandRange.MMWAVE_24250_52600 for b in self.bands
        ):
            raise ValueError("mu=3 is only supported in the 24250-52600 MHz range")


@dataclass(frozen=True)
class SliceRequirements:
    """Requirement vector a vertical submits for one slice."""

    latency_ms: float
    max_mobility_kmh: float
    throughput_ul_mbps: float
    throughput_dl_mbps: float
    ue_density_per_km2: float
    reliability_pct: float | None
    priority: Priority
    ue_type: str
    target_regions: tuple[str, ...]

    def __post_init__(self):
        if self.latency_ms <= 0:
            raise ValueError("latency must be positive")
        if self.max_mobility_kmh < 0:
            raise ValueError("mobility must be non-negative")
        if self.throughput_ul_mbps < 0 or self.throughput_dl_mbps < 0:
            raise ValueError("throughputs must be non-negative")
        if self.throughput_ul_mbps == 0 and self.throughput_dl_mbps == 0:
            raise ValueError("at least one of uplink/downlink throughput must be positive")
        if self.ue_density_per_km2 <= 0:
            raise ValueError("UE density must be positive")
        if self.reliability_pct is not None and not 0 < self.reliability_pct < 100:
            raise ValueError("reliability must lie in (0, 100) when specified")
        if not self.target_regions:
            raise ValueError("at least one target region is required")


@dataclass(frozen=True)
class RanNsst:
    """Deployment template for one slice subnet: identity, radio
    configuration, and a reference to the gNB NSD it instantiates."""

    nsst_id: str
    s_nssai: SNssai
    radio_config: RadioConfig
    nsd_ref: str
    requirement_profile: SliceRequirements


@dataclass(frozen=True)
class VmSpec:
    vcpu_count: int
    cpu_ghz: float
    ram_gb: float


@dataclass(frozen=True)
class VnfIlRef:
    """Pointer from a gNB NSD IL into a VNFD's flavor/IL space."""

    vnfd_id: str
    flavor_id: int
    il_id: str


@dataclass(frozen=True)
class DuIlCapacity:
    max_cell_sites: int
    aggregate_capacity_mbps: float


@dataclass(frozen=True)
class CuIlCapacity:
    max_dus: int
    aggregate_capacity_mbps: float


@dataclass(frozen=True)
class GnbIlCapacity:
    """gNB-level IL: how many DUs the gNB runs and which CU/DU ILs they
    map to.  The declared aggregate capacity may not exceed what the
    referenced CU and DU ILs can actually carry."""

    du_count: int
    cu_il_ref: VnfIlRef
    du_il_refs: tuple[VnfIlRef, ...]
    aggregate_capacity_mbps: float

    def runs(self, cu: tuple[str | None, IlSubset], du_vnfd_id: str | None, du_subsets: Sequence[IlSubset]) -> bool:
        """Whether this level runs ``cu`` (VNFD id, IL subset) and one DU per
        entry of ``du_subsets``: as many DUs and DU refs, a CU ref to an IL of the
        CU's subset, and DU refs to ``du_vnfd_id`` matched first-fit, one per DU."""
        if (self.du_count != len(du_subsets) or len(self.du_il_refs) != len(du_subsets)
                or self.cu_il_ref.vnfd_id != cu[0] or all(lvl.il_id != self.cu_il_ref.il_id for lvl in cu[1].levels)):
            return False
        free: list[set[str] | None] = [{level.il_id for level in s.levels} for s in du_subsets]
        for ref in self.du_il_refs:
            for i, ids in enumerate(free):
                if ids is not None and ref.il_id in ids and ref.vnfd_id == du_vnfd_id:
                    free[i] = None
                    break
            else:
                return False
        return True


RoleCapacity = Union[DuIlCapacity, CuIlCapacity, GnbIlCapacity]


@dataclass(frozen=True)
class InstantiationLevel:
    il_id: str
    vm_spec: VmSpec
    role_capacity: RoleCapacity


@dataclass(frozen=True)
class DuSubsetKey:
    """DU IL subsets are sized for a region archetype, a fronthaul
    technology and a range of cell sites served by one DU."""

    region_class: str
    fronthaul_tech: FronthaulTech
    min_cell_sites: int
    max_cell_sites: int

    def covers(self, cell_sites: int) -> bool:
        return self.min_cell_sites <= cell_sites <= self.max_cell_sites


@dataclass(frozen=True)
class CuSubsetKey:
    """CU IL subsets are sized for a range of served DUs."""

    min_dus: int
    max_dus: int

    def covers(self, dus: int) -> bool:
        return self.min_dus <= dus <= self.max_dus


@dataclass(frozen=True)
class GnbSubsetKey:
    """gNB NSD IL subsets are keyed by the multiset of
    (region class, fronthaul tech) pairs of the regions the gNB spans."""

    served_regions: tuple[tuple[str, FronthaulTech], ...]

    def __post_init__(self):
        # Canonical multiset order, so equal keys compare equal.
        object.__setattr__(
            self,
            "served_regions",
            tuple(sorted(self.served_regions, key=lambda p: (p[0], p[1].value))),
        )


SubsetKey = Union[DuSubsetKey, CuSubsetKey, GnbSubsetKey]


@dataclass(frozen=True)
class IlSubset:
    key: SubsetKey
    levels: tuple[InstantiationLevel, ...]


@dataclass(frozen=True)
class Flavor:
    """Deployment variant of a descriptor.

    gNB NSD and DU VNFD flavors are keyed by fronthaul technology; the CU
    VNFD's single flavor is keyed by the CU-DU split marker instead.
    ``split_option`` is ``SPLIT_FOR_TECH`` of the tech for DU flavors,
    ``CU_SPLIT_OPTION`` for the CU flavor, None for gNB NSD flavors.
    ``subsets_keyed`` and ``subset_ranges`` read subset indexes built on
    first use.  ``covering_subset`` and ``running_subset`` are the
    catalog's one home for the IL-subset selection rules.
    """

    flavor_id: int
    fronthaul_techs: frozenset[FronthaulTech]
    split_option: int | None
    il_subsets: tuple[IlSubset, ...]

    @cached_property
    def _subsets_by_key(self) -> dict[SubsetKey, tuple[IlSubset, ...]]:
        by_key: dict[SubsetKey, tuple[IlSubset, ...]] = {}
        for subset in self.il_subsets:
            by_key[subset.key] = by_key.get(subset.key, ()) + (subset,)
        return by_key

    def subsets_keyed(self, key: SubsetKey) -> tuple[IlSubset, ...]:
        """The flavor's IL subsets with ``key``, in flavor order."""
        return self._subsets_by_key.get(key, ())

    @cached_property
    def subset_ranges(self) -> dict[tuple, list[tuple[int, int, int]]]:
        """(min, max, position in ``il_subsets``) of each DU- and CU-keyed
        subset, grouped by (region class, tech) for DU keys and ``()`` for CU
        keys, in (min, max) range order, ties in flavor order."""
        groups: dict[tuple, list[tuple[int, int, int]]] = {}
        for i, subset in enumerate(self.il_subsets):
            key = subset.key
            if isinstance(key, DuSubsetKey):
                groups.setdefault((key.region_class, key.fronthaul_tech), []).append(
                    (key.min_cell_sites, key.max_cell_sites, i))
            elif isinstance(key, CuSubsetKey):
                groups.setdefault((), []).append((key.min_dus, key.max_dus, i))
        for ranges in groups.values():
            ranges.sort()
        return groups

    def covering_subset(self, group: tuple, size: int) -> IlSubset | None:
        """The DU and CU subset rule: the first subset of ``group``, in
        ``subset_ranges`` order, whose range covers ``size`` (a DU's cell
        sites or a CU's DUs); None if none does."""
        return next((self.il_subsets[i] for lo, hi, i in self.subset_ranges.get(group, ()) if lo <= size <= hi), None)

    def running_subset(self, key: GnbSubsetKey, cu: tuple[str | None, IlSubset], du_vnfd_id: str | None,
                       du_subsets: Sequence[IlSubset]) -> IlSubset | None:
        """The gNB subset rule: the first subset keyed ``key`` with a level
        that runs ``cu`` and the DUs (``GnbIlCapacity.runs``); None if none does."""
        return next((s for s in self.subsets_keyed(key) if any(
            isinstance(lvl.role_capacity, GnbIlCapacity) and lvl.role_capacity.runs(cu, du_vnfd_id, du_subsets)
            for lvl in s.levels)), None)


@dataclass(frozen=True)
class GnbNsd:
    descriptor_id: str
    flavors: tuple[Flavor, ...]

    def flavor(self, flavor_id: int) -> Flavor | None:
        return next((f for f in self.flavors if f.flavor_id == flavor_id), None)


@dataclass(frozen=True)
class CuVnfd:
    descriptor_id: str
    flavors: tuple[Flavor, ...]


@dataclass(frozen=True)
class DuVnfd:
    descriptor_id: str
    flavors: tuple[Flavor, ...]

    def flavor_for_tech(self, tech: FronthaulTech) -> Flavor | None:
        return next((f for f in self.flavors if tech in f.fronthaul_techs), None)


@dataclass(frozen=True)
class RuLocation:
    """Where an RU sits: its region, the cell site it radiates from, and
    planar coordinates in km for map rendering."""

    region_id: str
    cell_site: str
    x_km: float
    y_km: float


@dataclass(frozen=True)
class RuPnfd:
    ru_id: str
    location: RuLocation
    connection_tech: FronthaulTech


class ResolvedIl(NamedTuple):
    vnfd_id: str
    flavor: Flavor
    subset: IlSubset
    level: InstantiationLevel


@dataclass(frozen=True)
class Catalog:
    """One onboarded descriptor set: slice templates plus the NFV
    documents they reference.  Immutable after construction; ``ru`` reads
    an RU-id index built on first use (the first entry wins)."""

    nssts: tuple[RanNsst, ...] = ()
    gnb_nsds: tuple[GnbNsd, ...] = ()
    cu_vnfds: tuple[CuVnfd, ...] = ()
    du_vnfds: tuple[DuVnfd, ...] = ()
    ru_pnfds: tuple[RuPnfd, ...] = ()

    def gnb_nsd(self, descriptor_id: str) -> GnbNsd | None:
        return next((d for d in self.gnb_nsds if d.descriptor_id == descriptor_id), None)

    def vnfd(self, descriptor_id: str) -> CuVnfd | DuVnfd | None:
        for d in (*self.cu_vnfds, *self.du_vnfds):
            if d.descriptor_id == descriptor_id:
                return d
        return None

    @cached_property
    def _rus_by_id(self) -> dict[str, RuPnfd]:
        return {r.ru_id: r for r in reversed(self.ru_pnfds)}  # reversed: the first entry wins

    def ru(self, ru_id: str) -> RuPnfd | None:
        return self._rus_by_id.get(ru_id)

    def resolve_vnf_il(self, ref: VnfIlRef) -> ResolvedIl | None:
        """Follow a (vnfd, flavor, IL) reference; None if any hop dangles."""
        vnfd = self.vnfd(ref.vnfd_id)
        if vnfd is None:
            return None
        for flavor in vnfd.flavors:
            if flavor.flavor_id != ref.flavor_id:
                continue
            for subset in flavor.il_subsets:
                for level in subset.levels:
                    if level.il_id == ref.il_id:
                        return ResolvedIl(ref.vnfd_id, flavor, subset, level)
        return None


def level_capacity_mbps(level: InstantiationLevel) -> float:
    """Aggregate traffic capacity of an IL, uniform across DU/CU/gNB roles."""
    return level.role_capacity.aggregate_capacity_mbps

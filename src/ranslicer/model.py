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

from bisect import bisect_right
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
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


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _record_repr(self) -> str:
    fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
    return f"{self.__class__.__qualname__}({fields})"


def _record_getstate(self) -> dict:
    return {name: getattr(self, name) for name in self.__match_args__}


def _record_setstate(self, state: dict) -> None:
    for name, value in state.items():
        object.__setattr__(self, name, value)


def record(cls):
    """``@dataclass(frozen=True)`` for the package's records, built for a
    fraction of its import cost: dataclasses compiles six methods per class,
    each by its own ``exec``.

    Records are slotted: ``__slots__`` holds the field names, plus
    ``__dict__`` for a record that defines a ``cached_property`` index
    (``IlSubset``, ``Flavor``, ``Catalog``, ``DeploymentArea``), whose
    indexes live there, or whose body declares ``__slots__ = ("__dict__",)``
    for another cache (``IlSubset``, whose canonical text ``io`` keeps
    there).  Records take no weak references; nothing makes one.
    A class that exists cannot gain slots, so the record is made again from
    its namespace, as ``dataclass(slots=True)`` does.

    The frozen guards, ``__repr__`` and ``__getstate__``/``__setstate__``
    (a dict of field name to value, so records pickle at every protocol and
    copy, and a pickle made while records kept their fields in ``__dict__``
    still loads) are shared by every record.  ``__init__`` (each field written
    through its slot's setter, then ``__post_init__``), ``__eq__`` and
    ``__hash__`` (dataclasses' tuple forms) are generated per class and
    compiled by one ``exec``.  ``dataclass(cls, init=False, repr=False,
    eq=False)`` adds the fields and ``__match_args__``.  Every record has an
    authored docstring, so dataclasses builds no ``__doc__`` from its
    signature.  Fields, ``replace``, ``asdict``, equality, hashes, ``repr``,
    ``FrozenInstanceError`` and pickling behave as on a stock frozen
    dataclass; only ``__dataclass_params__`` differs, reading
    ``frozen=False`` and ``eq=False``.  A record's fields are plain annotated
    names, each with or without a default; records are not subclassed.
    """
    annotations = cls.__dict__.get("__annotations__", {})
    defaults = {f"_dflt_{name}": cls.__dict__[name] for name in annotations if name in cls.__dict__}
    dataclass(cls, init=False, repr=False, eq=False)
    if tuple(cls.__dataclass_fields__) != tuple(annotations):
        raise TypeError(f"{cls.__qualname__}: a record's fields are its plain annotated names")
    declared = cls.__dict__.get("__slots__", ())
    if declared not in ((), ("__dict__",)):
        raise TypeError(f"{cls.__qualname__}: a record may declare only __slots__ = ('__dict__',)")
    namespace = {name: value for name, value in cls.__dict__.items()
                 if name not in annotations and name not in ("__dict__", "__weakref__")}
    keeps_dict = declared or any(isinstance(value, cached_property) for value in namespace.values())
    namespace.update(__slots__=(*annotations, *(["__dict__"] if keeps_dict else [])),
                     __setattr__=_frozen_setattr, __delattr__=_frozen_delattr, __repr__=_record_repr,
                     __getstate__=_record_getstate, __setstate__=_record_setstate)
    qualname, cls = cls.__qualname__, type(cls.__name__, cls.__bases__, namespace)
    cls.__qualname__ = qualname
    params = [f"{name}=_dflt_{name}" if f"_dflt_{name}" in defaults else name for name in annotations]
    mine, theirs = (f"({','.join(f'{obj}.{name}' for name in annotations)},)" for obj in ("self", "other"))
    source = "\n".join([
        f"def __init__(self, {', '.join(params)}):",
        *(f" _set{i}(self, {name})" for i, name in enumerate(annotations)),
        *([" self.__post_init__()"] if hasattr(cls, "__post_init__") else []),
        "def __eq__(self, other):",
        " if other.__class__ is self.__class__:",
        f"  return {mine}=={theirs}",
        " return NotImplemented",
        "def __hash__(self):",
        f" return hash({mine})",
    ])
    setters = {f"_set{i}": cls.__dict__[name].__set__ for i, name in enumerate(annotations)}
    ns = {"__name__": cls.__module__, **defaults, **setters}
    exec(compile(source, f"<record {qualname}>", "exec"), ns)
    ns["__init__"].__annotations__ = {**annotations, "return": None}
    for name in ("__init__", "__eq__", "__hash__"):
        ns[name].__qualname__ = f"{qualname}.{name}"
        setattr(cls, name, ns[name])
    return cls


@record
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


@record
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


@record
class CarrierBand:
    """One operating band: its 3GPP frequency range and a carrier bandwidth within
    that range's limits (``BAND_BW_LIMITS_MHZ``)."""

    band_range: BandRange
    carrier_bandwidth_mhz: float

    def __post_init__(self):
        lo, hi = BAND_BW_LIMITS_MHZ[self.band_range]
        if not lo <= self.carrier_bandwidth_mhz <= hi:
            raise ValueError(
                f"carrier bandwidth {self.carrier_bandwidth_mhz} MHz outside "
                f"[{lo}, {hi}] for {self.band_range.value}"
            )


@record
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


@record
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


@record
class RanNsst:
    """Deployment template for one slice subnet: identity, radio
    configuration, and a reference to the gNB NSD it instantiates."""

    nsst_id: str
    s_nssai: SNssai
    radio_config: RadioConfig
    nsd_ref: str
    requirement_profile: SliceRequirements


@record
class VmSpec:
    """The virtual machine an instantiation level asks for."""

    vcpu_count: int
    cpu_ghz: float
    ram_gb: float


@record
class VnfIlRef:
    """Pointer from a gNB NSD IL into a VNFD's flavor/IL space."""

    vnfd_id: str
    flavor_id: int
    il_id: str


@record
class DuIlCapacity:
    """What a DU IL carries: cell sites and aggregate throughput."""

    max_cell_sites: int
    aggregate_capacity_mbps: float


@record
class CuIlCapacity:
    """What a CU IL carries: DUs and aggregate throughput."""

    max_dus: int
    aggregate_capacity_mbps: float


@record
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
        CU's subset, and DU refs to ``du_vnfd_id`` matched first-fit, one per DU.
        IL ids are looked up in each subset's ``IlSubset.level_ids``."""
        if (self.du_count != len(du_subsets) or len(self.du_il_refs) != len(du_subsets)
                or self.cu_il_ref.vnfd_id != cu[0] or self.cu_il_ref.il_id not in cu[1].level_ids):
            return False
        free: list[frozenset[str] | None] = [s.level_ids for s in du_subsets]
        for ref in self.du_il_refs:
            if ref.vnfd_id != du_vnfd_id:
                return False
            for i, ids in enumerate(free):
                if ids is not None and ref.il_id in ids:
                    free[i] = None
                    break
            else:
                return False
        return True


RoleCapacity = Union[DuIlCapacity, CuIlCapacity, GnbIlCapacity]


@record
class InstantiationLevel:
    """One size a VNF or the gNB can be deployed at: its VM and what it carries."""

    il_id: str
    vm_spec: VmSpec
    role_capacity: RoleCapacity


@record
class DuSubsetKey:
    """DU IL subsets are sized for a region archetype, a fronthaul
    technology and a range of cell sites served by one DU."""

    region_class: str
    fronthaul_tech: FronthaulTech
    min_cell_sites: int
    max_cell_sites: int


@record
class CuSubsetKey:
    """CU IL subsets are sized for a range of served DUs."""

    min_dus: int
    max_dus: int


@record
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


@record
class IlSubset:
    """The instantiation levels for one subset key, smallest first.
    ``level_ids``, the set of their IL ids, is built on first use and,
    like every index on a record, stays out of equality, hashing, ``repr``
    and the fields."""

    __slots__ = ("__dict__",)  # io.py keeps the subset's canonical text here, as it writes it once

    key: SubsetKey
    levels: tuple[InstantiationLevel, ...]

    @cached_property
    def level_ids(self) -> frozenset[str]:
        return frozenset([level.il_id for level in self.levels])


@record
class Flavor:
    """Deployment variant of a descriptor.

    gNB NSD and DU VNFD flavors are keyed by fronthaul technology; the CU
    VNFD's single flavor is keyed by the CU-DU split marker instead.
    ``split_option`` is ``SPLIT_FOR_TECH`` of the tech for DU flavors,
    ``CU_SPLIT_OPTION`` for the CU flavor, None for gNB NSD flavors.
    ``subsets_keyed``, ``subset_ranges`` and ``covering_subset`` read subset
    indexes built on first use from ``il_subsets`` alone, so no query adds
    to them.  ``covering_subset`` and ``running_subset`` are the catalog's
    one home for the IL-subset selection rules.
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

    @cached_property
    def _covering_index(self) -> dict[tuple, tuple[list[int], list[IlSubset | None]]]:
        """Per group of ``subset_ranges``: the sorted sizes where the covering
        subset can change (each range's min and max + 1), and the covering
        subset from each of them up to the next."""
        index = {}
        for group, ranges in self.subset_ranges.items():
            starts = sorted({size for lo, hi, _ in ranges if lo <= hi for size in (lo, hi + 1)})
            index[group] = (starts, [next((self.il_subsets[i] for lo, hi, i in ranges if lo <= size <= hi), None)
                                     for size in starts])
        return index

    def covering_subset(self, group: tuple, size: int) -> IlSubset | None:
        """The DU and CU subset rule: the first subset of ``group``, in
        ``subset_ranges`` order, whose range covers ``size`` (a DU's cell
        sites or a CU's DUs); None if none does.  One bisection of the
        group's breakpoints in an index built once from ``subset_ranges``."""
        starts, subsets = self._covering_index.get(group, ((), ()))
        k = bisect_right(starts, size)
        return subsets[k - 1] if k else None

    def running_subset(self, key: GnbSubsetKey, cu: tuple[str | None, IlSubset], du_vnfd_id: str | None,
                       du_subsets: Sequence[IlSubset]) -> IlSubset | None:
        """The gNB subset rule: the first subset keyed ``key`` with a level
        that runs ``cu`` and the DUs (``GnbIlCapacity.runs``); None if none does."""
        return next((s for s in self.subsets_keyed(key) if any(
            isinstance(lvl.role_capacity, GnbIlCapacity) and lvl.role_capacity.runs(cu, du_vnfd_id, du_subsets)
            for lvl in s.levels)), None)


@record
class GnbNsd:
    """The gNB network service descriptor: one flavor per fronthaul technology set."""

    descriptor_id: str
    flavors: tuple[Flavor, ...]

    def flavor(self, flavor_id: int) -> Flavor | None:
        return next((f for f in self.flavors if f.flavor_id == flavor_id), None)


@record
class CuVnfd:
    """The CU's VNF descriptor: one flavor, keyed by the CU-DU split marker."""

    descriptor_id: str
    flavors: tuple[Flavor, ...]


@record
class DuVnfd:
    """The DU's VNF descriptor: one flavor per fronthaul technology."""

    descriptor_id: str
    flavors: tuple[Flavor, ...]

    def flavor_for_tech(self, tech: FronthaulTech) -> Flavor | None:
        return next((f for f in self.flavors if tech in f.fronthaul_techs), None)


@record
class RuLocation:
    """Where an RU sits: its region, the cell site it radiates from, and
    planar coordinates in km for map rendering."""

    region_id: str
    cell_site: str
    x_km: float
    y_km: float


@record
class RuPnfd:
    """A radio unit's physical network function descriptor: where it sits and
    the fronthaul it connects over."""

    ru_id: str
    location: RuLocation
    connection_tech: FronthaulTech


class ResolvedIl(NamedTuple):
    vnfd_id: str
    flavor: Flavor
    subset: IlSubset
    level: InstantiationLevel


@record
class Catalog:
    """One onboarded descriptor set: slice templates plus the NFV
    documents they reference.  Immutable after construction; ``ru`` and
    ``resolve_vnf_il`` read indexes built on first use (the first entry wins),
    as are the sets ``cu_vnfd_ids`` and ``du_vnfd_ids``."""

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
    def cu_vnfd_ids(self) -> frozenset[str]:
        return frozenset(d.descriptor_id for d in self.cu_vnfds)

    @cached_property
    def du_vnfd_ids(self) -> frozenset[str]:
        return frozenset(d.descriptor_id for d in self.du_vnfds)

    @cached_property
    def _rus_by_id(self) -> dict[str, RuPnfd]:
        return {r.ru_id: r for r in reversed(self.ru_pnfds)}  # reversed: the first entry wins

    def ru(self, ru_id: str) -> RuPnfd | None:
        return self._rus_by_id.get(ru_id)

    @cached_property
    def _resolved_ils(self) -> dict[tuple[str, int, str], ResolvedIl]:
        index: dict[tuple[str, int, str], ResolvedIl] = {}
        # reversed: the first VNFD with an id wins, as in ``vnfd``
        for vnfd in {d.descriptor_id: d for d in reversed((*self.cu_vnfds, *self.du_vnfds))}.values():
            for flavor in vnfd.flavors:
                for subset in flavor.il_subsets:
                    for level in subset.levels:
                        key = (vnfd.descriptor_id, flavor.flavor_id, level.il_id)
                        if key not in index:  # then the first flavor, subset and level
                            index[key] = ResolvedIl(vnfd.descriptor_id, flavor, subset, level)
        return index

    def resolve_vnf_il(self, ref: VnfIlRef) -> ResolvedIl | None:
        """Follow a (vnfd, flavor, IL) reference; None if any hop dangles.
        Reads an index built on first use that keeps a scan's first match:
        the VNFD ``vnfd`` returns, then flavor, subset and level order."""
        return self._resolved_ils.get((ref.vnfd_id, ref.flavor_id, ref.il_id))


def level_capacity_mbps(level: InstantiationLevel) -> float:
    """Aggregate traffic capacity of an IL, uniform across DU/CU/gNB roles."""
    return level.role_capacity.aggregate_capacity_mbps


def repeats(ids: Sequence[str]) -> dict[str, int]:
    """The one repeated-id rule: each id listed more than once, with its count, in first-seen
    order.  It counts only after a ``set`` shows a repeat, as a ``Counter`` costs twice as much."""
    return {} if len(set(ids)) == len(ids) else {i: n for i, n in Counter(ids).items() if n > 1}


def listed(items: list[str]) -> list[str]:
    """The one bound on a listing in a message: the first ten items, then
    ``and N more, T in all`` when there are more."""
    return items if len(items) <= 10 else [*items[:10], f"and {len(items) - 10} more, {len(items)} in all"]

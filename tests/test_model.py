import ast
import copy
import dataclasses
import importlib
import inspect
import itertools
import operator
import pickle
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranslicer.model import (
    SUBURBAN,
    BandRange,
    CarrierBand,
    CuIlCapacity,
    CuSubsetKey,
    DuIlCapacity,
    DuSubsetKey,
    FiveQi,
    FronthaulTech,
    GnbIlCapacity,
    IlSubset,
    InstantiationLevel,
    Priority,
    RadioConfig,
    SliceRequirements,
    SNssai,
    Sst,
    VmSpec,
    VnfIlRef,
    repeats,
)


def test_sst_numeric_encoding():
    assert int(Sst.EMBB) == 1
    assert int(Sst.URLLC) == 2
    assert int(Sst.MMTC) == 3


def test_snssai_accepts_numeric_sst():
    assert SNssai(1).sst is Sst.EMBB


@pytest.mark.parametrize("sd", ["", "1234567", "xyz"])
def test_snssai_rejects_bad_sd(sd):
    with pytest.raises(ValueError):
        SNssai(Sst.EMBB, sd)


def test_snssai_accepts_hex_sd():
    assert SNssai(Sst.MMTC, "0a1b2c").sd == "0a1b2c"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(id=0, priority_level=1, packet_delay_budget_ms=1.0, packet_error_rate=0.5),
        dict(id=1, priority_level=1, packet_delay_budget_ms=0.0, packet_error_rate=0.5),
        dict(id=1, priority_level=1, packet_delay_budget_ms=1.0, packet_error_rate=1.0),
        dict(id=1, priority_level=1, packet_delay_budget_ms=1.0, packet_error_rate=0.0),
    ],
)
def test_fiveqi_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        FiveQi(**kwargs)


def test_carrier_band_limits():
    CarrierBand(BandRange.SUB6_450_6000, 100.0)
    CarrierBand(BandRange.MMWAVE_24250_52600, 400.0)
    with pytest.raises(ValueError):
        CarrierBand(BandRange.SUB6_450_6000, 101.0)
    with pytest.raises(ValueError):
        CarrierBand(BandRange.MMWAVE_24250_52600, 4.0)


def _fiveqi():
    return FiveQi(80, 66, 10.0, 1e-6)


def test_radio_config_mu3_requires_mmwave():
    from ranslicer.model import McsSet, SchedulerPolicy

    with pytest.raises(ValueError):
        RadioConfig(3, (CarrierBand(BandRange.SUB6_450_6000, 50.0),), 28, _fiveqi(),
                    McsSet.LTE_COMPATIBLE, SchedulerPolicy.SEMI_PERSISTENT)
    RadioConfig(3, (CarrierBand(BandRange.MMWAVE_24250_52600, 50.0),), 28, _fiveqi(),
                McsSet.LTE_COMPATIBLE, SchedulerPolicy.SEMI_PERSISTENT)


def test_radio_config_rejects_mu4_and_empty_bands():
    from ranslicer.model import McsSet, SchedulerPolicy

    with pytest.raises(ValueError):
        RadioConfig(4, (CarrierBand(BandRange.MMWAVE_24250_52600, 50.0),), 28, _fiveqi(),
                    McsSet.LTE_COMPATIBLE, SchedulerPolicy.SEMI_PERSISTENT)
    with pytest.raises(ValueError):
        RadioConfig(2, (), 28, _fiveqi(), McsSet.LTE_COMPATIBLE, SchedulerPolicy.SEMI_PERSISTENT)


def _requirements(**overrides):
    base = dict(
        latency_ms=10.0,
        max_mobility_kmh=10.0,
        throughput_ul_mbps=50.0,
        throughput_dl_mbps=300.0,
        ue_density_per_km2=5000.0,
        reliability_pct=None,
        priority=Priority.LOW,
        ue_type="pedestrians",
        target_regions=("city-center",),
    )
    base.update(overrides)
    return SliceRequirements(**base)


def test_requirements_need_some_throughput_and_a_region():
    with pytest.raises(ValueError):
        _requirements(throughput_ul_mbps=0.0, throughput_dl_mbps=0.0)
    with pytest.raises(ValueError):
        _requirements(target_regions=())
    with pytest.raises(ValueError):
        _requirements(latency_ms=0.0)
    with pytest.raises(ValueError):
        _requirements(reliability_pct=100.0)
    assert _requirements(throughput_dl_mbps=0.0).throughput_ul_mbps == 50.0


# ---------------------------------------------------------------------------
# GnbIlCapacity.runs against a brute-force matching oracle

_VM = VmSpec(2, 2.0, 4.0)
_CU_SUBSET = IlSubset(CuSubsetKey(1, 5), tuple(
    InstantiationLevel(f"cu-l{j}", _VM, CuIlCapacity(5, 1_000.0 * j)) for j in (1, 2)))


@st.composite
def _gnb_layouts(draw):
    """A gNB level and the DU subsets of 1-5 DUs over 1-3 DU subsets (with
    0-3 levels and disjoint IL ids) that it may or may not run.  A subset
    several DUs cite stands for one shared by DUs of different regions.
    The level starts as one that runs them, each DU ref taking an IL of
    the DU at its place in a drawn permutation; drawn faults then change
    du_count, the ref count, a ref's IL or VNFD id, or the CU ref."""
    subsets = [
        IlSubset(DuSubsetKey(SUBURBAN, FronthaulTech.CPRI, 1, 4), tuple(
            InstantiationLevel(f"du-{i}-l{j}", _VM, DuIlCapacity(4, 1_000.0 * (j + 1)))
            for j in range(draw(st.integers(0, 3)))))
        for i in range(draw(st.integers(1, 3)))
    ]
    du_subsets = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=5))
    faults = draw(st.sets(st.sampled_from(["du-count", "ref-count", "ref-il", "ref-vnfd", "cu-vnfd", "cu-il"])))
    any_il = st.sampled_from([lvl.il_id for s in subsets for lvl in s.levels] + ["du-missing", "cu-l1"])
    n_refs = len(du_subsets) + (draw(st.sampled_from([-1, 1])) if "ref-count" in faults else 0)
    order = draw(st.permutations(range(len(du_subsets))))
    refs = []
    for k in range(n_refs):
        own = [lvl.il_id for lvl in du_subsets[order[k]].levels] if k < len(order) else []
        il_id = draw(st.sampled_from(own) if own and ("ref-il" not in faults or draw(st.booleans())) else any_il)
        vnfd_id = "vnfd-cu" if "ref-vnfd" in faults and draw(st.booleans()) else "vnfd-du"
        refs.append(VnfIlRef(vnfd_id, 1, il_id))
    du_count = draw(st.sampled_from([n_refs, len(du_subsets) + 1, 0])) if "du-count" in faults else len(du_subsets)
    cu_ref = VnfIlRef("vnfd-du" if "cu-vnfd" in faults else "vnfd-cu", 1,
                      draw(st.sampled_from(["cu-missing", "du-0-l0"] if "cu-il" in faults else ["cu-l1", "cu-l2"])))
    return GnbIlCapacity(du_count, cu_ref, tuple(refs), 1_000.0), du_subsets


def _runs_oracle(role, cu, du_vnfd_id, du_subsets):
    """Straight from the definition: every assignment of refs to distinct DUs is tried."""
    cu_vnfd_id, cu_subset = cu
    if role.du_count != len(du_subsets) or len(role.du_il_refs) != len(du_subsets):
        return False
    if role.cu_il_ref.vnfd_id != cu_vnfd_id or role.cu_il_ref.il_id not in {lvl.il_id for lvl in cu_subset.levels}:
        return False
    if any(ref.vnfd_id != du_vnfd_id for ref in role.du_il_refs):
        return False
    return any(
        all(ref.il_id in {lvl.il_id for lvl in du_subsets[d].levels} for ref, d in zip(role.du_il_refs, dus))
        for dus in itertools.permutations(range(len(du_subsets)))
    )


@settings(max_examples=300, deadline=None)
@given(_gnb_layouts(), st.sampled_from(["vnfd-cu", "vnfd-cu-other"]))
def test_gnb_level_runs_matches_the_brute_force_oracle(layout, cu_vnfd_id):
    role, du_subsets = layout
    cu = (cu_vnfd_id, _CU_SUBSET)
    assert role.runs(cu, "vnfd-du", du_subsets) == _runs_oracle(role, cu, "vnfd-du", du_subsets)


def test_level_ids_leave_a_subset_equal_and_its_bytes_alone():
    from ranslicer.io import _codec, _text_of

    def make():
        return IlSubset(DuSubsetKey(SUBURBAN, FronthaulTech.CPRI, 1, 4), tuple(
            InstantiationLevel(f"du-l{j}", _VM, DuIlCapacity(4, 1_000.0 * j)) for j in (1, 2)))

    subset, fresh = make(), make()
    role = GnbIlCapacity(1, VnfIlRef("vnfd-cu", 1, "cu-l1"), (VnfIlRef("vnfd-du", 1, "du-l2"),), 1_000.0)
    assert role.runs(("vnfd-cu", _CU_SUBSET), "vnfd-du", [subset])
    assert subset.level_ids == {"du-l1", "du-l2"} and "level_ids" in vars(subset)
    assert "level_ids" not in vars(fresh)
    assert subset == fresh and hash(subset) == hash(fresh) and repr(subset) == repr(fresh)
    assert [f.name for f in dataclasses.fields(subset)] == ["key", "levels"]
    write = _codec(IlSubset).write
    assert _text_of(write, subset) == _text_of(write, fresh)


def test_flavor_subsets_keyed_are_in_flavor_order_and_invisible():
    from ranslicer.model import Flavor

    key, other = CuSubsetKey(1, 2), CuSubsetKey(3, 5)
    first, second, third = (IlSubset(k, (InstantiationLevel(f"cu-{i}", _VM, CuIlCapacity(2, 1.0)),))
                            for i, k in enumerate((key, other, key)))
    flavor = Flavor(1, frozenset(), 2, (first, second, third))
    fresh = Flavor(1, frozenset(), 2, (first, second, third))
    assert flavor.subsets_keyed(key) == (first, third) and flavor.subsets_keyed(other) == (second,)
    assert flavor.subsets_keyed(CuSubsetKey(1, 5)) == ()
    assert flavor == fresh and hash(flavor) == hash(fresh)


def test_subset_index_leaves_catalog_bytes_alone():
    from ranslicer.builtin import builtin_catalog
    from ranslicer.io import envelope_for, serialize_document

    catalog = builtin_catalog()
    before = serialize_document(envelope_for(catalog))
    for flavor in catalog.gnb_nsds[0].flavors:
        assert all(s in flavor.subsets_keyed(s.key) for s in flavor.il_subsets)
    assert serialize_document(envelope_for(catalog)) == before


# ---------------------------------------------------------------------------
# Flavor.covering_subset: the DU and CU subset rule

def _ranged_subset(i, key):
    role = CuIlCapacity(2, 1.0) if isinstance(key, CuSubsetKey) else DuIlCapacity(4, 1.0)
    return IlSubset(key, (InstantiationLevel(f"il-{i}", _VM, role),))


def test_flavor_subset_ranges_are_grouped_in_range_order_and_invisible():
    from ranslicer.model import Flavor, GnbSubsetKey

    cpri, ecpri = (SUBURBAN, FronthaulTech.CPRI), (SUBURBAN, FronthaulTech.ECPRI)
    keys = (DuSubsetKey(*cpri, 3, 4), CuSubsetKey(2, 5), DuSubsetKey(*cpri, 1, 4), DuSubsetKey(*ecpri, 1, 2),
            DuSubsetKey(*cpri, 1, 4), CuSubsetKey(1, 2), GnbSubsetKey((cpri,)))
    subsets = tuple(_ranged_subset(i, key) for i, key in enumerate(keys))
    flavor, fresh = (Flavor(1, frozenset(FronthaulTech), None, subsets) for _ in range(2))
    assert flavor.subset_ranges == {
        cpri: [(1, 4, 2), (1, 4, 4), (3, 4, 0)],  # the tie keeps flavor order
        ecpri: [(1, 2, 3)],
        (): [(1, 2, 5), (2, 5, 1)],
    }
    assert flavor.covering_subset(cpri, 3) is subsets[2] and flavor.covering_subset(cpri, 5) is None
    assert flavor.covering_subset((), 2) is subsets[5] and flavor.covering_subset((), 3) is subsets[1]
    assert flavor.covering_subset(("OTHER", FronthaulTech.CPRI), 1) is None
    assert flavor == fresh and hash(flavor) == hash(fresh)
    assert "subset_ranges" in vars(flavor) and "subset_ranges" not in vars(fresh)


def test_subset_range_index_leaves_catalog_bytes_alone():
    from ranslicer.builtin import builtin_catalog
    from ranslicer.io import envelope_for, serialize_document

    catalog = builtin_catalog()
    before = serialize_document(envelope_for(catalog))
    for flavor in (f for vnfd in (*catalog.du_vnfds, *catalog.cu_vnfds) for f in vnfd.flavors):
        assert flavor.subset_ranges and all(flavor.covering_subset(group, ranges[0][0]) is not None
                                            for group, ranges in flavor.subset_ranges.items())
    assert serialize_document(envelope_for(catalog)) == before
    assert catalog == builtin_catalog() and hash(catalog) == hash(builtin_catalog())


_BOUNDS = st.integers(0, 5)  # a small span, so ranges repeat, nest, touch and invert
_RANGED_KEYS = st.one_of(
    st.builds(CuSubsetKey, _BOUNDS, _BOUNDS),
    st.builds(DuSubsetKey, st.sampled_from([SUBURBAN, "OTHER"]), st.sampled_from(list(FronthaulTech)),
              _BOUNDS, _BOUNDS),
)


def _group(key):
    return () if isinstance(key, CuSubsetKey) else (key.region_class, key.fronthaul_tech)


def _covering_oracle(subsets, group, size):
    """Straight from the rule: of the group's subsets whose range holds
    ``size``, the least (min, max), the earliest in flavor order among ties."""
    def bounds(s):
        return (s.key.min_dus, s.key.max_dus) if isinstance(s.key, CuSubsetKey) else (
            s.key.min_cell_sites, s.key.max_cell_sites)
    covering = [s for s in subsets if _group(s.key) == group and bounds(s)[0] <= size <= bounds(s)[1]]
    return min(covering, key=bounds, default=None)  # min keeps the first of equal bounds


_UNKNOWN_GROUPS = [("UNKNOWN", FronthaulTech.CPRI), ("UNKNOWN",), (SUBURBAN,)]


@settings(max_examples=300, deadline=None)
@given(st.lists(_RANGED_KEYS, max_size=10))
def test_covering_subset_matches_the_oracle(keys):
    """Every size from below every range (the bounds are 0..5) through the
    gaps between ranges to beyond all of them, in each drawn group, the
    groups no key draws and groups no flavor can have."""
    from ranslicer.model import Flavor

    subsets = tuple(_ranged_subset(i, key) for i, key in enumerate(keys))
    flavor = Flavor(1, frozenset(FronthaulTech), None, subsets)
    groups = {_group(key) for key in keys} | {(), (SUBURBAN, FronthaulTech.CPRI), *_UNKNOWN_GROUPS}
    for group in groups:
        for size in range(-2, 10):
            assert flavor.covering_subset(group, size) is _covering_oracle(subsets, group, size), (group, size)


def test_covering_index_depends_on_the_catalog_alone():
    """After the first query, further queries (new sizes, unknown groups) add
    nothing to the flavor: its index is derived from ``il_subsets`` only."""
    from ranslicer.model import Flavor

    cpri = (SUBURBAN, FronthaulTech.CPRI)
    keys = (DuSubsetKey(*cpri, 1, 2), DuSubsetKey(*cpri, 4, 6), CuSubsetKey(1, 3), DuSubsetKey(*cpri, 2, 5))
    flavor = Flavor(1, frozenset(FronthaulTech), None, tuple(_ranged_subset(i, key) for i, key in enumerate(keys)))
    assert flavor.covering_subset(cpri, 3) is flavor.il_subsets[3]

    def snapshot():
        return {name: repr(value) for name, value in vars(flavor).items()}

    before = snapshot()
    for size in range(-100, 1_000):
        for group in (cpri, (), (SUBURBAN, FronthaulTech.ECPRI), *_UNKNOWN_GROUPS):
            flavor.covering_subset(group, size)
    assert snapshot() == before


# ---------------------------------------------------------------------------
# Catalog.resolve_vnf_il against a scan of the catalog

_IL_IDS = st.sampled_from(["x", "y", "z"])


@st.composite
def _vnfd_catalogs(draw):
    """CU and DU VNFDs whose VNFD, flavor and IL ids repeat within and across descriptors."""
    from ranslicer.model import Catalog, CuVnfd, DuVnfd, Flavor

    serial = itertools.count()  # every level differs, so a wrong pick is not equal to the right one

    def level():
        return InstantiationLevel(draw(_IL_IDS), _VM, CuIlCapacity(next(serial), 1.0))

    def subset():
        return IlSubset(CuSubsetKey(1, 2), tuple(level() for _ in range(draw(st.integers(0, 3)))))

    def flavor():
        subsets = tuple(subset() for _ in range(draw(st.integers(0, 2))))
        return Flavor(draw(st.integers(1, 2)), frozenset(), None, subsets)

    def vnfds(cls):
        return tuple(cls(draw(st.sampled_from(["a", "b"])), tuple(flavor() for _ in range(draw(st.integers(0, 2)))))
                     for _ in range(draw(st.integers(0, 3))))

    return Catalog(cu_vnfds=vnfds(CuVnfd), du_vnfds=vnfds(DuVnfd))


def _resolve_oracle(catalog, ref):
    """The scan: the first VNFD with the id (CU VNFDs first), then its first
    flavor with the id, in which the first subset and level with the IL id."""
    vnfd = next((d for d in (*catalog.cu_vnfds, *catalog.du_vnfds) if d.descriptor_id == ref.vnfd_id), None)
    if vnfd is None:
        return None
    return next(((flavor, subset, level) for flavor in vnfd.flavors if flavor.flavor_id == ref.flavor_id
                 for subset in flavor.il_subsets for level in subset.levels if level.il_id == ref.il_id), None)


@settings(max_examples=300, deadline=None)
@given(_vnfd_catalogs())
def test_resolve_vnf_il_matches_a_scan(catalog):
    for ref in itertools.starmap(VnfIlRef, itertools.product(["a", "b", "c"], [1, 2, 3], ["x", "y", "z", "w"])):
        resolved, expected = catalog.resolve_vnf_il(ref), _resolve_oracle(catalog, ref)
        if expected is None:
            assert resolved is None, ref
        else:
            assert resolved.vnfd_id == ref.vnfd_id, ref
            assert all(map(operator.is_, resolved[1:], expected)), ref


# ---------------------------------------------------------------------------
# model.record: every record behaves as a stock frozen dataclass

PACKAGE = Path(__file__).parent.parent / "src" / "ranslicer"
ROOT = Path(__file__).parent.parent


def _record_classes() -> dict[type, str | None]:
    """Every class of the package declared ``@record``, with its authored
    docstring (None for an undocumented class)."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list):
                cls = getattr(importlib.import_module(f"ranslicer.{path.stem}"), node.name)
                found[cls] = cls.__doc__ if ast.get_docstring(node) is not None else None
    return found


def _parsed_instances() -> dict[type, list]:
    """Record instances reachable from the documents in ``fixtures/`` and the
    pinned plans in ``tests/data/``, plus those a document of the other
    kinds (planner config, profiler policy) and a CU skeleton hold."""
    from ranslicer.io import envelope_for, parse_document, parse_path, serialize_document
    from ranslicer.planner import GnbPlan, GnbSkeleton, PlannerConfig
    from ranslicer.radio import default_policy

    envelopes = [parse_path(path) for path in [*sorted((ROOT / "fixtures").glob("*.json")),
                                               *sorted((ROOT / "tests" / "data").glob("plan_*.json"))]]
    envelopes += [parse_document(serialize_document(envelope_for(body)))
                  for body in (PlannerConfig(), PlannerConfig(5.0, 0), default_policy())]
    found: dict[type, dict[int, object]] = {}

    def walk(value):
        if isinstance(value, (tuple, frozenset)):
            for item in value:
                walk(item)
        elif dataclasses.is_dataclass(value) and id(value) not in found.setdefault(type(value), {}):
            found[type(value)][id(value)] = value
            for f in dataclasses.fields(value):
                walk(getattr(value, f.name))

    for envelope in envelopes:
        walk(envelope)
    for gnb in found[GnbPlan].values():
        walk(GnbSkeleton(gnb.cu.host_pop, gnb.cu.il_subset, gnb.dus))
    return {cls: list(by_id.values()) for cls, by_id in found.items()}


def _stock_twin(cls, doc):
    """``cls`` as ``@dataclass(frozen=True)`` builds it: the same fields,
    defaults, ``__post_init__``, name and authored docstring."""
    fields = [(f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, f.default)
              for f in dataclasses.fields(cls)]
    namespace = {"__doc__": doc, **({"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {})}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)


def _frozen_messages(obj, name) -> list[str]:
    messages = []
    for act in (lambda: setattr(obj, name, 1), lambda: delattr(obj, name)):
        with pytest.raises(dataclasses.FrozenInstanceError) as err:
            act()
        messages.append(str(err.value))
    return messages


def test_repeats_counts_each_repeated_id_in_first_seen_order():
    assert repeats([]) == repeats(("a", "b")) == {}
    found = repeats(["d", "b", "a", "d", "b", "c", "d"])
    assert list(found.items()) == [("d", 3), ("b", 2)]


def test_records_match_stock_frozen_dataclasses(monkeypatch):
    records, instances = _record_classes(), _parsed_instances()
    assert len(records) > 30 and set(records) <= set(instances)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    for cls, doc in records.items():
        twin = _stock_twin(cls, doc)
        twin.__module__ = cls.__module__
        names = [f.name for f in dataclasses.fields(cls)]
        assert [(f.name, f.type, f.default) for f in dataclasses.fields(cls)] == [
            (f.name, f.type, f.default) for f in dataclasses.fields(twin)], cls
        assert cls.__match_args__ == twin.__match_args__ == tuple(names), cls
        assert cls.__doc__ == twin.__doc__ and inspect.signature(cls) == inspect.signature(twin), cls
        xs = instances[cls]
        ys = [twin(**{name: getattr(x, name) for name in names}) for x in xs]
        for x, y in zip(xs, ys):
            assert repr(x) == repr(y), cls
            assert hash(x) == hash(y), cls
            assert x.__eq__(y) is NotImplemented and y.__eq__(x) is NotImplemented, cls
            assert x.__eq__(None) is NotImplemented and x != y and not x == y, cls
            assert dataclasses.asdict(x) == dataclasses.asdict(y), cls
            # a rebuilt frozenset may iterate in another order
            for back in [pickle.loads(pickle.dumps(x, protocol)) for protocol in protocols]:
                assert type(back) is cls and back is not x and back == x and hash(back) == hash(x), cls
            # A pickle made while records kept their fields in __dict__, as
            # the stock twin does, names the record's class and loads as one.
            with monkeypatch.context() as patch:
                patch.setattr(importlib.import_module(cls.__module__), cls.__name__, twin)
                old = [pickle.dumps(y, protocol) for protocol in protocols]
            for back in map(pickle.loads, old):
                assert type(back) is cls and back == x, cls
            shallow = copy.copy(x)
            assert type(shallow) is cls and shallow is not x and shallow == x, cls
            assert all(getattr(shallow, name) is getattr(x, name) for name in names), cls
        # each instance with the next (mostly unequal) and with an equal copy, both ways
        for (x1, y1), (x2, y2) in [*zip(zip(xs, ys), zip(xs[1:], ys[1:])),
                                   ((xs[0], ys[0]), (copy.deepcopy(xs[0]), copy.deepcopy(ys[0])))]:
            assert (x1 == x2, x2 == x1, x1 != x2, x2 != x1) == (y1 == y2, y2 == y1, y1 != y2, y2 != y1), cls
        changes = {names[-1]: getattr(xs[-1], names[-1])}
        assert dataclasses.replace(xs[0]) == xs[0], cls
        assert repr(dataclasses.replace(xs[0], **changes)) == repr(dataclasses.replace(ys[0], **changes)), cls
        for name in (names[0], "not_a_field"):
            assert _frozen_messages(xs[0], name) == _frozen_messages(ys[0], name), (cls, name)


def test_records_are_slotted():
    """A record's slots are its fields, plus ``__dict__`` for a record with
    ``cached_property`` indexes (``tests/test_source.py`` checks which); it
    takes no weak references."""
    for cls, xs in _parsed_instances().items():
        assert set(cls.__slots__) - {"__dict__"} == {f.name for f in dataclasses.fields(cls)}, cls
        assert hasattr(xs[0], "__dict__") == ("__dict__" in cls.__slots__), cls
        with pytest.raises(TypeError):
            weakref.ref(xs[0])
    assert not hasattr(SNssai(Sst.EMBB), "__dict__") and hasattr(IlSubset(CuSubsetKey(1, 2), ()), "__dict__")


def test_post_init_writes_a_slotted_field():
    # SNssai converts a plain int through object.__setattr__ in __post_init__.
    nssai = SNssai(2, "a1")
    assert nssai.sst is Sst.URLLC and nssai == SNssai(Sst.URLLC, "a1")
    assert pickle.loads(pickle.dumps(nssai, 0)).sst is Sst.URLLC

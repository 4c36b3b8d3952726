import itertools

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


@settings(max_examples=300, deadline=None)
@given(st.lists(_RANGED_KEYS, max_size=10), st.integers(0, 6))
def test_covering_subset_matches_the_oracle(keys, size):
    from ranslicer.model import Flavor

    subsets = tuple(_ranged_subset(i, key) for i, key in enumerate(keys))
    flavor = Flavor(1, frozenset(FronthaulTech), None, subsets)
    groups = {_group(key) for key in keys} | {(), (SUBURBAN, FronthaulTech.CPRI)}
    for group in groups:
        assert flavor.covering_subset(group, size) is _covering_oracle(subsets, group, size), group

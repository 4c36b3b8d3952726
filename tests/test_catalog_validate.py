"""Catalog validation: the builtin catalog is clean, single-fault
mutations give exactly the pinned report, and the report is
order-independent."""

import dataclasses
import random

import pytest

from ranslicer.model import (
    Catalog,
    CuIlCapacity,
    CuSubsetKey,
    CuVnfd,
    DuSubsetKey,
    DuVnfd,
    FronthaulTech,
    GnbNsd,
    IlSubset,
    VmSpec,
    VnfIlRef,
)
from ranslicer.validate import validate_catalog


def test_builtin_catalog_is_clean(catalog, area):
    assert validate_catalog(catalog) == []
    assert validate_catalog(catalog, area) == []


def test_builtin_template_values(catalog):
    from ranslicer.model import Sst

    embb = next(t for t in catalog.nssts if t.s_nssai.sst is Sst.EMBB)
    assert embb.radio_config.numerology_mu == 2
    assert embb.nsd_ref == "nsd-gnb-v1"
    mmtc = next(t for t in catalog.nssts if t.s_nssai.sst is Sst.MMTC)
    assert mmtc.radio_config.five_qi.id == 4
    assert mmtc.radio_config.five_qi.packet_delay_budget_ms == 300.0


def test_builtin_catalog_shape(catalog):
    assert len(catalog.nssts) == 3
    assert {int(t.s_nssai.sst) for t in catalog.nssts} == {1, 2, 3}
    assert len(catalog.gnb_nsds) == 1
    assert len(catalog.gnb_nsds[0].flavors) == 3
    assert len(catalog.cu_vnfds) == 1
    assert len(catalog.cu_vnfds[0].flavors) == 1
    assert len(catalog.du_vnfds) == 1
    assert len(catalog.du_vnfds[0].flavors) == 2
    assert len(catalog.ru_pnfds) == 18


def test_report_is_order_independent(catalog, area):
    rng = random.Random(7)
    for cat in (catalog, *(mutate(catalog) for mutate, _ in EXACT_REPORTS.values())):
        baseline = validate_catalog(cat, area)
        for _ in range(5):
            shuffled = Catalog(
                nssts=tuple(rng.sample(cat.nssts, len(cat.nssts))),
                gnb_nsds=tuple(rng.sample(cat.gnb_nsds, len(cat.gnb_nsds))),
                cu_vnfds=tuple(rng.sample(cat.cu_vnfds, len(cat.cu_vnfds))),
                du_vnfds=tuple(rng.sample(cat.du_vnfds, len(cat.du_vnfds))),
                ru_pnfds=tuple(rng.sample(cat.ru_pnfds, len(cat.ru_pnfds))),
            )
            assert validate_catalog(shuffled, area) == baseline


def test_validation_is_deterministic(catalog, area):
    first = validate_catalog(catalog, area)
    second = validate_catalog(catalog, area)
    assert first == second == []


def test_unknown_region_flagged_without_area(catalog, area):
    import dataclasses as dc

    stray = dc.replace(
        catalog.ru_pnfds[0],
        ru_id="ru-stray",
        location=dc.replace(catalog.ru_pnfds[0].location, region_id="atlantis"),
    )
    mutated = dc.replace(catalog, ru_pnfds=catalog.ru_pnfds + (stray,))
    assert validate_catalog(mutated) == []  # no area: RU checks are off
    report = validate_catalog(mutated, area)
    assert {v.rule for v in report} == {"unknown-region"}


# ---------------------------------------------------------------------------
# Exact reports: one fault per catalog, the whole report pinned as
# (document_id, path, rule, message) tuples.  Three cases pin quirks of the
# walk: a subset with the wrong key kind still contributes its IL ids to the
# duplicate check; a role mismatch ends the level checks of its subset, yet
# the kind's own per-level rules still run on the levels whose role fits; and
# the one-CPRI-one-eCPRI DU rule fires only with exactly two flavors, at
# path "flavors".

def _put(catalog: Catalog, descriptor) -> Catalog:
    """Replace the catalog's descriptor of the same type and id."""
    field = {GnbNsd: "gnb_nsds", DuVnfd: "du_vnfds", CuVnfd: "cu_vnfds"}[type(descriptor)]
    return dataclasses.replace(catalog, **{field: tuple(
        descriptor if d.descriptor_id == descriptor.descriptor_id else d
        for d in getattr(catalog, field)
    )})


def _flavor(descriptor, fi, **changes):
    flavors = list(descriptor.flavors)
    flavors[fi] = dataclasses.replace(flavors[fi], **changes)
    return dataclasses.replace(descriptor, flavors=tuple(flavors))


def _subset(descriptor, fi, si, **changes):
    subsets = list(descriptor.flavors[fi].il_subsets)
    subsets[si] = dataclasses.replace(subsets[si], **changes)
    return _flavor(descriptor, fi, il_subsets=tuple(subsets))


def _level(descriptor, fi, si, li, **changes):
    levels = list(descriptor.flavors[fi].il_subsets[si].levels)
    levels[li] = dataclasses.replace(levels[li], **changes)
    return _subset(descriptor, fi, si, levels=tuple(levels))


def _role(descriptor, fi, si, li, **changes):
    role = descriptor.flavors[fi].il_subsets[si].levels[li].role_capacity
    return _level(descriptor, fi, si, li, role_capacity=dataclasses.replace(role, **changes))


def _gnb(c):
    return c.gnb_nsds[0]


def _du(c):
    return c.du_vnfds[0]


def _cu(c):
    return c.cu_vnfds[0]


def _with_twin(descriptor, fi, si, key, suffix="-t"):
    """The descriptor with a copy of subset ``si`` of flavor ``fi``, IL ids
    suffixed ``suffix``, under ``key``, appended to that flavor."""
    subset = descriptor.flavors[fi].il_subsets[si]
    twin = IlSubset(key, tuple(dataclasses.replace(lvl, il_id=f"{lvl.il_id}{suffix}") for lvl in subset.levels))
    return _flavor(descriptor, fi, il_subsets=descriptor.flavors[fi].il_subsets + (twin,))


_DU_REF = VnfIlRef("vnfd-du-v1", 2, "du-c-sub-s6-l1")
_INDUSTRIAL_ECPRI = ("INDUSTRIAL", FronthaulTech.ECPRI)
_NEVER_SELECTED = "an earlier subset in range order covers [{}, {}]; it is never selected"

EXACT_REPORTS = {
    "gnb-two-flavors": (
        lambda c: _put(c, dataclasses.replace(_gnb(c), flavors=_gnb(c).flavors[:2])),
        [
            ("nsd-gnb-v1", "flavors", "flavor-count", "expected 3 flavors, found 2"),
        ],
    ),
    "du-three-flavors": (
        lambda c: _put(c, dataclasses.replace(
            _du(c), flavors=_du(c).flavors + (dataclasses.replace(_du(c).flavors[1], il_subsets=()),))),
        [
            ("vnfd-du-v1", "flavors", "flavor-count", "expected 2 flavors, found 3"),
            ("vnfd-du-v1", "flavors[2]", "empty-subsets", "flavor has no IL subsets"),
        ],
    ),
    "du-one-flavor": (
        lambda c: _put(c, dataclasses.replace(_du(c), flavors=_du(c).flavors[:1])),
        [
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0]", "gnb-il-capacity", "declared capacity 6000.0 exceeds CU/DU backing 0.0"),
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0].du_il_refs[0]", "dangling-reference", "DU IL VnfIlRef(vnfd_id='vnfd-du-v1', flavor_id=2, il_id='du-c-sub-s6-l1') not found"),
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[1]", "gnb-il-capacity", "declared capacity 24000.0 exceeds CU/DU backing 0.0"),
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[1].du_il_refs[0]", "dangling-reference", "DU IL VnfIlRef(vnfd_id='vnfd-du-v1', flavor_id=2, il_id='du-c-sub-s6-l3') not found"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[0].levels[0]", "gnb-il-capacity", "declared capacity 29000.0 exceeds CU/DU backing 23000.0"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[0].levels[0].du_il_refs[2]", "dangling-reference", "DU IL VnfIlRef(vnfd_id='vnfd-du-v1', flavor_id=2, il_id='du-c-sub-s6-l1') not found"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[0].levels[1]", "gnb-il-capacity", "declared capacity 150000.0 exceeds CU/DU backing 112000.0"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[0].levels[1].du_il_refs[2]", "dangling-reference", "DU IL VnfIlRef(vnfd_id='vnfd-du-v1', flavor_id=2, il_id='du-c-sub-s3-l3') not found"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[0].levels[1].du_il_refs[3]", "dangling-reference", "DU IL VnfIlRef(vnfd_id='vnfd-du-v1', flavor_id=2, il_id='du-c-sub-s3-l3') not found"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[1].levels[0]", "gnb-il-capacity", "declared capacity 26000.0 exceeds CU/DU backing 20000.0"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[1].levels[0].du_il_refs[1]", "dangling-reference", "DU IL VnfIlRef(vnfd_id='vnfd-du-v1', flavor_id=2, il_id='du-c-sub-s6-l1') not found"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[1].levels[1].du_il_refs[2]", "dangling-reference", "DU IL VnfIlRef(vnfd_id='vnfd-du-v1', flavor_id=2, il_id='du-c-sub-s3-l3') not found"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[1].levels[1].du_il_refs[3]", "dangling-reference", "DU IL VnfIlRef(vnfd_id='vnfd-du-v1', flavor_id=2, il_id='du-c-sub-s3-l3') not found"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[2].levels[0]", "gnb-il-capacity", "declared capacity 9000.0 exceeds CU/DU backing 3000.0"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[2].levels[0].du_il_refs[1]", "dangling-reference", "DU IL VnfIlRef(vnfd_id='vnfd-du-v1', flavor_id=2, il_id='du-c-sub-s6-l1') not found"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[2].levels[1]", "gnb-il-capacity", "declared capacity 60000.0 exceeds CU/DU backing 12000.0"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[2].levels[1].du_il_refs[1]", "dangling-reference", "DU IL VnfIlRef(vnfd_id='vnfd-du-v1', flavor_id=2, il_id='du-c-sub-s3-l3') not found"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[2].levels[1].du_il_refs[2]", "dangling-reference", "DU IL VnfIlRef(vnfd_id='vnfd-du-v1', flavor_id=2, il_id='du-c-sub-s3-l3') not found"),
            ("vnfd-du-v1", "flavors", "flavor-count", "expected 2 flavors, found 1"),
        ],
    ),
    "du-one-flavor-skips-pair-rule": (
        lambda c: dataclasses.replace(c, du_vnfds=c.du_vnfds + (dataclasses.replace(
            _du(c), descriptor_id="vnfd-du-v2", flavors=_du(c).flavors[:1]),)),
        [
            ("vnfd-du-v2", "flavors", "flavor-count", "expected 2 flavors, found 1"),
        ],
    ),
    "cu-two-flavors": (
        lambda c: _put(c, dataclasses.replace(
            _cu(c), flavors=_cu(c).flavors + (dataclasses.replace(_cu(c).flavors[0], flavor_id=2, il_subsets=()),))),
        [
            ("vnfd-cu-v1", "flavors", "flavor-count", "expected 1 flavor, found 2"),
            ("vnfd-cu-v1", "flavors[1]", "empty-subsets", "flavor has no IL subsets"),
        ],
    ),
    "cu-same-flavor-twice": (
        lambda c: _put(c, dataclasses.replace(_cu(c), flavors=_cu(c).flavors * 2)),
        [
            ("vnfd-cu-v1", "flavors", "flavor-count", "expected 1 flavor, found 2"),
            ("vnfd-cu-v1", "il:cu-s2-l1", "duplicate-id", "duplicate IL id"),
            ("vnfd-cu-v1", "il:cu-s2-l2", "duplicate-id", "duplicate IL id"),
            ("vnfd-cu-v1", "il:cu-s2-l3", "duplicate-id", "duplicate IL id"),
            ("vnfd-cu-v1", "il:cu-s5-l1", "duplicate-id", "duplicate IL id"),
            ("vnfd-cu-v1", "il:cu-s5-l2", "duplicate-id", "duplicate IL id"),
            ("vnfd-cu-v1", "il:cu-s5-l3", "duplicate-id", "duplicate IL id"),
        ],
    ),
    "gnb-flavor1-ecpri": (
        lambda c: _put(c, _flavor(_gnb(c), 0, fronthaul_techs=frozenset({FronthaulTech.ECPRI}))),
        [
            ("nsd-gnb-v1", "flavors[0]", "flavor-tech-mapping", "gNB flavor 1 must carry techs ['CPRI'] and no split option"),
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0].du_il_refs[0]", "tech-not-permitted", "DU flavor techs ['CPRI'] not permitted by gNB flavor 1"),
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[1].du_il_refs[0]", "tech-not-permitted", "DU flavor techs ['CPRI'] not permitted by gNB flavor 1"),
        ],
    ),
    "gnb-flavor-id-4": (
        lambda c: _put(c, _flavor(_gnb(c), 0, flavor_id=4)),
        [
            ("nsd-gnb-v1", "flavors[0]", "flavor-tech-mapping", "gNB flavor 4 must carry techs 1..3 and no split option"),
        ],
    ),
    "gnb-split-option": (
        lambda c: _put(c, _flavor(_gnb(c), 1, split_option=7)),
        [
            ("nsd-gnb-v1", "flavors[1]", "flavor-tech-mapping", "gNB flavor 2 must carry techs ['ECPRI'] and no split option"),
        ],
    ),
    "du-wrong-split": (
        lambda c: _put(c, _flavor(_du(c), 0, split_option=8)),
        [
            ("vnfd-du-v1", "flavors[0]", "flavor-tech-mapping", "ECPRI maps to split option 7, found 8"),
        ],
    ),
    "du-flavor-two-techs": (
        lambda c: _put(c, _flavor(_du(c), 1, fronthaul_techs=frozenset(FronthaulTech))),
        [
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0].du_il_refs[0]", "tech-not-permitted", "DU flavor techs ['CPRI', 'ECPRI'] not permitted by gNB flavor 1"),
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[1].du_il_refs[0]", "tech-not-permitted", "DU flavor techs ['CPRI', 'ECPRI'] not permitted by gNB flavor 1"),
            ("vnfd-du-v1", "flavors", "flavor-tech-mapping", "DU VNFD must carry one CPRI and one eCPRI flavor"),
            ("vnfd-du-v1", "flavors[1]", "flavor-tech-mapping", "DU flavor must carry exactly one fronthaul tech"),
        ],
    ),
    "cu-wrong-split": (
        lambda c: _put(c, _flavor(_cu(c), 0, split_option=7)),
        [
            ("vnfd-cu-v1", "flavors[0]", "flavor-tech-mapping", "CU flavor must declare split option 2"),
        ],
    ),
    "gnb-empty-subsets": (
        lambda c: _put(c, _flavor(_gnb(c), 0, il_subsets=())),
        [
            ("nsd-gnb-v1", "flavors[0]", "empty-subsets", "flavor has no IL subsets"),
        ],
    ),
    "du-empty-levels": (
        lambda c: _put(c, _subset(_du(c), 0, 0, levels=())),
        [
            ("vnfd-du-v1", "flavors[0].il_subsets[0]", "empty-levels", "IL subset has no levels"),
        ],
    ),
    "cu-empty-levels": (
        lambda c: _put(c, _subset(_cu(c), 0, 0, levels=())),
        [
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l1') not found"),
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[1].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l1') not found"),
            ("nsd-gnb-v1", "flavors[1].il_subsets[0].levels[0].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l1') not found"),
            ("nsd-gnb-v1", "flavors[1].il_subsets[0].levels[1].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l3') not found"),
            ("nsd-gnb-v1", "flavors[1].il_subsets[1].levels[0].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l1') not found"),
            ("nsd-gnb-v1", "flavors[1].il_subsets[1].levels[1].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l1') not found"),
            ("nsd-gnb-v1", "flavors[1].il_subsets[2].levels[0].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l2') not found"),
            ("nsd-gnb-v1", "flavors[1].il_subsets[2].levels[1].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l2') not found"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[1].levels[0].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l2') not found"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[2].levels[0].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l2') not found"),
            ("vnfd-cu-v1", "flavors[0].il_subsets[0]", "empty-levels", "IL subset has no levels"),
        ],
    ),
    "gnb-wrong-key-kind": (
        lambda c: _put(c, _subset(_gnb(c), 0, 0, key=_du(c).flavors[1].il_subsets[0].key)),
        [
            ("nsd-gnb-v1", "flavors[0].il_subsets[0]", "bad-subset-key", "expected a served-regions key"),
        ],
    ),
    "du-wrong-key-kind-still-counts-il-ids": (
        lambda c: _put(c, _flavor(_du(c), 0, il_subsets=_du(c).flavors[0].il_subsets + (
            IlSubset(CuSubsetKey(1, 2), _du(c).flavors[0].il_subsets[0].levels),))),
        [
            ("vnfd-du-v1", "flavors[0].il_subsets[4]", "bad-subset-key", "expected a DU cell-site key"),
            ("vnfd-du-v1", "il:du-e-ind-s2-l1", "duplicate-id", "duplicate IL id"),
            ("vnfd-du-v1", "il:du-e-ind-s2-l2", "duplicate-id", "duplicate IL id"),
            ("vnfd-du-v1", "il:du-e-ind-s2-l3", "duplicate-id", "duplicate IL id"),
        ],
    ),
    "cu-wrong-key-kind": (
        lambda c: _put(c, _subset(_cu(c), 0, 0, key=_du(c).flavors[0].il_subsets[0].key)),
        [
            ("vnfd-cu-v1", "flavors[0].il_subsets[0]", "bad-subset-key", "expected a served-DU-count key"),
        ],
    ),
    "du-inverted-range": (
        lambda c: _put(c, _subset(_du(c), 0, 0, key=dataclasses.replace(
            _du(c).flavors[0].il_subsets[0].key, min_cell_sites=3))),
        [
            ("vnfd-du-v1", "flavors[0].il_subsets[0]", "bad-subset-key", "cell-site range [3, 2] is invalid"),
        ],
    ),
    "du-subset-tech": (
        lambda c: _put(c, _subset(_du(c), 0, 0, key=dataclasses.replace(
            _du(c).flavors[0].il_subsets[0].key, fronthaul_tech=FronthaulTech.CPRI))),
        [
            ("vnfd-du-v1", "flavors[0].il_subsets[0]", "bad-subset-key", "subset fronthaul tech differs from its flavor"),
        ],
    ),
    "du-level-cell-sites": (
        lambda c: _put(c, _role(_du(c), 0, 1, 0, max_cell_sites=3)),
        [
            ("vnfd-du-v1", "flavors[0].il_subsets[1].levels[0]", "bad-subset-key", "level serves fewer cell sites than the subset range promises"),
        ],
    ),
    "cu-zero-min-dus": (
        lambda c: _put(c, _subset(_cu(c), 0, 0, key=CuSubsetKey(0, 2))),
        [
            ("vnfd-cu-v1", "flavors[0].il_subsets[0]", "bad-subset-key", "DU-count range [0, 2] is invalid"),
        ],
    ),
    "du-role-mismatch-then-cell-sites": (
        lambda c: _put(c, _role(_level(_du(c), 0, 0, 0, role_capacity=CuIlCapacity(1, 2000.0)),
                                0, 0, 2, max_cell_sites=1)),
        [
            ("vnfd-du-v1", "flavors[0].il_subsets[0].levels[0]", "role-mismatch", "expected DuIlCapacity role"),
            ("vnfd-du-v1", "flavors[0].il_subsets[0].levels[2]", "bad-subset-key", "level serves fewer cell sites than the subset range promises"),
        ],
    ),
    "gnb-role-mismatch-then-du-count": (
        lambda c: _put(c, _role(_level(_gnb(c), 1, 0, 0, role_capacity=CuIlCapacity(1, 2000.0)),
                                1, 0, 1, du_count=3)),
        [
            ("nsd-gnb-v1", "flavors[1].il_subsets[0].levels[0]", "role-mismatch", "expected GnbIlCapacity role"),
            ("nsd-gnb-v1", "flavors[1].il_subsets[0].levels[1]", "du-count-mismatch", "du_count=3 but 2 DU IL references"),
        ],
    ),
    "du-negative-capacity": (
        lambda c: _put(c, _role(_du(c), 0, 0, 0, aggregate_capacity_mbps=-5.0)),
        [
            ("vnfd-du-v1", "flavors[0].il_subsets[0].levels[0]", "non-positive-capacity", "aggregate_capacity_mbps must be positive"),
        ],
    ),
    "cu-zero-vcpu": (
        lambda c: _put(c, _level(_cu(c), 0, 0, 0, vm_spec=VmSpec(0, 2.4, 8.0))),
        [
            ("vnfd-cu-v1", "flavors[0].il_subsets[0].levels[0]", "non-positive-capacity", "VM sizing must be positive"),
        ],
    ),
    "cu-zero-max-dus": (
        lambda c: _put(c, _role(_cu(c), 0, 0, 0, max_dus=0)),
        [
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0]", "gnb-il-capacity", "du_count=1 exceeds referenced CU IL max_dus=0"),
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[1]", "gnb-il-capacity", "du_count=1 exceeds referenced CU IL max_dus=0"),
            ("nsd-gnb-v1", "flavors[1].il_subsets[0].levels[0]", "gnb-il-capacity", "du_count=1 exceeds referenced CU IL max_dus=0"),
            ("nsd-gnb-v1", "flavors[1].il_subsets[1].levels[0]", "gnb-il-capacity", "du_count=1 exceeds referenced CU IL max_dus=0"),
            ("nsd-gnb-v1", "flavors[1].il_subsets[1].levels[1]", "gnb-il-capacity", "du_count=1 exceeds referenced CU IL max_dus=0"),
            ("vnfd-cu-v1", "flavors[0].il_subsets[0].levels[0]", "non-positive-capacity", "max_dus must be positive"),
        ],
    ),
    "gnb-zero-du-count": (
        lambda c: _put(c, _role(_gnb(c), 0, 0, 0, du_count=0, du_il_refs=())),
        [
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0]", "gnb-il-capacity", "declared capacity 6000.0 exceeds CU/DU backing 0.0"),
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0]", "non-positive-capacity", "du_count must be positive"),
        ],
    ),
    "du-levels-reversed": (
        lambda c: _put(c, _subset(_du(c), 0, 0, levels=tuple(reversed(_du(c).flavors[0].il_subsets[0].levels)))),
        [
            ("vnfd-du-v1", "flavors[0].il_subsets[0].levels[1]", "non-monotone-levels", "VM resources decrease along the subset"),
            ("vnfd-du-v1", "flavors[0].il_subsets[0].levels[1]", "non-monotone-levels", "capacities decrease along the subset"),
            ("vnfd-du-v1", "flavors[0].il_subsets[0].levels[2]", "non-monotone-levels", "VM resources decrease along the subset"),
            ("vnfd-du-v1", "flavors[0].il_subsets[0].levels[2]", "non-monotone-levels", "capacities decrease along the subset"),
        ],
    ),
    "du-levels-stalled": (
        lambda c: _put(c, _level(_du(c), 0, 0, 1, role_capacity=_du(c).flavors[0].il_subsets[0].levels[0].role_capacity)),
        [
            ("vnfd-du-v1", "flavors[0].il_subsets[0].levels[1]", "non-monotone-levels", "no capacity field strictly increases between consecutive levels"),
        ],
    ),
    "cu-levels-stalled": (
        lambda c: _put(c, _subset(_cu(c), 0, 0, levels=(_cu(c).flavors[0].il_subsets[0].levels[0],) * 2)),
        [
            ("nsd-gnb-v1", "flavors[1].il_subsets[0].levels[1].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l3') not found"),
            ("nsd-gnb-v1", "flavors[1].il_subsets[2].levels[0].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l2') not found"),
            ("nsd-gnb-v1", "flavors[1].il_subsets[2].levels[1].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l2') not found"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[1].levels[0].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l2') not found"),
            ("nsd-gnb-v1", "flavors[2].il_subsets[2].levels[0].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l2') not found"),
            ("vnfd-cu-v1", "flavors[0].il_subsets[0].levels[1]", "non-monotone-levels", "no capacity field strictly increases between consecutive levels"),
            ("vnfd-cu-v1", "il:cu-s2-l1", "duplicate-id", "duplicate IL id"),
        ],
    ),
    "nsst-dangling-nsd-ref": (
        lambda c: dataclasses.replace(c, nssts=(dataclasses.replace(c.nssts[0], nsd_ref="nsd-missing"),)
                                      + c.nssts[1:]),
        [
            ("nsst-embb", "nsd_ref", "dangling-reference", "gNB NSD 'nsd-missing' not in catalog"),
        ],
    ),
    "gnb-dangling-cu-ref": (
        lambda c: _put(c, _role(_gnb(c), 0, 0, 0, cu_il_ref=VnfIlRef("vnfd-cu-v1", 1, "cu-missing"))),
        [
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-missing') not found"),
        ],
    ),
    "gnb-cu-ref-to-du-il": (
        lambda c: _put(c, _role(_gnb(c), 0, 0, 0, cu_il_ref=_DU_REF)),
        [
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0].cu_il_ref", "dangling-reference", "CU IL VnfIlRef(vnfd_id='vnfd-du-v1', flavor_id=2, il_id='du-c-sub-s6-l1') not found"),
        ],
    ),
    "gnb-dangling-du-vnfd": (
        lambda c: _put(c, _role(_gnb(c), 0, 0, 0, du_il_refs=(VnfIlRef("vnfd-du-missing", 2, "du-c-sub-s6-l1"),))),
        [
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0]", "gnb-il-capacity", "declared capacity 6000.0 exceeds CU/DU backing 0.0"),
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0].du_il_refs[0]", "dangling-reference", "DU IL VnfIlRef(vnfd_id='vnfd-du-missing', flavor_id=2, il_id='du-c-sub-s6-l1') not found"),
        ],
    ),
    "gnb-du-ref-to-cu-il": (
        lambda c: _put(c, _role(_gnb(c), 0, 0, 0, du_il_refs=(VnfIlRef("vnfd-cu-v1", 1, "cu-s2-l1"),))),
        [
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0]", "gnb-il-capacity", "declared capacity 6000.0 exceeds CU/DU backing 0.0"),
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0].du_il_refs[0]", "dangling-reference", "DU IL VnfIlRef(vnfd_id='vnfd-cu-v1', flavor_id=1, il_id='cu-s2-l1') not found"),
        ],
    ),
    "gnb-du-count": (
        lambda c: _put(c, _role(_gnb(c), 0, 0, 0, du_count=2)),
        [
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0]", "du-count-mismatch", "du_count=2 but 1 DU IL references"),
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[1]", "non-monotone-levels", "capacities decrease along the subset"),
        ],
    ),
    "gnb-f1-ecpri-du": (
        lambda c: _put(c, _role(_gnb(c), 0, 0, 0, du_il_refs=(VnfIlRef("vnfd-du-v1", 1, "du-e-cc-s8-l1"),))),
        [
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0].du_il_refs[0]", "tech-not-permitted", "DU flavor techs ['ECPRI'] not permitted by gNB flavor 1"),
        ],
    ),
    "gnb-il-overdeclared": (
        lambda c: _put(c, _role(_gnb(c), 0, 0, 0, aggregate_capacity_mbps=1e9)),
        [
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0]", "gnb-il-capacity", "declared capacity 1000000000.0 exceeds CU/DU backing 6000.0"),
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[1]", "non-monotone-levels", "capacities decrease along the subset"),
        ],
    ),
    "gnb-il-above-cu-max-dus": (
        lambda c: _put(c, _role(_gnb(c), 0, 0, 0, du_count=2, du_il_refs=(_DU_REF, _DU_REF))),
        [
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[0]", "gnb-il-capacity", "du_count=2 exceeds referenced CU IL max_dus=1"),
            ("nsd-gnb-v1", "flavors[0].il_subsets[0].levels[1]", "non-monotone-levels", "capacities decrease along the subset"),
        ],
    ),
    "duplicate-nsst": (
        lambda c: dataclasses.replace(c, nssts=c.nssts + c.nssts[:1]),
        [
            ("nsst-embb", "", "duplicate-id", "duplicate nsst id"),
        ],
    ),
    "duplicate-gnb-nsd": (
        lambda c: dataclasses.replace(c, gnb_nsds=c.gnb_nsds * 2),
        [
            ("nsd-gnb-v1", "", "duplicate-id", "duplicate gnb_nsd id"),
        ],
    ),
    "duplicate-vnfd": (
        lambda c: dataclasses.replace(c, du_vnfds=c.du_vnfds + (dataclasses.replace(
            _du(c), descriptor_id="vnfd-cu-v1"),)),
        [
            ("vnfd-cu-v1", "", "duplicate-id", "duplicate vnfd id"),
        ],
    ),
    "duplicate-ru": (
        lambda c: dataclasses.replace(c, ru_pnfds=c.ru_pnfds + c.ru_pnfds[:1]),
        [
            ("ru-cc-01", "", "duplicate-id", "duplicate ru_pnfd id"),
        ],
    ),
    "ru-unknown-region": (
        lambda c: dataclasses.replace(c, ru_pnfds=(dataclasses.replace(
            c.ru_pnfds[0], location=dataclasses.replace(c.ru_pnfds[0].location, region_id="atlantis")),)
            + c.ru_pnfds[1:]),
        [
            ("ru-cc-01", "location.region_id", "unknown-region", "region 'atlantis' not in deployment area"),
        ],
    ),
    "ru-site-outside-region": (
        lambda c: dataclasses.replace(c, ru_pnfds=(dataclasses.replace(
            c.ru_pnfds[0], location=dataclasses.replace(c.ru_pnfds[0].location, cell_site="x")),)
            + c.ru_pnfds[1:]),
        [
            ("ru-cc-01", "location.cell_site", "ru-site-mismatch", "cell site 'x' not in region city-center"),
        ],
    ),
    "du-subset-covered-by-an-earlier-one": (
        lambda c: _put(c, _with_twin(_du(c), 0, 1, DuSubsetKey(*_INDUSTRIAL_ECPRI, 1, 4))),
        [
            ("vnfd-du-v1", "flavors[0].il_subsets[1]", "unreachable-subset", _NEVER_SELECTED.format(3, 4)),
        ],
    ),
    "du-subset-keyed-as-an-earlier-one": (
        lambda c: _put(c, _with_twin(_du(c), 1, 0, _du(c).flavors[1].il_subsets[0].key)),
        [
            ("vnfd-du-v1", "flavors[1].il_subsets[2]", "unreachable-subset", _NEVER_SELECTED.format(1, 3)),
        ],
    ),
    "du-subsets-inside-an-earlier-wider-one": (  # (2, 3) reaches less far than (1, 4), which covers (3, 4) too
        lambda c: _put(c, _with_twin(_with_twin(_du(c), 0, 2, DuSubsetKey("CITY_CENTER", FronthaulTech.ECPRI, 2, 3)),
                                     0, 2, DuSubsetKey("CITY_CENTER", FronthaulTech.ECPRI, 3, 4), "-u")),
        [
            ("vnfd-du-v1", "flavors[0].il_subsets[4]", "unreachable-subset", _NEVER_SELECTED.format(2, 3)),
            ("vnfd-du-v1", "flavors[0].il_subsets[5]", "unreachable-subset", _NEVER_SELECTED.format(3, 4)),
        ],
    ),
    "du-inverted-range-is-only-a-bad-key": (  # not also unreachable, although (3, 4) reaches its max
        lambda c: _put(c, _with_twin(_du(c), 0, 1, DuSubsetKey(*_INDUSTRIAL_ECPRI, 5, 4))),
        [
            ("vnfd-du-v1", "flavors[0].il_subsets[4]", "bad-subset-key", "cell-site range [5, 4] is invalid"),
        ],
    ),
    "cu-subset-covered-by-an-earlier-one": (
        lambda c: _put(c, _with_twin(_cu(c), 0, 1, CuSubsetKey(2, 5))),
        [
            ("vnfd-cu-v1", "flavors[0].il_subsets[1]", "unreachable-subset", _NEVER_SELECTED.format(3, 5)),
        ],
    ),
    "ru-flipped-tech": (
        lambda c: dataclasses.replace(c, ru_pnfds=(dataclasses.replace(
            c.ru_pnfds[0], connection_tech=FronthaulTech.CPRI),) + c.ru_pnfds[1:]),
        [
            ("ru-cc-01", "connection_tech", "ru-tech-mismatch", "RU uses CPRI but region city-center runs ECPRI"),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(EXACT_REPORTS))
def test_single_fault_exact_report(name, catalog, area):
    mutate, expected = EXACT_REPORTS[name]
    report = [(v.document_id, v.path, v.rule, v.message) for v in validate_catalog(mutate(catalog), area)]
    assert report == expected


@pytest.mark.parametrize("twin_range", [(1, 3), (2, 3), (3, 3)])
def test_subset_an_earlier_one_covers_only_in_part_is_reachable(twin_range, catalog, area):
    """A DU subset beside the industrial eCPRI (1, 2) and (3, 4) ones whose
    range leaves each of them, and itself, a size no earlier one covers."""
    twinned = _put(catalog, _with_twin(_du(catalog), 0, 1, DuSubsetKey(*_INDUSTRIAL_ECPRI, *twin_range)))
    assert validate_catalog(twinned, area) == []


def test_dimension_dus_never_takes_an_unreachable_subset(catalog, area):
    from ranslicer.planner import dimension_dus

    twinned = _put(catalog, _with_twin(_du(catalog), 0, 1, DuSubsetKey(*_INDUSTRIAL_ECPRI, 1, 4)))
    [unreachable] = [v for v in validate_catalog(twinned, area) if v.rule == "unreachable-subset"]
    shadowed = _du(twinned).flavors[0].il_subsets[1]
    assert unreachable.path == "flavors[0].il_subsets[1]"
    region = area.region("industrial")
    for n_sites in range(1, 5):
        small = dataclasses.replace(region, cell_sites=region.cell_sites[:n_sites])
        assert all(du.il_subset is not shadowed for du in dimension_dus(small, 0.0, _du(twinned)))

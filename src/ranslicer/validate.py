"""Catalog consistency checking.

``validate_catalog`` walks a catalog and returns every rule violation as
data; an empty report means the catalog is fit for planning.  Violations
carry the owning document id, a JSON-pointer-ish path and a stable rule
id.  The report is sorted and de-duplicated, so it is independent of
document order and of the order in which violations are found.

The gNB NSD, DU VNFD and CU VNFD share one shape (descriptor -> flavor ->
IL subset -> level), so one walker, ``_check_descriptor``, visits each of
them once and applies the shared rules.  The ``_KINDS`` table holds what
differs per descriptor type: flavor count, subset-key type and noun, IL
role type and its count field, and hooks for the kind's own rules.
``unreachable-subset`` walks the DU and CU subsets in the order of
``Flavor.subset_ranges``, the order in which ``Flavor.covering_subset``
tries them, and reports one whose range an earlier one covers.
``flavor-tech-mapping`` checks flavors against the fixed flavor rules in
``ranslicer.model`` (``GNB_FLAVOR_TECHS``, ``SPLIT_FOR_TECH``, ``CU_SPLIT_OPTION``).
``duplicate-id`` applies ``model.repeats`` to each document-id list and to
each descriptor's IL ids, taken from all its flavors, subsets and levels.

Rule ids:

==================== =====================================================
flavor-count         descriptor has the wrong number of flavors (3/2/1)
flavor-tech-mapping  flavor id, fronthaul techs and split option disagree
empty-subsets        flavor carries no IL subsets
empty-levels         IL subset carries no levels
bad-subset-key       subset key has the wrong kind or an inverted range
role-mismatch        IL role does not match the descriptor kind
non-positive-capacity  VM sizing or capacity field is not positive
non-monotone-levels  levels not ascending / nothing strictly increases
dangling-reference   a cross-reference does not resolve
du-count-mismatch    gNB IL du_count differs from its DU reference count
tech-not-permitted   referenced DU flavor tech outside the gNB flavor
gnb-il-capacity      declared gNB IL capacity exceeds CU/DU backing
unreachable-subset   an earlier DU or CU subset in range order covers its range
duplicate-id         document or IL identifier used twice
unknown-region       RU names a region absent from the deployment area
ru-site-mismatch     RU cell site is not one of its region's sites
ru-tech-mismatch     RU connection tech differs from its region's
==================== =====================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .model import (
    CU_SPLIT_OPTION,
    GNB_FLAVOR_TECHS,
    SPLIT_FOR_TECH,
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
    repeats,
)

if TYPE_CHECKING:
    from .topology import DeploymentArea


class Violation(NamedTuple):
    document_id: str
    path: str
    rule: str
    message: str


def validate_catalog(catalog: Catalog, area: "DeploymentArea | None" = None) -> list[Violation]:
    """Return all invariant violations in ``catalog``; empty means valid.

    RU-versus-region site and technology checks need topology context and
    run only when ``area`` is given (the CLI passes it for ``validate
    <catalog> <topology>``).
    """
    report: list[Violation] = []
    _check_duplicate_ids(catalog, report)
    for descriptor in (*catalog.gnb_nsds, *catalog.du_vnfds, *catalog.cu_vnfds):
        _check_descriptor(descriptor, catalog, report)
    for nsst in catalog.nssts:
        if catalog.gnb_nsd(nsst.nsd_ref) is None:
            report.append(Violation(nsst.nsst_id, "nsd_ref", "dangling-reference",
                                    f"gNB NSD {nsst.nsd_ref!r} not in catalog"))
    if area is not None:
        _check_rus(catalog, area, report)
    return sorted(set(report))


def _check_duplicate_ids(catalog: Catalog, report: list[Violation]) -> None:
    for name, ids in (
        ("nsst", [t.nsst_id for t in catalog.nssts]),
        ("gnb_nsd", [d.descriptor_id for d in catalog.gnb_nsds]),
        ("vnfd", [d.descriptor_id for d in (*catalog.cu_vnfds, *catalog.du_vnfds)]),
        ("ru_pnfd", [r.ru_id for r in catalog.ru_pnfds]),
    ):
        report.extend(Violation(doc_id, "", "duplicate-id", f"duplicate {name} id") for doc_id in repeats(ids))


def _check_descriptor(descriptor: GnbNsd | DuVnfd | CuVnfd, catalog: Catalog, report: list[Violation]) -> None:
    kind = _KINDS[type(descriptor)]
    doc_id, flavors = descriptor.descriptor_id, descriptor.flavors
    if len(flavors) != kind.flavor_count:
        noun = "flavor" if kind.flavor_count == 1 else "flavors"
        report.append(Violation(doc_id, "flavors", "flavor-count",
                                f"expected {kind.flavor_count} {noun}, found {len(flavors)}"))
    report.extend(Violation(doc_id, "flavors", "flavor-tech-mapping", m) for m in kind.flavors_rule(flavors))
    # Every flavor's, subset's and level's IL ids, so a wrong-kind subset's count too.
    report.extend(Violation(doc_id, f"il:{il_id}", "duplicate-id", "duplicate IL id") for il_id in repeats(
        [level.il_id for flavor in flavors for subset in flavor.il_subsets for level in subset.levels]))
    for fi, flavor in enumerate(flavors):
        fpath = f"flavors[{fi}]"
        report.extend(Violation(doc_id, fpath, "flavor-tech-mapping", m) for m in kind.flavor_rule(flavor))
        if not flavor.il_subsets:
            report.append(Violation(doc_id, fpath, "empty-subsets", "flavor has no IL subsets"))
        for si, subset in enumerate(flavor.il_subsets):
            spath = f"{fpath}.il_subsets[{si}]"
            if not isinstance(subset.key, kind.key_type):
                report.append(Violation(doc_id, spath, "bad-subset-key", f"expected a {kind.key_noun} key"))
                continue
            report.extend(Violation(doc_id, spath, "bad-subset-key", m) for m in kind.key_rule(flavor, subset.key))
            _check_levels(doc_id, spath, subset, kind, report)
            for li, level in enumerate(subset.levels):
                if isinstance(level.role_capacity, kind.role_type):
                    kind.level_rule(doc_id, f"{spath}.levels[{li}]", flavor, subset.key, level, catalog, report)
        _check_reachable(doc_id, fpath, flavor, kind, report)


def _check_reachable(doc_id: str, path: str, flavor: Flavor, kind: _Kind, report: list[Violation]) -> None:
    """Walks each group of ``Flavor.subset_ranges``, the covering rule's
    order, over the valid ranges of the kind's keys; as every earlier range
    starts no later, the earlier ones cover a range exactly when the
    furthest-reaching one does."""
    for ranges in flavor.subset_ranges.values():
        reach = 0
        for lo, hi, si in ranges:
            if not (isinstance(flavor.il_subsets[si].key, kind.key_type) and 1 <= lo <= hi):
                continue
            if hi <= reach:
                report.append(Violation(doc_id, f"{path}.il_subsets[{si}]", "unreachable-subset",
                                        f"an earlier subset in range order covers [{lo}, {hi}]; it is never selected"))
            reach = max(reach, hi)


def _check_levels(doc_id: str, path: str, subset: IlSubset, kind: _Kind, report: list[Violation]) -> None:
    """Rules every IL subset obeys; a role mismatch ends them for the subset."""
    if not subset.levels:
        report.append(Violation(doc_id, path, "empty-levels", "IL subset has no levels"))
        return
    sizes = []
    for i, level in enumerate(subset.levels):
        lpath = f"{path}.levels[{i}]"
        role = level.role_capacity
        if not isinstance(role, kind.role_type):
            report.append(Violation(doc_id, lpath, "role-mismatch", f"expected {kind.role_type.__name__} role"))
            return
        vm = level.vm_spec
        if vm.vcpu_count <= 0 or vm.cpu_ghz <= 0 or vm.ram_gb <= 0:
            report.append(Violation(doc_id, lpath, "non-positive-capacity", "VM sizing must be positive"))
        caps = (getattr(role, kind.count_field), role.aggregate_capacity_mbps)
        for cap_name, value in zip((kind.count_field, "aggregate_capacity_mbps"), caps):
            if value <= 0:
                report.append(Violation(doc_id, lpath, "non-positive-capacity", f"{cap_name} must be positive"))
        sizes.append((lpath, (vm.vcpu_count, vm.cpu_ghz, vm.ram_gb), caps))
    for (_, prev_vm, prev_caps), (lpath, cur_vm, cur_caps) in zip(sizes, sizes[1:]):
        if any(c < p for p, c in zip(prev_vm, cur_vm)):
            report.append(Violation(doc_id, lpath, "non-monotone-levels", "VM resources decrease along the subset"))
        if any(c < p for p, c in zip(prev_caps, cur_caps)):
            report.append(Violation(doc_id, lpath, "non-monotone-levels", "capacities decrease along the subset"))
        elif not any(c > p for p, c in zip(prev_caps, cur_caps)):
            report.append(Violation(doc_id, lpath, "non-monotone-levels",
                                    "no capacity field strictly increases between consecutive levels"))


def _gnb_flavor(flavor: Flavor) -> Iterator[str]:
    expected = GNB_FLAVOR_TECHS.get(flavor.flavor_id)
    if expected is None or flavor.fronthaul_techs != expected or flavor.split_option is not None:
        yield (f"gNB flavor {flavor.flavor_id} must carry techs "
               f"{sorted(t.value for t in expected) if expected else '1..3'} and no split option")


def _check_gnb_il(doc_id: str, path: str, flavor: Flavor, key: GnbSubsetKey, level: InstantiationLevel,
                  catalog: Catalog, report: list[Violation]) -> None:
    role: GnbIlCapacity = level.role_capacity
    if role.du_count != len(role.du_il_refs):
        report.append(
            Violation(doc_id, path, "du-count-mismatch",
                      f"du_count={role.du_count} but {len(role.du_il_refs)} DU IL references")
        )
    cu = catalog.resolve_vnf_il(role.cu_il_ref)
    if cu is None or not isinstance(cu.level.role_capacity, CuIlCapacity) or cu.vnfd_id not in catalog.cu_vnfd_ids:
        report.append(
            Violation(doc_id, f"{path}.cu_il_ref", "dangling-reference",
                      f"CU IL {role.cu_il_ref} not found")
        )
        cu = None
    du_capacity = 0.0
    for ri, ref in enumerate(role.du_il_refs):
        rpath = f"{path}.du_il_refs[{ri}]"
        du = catalog.resolve_vnf_il(ref)
        if du is None or not isinstance(du.level.role_capacity, DuIlCapacity) or du.vnfd_id not in catalog.du_vnfd_ids:
            report.append(Violation(doc_id, rpath, "dangling-reference", f"DU IL {ref} not found"))
            continue
        du_capacity += du.level.role_capacity.aggregate_capacity_mbps
        if not du.flavor.fronthaul_techs <= flavor.fronthaul_techs:
            report.append(
                Violation(doc_id, rpath, "tech-not-permitted",
                          f"DU flavor techs {sorted(t.value for t in du.flavor.fronthaul_techs)} "
                          f"not permitted by gNB flavor {flavor.flavor_id}")
            )
    if cu is not None and len(role.du_il_refs) == role.du_count:
        cu_role: CuIlCapacity = cu.level.role_capacity
        backing = min(cu_role.aggregate_capacity_mbps, du_capacity)
        if role.du_count > cu_role.max_dus:
            report.append(
                Violation(doc_id, path, "gnb-il-capacity",
                          f"du_count={role.du_count} exceeds referenced CU IL max_dus={cu_role.max_dus}")
            )
        if role.aggregate_capacity_mbps > backing:
            report.append(
                Violation(doc_id, path, "gnb-il-capacity",
                          f"declared capacity {role.aggregate_capacity_mbps} exceeds CU/DU backing {backing}")
            )


def _du_flavor(flavor: Flavor) -> Iterator[str]:
    if len(flavor.fronthaul_techs) != 1:
        yield "DU flavor must carry exactly one fronthaul tech"
        return
    (tech,) = flavor.fronthaul_techs
    if flavor.split_option != SPLIT_FOR_TECH[tech]:
        yield f"{tech.value} maps to split option {SPLIT_FOR_TECH[tech]}, found {flavor.split_option}"


def _du_flavor_pair(flavors: tuple[Flavor, ...]) -> Iterator[str]:
    techs = {tech for f in flavors if len(f.fronthaul_techs) == 1 for tech in f.fronthaul_techs}
    if len(flavors) == 2 and techs != {FronthaulTech.CPRI, FronthaulTech.ECPRI}:
        yield "DU VNFD must carry one CPRI and one eCPRI flavor"


def _du_key(flavor: Flavor, key: DuSubsetKey) -> Iterator[str]:
    if not 1 <= key.min_cell_sites <= key.max_cell_sites:
        yield f"cell-site range [{key.min_cell_sites}, {key.max_cell_sites}] is invalid"
    if len(flavor.fronthaul_techs) == 1 and key.fronthaul_tech not in flavor.fronthaul_techs:
        yield "subset fronthaul tech differs from its flavor"


def _du_level(doc_id: str, path: str, flavor: Flavor, key: DuSubsetKey, level: InstantiationLevel,
              catalog: Catalog, report: list[Violation]) -> None:
    if level.role_capacity.max_cell_sites < key.max_cell_sites:
        report.append(Violation(doc_id, path, "bad-subset-key",
                                "level serves fewer cell sites than the subset range promises"))


def _cu_flavor(flavor: Flavor) -> Iterator[str]:
    if flavor.split_option != CU_SPLIT_OPTION:
        yield f"CU flavor must declare split option {CU_SPLIT_OPTION}"


def _cu_key(flavor: Flavor, key: CuSubsetKey) -> Iterator[str]:
    if not 1 <= key.min_dus <= key.max_dus:
        yield f"DU-count range [{key.min_dus}, {key.max_dus}] is invalid"


def _no_rule(*_args) -> tuple:
    return ()


class _Kind(NamedTuple):
    """One descriptor type's data and rules.  The flavor(s) and key rules yield
    messages, reported as flavor-tech-mapping or bad-subset-key; the level
    rule runs on each level whose role has ``role_type`` and reports itself."""

    flavor_count: int
    key_type: type
    key_noun: str
    role_type: type
    count_field: str  # checked beside aggregate_capacity_mbps
    flavor_rule: Callable
    key_rule: Callable = _no_rule
    level_rule: Callable = _no_rule
    flavors_rule: Callable = _no_rule


_KINDS: dict[type, _Kind] = {
    GnbNsd: _Kind(3, GnbSubsetKey, "served-regions", GnbIlCapacity, "du_count", _gnb_flavor,
                  level_rule=_check_gnb_il),
    DuVnfd: _Kind(2, DuSubsetKey, "DU cell-site", DuIlCapacity, "max_cell_sites", _du_flavor,
                  _du_key, _du_level, _du_flavor_pair),
    CuVnfd: _Kind(1, CuSubsetKey, "served-DU-count", CuIlCapacity, "max_dus", _cu_flavor, _cu_key),
}


def _check_rus(catalog: Catalog, area: "DeploymentArea", report: list[Violation]) -> None:
    for ru in catalog.ru_pnfds:
        region = area.region(ru.location.region_id)
        if region is None:
            report.append(Violation(ru.ru_id, "location.region_id", "unknown-region",
                                    f"region {ru.location.region_id!r} not in deployment area"))
            continue
        if ru.location.cell_site not in region.cell_sites:
            report.append(Violation(ru.ru_id, "location.cell_site", "ru-site-mismatch",
                                    f"cell site {ru.location.cell_site!r} not in region {region.region_id}"))
        if ru.connection_tech is not region.fronthaul_tech:
            report.append(Violation(ru.ru_id, "connection_tech", "ru-tech-mismatch",
                                    f"RU uses {ru.connection_tech.value} but region "
                                    f"{region.region_id} runs {region.fronthaul_tech.value}"))

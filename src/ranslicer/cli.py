"""Command-line front end.

Subcommands:

* ``validate <catalog> [<topology>]`` - run catalog validation, with RU
  cross-checks when a topology is given; exit 0 iff the report is empty.
* ``plan <request> <topology> <catalog>`` - plan one slice and write the
  SLICE_PLAN document to stdout or ``--out``; ``--config`` (repeatable)
  reads a PROFILER_POLICY or PLANNER_CONFIG document.
* ``emit <plan> <catalog> --out-dir DIR`` - write the onboarding bundle.
* ``paper-example`` - plan the three reference requests against the
  builtin catalog and reference topology and compare every derived
  parameter against the pinned reference values.

Exit codes: 0 success, 1 validation/planning failure (diagnostic on
stderr), 2 usage error.  ``--seed`` is accepted everywhere for script
compatibility; planning is deterministic so it is never consumed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .builtin import builtin_catalog, reference_requests
from .errors import RanSliceError
from .io import (
    DocumentEnvelope,
    SliceRequest,
    emit_onboarding_bundle,
    parse_path,
    serialize_document,
    write_atomic,
    write_bundle,
)
from .model import (
    CITY_CENTER,
    INDUSTRIAL,
    SUBURBAN,
    BandRange,
    Catalog,
    FronthaulTech,
    GnbSubsetKey,
    McsSet,
    RadioConfig,
    SchedulerPolicy,
    Sst,
)
from .planner import PlannerConfig, SlicePlan, plan_slice
from .radio import ProfilerPolicy
from .topology import DeploymentArea, reference_area, select_rus
from .validate import validate_catalog


def _load_kind(path: str, kind: str):
    envelope = parse_path(path)
    if envelope.kind != kind:
        raise RanSliceError("UNKNOWN_KIND", f"{path}: expected a {kind} document, found {envelope.kind}")
    return envelope.body


def _load_configs(paths) -> tuple[ProfilerPolicy | None, PlannerConfig | None]:
    policy: ProfilerPolicy | None = None
    config: PlannerConfig | None = None
    for path in paths or ():
        envelope = parse_path(path)
        if envelope.kind == "PROFILER_POLICY":
            policy = envelope.body
        elif envelope.kind == "PLANNER_CONFIG":
            config = envelope.body
        else:
            raise RanSliceError(
                "UNKNOWN_KIND",
                f"{path}: --config accepts PROFILER_POLICY or PLANNER_CONFIG, found {envelope.kind}",
            )
    return policy, config


def _cmd_validate(args) -> int:
    catalog: Catalog = _load_kind(args.catalog, "CATALOG")
    area: DeploymentArea | None = None
    if args.topology:
        area = _load_kind(args.topology, "TOPOLOGY")
    report = validate_catalog(catalog, area)
    if report:
        for violation in report:
            print(
                f"{violation.document_id}: [{violation.rule}] {violation.message}"
                + (f" ({violation.path})" if violation.path else ""),
                file=sys.stderr,
            )
        print(f"{len(report)} violation(s)", file=sys.stderr)
        return 1
    docs = (len(catalog.nssts) + len(catalog.gnb_nsds) + len(catalog.cu_vnfds)
            + len(catalog.du_vnfds) + len(catalog.ru_pnfds))
    print(f"catalog valid ({docs} documents)")
    return 0


def _cmd_plan(args) -> int:
    request: SliceRequest = _load_kind(args.request, "SLICE_REQUEST")
    area: DeploymentArea = _load_kind(args.topology, "TOPOLOGY")
    catalog: Catalog = _load_kind(args.catalog, "CATALOG")
    policy, config = _load_configs(args.config)
    plan = plan_slice(
        request.requirements, request.sst, area, catalog, config, policy=policy, sd=request.sd
    )
    text = serialize_document(DocumentEnvelope("SLICE_PLAN", plan))
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_emit(args) -> int:
    plan: SlicePlan = _load_kind(args.plan, "SLICE_PLAN")
    catalog: Catalog = _load_kind(args.catalog, "CATALOG")
    bundle = emit_onboarding_bundle(plan, catalog)
    for path in write_bundle(bundle, args.out_dir):
        print(path)
    return 0


# ---------------------------------------------------------------------------
# reference-example command

@dataclass(frozen=True)
class _Expected:
    label: str
    mu: int
    band_ranges: tuple[BandRange, ...]
    bandwidths_mhz: tuple[float, ...] | None  # None: ranges only are pinned
    slot_format_id: int
    fiveqi: tuple[int, int, float, float]  # id, priority, delay ms, error rate
    mcs: McsSet
    scheduler: SchedulerPolicy
    flavor_id: int
    regions: tuple[str, ...]
    ru_count: int
    gnb_count: int
    subset_pairs: tuple[tuple[str, FronthaulTech], ...]


_EXPECTED = (
    _Expected(
        label="eMBB",
        mu=2,
        band_ranges=(BandRange.SUB6_450_6000, BandRange.MMWAVE_24250_52600),
        bandwidths_mhz=(100.0, 400.0),
        slot_format_id=28,
        fiveqi=(80, 66, 10.0, 1e-6),
        mcs=McsSet.EXTENDED_256QAM,
        scheduler=SchedulerPolicy.DYNAMIC_GUARANTEED_THROUGHPUT,
        flavor_id=2,
        regions=("city-center",),
        ru_count=8,
        gnb_count=1,
        subset_pairs=((CITY_CENTER, FronthaulTech.ECPRI),),
    ),
    _Expected(
        label="mMTC",
        mu=0,
        band_ranges=(BandRange.SUB6_450_6000,),
        bandwidths_mhz=(5.0,),
        slot_format_id=45,
        fiveqi=(4, 50, 300.0, 1e-6),
        mcs=McsSet.LTE_COMPATIBLE,
        scheduler=SchedulerPolicy.SEMI_PERSISTENT,
        flavor_id=3,
        regions=("city-center", "industrial", "suburban"),
        ru_count=18,
        gnb_count=1,
        subset_pairs=(
            (CITY_CENTER, FronthaulTech.ECPRI),
            (INDUSTRIAL, FronthaulTech.ECPRI),
            (SUBURBAN, FronthaulTech.CPRI),
        ),
    ),
    _Expected(
        label="uRLLC",
        mu=3,
        band_ranges=(BandRange.MMWAVE_24250_52600,),
        bandwidths_mhz=None,
        slot_format_id=10,
        fiveqi=(81, 11, 5.0, 1e-5),
        mcs=McsSet.LTE_COMPATIBLE,
        scheduler=SchedulerPolicy.DYNAMIC_GUARANTEED_DELAY,
        flavor_id=1,
        regions=("suburban",),
        ru_count=6,
        gnb_count=1,
        subset_pairs=((SUBURBAN, FronthaulTech.CPRI),),
    ),
)

_SST_FOR_LABEL = {"eMBB": Sst.EMBB, "mMTC": Sst.MMTC, "uRLLC": Sst.URLLC}

_BAND_SHORT = {BandRange.SUB6_450_6000: "SUB6", BandRange.MMWAVE_24250_52600: "MMWAVE"}


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


def _check_slice(expected: _Expected, plan: SlicePlan, area: DeploymentArea) -> tuple[int, list[str]]:
    config = plan.nsst.radio_config
    failures: list[str] = []
    checks = 0

    def check(name: str, got, want):
        nonlocal checks
        checks += 1
        if got != want:
            failures.append(f"{expected.label}: {name}: expected {want!r}, got {got!r}")

    check("numerology", config.numerology_mu, expected.mu)
    check("band ranges", tuple(b.band_range for b in config.bands), expected.band_ranges)
    if expected.bandwidths_mhz is not None:
        check("carrier bandwidths", tuple(b.carrier_bandwidth_mhz for b in config.bands),
              expected.bandwidths_mhz)
    check("slot format", config.slot_format_id, expected.slot_format_id)
    q = config.five_qi
    check("5QI", (q.id, q.priority_level, q.packet_delay_budget_ms, q.packet_error_rate),
          expected.fiveqi)
    check("MCS set", config.mcs_set, expected.mcs)
    check("scheduler", config.scheduler_policy, expected.scheduler)
    check("gNB NSD flavor", {g.nsd_flavor_id for g in plan.gnbs}, {expected.flavor_id})
    expected_rus = tuple(ru.ru_id for ru in select_rus(area, expected.regions))
    check("selected RUs", plan.selected_rus, expected_rus)
    check("RU count", len(plan.selected_rus), expected.ru_count)
    check("gNB count", len(plan.gnbs), expected.gnb_count)
    want_key = GnbSubsetKey(expected.subset_pairs)
    check("gNB IL subset key", {g.nsd_il_subset.key for g in plan.gnbs}, {want_key})
    return checks, failures


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


def _cmd_paper_example(args) -> int:
    catalog = builtin_catalog()
    area = reference_area()
    requests = reference_requests()
    plans: dict[str, SlicePlan] = {}
    total_checks = 0
    failures: list[str] = []
    for expected in _EXPECTED:
        sst = _SST_FOR_LABEL[expected.label]
        plan = plan_slice(requests[sst], sst, area, catalog)
        plans[expected.label] = plan
        checks, bad = _check_slice(expected, plan, area)
        total_checks += checks
        failures.extend(bad)

    def column(fn) -> list[str]:
        return [fn(plans[e.label]) for e in _EXPECTED]

    rows = [
        ("numerology", column(lambda p: f"mu={p.nsst.radio_config.numerology_mu}")),
        ("operation bands", column(lambda p: _fmt_bands(p.nsst.radio_config))),
        ("slot format", column(lambda p: f"#{p.nsst.radio_config.slot_format_id}")),
        ("5QI", column(lambda p: _fmt_fiveqi(p.nsst.radio_config))),
        ("MCS set", column(lambda p: p.nsst.radio_config.mcs_set.value)),
        ("scheduler", column(lambda p: p.nsst.radio_config.scheduler_policy.value)),
        ("selected RUs", column(lambda p: f"{len(p.selected_rus)} RUs ("
                                          + "+".join(r for r, _ in p.offered_load_mbps) + ")")),
        ("gNB count", column(lambda p: str(len(p.gnbs)))),
        ("gNB NSD flavor", column(lambda p: f"#{p.gnbs[0].nsd_flavor_id}")),
        ("gNB IL subset", column(lambda p: _fmt_subset_key(p.gnbs[0].nsd_il_subset.key.served_regions))),
    ]
    print("reference slice requests vs derived templates and plans")
    print()
    print(_render_table(rows, ["parameter", "eMBB", "mMTC", "uRLLC"]))
    print()
    passed = total_checks - len(failures)
    print(f"checks: {passed}/{total_checks} matched")
    if failures:
        for failure in failures:
            print(f"mismatch: {failure}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="accepted for reproducibility")
    parser = argparse.ArgumentParser(prog="ranslicer",
                                     description="RAN slice descriptor compiler and deployment planner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", parents=[common], help="validate a catalog document")
    p_validate.add_argument("catalog")
    p_validate.add_argument("topology", nargs="?", default=None)
    p_validate.set_defaults(func=_cmd_validate)

    p_plan = sub.add_parser("plan", parents=[common], help="plan a slice request")
    p_plan.add_argument("request")
    p_plan.add_argument("topology")
    p_plan.add_argument("catalog")
    p_plan.add_argument("--out", default=None, help="write the plan here instead of stdout")
    p_plan.add_argument("--config", action="append", metavar="FILE",
                        help="PROFILER_POLICY or PLANNER_CONFIG document (repeatable)")
    p_plan.set_defaults(func=_cmd_plan)

    p_emit = sub.add_parser("emit", parents=[common], help="emit the onboarding bundle for a plan")
    p_emit.add_argument("plan")
    p_emit.add_argument("catalog")
    p_emit.add_argument("--out-dir", required=True)
    p_emit.set_defaults(func=_cmd_emit)

    p_example = sub.add_parser("paper-example", parents=[common],
                               help="reproduce the three reference slices and check every value")
    p_example.set_defaults(func=_cmd_paper_example)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (RanSliceError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

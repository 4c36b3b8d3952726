"""Command-line front end.

Subcommands:

* ``validate <catalog> [<topology>]`` - run catalog validation, with RU
  cross-checks when a topology is given; exit 0 iff the report is empty.
* ``plan <request> <topology> <catalog>`` - plan one slice and write the
  SLICE_PLAN document to stdout or ``--out``; ``--config`` (repeatable)
  reads a PROFILER_POLICY or PLANNER_CONFIG document.
* ``emit <plan> <catalog> --out-dir DIR`` - write the onboarding bundle,
  removing the files of an older bundle in DIR.
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
from operator import attrgetter

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
from .topology import DeploymentArea, reference_area
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


def _cmd_paper_example(args) -> int:
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
    print("reference slice requests vs derived templates and plans")
    print()
    print(_render_table(rows, ["parameter", *_SLICES]))
    print()
    print(f"checks: {len(checks) - len(failures)}/{len(checks)} matched")
    for failure in failures:
        print(f"mismatch: {failure}", file=sys.stderr)
    return 1 if failures else 0


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
    p_emit.add_argument("--out-dir", required=True,
                        help="write the bundle here; bundle files (manifest.json, pnfd-list.json, nsd-*.json, "
                             "vnfd-*.json) not in this bundle are removed, other files stay")
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

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

from . import builtin, io, planner, validate
from .errors import RanSliceError


def _load_kind(path: str, kind: str):
    envelope = io.parse_path(path)
    if envelope.kind != kind:
        raise RanSliceError("UNKNOWN_KIND", f"{path}: expected a {kind} document, found {envelope.kind}")
    return envelope.body


def _load_configs(paths):
    """The PROFILER_POLICY and PLANNER_CONFIG bodies of ``paths`` (None for
    a kind not given; the last of a kind wins)."""
    policy = config = None
    for path in paths or ():
        envelope = io.parse_path(path)
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
    catalog = _load_kind(args.catalog, "CATALOG")
    area = _load_kind(args.topology, "TOPOLOGY") if args.topology else None
    report = validate.validate_catalog(catalog, area)
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
    request = _load_kind(args.request, "SLICE_REQUEST")
    area = _load_kind(args.topology, "TOPOLOGY")
    catalog = _load_kind(args.catalog, "CATALOG")
    policy, config = _load_configs(args.config)
    plan = planner.plan_slice(
        request.requirements, request.sst, area, catalog, config, policy=policy, sd=request.sd
    )
    text = io.serialize_document(io.DocumentEnvelope("SLICE_PLAN", plan))
    if args.out:
        io.write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_emit(args) -> int:
    plan = _load_kind(args.plan, "SLICE_PLAN")
    catalog = _load_kind(args.catalog, "CATALOG")
    bundle = io.emit_onboarding_bundle(plan, catalog)
    for path in io.write_bundle(bundle, args.out_dir):
        print(path)
    return 0


def _cmd_paper_example(args) -> int:
    report, failures = builtin.paper_example()
    print(report)
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

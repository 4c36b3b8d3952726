"""Spans and counters around calls into ranslicer, installed from outside.

``Tracer.install`` rebinds each traced public function in every
``ranslicer.*`` namespace that holds it, and each traced method on its
class, so no source file changes.  A span is ``[name, start, end, parent,
operation, bytes]`` (``bytes`` is the document size for parse and
serialize); spans stay in memory until ``dump``.  ``layer_metrics`` turns the
spans and counts of a run into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time

KINDS = ("CATALOG", "TOPOLOGY", "SLICE_PLAN", "SLICE_REQUEST")
CLI_COMMANDS = ("plan", "emit", "validate", "paper-example")

# (module, function) -> span name; some names get a suffix per call.
SPANNED = (
    ("ranslicer.cli", "cli_main"),
    ("ranslicer.io", "parse_document"),
    ("ranslicer.io", "serialize_document"),
    ("ranslicer.io", "emit_onboarding_bundle"),
    ("ranslicer.io", "write_bundle"),
    ("ranslicer.validate", "validate_catalog"),
    ("ranslicer.builtin", "builtin_catalog"),
    ("ranslicer.radio", "build_ran_nsst"),
    ("ranslicer.topology", "pop_latency"),
    ("ranslicer.topology", "load_area"),
    ("ranslicer.topology", "select_rus"),
    ("ranslicer.planner", "plan_slice"),
    ("ranslicer.planner", "assign_dus_to_cus"),
    ("ranslicer.planner", "verify_plan"),
    ("ranslicer.planner", "dimension_dus"),
    ("ranslicer.planner", "derive_gnb_il_subset"),
)
# (module, class, method): call counts only, these run too often for spans.
COUNTED = (
    ("ranslicer.topology", "DeploymentArea", "region"),
    ("ranslicer.topology", "DeploymentArea", "pop"),
    ("ranslicer.model", "Catalog", "ru"),
    ("ranslicer.model", "Catalog", "resolve_vnf_il"),
)

# Per-layer metric names and units, in report order.
LAYER_METRICS = (
    [("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms")]
    + [(f"cli.{c}.self_ms", "ms") for c in CLI_COMMANDS]
    + [
        ("builtin.builtin_catalog.ms", "ms"),
        ("radio.build_ran_nsst.ms", "ms"),
        ("topology.pop_latency.calls", "count"),
        ("topology.pop_latency.self_ms", "ms"),
        ("topology.DeploymentArea.region.calls", "count"),
        ("topology.DeploymentArea.pop.calls", "count"),
        ("topology.load_area.ms", "ms"),
        ("topology.select_rus.ms", "ms"),
        ("planner.assign_dus_to_cus.exact.self_ms", "ms"),
        ("planner.assign_dus_to_cus.greedy.self_ms", "ms"),
        ("planner.verify_plan.self_ms", "ms"),
        ("planner.dimension_dus.ms", "ms"),
        ("planner.derive_gnb_il_subset.ms", "ms"),
        ("planner.plan_slice.self_ms", "ms"),
        ("planner.cu_count", "count"),
        ("planner.cu_lower_bound", "count"),
        ("model.Catalog.ru.calls", "count"),
        ("model.Catalog.resolve_vnf_il.calls", "count"),
        ("validate.validate_catalog.self_ms", "ms"),
    ]
    + [(f"io.parse_document.ms.{k}", "ms") for k in KINDS]
    + [(f"io.serialize_document.ms.{k}", "ms") for k in KINDS]
    + [
        ("io.parse_document.mb_per_s", "MB/s"),
        ("io.serialize_document.mb_per_s", "MB/s"),
        ("io.emit_onboarding_bundle.self_ms", "ms"),
        ("io.write_bundle.ms", "ms"),
        ("planner.cus_over_lb", "count"),
        ("planner.greedy_gap_cus", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def cu_capacity(cu_vnfd) -> int:
    """Largest ``max_dus`` over the CU VNFD's levels (read off the model)."""
    return max(
        getattr(level.role_capacity, "max_dus", 0)
        for flavor in cu_vnfd.flavors for subset in flavor.il_subsets for level in subset.levels
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[object, dict[str, float]] = {}
        self.op: object = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, n: float = 1) -> None:
        per_op = self.counts.setdefault(self.op, {})
        per_op[name] = per_op.get(name, 0) + n

    def _spanned(self, name: str, fn):
        tracer = self
        short = name.split(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [short, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            tracer._annotate(span, args, result)
            return result

        return wrapper

    def _annotate(self, span: list, args, result) -> None:
        name = span[0]
        if name == "cli.cli_main":
            argv = args[0] if args and args[0] is not None else sys.argv[1:]
            span[0] = f"cli.{argv[0] if argv else 'usage'}"
        elif name == "io.parse_document":
            span[0] = f"{name}.{result.kind}"
            span[5] = len(args[0])
        elif name == "io.serialize_document":
            span[0] = f"{name}.{args[0].kind}"
            span[5] = len(result)
        elif name == "planner.assign_dus_to_cus":
            dus, _, cu_vnfd, config = args
            span[0] += ".exact" if len(dus) <= config.exact_solver_limit else ".greedy"
            self.count("planner.cu_count", len(result))
            self.count("planner.cu_lower_bound", math.ceil(len(dus) / cu_capacity(cu_vnfd)))

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "ranslicer" or n.startswith("ranslicer.")]
        for module_name, attr in SPANNED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._spanned(f"{module_name}.{attr}", original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._saved.append((ns, key, original))
                        setattr(ns, key, wrapper)
        for module_name, cls_name, attr in COUNTED:
            cls = getattr(sys.modules[module_name], cls_name)
            original = vars(cls)[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._counted(f"{module_name.split('.')[1]}.{cls_name}.{attr}.calls", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def dump(self, path) -> None:
        """Write the spans and counts as one JSON document."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump(self.export(), out)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": [[op, c] for op, c in self.counts.items()]}

    def merge(self, exported: dict, op) -> None:
        """Adopt spans and counts recorded by another tracer under ``op``."""
        base = len(self.spans)
        for name, start, end, parent, _, size in exported["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op, size])
        for _, counts in exported["counts"]:
            for name, n in counts.items():
                per_op = self.counts.setdefault(op, {})
                per_op[name] = per_op.get(name, 0) + n


def per_op_layers(tracer: Tracer) -> dict[object, dict[str, float]]:
    """For each operation, every layer quantity it touched."""
    children_ms: dict[int, float] = {}
    for span in tracer.spans:
        if span[3] >= 0:
            children_ms[span[3]] = children_ms.get(span[3], 0.0) + 1000.0 * (span[2] - span[1])
    ops: dict[object, dict[str, float]] = {}
    byte_sums: dict[tuple, list[float]] = {}

    def add(op, key, value):
        layer = ops.setdefault(op, {})
        layer[key] = layer.get(key, 0.0) + value

    for i, (name, start, end, _, op, size) in enumerate(tracer.spans):
        ms = 1000.0 * (end - start)
        self_ms = ms - children_ms.get(i, 0.0)
        kind = name.rsplit(".", 1)[1]
        if kind in KINDS:
            verb = name.rsplit(".", 1)[0]
            add(op, f"{verb}.ms.{kind}", ms)
            sums = byte_sums.setdefault((op, verb), [0.0, 0.0])
            sums[0] += size
            sums[1] += ms
            continue
        add(op, f"{name}.ms", ms)
        add(op, f"{name}.self_ms", self_ms)
        if name == "topology.pop_latency":
            add(op, "topology.pop_latency.calls", 1)
    for (op, verb), (size, ms) in byte_sums.items():
        if ms > 0:
            add(op, f"{verb}.mb_per_s", size / 1e6 / (ms / 1000.0))
    for op, counts in tracer.counts.items():
        for name, n in counts.items():
            add(op, name, n)
    return ops


def layer_metrics(tracer: Tracer, extra: dict[str, list[float]] | None = None) -> dict[str, dict]:
    """Median over the operations that touched each layer; 0 when none did."""
    samples: dict[str, list[float]] = {name: [] for name, _ in LAYER_METRICS}
    for layers in per_op_layers(tracer).values():
        for name, value in layers.items():
            if name in samples:
                samples[name].append(value)
    for name, values in (extra or {}).items():
        samples[name].extend(values)
    return {
        name: {"value": statistics.median(samples[name]) if samples[name] else 0.0, "unit": unit}
        for name, unit in LAYER_METRICS
    }

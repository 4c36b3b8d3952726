#!/usr/bin/env python3
"""The ranslicer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/NOTES.md for why each exists):

* ``cli-reference``: the ``ranslicer`` CLI as a child process, one at a
  time, on the shipped fixtures: ``plan`` x3, ``emit``, ``validate`` and
  ``paper-example``, in a seeded order per cycle.
* ``plan-scaled``: ``plan_slice`` + ``serialize_document`` in process on a
  generated 200-region, 20-edge-PoP area, requests of 16-48 regions
  (greedy CU path).
* ``cu-exact``: one ``assign_dus_to_cus`` call on the exact path per
  operation, in a worker process killed and restarted when an instance
  overruns ``CU_LIMIT_S``.
* ``docs-scaled``: a read (parse CATALOG + TOPOLOGY, ``validate_catalog``)
  and a write (parse SLICE_PLAN, ``emit_onboarding_bundle``,
  ``write_bundle``) per operation, timed separately.

Every workload is a closed loop with one client.  It runs whole cycles of
its operation mix until ``--seconds`` have passed, checks every output
with ``checks.py`` and prints a human report, then, as the last line, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of
``spans.py`` with ``--trace 1``.  A traced run alternates traced and
untraced executions of each operation, which gives ``trace.overhead_ratio``.
``--workload all`` runs the four in turn and prints every workload's
named metrics (``cli_ms_p50``, ``plan_ms_p90``, ...).  The exit code is 1 when an output check
failed and 2 when the checkout has no ``src/ranslicer``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"  # spans of traced runs
WORK = OUT / f"run-{os.getpid()}"  # this run's scratch files, removed at exit
SETUP_REPEATS = 5
CU_LIMIT_S = 10.0  # wall limit per cu-exact instance
AREA_SPEC = {"regions": 200, "edge_pops": 20, "links_per_region": 2, "edge_neighbours": 3}
TINY_AREA_SPEC = {"regions": 24, "edge_pops": 4, "links_per_region": 2}
CU_CAPACITY = 4
PLAN_SIZES = (16, 24, 32, 40, 48)  # one cycle of plan-scaled requests
DOC_PLAN_SIZES = tuple(range(4, 13))  # plans the docs-scaled writes emit, one per size
CLI_ENTRY = "from ranslicer.cli import main; main()"  # what the console script runs
CAL_EVERY_S = 0.25  # a calibration (calib.py) before the next operation once this much time has passed

END_TO_END = (("op_norm_cpu_ms_p50", "ms"), ("op_norm_cpu_ms_p75", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class OpResult:
    wall: float  # seconds
    cpu: float  # seconds
    problems: list = field(default_factory=list)  # failed output checks
    parts: dict = field(default_factory=dict)  # seconds per timed part
    timed_out: bool = False
    attempts: int = 1
    cal: int = 0  # index of the calibration made before this operation


def normalized_ms(results, cals, cpu=False) -> list[float]:
    """Each operation's time in ms at reference speed, sorted.

    An operation is scaled by the calibrations just before and just after
    it (``OpResult.cal`` indexes the one before).
    """
    k = 1 if cpu else 0
    return sorted(1000.0 * calib.at_reference(r.cpu if cpu else r.wall, cals[r.cal][k], cals[r.cal + 1][k])
                  for r in results)


def timed(tracer, op_id, fn):
    """Run ``fn`` (traced when a tracer is given); return (result, wall s, cpu s)."""
    if tracer:
        tracer.op = op_id
        tracer.install()
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        result = fn()
        return result, time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if tracer:
            tracer.uninstall()


def generated_inputs(seed: int, tiny: bool, sizes):
    """Area, catalog and requests from the seed, as documents and parsed back."""
    rng = random.Random(seed)
    spec = gen.AreaSpec(**(TINY_AREA_SPEC if tiny else AREA_SPEC))
    area = gen.make_area(spec, rng)
    catalog = gen.make_catalog(area, CU_CAPACITY, spec.max_sites)
    if tiny:
        sizes = [min(s, spec.regions // 3) for s in sizes]
    requests = gen.make_requests(area, rng, sizes)
    docs = {
        "topology": rs_io.serialize_document(rs_io.DocumentEnvelope("TOPOLOGY", area)),
        "catalog": rs_io.serialize_document(rs_io.DocumentEnvelope("CATALOG", catalog)),
        "requests": [rs_io.serialize_document(rs_io.DocumentEnvelope("SLICE_REQUEST", r)) for r in requests],
    }
    return {
        "docs": docs,
        "area": rs_io.parse_document(docs["topology"]).body,
        "catalog": rs_io.parse_document(docs["catalog"]).body,
        "requests": [rs_io.parse_document(text).body for text in docs["requests"]],
        "facts": checks.TopologyFacts(docs["topology"]),
        "cu_capacity": checks.cu_capacity_from_catalog(docs["catalog"]),
    }


def plan_text(state, request) -> str:
    plan = planner.plan_slice(request.requirements, request.sst, state["area"], state["catalog"], sd=request.sd)
    return rs_io.serialize_document(rs_io.DocumentEnvelope("SLICE_PLAN", plan))


# ---------------------------------------------------------------------------

class Workload:
    """setup(seed, tiny) -> state; cycle(state, k) -> [op(tracer, op_id) -> OpResult];
    report(state, results) -> (named metrics, plan digest, extra per-layer samples)."""

    children_rss = False  # peak RSS is that of the child processes, not the benchmark's

    def calibrate(self, state, calibrator):
        """Calibrate where the operations run: here, in the benchmark process."""
        return calibrator()

    def finish(self, state):
        """Release what set-up started."""

    def traced_cycle_extra(self, state):
        """Per-cycle measurement made only in traced runs."""


class PlanScaled(Workload):
    name = "plan-scaled"

    def setup(self, seed, tiny):
        state = generated_inputs(seed, tiny, PLAN_SIZES * 12)
        state["plans"] = {}  # the first cycle's plans, for the report
        state["plan_digests"] = {}  # every request's plan digest; plans are 0.1-0.3 MB each
        return state

    def cycle(self, state, k):
        n = len(PLAN_SIZES)
        start = (k * n) % len(state["requests"])
        return [self._op(state, i) for i in range(start, start + n)]

    def _op(self, state, i):
        def op(tracer, op_id):
            request = state["requests"][i]
            text, wall, cpu = timed(tracer, op_id, lambda: plan_text(state, request))
            if i < len(PLAN_SIZES):
                state["plans"].setdefault(i, text)
            problems = checks.check_plan(text, state["docs"]["requests"][i], state["facts"], state["cu_capacity"])
            plan_digest = digest([text])
            if state["plan_digests"].setdefault(i, plan_digest) != plan_digest:
                problems.append(f"request {i}: plan bytes changed between runs")
            return OpResult(wall, cpu, problems)
        return op

    def report(self, state, results):
        first = [state["plans"][i] for i in sorted(state["plans"])]
        over = sum(c - lb for c, lb in (checks.plan_cu_counts(t, state["cu_capacity"]) for t in first))
        return {"plan_ms_p50": ms_quantile(results, 0.5), "plan_ms_p90": ms_quantile(results, 0.9),
                "cus_over_lb": (over, "count")}, digest(first), {"planner.cus_over_lb": [over]}


class DocsScaled(Workload):
    name = "docs-scaled"

    def setup(self, seed, tiny):
        state = generated_inputs(seed, tiny, DOC_PLAN_SIZES)
        state["plan_docs"] = [plan_text(state, r) for r in state["requests"]]
        state["out"] = WORK / "bundle"
        return state

    def cycle(self, state, k):
        return [self._op(state, j) for j in range(len(state["plan_docs"]))]

    def _op(self, state, j):
        docs = state["docs"]

        def read():
            catalog = rs_io.parse_document(docs["catalog"]).body
            area = rs_io.parse_document(docs["topology"]).body
            return validate.validate_catalog(catalog, area)

        def write():
            plan = rs_io.parse_document(state["plan_docs"][j]).body
            return rs_io.write_bundle(rs_io.emit_onboarding_bundle(plan, state["catalog"]), state["out"])

        def op(tracer, op_id):
            report, read_wall, read_cpu = timed(tracer, op_id, read)
            paths, write_wall, write_cpu = timed(tracer, op_id, write)
            problems = [f"validate: {v}" for v in report]
            problems += checks.check_bundle(paths, state["plan_docs"][j])
            return OpResult(read_wall + write_wall, read_cpu + write_cpu, problems,
                            parts={"validate": read_wall, "emit": write_wall}, attempts=2)
        return op

    def report(self, state, results):
        return {
            "validate_ms_p50": ms_quantile(results, 0.5, "validate"),
            "emit_ms_p50": ms_quantile(results, 0.5, "emit"),
        }, digest(state["plan_docs"]), {}


class CuExact(Workload):
    name = "cu-exact"
    # Instances per stratum in the pool.  A cycle is one pass over the whole
    # pool, so every run times the same instances: the rounds differ in
    # difficulty, and runs that ended after 10 or after 16 rounds of one
    # pool moved the 75th percentile from 21 to 29 ms.
    rounds = 8

    def setup(self, seed, tiny):
        if tiny:
            self.rounds = 1
        sys.path.insert(0, str(ROOT / "tests"))
        from cu_oracle import oracle_min_cus

        pool = gen.make_cu_pool(seed, self.rounds)
        state = {"seed": seed, "pool": pool, "oracle": oracle_min_cus, "truth": {}, "layouts": {}, "worker": None}
        self._start(state)
        return state

    def _start(self, state):
        cmd = [sys.executable, str(HERE / "cu_worker.py"), str(state["seed"]), str(self.rounds)]
        worker = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        state["worker"] = worker
        if worker.stdout.readline().strip() != "ready":
            raise RuntimeError("cu-exact worker failed to start")

    def _stop(self, state):
        worker = state.pop("worker", None)
        if worker:
            worker.kill()
            worker.wait()
            worker.stdin.close()
            worker.stdout.close()

    def cycle(self, state, k):
        return [self._op(state, i) for i in range(len(state["pool"]))]

    def _truth(self, state, i):
        """Oracle minimum and the greedy count for instance ``i`` (cached)."""
        if i not in state["truth"]:
            dus, area, cu_vnfd = state["pool"][i]
            capacity = spans.cu_capacity(cu_vnfd)
            best = state["oracle"](dus, area, gen.BUDGET_MS, capacity)
            greedy = planner.assign_dus_to_cus(dus, area, cu_vnfd, planner.PlannerConfig(exact_solver_limit=0))
            state["truth"][i] = (best, len(greedy))
        return state["truth"][i]

    def _op(self, state, i):
        def op(tracer, op_id):
            worker = state["worker"]
            worker.stdin.write(f"{i} {1 if tracer else 0}\n")
            worker.stdin.flush()
            t0 = time.perf_counter()
            ready, _, _ = select.select([worker.stdout], [], [], CU_LIMIT_S)
            if not ready:
                self._stop(state)
                self._start(state)
                return OpResult(CU_LIMIT_S, CU_LIMIT_S, timed_out=True)
            line = worker.stdout.readline()
            if not line:
                raise RuntimeError(f"cu-exact worker died on instance {i} after {time.perf_counter() - t0:.1f} s")
            reply = json.loads(line)
            if tracer and reply["trace"]:
                tracer.merge(reply["trace"], op_id)
            best, _ = self._truth(state, i)
            layout = reply["layout"]
            state["layouts"].setdefault(i, layout)
            problems = [] if len(layout) == best else [f"instance {i}: {len(layout)} CUs, oracle says {best}"]
            return OpResult(reply["wall"], reply["cpu"], problems)
        return op

    def calibrate(self, state, calibrator):
        """The worker solves, so the worker calibrates."""
        worker = state["worker"]
        worker.stdin.write("cal\n")
        worker.stdin.flush()
        return tuple(json.loads(worker.stdout.readline())["cal"])

    def finish(self, state):
        self._stop(state)

    def report(self, state, results):
        gaps = [greedy - best for best, greedy in state["truth"].values()]
        optimal = sum(1 for g in gaps if g == 0)
        print(f"cu-exact: greedy optimal on {optimal}/{len(gaps)} instances, worst gap +{max(gaps, default=0)} CUs")
        layouts = [json.dumps(state["layouts"][i]) for i in sorted(state["layouts"])]
        return {"solve_ms_p50": ms_quantile(results, 0.5), "solve_ms_p90": ms_quantile(results, 0.9)}, \
            digest(layouts), {"planner.greedy_gap_cus": [sum(gaps)]}


class CliReference(Workload):
    name = "cli-reference"
    requests = ("embb", "mmtc", "urllc")
    children_rss = True

    def setup(self, seed, tiny):
        fixtures = ROOT / "fixtures"
        work = WORK / "cli"
        work.mkdir(parents=True, exist_ok=True)
        texts = {name: (fixtures / f"request_{name}.json").read_text(encoding="utf-8") for name in self.requests}
        topology = (fixtures / "reference_topology.json").read_text(encoding="utf-8")
        catalog = (fixtures / "builtin_catalog.json").read_text(encoding="utf-8")
        documents = sum(len(v) for k, v in json.loads(catalog)["body"].items())
        state = {
            "rng": random.Random(seed),
            "work": work,
            "request_texts": texts,
            "facts": checks.TopologyFacts(topology),
            "cu_capacity": checks.cu_capacity_from_catalog(catalog),
            "paper": (ROOT / "tests" / "data" / "paper_example_output.txt").read_bytes(),
            "validate_out": f"catalog valid ({documents} documents)\n".encode(),
            "plans": {},
            "env": dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))),
            "interpreter_ms": [],
        }
        plan_file = work / "plan-embb.json"
        args = ["plan", str(fixtures / "request_embb.json"), str(fixtures / "reference_topology.json"),
                str(fixtures / "builtin_catalog.json"), "--out", str(plan_file)]
        if self._child(state, args, None, 0)[0] != 0:
            raise RuntimeError("cli-reference set-up could not write the plan emit reads")
        state["plan_file"] = plan_file
        for op in self._mix(state):  # warm the bytecode cache; outputs are checked as usual
            if op(None, 0).problems:
                raise RuntimeError("cli-reference warm-up produced wrong output")
        return state

    def _mix(self, state):
        fixtures = ROOT / "fixtures"
        topo, cat = str(fixtures / "reference_topology.json"), str(fixtures / "builtin_catalog.json")
        mix = [self._op(state, ["plan", str(fixtures / f"request_{n}.json"), topo, cat], n) for n in self.requests]
        mix.append(self._op(state, ["emit", str(state["plan_file"]), cat, "--out-dir", str(state["work"] / "bundle")]))
        mix.append(self._op(state, ["validate", cat, topo]))
        mix.append(self._op(state, ["paper-example"]))
        return mix

    def cycle(self, state, k):
        mix = self._mix(state)
        state["rng"].shuffle(mix)
        return mix

    def _child(self, state, args, tracer, op_id):
        """Run one CLI child; return (rc, stdout, stderr, wall s, cpu s)."""
        work = state["work"]
        spans_file = work / "spans.json"
        if tracer:
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(spans_file), *args]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *args]
        with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
            t0 = time.perf_counter()
            child = subprocess.Popen(cmd, stdout=out, stderr=err, env=state["env"], cwd=ROOT)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - t0
            child.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        if tracer:
            with open(spans_file, encoding="utf-8") as handle:
                tracer.merge(json.load(handle), op_id)
        return child.returncode, stdout, stderr, wall, usage.ru_utime + usage.ru_stime

    def _op(self, state, args, request=None):
        def op(tracer, op_id):
            rc, stdout, stderr, wall, cpu = self._child(state, args, tracer, op_id)
            problems = [] if rc == 0 else [f"{args[0]} exited {rc}: {stderr.decode(errors='replace')[-300:]}"]
            if args[0] == "plan":
                text = stdout.decode()
                problems += checks.check_plan(text, state["request_texts"][request], state["facts"], state["cu_capacity"])
                if state["plans"].setdefault(request, text) != text:
                    problems.append(f"plan {request}: bytes changed between runs")
            elif args[0] == "emit":
                paths = stdout.decode().split()
                problems += checks.check_bundle(paths, state["plan_file"].read_text(encoding="utf-8"))
            elif args[0] == "validate" and stdout != state["validate_out"]:
                problems.append(f"validate printed {stdout!r}")
            elif args[0] == "paper-example" and stdout != state["paper"]:
                problems.append("paper-example output differs from tests/data/paper_example_output.txt")
            return OpResult(wall, cpu, problems)
        return op

    def traced_cycle_extra(self, state):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=state["env"], cwd=ROOT, check=True)
        state["interpreter_ms"].append(1000.0 * (time.perf_counter() - t0))

    def report(self, state, results):
        plans = [state["plans"][n] for n in self.requests]
        return {"cli_ms_p50": ms_quantile(results, 0.5), "cli_ms_p90": ms_quantile(results, 0.9),
                "cli_cpu_ms_p50": (1000.0 * statistics.median(r.cpu for r in results), "ms")}, \
            digest(plans), {"cli.interpreter_ms": state["interpreter_ms"]}


WORKLOADS = {w.name: w for w in (CliReference, PlanScaled, CuExact, DocsScaled)}


# ---------------------------------------------------------------------------

def ms_quantile(results, q, part=None):
    values = sorted(r.parts[part] if part else r.wall for r in results)
    return 1000.0 * quantile(values, q), "ms"


def quantile(values, q):
    """Linear-interpolated quantile of sorted values."""
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()[:16]


def peak_rss_mb(children_only: bool) -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = 0 if children_only else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, children) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    workload = WORKLOADS[name]()
    tracer = spans.Tracer() if trace else None
    calibrator = calib.Calibrator()
    setup_times, setup_cals = [], [calibrator()]
    for repeat in range(SETUP_REPEATS):
        if setup_times:
            workload.finish(state)
        # A traced run traces its last set-up as one operation named "setup".
        setup_tracer = tracer if repeat == SETUP_REPEATS - 1 else None
        state = None
        gc.collect()  # so one set-up does not pay for collecting the last one's garbage
        t0 = time.perf_counter()
        state, _, _ = timed(setup_tracer, "setup", lambda: workload.setup(seed, tiny))
        setup_times.append(time.perf_counter() - t0)
        setup_cals.append(calibrator())
    results, plain_s, traced_s = [], 0.0, 0.0
    cals, last_cal = [workload.calibrate(state, calibrator)], time.perf_counter()
    deadline = time.perf_counter() + seconds
    k = 0
    try:
        while True:
            for op in workload.cycle(state, k):
                op_id = len(results)
                if time.perf_counter() - last_cal >= CAL_EVERY_S:
                    cals.append(workload.calibrate(state, calibrator))
                    last_cal = time.perf_counter()
                if tracer:
                    # Same operation untraced and traced, alternating which goes first.
                    runs = {}
                    for traced in ((False, True) if op_id % 2 == 0 else (True, False)):
                        runs[traced] = op(tracer if traced else None, op_id)
                    plain_s += runs[False].wall
                    traced_s += runs[True].wall
                    runs[False].problems += runs[True].problems
                    results.append(runs[False])
                else:
                    results.append(op(None, op_id))
                results[-1].cal = len(cals) - 1
            if tracer:
                workload.traced_cycle_extra(state)
            k += 1
            if time.perf_counter() >= deadline:
                break
        cals.append(workload.calibrate(state, calibrator))
        named, plan_digest, extra = workload.report(state, results)
    finally:
        workload.finish(state)
    attempted = sum(r.attempts for r in results)
    failed = sum(r.attempts if r.timed_out else min(len(r.problems), r.attempts) for r in results)
    problems = [p for r in results for p in r.problems]
    walls, cpus = normalized_ms(results, cals), normalized_ms(results, cals, cpu=True)
    generic = {
        "op_norm_ms_p50": quantile(walls, 0.5),
        "op_norm_ms_p75": quantile(walls, 0.75),
        "op_norm_cpu_ms_p50": quantile(cpus, 0.5),
        "op_norm_cpu_ms_p75": quantile(cpus, 0.75),
        "setup_s": statistics.median(calib.at_reference(t, setup_cals[i][0], setup_cals[i + 1][0])
                                     for i, t in enumerate(setup_times)),
        "peak_rss_mb": peak_rss_mb(workload.children_rss),
    }
    named.update({m: (generic[m], "ms") for m in ("op_norm_ms_p50", "op_norm_ms_p75",
                                                  "op_norm_cpu_ms_p50", "op_norm_cpu_ms_p75")})
    named.update(setup_s=(generic["setup_s"], "s"), setup_raw_s=(statistics.median(setup_times), "s"),
                 peak_rss_mb=(generic["peak_rss_mb"], "MB"),
                 fail_ratio=(failed / attempted, "ratio"),
                 calibration_ms=(1000.0 * statistics.median(c[0] for c in cals), "ms"))
    timeouts = sum(1 for r in results if r.timed_out)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{name}: seed {seed}, {len(results)} operations in {k} cycles, {attempted} attempted, "
          f"{failed} failed ({timeouts} timeouts), plan digest {plan_digest}")
    for metric, (value, unit) in named.items():
        print(f"{name}  {metric:<16} {value:12.4f} {unit}")
    if tracer:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"spans-{name}-{seed}.json")
        extra = dict(extra)
        extra["trace.overhead_ratio"] = [traced_s / plain_s]
        metrics = spans.layer_metrics(tracer, extra)
    else:
        metrics = {m: {"value": generic[m], "unit": unit} for m, unit in END_TO_END}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    args = parser.parse_args()
    if not (SRC / "ranslicer" / "__init__.py").is_file():
        print(f"error: no ranslicer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    global calib, gen, checks, spans, planner, rs_io, validate
    import calib
    import checks
    import gen
    import spans
    from ranslicer import io as rs_io
    from ranslicer import planner, validate

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        outcomes = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.tiny) for n in names}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    result = outcomes[names[0]] if len(names) == 1 else {
        "correct": all(o["correct"] for o in outcomes.values()),
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": {f"{n}/{m}": v for n, o in outcomes.items() for m, v in o["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs at its tiny size, untraced and traced, and passes its
output checks; the generator repeats itself for a repeated seed; and the
benchmark refuses to run without the sources.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from ranslicer.io import DocumentEnvelope, serialize_document  # noqa: E402


def _bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_runs_tiny(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in wanted)


def _documents(seed):
    rng = random.Random(seed)
    spec = gen.AreaSpec(**run.TINY_AREA_SPEC)
    area = gen.make_area(spec, rng)
    bodies = [area, gen.make_catalog(area, 4, spec.max_sites), *gen.make_requests(area, rng, [4, 6])]
    return [serialize_document(DocumentEnvelope(kind, body))
            for kind, body in zip(["TOPOLOGY", "CATALOG", "SLICE_REQUEST", "SLICE_REQUEST"], bodies)]


def test_generator_repeats_for_a_seed():
    assert _documents(5) == _documents(5)
    assert _documents(5) != _documents(6)
    assert repr(gen.make_cu_pool(5, 1)) == repr(gen.make_cu_pool(5, 1))


def test_tracer_restores_every_binding():
    import ranslicer.planner as planner
    import ranslicer.topology as topology

    before = (planner.pop_latency, topology.pop_latency, topology.DeploymentArea.region)
    tracer = spans.Tracer()
    tracer.install()
    assert planner.pop_latency is topology.pop_latency is not before[0]
    tracer.uninstall()
    assert (planner.pop_latency, topology.pop_latency, topology.DeploymentArea.region) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "plan-scaled", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

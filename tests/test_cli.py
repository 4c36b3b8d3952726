"""CLI behaviour: exit codes, stream separation, file outputs."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ranslicer
from ranslicer.cli import cli_main
from ranslicer.io import SliceRequest, envelope_for, parse_document, serialize_document
from ranslicer.model import Sst
from ranslicer.planner import PlannerConfig


@pytest.fixture
def doc_files(tmp_path, catalog, area, requests):
    """Reference inputs rendered to disk for CLI consumption."""
    paths = {}
    paths["catalog"] = tmp_path / "catalog.json"
    paths["catalog"].write_text(serialize_document(envelope_for(catalog)))
    paths["topology"] = tmp_path / "topology.json"
    paths["topology"].write_text(serialize_document(envelope_for(area)))
    request = SliceRequest(Sst.EMBB, None, requests[Sst.EMBB])
    paths["request"] = tmp_path / "request-embb.json"
    paths["request"].write_text(serialize_document(envelope_for(request)))
    return paths


def test_validate_clean_catalog(doc_files, capsys):
    assert cli_main(["validate", str(doc_files["catalog"]), str(doc_files["topology"])]) == 0
    out = capsys.readouterr()
    assert "catalog valid" in out.out
    assert out.err == ""


def test_validate_broken_catalog(doc_files, tmp_path, capsys):
    raw = json.loads(doc_files["catalog"].read_text())
    del raw["body"]["gnb_nsds"][0]["flavors"][2]  # two flavors left
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(raw))
    assert cli_main(["validate", str(broken)]) == 1
    out = capsys.readouterr()
    assert "flavor-count" in out.err
    assert out.out == ""


def test_plan_to_stdout(doc_files, capsys):
    code = cli_main([
        "plan", str(doc_files["request"]), str(doc_files["topology"]), str(doc_files["catalog"]),
    ])
    out = capsys.readouterr()
    assert code == 0
    envelope = parse_document(out.out)
    assert envelope.kind == "SLICE_PLAN"
    assert envelope.body.gnbs[0].nsd_flavor_id == 2


def test_plan_to_file_and_emit(doc_files, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert cli_main([
        "plan", str(doc_files["request"]), str(doc_files["topology"]), str(doc_files["catalog"]),
        "--out", str(plan_path),
    ]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "bundle"
    assert cli_main(["emit", str(plan_path), str(doc_files["catalog"]), "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr()
    names = sorted(p.name for p in out_dir.iterdir())
    assert "manifest.json" in names
    assert "pnfd-list.json" in names
    assert all(str(out_dir / n) in out.out for n in names)


def test_plan_with_impossible_latency(doc_files, tmp_path, requests, capsys):
    impossible = dataclasses.replace(requests[Sst.URLLC], latency_ms=1.0)
    request = SliceRequest(Sst.URLLC, None, impossible)
    path = tmp_path / "request-bad.json"
    path.write_text(serialize_document(envelope_for(request)))
    code = cli_main(["plan", str(path), str(doc_files["topology"]), str(doc_files["catalog"])])
    out = capsys.readouterr()
    assert code == 1
    assert "UNSATISFIABLE_LATENCY" in out.err
    assert out.out == ""


def test_plan_rejects_wrong_document_kind(doc_files, capsys):
    code = cli_main([
        "plan", str(doc_files["catalog"]), str(doc_files["topology"]), str(doc_files["catalog"]),
    ])
    out = capsys.readouterr()
    assert code == 1
    assert "UNKNOWN_KIND" in out.err


def test_usage_error_is_exit_2(capsys):
    assert cli_main([]) == 2
    assert cli_main(["plan"]) == 2
    capsys.readouterr()


def test_help_is_exit_0(capsys):
    assert cli_main(["--help"]) == 0
    capsys.readouterr()


def test_paper_example_passes_and_names_the_urllc_qos_class(capsys):
    assert cli_main(["paper-example"]) == 0
    out = capsys.readouterr()
    assert "5QI=81" in out.out
    assert "checks:" in out.out
    assert out.err == ""


def test_paper_example_accepts_seed(capsys):
    assert cli_main(["paper-example", "--seed", "7"]) == 0
    capsys.readouterr()


def test_config_flag_applies_planner_config(doc_files, tmp_path, capsys):
    # A budget too small for any aggregation-to-edge hop makes planning fail.
    config = PlannerConfig(cu_du_latency_budget_ms=0.1)
    path = tmp_path / "config.json"
    path.write_text(serialize_document(envelope_for(config)))
    code = cli_main([
        "plan", str(doc_files["request"]), str(doc_files["topology"]), str(doc_files["catalog"]),
        "--config", str(path),
    ])
    out = capsys.readouterr()
    assert code == 1
    assert "INFEASIBLE_LATENCY" in out.err


def test_python_dash_m_runs_the_cli():
    src = str(Path(ranslicer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "ranslicer", "paper-example"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    pinned = (Path(__file__).parent / "data" / "paper_example_output.txt").read_text()
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == pinned

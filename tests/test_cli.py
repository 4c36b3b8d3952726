"""CLI behaviour: exit codes, stream separation, file outputs."""

import dataclasses
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import ranslicer
from ranslicer import cli
from ranslicer.cli import cli_main
from ranslicer.io import SliceRequest, envelope_for, parse_document, serialize_document
from ranslicer.model import Sst
from ranslicer.planner import PlannerConfig, plan_slice

DATA = Path(__file__).parent / "data"
FIXTURES = Path(__file__).parents[1] / "fixtures"


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


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe", "PARSE_ERROR: not UTF-8 text: invalid start byte at byte 0"),
    (b'{"schema_version": "1.0.0", "kind": "CATALOG", "body": ' + b"[" * 5000 + b"]" * 5000 + b"}",
     "PARSE_ERROR: document nests too deeply to parse"),
    (b'{"schema_version": "1.0.0", "kind": "PLANNER_CONFIG", "body": {"cu_du_latency_budget_ms": 1'
     + b"0" * 5000 + b"}}",
     "PARSE_ERROR: integer literal has too many digits to parse"),
], ids=["not-utf-8", "nested-5000-deep", "integer-5001-digits"])
def test_validate_unreadable_document_is_a_diagnostic(tmp_path, capsys, content, message):
    path = tmp_path / "catalog.json"
    path.write_bytes(content)
    assert cli_main(["validate", str(path)]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


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


def test_emit_removes_an_older_bundles_files_only(tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    out_dir.mkdir()
    for name in ("vnfd-vnfd-old-v0.json", "nsd-old.json", "manifest.json", "notes.txt", "vnfd-old.yaml"):
        (out_dir / name).write_text("old\n")
    (out_dir / "nsd-dir.json").mkdir()
    code = cli_main(["emit", str(DATA / "plan_embb.json"), str(FIXTURES / "builtin_catalog.json"),
                     "--out-dir", str(out_dir)])
    assert code == 0
    bundle = {p.name: p.read_text() for p in (DATA / "bundle_embb").iterdir()}
    assert capsys.readouterr().out.split() == [str(out_dir / name) for name in sorted(bundle)]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted([*bundle, "notes.txt", "vnfd-old.yaml", "nsd-dir.json"])
    assert all((out_dir / name).read_text() == text for name, text in bundle.items())
    assert (out_dir / "notes.txt").read_text() == "old\n"


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``: a file's bytes, or None for a directory."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("nsd_id", ["x/../../escaped", "a\u0000b"])
def test_emit_refuses_an_unsafe_bundle_name_and_leaves_the_out_dir_alone(catalog, area, requests, tmp_path, capsys,
                                                                         nsd_id):
    nsd = dataclasses.replace(catalog.gnb_nsds[0], descriptor_id=nsd_id)
    unsafe = dataclasses.replace(catalog, gnb_nsds=(nsd, *catalog.gnb_nsds[1:]), nssts=tuple(
        dataclasses.replace(nsst, nsd_ref=nsd_id) for nsst in catalog.nssts))
    plan = plan_slice(requests[Sst.EMBB], Sst.EMBB, area, unsafe)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "catalog.json").write_text(serialize_document(envelope_for(unsafe)))
    (inputs / "plan.json").write_text(serialize_document(envelope_for(plan)))
    out_dir = tmp_path / "a" / "bundle"
    out_dir.mkdir(parents=True)
    for name in ("manifest.json", "vnfd-vnfd-old-v0.json"):
        (out_dir / name).write_text("old\n")
    (out_dir / "nsd-x").mkdir()
    before = _tree(tmp_path)
    code = cli_main(["emit", str(inputs / "plan.json"), str(inputs / "catalog.json"), "--out-dir", str(out_dir)])
    out = capsys.readouterr()
    assert code == 1
    assert (out.out, out.err) == ("", f"error: UNSAFE_BUNDLE_NAME: bundle file name "
                                      f"{f'nsd-{nsd_id}.json'!r} is not a plain file name\n")
    assert _tree(tmp_path) == before


def test_plan_out_in_a_missing_directory_names_the_target(doc_files, tmp_path, capsys):
    target = tmp_path / "missing" / "plan.json"
    code = cli_main([
        "plan", str(doc_files["request"]), str(doc_files["topology"]), str(doc_files["catalog"]),
        "--out", str(target),
    ])
    out = capsys.readouterr()
    assert code == 1
    assert (out.out, out.err) == ("", f"error: [Errno 2] No such file or directory: {str(target)!r}\n")


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


def test_config_flag_applies_profiler_policy(doc_files, tmp_path, policy, capsys):
    # Half the default activity factor halves the offered load, which one DU then carries.
    path = tmp_path / "policy.json"
    path.write_text(serialize_document(envelope_for(dataclasses.replace(policy, activity_factor=0.05))))
    code = cli_main([
        "plan", str(doc_files["request"]), str(doc_files["topology"]), str(doc_files["catalog"]),
        "--config", str(path),
    ])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    plan = parse_document(out.out).body
    assert plan.offered_load_mbps == (("city-center", 75_000.0),)
    assert [du.du_id for gnb in plan.gnbs for du in gnb.dus] == ["du-city-center-01"]


def test_config_flag_rejects_other_document_kinds(doc_files, capsys):
    catalog = str(doc_files["catalog"])
    code = cli_main(["plan", str(doc_files["request"]), str(doc_files["topology"]), catalog, "--config", catalog])
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert out.err == (f"error: UNKNOWN_KIND: {catalog}: --config accepts PROFILER_POLICY or "
                       "PLANNER_CONFIG, found CATALOG\n")


def _with_reference(row, column, value):
    """``cli._EXPECTED`` with the reference value of check ``row`` for slice ``column`` replaced."""
    name, read, wants = cli._EXPECTED[row]
    wants = (*wants[:column], value, *wants[column + 1:])
    return (*cli._EXPECTED[:row], (name, read, wants), *cli._EXPECTED[row + 1:])


def test_paper_example_reports_a_mismatch(monkeypatch, capsys):
    [row] = [i for i, (name, _, _) in enumerate(cli._EXPECTED) if name == "numerology"]
    monkeypatch.setattr(cli, "_EXPECTED", _with_reference(row, 0, 3))
    assert cli_main(["paper-example"]) == 1
    out = capsys.readouterr()
    assert "checks: 34/35 matched\n" in out.out
    assert out.err == "mismatch: eMBB: numerology: expected 3, got 2\n"


PINNED_CELLS = [(column, row) for column in range(len(cli._SLICES)) for row, (_, _, wants) in enumerate(cli._EXPECTED)
                if wants[column] is not None]


@pytest.mark.parametrize("column, row", PINNED_CELLS, ids=[
    f"{list(cli._SLICES)[column]}-{cli._EXPECTED[row][0]}" for column, row in PINNED_CELLS])
def test_paper_example_reports_each_perturbed_reference_value(monkeypatch, capsys, column, row):
    name, _, wants = cli._EXPECTED[row]
    perturbed = ("perturbed", wants[column])  # equal to no plan value
    monkeypatch.setattr(cli, "_EXPECTED", _with_reference(row, column, perturbed))
    assert cli_main(["paper-example"]) == 1
    out = capsys.readouterr()
    assert "checks: 34/35 matched\n" in out.out
    assert out.err == (f"mismatch: {list(cli._SLICES)[column]}: {name}: "
                       f"expected {perturbed!r}, got {wants[column]!r}\n")


def _without_gnb_flavor_2(body):
    nsd = body["gnb_nsds"][0]
    nsd["flavors"] = [f for f in nsd["flavors"] if f["flavor_id"] != 2]


def _city_center_subset_without_levels(body):
    flavor = next(f for f in body["du_vnfds"][0]["flavors"] if f["fronthaul_techs"] == ["ECPRI"])
    subset = next(s for s in flavor["il_subsets"]
                  if s["key"]["region_class"] == "CITY_CENTER" and s["key"]["min_cell_sites"] == 1)
    subset["levels"] = []


@pytest.mark.parametrize("mutate, message", [
    (_without_gnb_flavor_2,
     "NO_MATCHING_SUBSET (stage derive_gnb_il_subset): gNB NSD nsd-gnb-v1 has no flavor 2"),
    (_city_center_subset_without_levels,  # a subset without levels carries nothing
     "INSUFFICIENT_DU_CAPACITY (stage dimension_dus): region city-center: no DU count up to 8 carries "
     "150000 Mbps with the available IL subsets"),
], ids=["gnb-nsd-without-the-flavor", "du-subset-without-levels"])
def test_plan_on_an_unvalidated_catalog_is_a_diagnostic(doc_files, tmp_path, capsys, mutate, message):
    raw = json.loads(doc_files["catalog"].read_text())
    mutate(raw["body"])
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(raw))
    code = cli_main(["plan", str(doc_files["request"]), str(doc_files["topology"]), str(path)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (1, "", f"error: {message}\n")


def test_catalog_ru_on_another_site_than_the_areas(doc_files, tmp_path, capsys):
    raw = json.loads(doc_files["catalog"].read_text())
    raw["body"]["ru_pnfds"][0]["location"]["cell_site"] = "x"
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(raw))
    code = cli_main(["validate", str(catalog), str(doc_files["topology"])])
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert out.err == ("ru-cc-01: [ru-site-mismatch] cell site 'x' not in region city-center (location.cell_site)\n"
                       "1 violation(s)\n")
    plan = tmp_path / "plan.json"
    code = cli_main(["plan", str(doc_files["request"]), str(doc_files["topology"]), str(catalog), "--out", str(plan)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (0, "", "")
    assert plan.read_text() == (Path(__file__).parent / "data" / "plan_embb.json").read_text()
    code = cli_main(["emit", str(plan), str(catalog), "--out-dir", str(tmp_path / "bundle")])
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert out.err == ("error: DANGLING_PLAN_REFERENCE: cell sites of selected RUs not served: x; "
                       "served cell sites without a selected RU: cs-cc-01\n")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))


@pytest.mark.parametrize("max_dus, solver_limit", [(0, None), (-1, None), (0, 0)],
                         ids=["zero", "negative", "zero-greedy"])
def test_plan_with_cu_levels_that_serve_no_du(doc_files, tmp_path, max_dus, solver_limit):
    # A child process under a time and memory limit, so a solver that never
    # stops fails the test instead of filling the host's memory.
    raw = json.loads(doc_files["catalog"].read_text())
    for subset in raw["body"]["cu_vnfds"][0]["flavors"][0]["il_subsets"]:
        for level in subset["levels"]:
            level["role"]["max_dus"] = max_dus
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(raw))
    argv = ["plan", str(doc_files["request"]), str(doc_files["topology"]), str(catalog)]
    if solver_limit is not None:
        config = tmp_path / "config.json"
        config.write_text(serialize_document(envelope_for(PlannerConfig(exact_solver_limit=solver_limit))))
        argv += ["--config", str(config)]
    src = str(Path(ranslicer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-m", "ranslicer", *argv], capture_output=True, text=True,
                            env=env, timeout=10, preexec_fn=_limit_memory)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        "error: NO_MATCHING_SUBSET (stage assign_dus_to_cus): CU VNFD vnfd-cu-v1 has no CU level "
        f"that serves a DU (largest max_dus {max_dus})\n"
    )


def test_config_is_a_plan_option_only(doc_files, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(serialize_document(envelope_for(PlannerConfig())))
    assert cli_main(["validate", str(doc_files["catalog"]), "--config", str(path)]) == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


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

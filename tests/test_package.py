"""The package's deferred submodules: what each CLI command runs, first use
from several threads at once, and the public names of ``ranslicer``.

Each check of what runs is made in a child process, because this one has
run every module already."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import ranslicer

SOURCE = Path(ranslicer.__file__).resolve().parent
ROOT = SOURCE.parents[1]
DATA = ROOT / "tests" / "data"
FIXTURES = ROOT / "fixtures"
SUBMODULES = sorted(p.stem for p in SOURCE.glob("*.py") if not p.stem.startswith("__"))


def _child(code: str, *argv: str) -> str:
    """Run ``code`` in a fresh interpreter that imports ranslicer from this
    checkout; return its stdout, failing on a non-zero exit."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SOURCE.parent),
                                                                     os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                            env=env, timeout=120, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    return result.stdout


# Runs one command with its stdout captured, then prints its exit code and
# the submodules whose code ran (a deferred one is not yet a plain module).
_RUN_COMMAND = """
import contextlib, io, json, sys, types
from ranslicer.cli import cli_main
with contextlib.redirect_stdout(io.StringIO()):
    code = cli_main(sys.argv[1:])
print(json.dumps([code, sorted(name.split(".")[1] for name, m in sys.modules.items()
                               if name.startswith("ranslicer.") and type(m) is types.ModuleType)]))
"""

COMMON = ["cli", "errors", "model", "planner", "radio", "topology"]


def _ran(*argv) -> list[str]:
    code, ran = json.loads(_child(_RUN_COMMAND, *argv))
    assert code == 0
    return ran


def test_plan_and_emit_run_neither_builtin_nor_validate(tmp_path):
    plan = _ran("plan", str(FIXTURES / "request_embb.json"), str(FIXTURES / "reference_topology.json"),
                str(FIXTURES / "builtin_catalog.json"))
    emit = _ran("emit", str(DATA / "plan_embb.json"), str(FIXTURES / "builtin_catalog.json"),
                "--out-dir", str(tmp_path / "bundle"))
    assert plan == emit == sorted([*COMMON, "io"])


def test_validate_does_not_run_builtin():
    ran = _ran("validate", str(FIXTURES / "builtin_catalog.json"), str(FIXTURES / "reference_topology.json"))
    assert ran == sorted([*COMMON, "io", "validate"])


def test_paper_example_runs_neither_io_nor_validate():
    assert _ran("paper-example") == sorted([*COMMON, "builtin"])


def _last_defined(module: str) -> str:
    """The name the module's code binds last: a module that has not run to
    its end does not have it yet."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    for node in reversed(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return node.name
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            return node.targets[0].id
    raise AssertionError(f"{module} binds no name")


# Eight threads wait at a barrier, then each reads the last name of every
# submodule, all for the first time at once.
_FIRST_USE_FROM_THREADS = """
import json, sys, threading
import ranslicer

wanted = json.loads(sys.argv[1])
barrier = threading.Barrier(8)
errors = []

def touch():
    barrier.wait()
    for module, name in wanted:
        try:
            getattr(sys.modules[f"ranslicer.{module}"], name)
        except Exception as exc:
            errors.append(f"{type(exc).__name__}: {exc}")

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=touch) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
print(json.dumps([sum(thread.is_alive() for thread in threads), errors]))
"""


def test_first_use_from_eight_threads_at_once():
    wanted = [(module, _last_defined(module)) for module in SUBMODULES]
    alive, errors = json.loads(_child(_FIRST_USE_FROM_THREADS, json.dumps(wanted)))
    assert (alive, errors) == (0, [])


def test_public_names_resolve():
    namespace: dict = {}
    exec("from ranslicer import *", namespace)
    assert set(ranslicer.__all__) <= set(dir(ranslicer))
    for name in ranslicer.__all__:
        assert namespace[name] is getattr(ranslicer, name), name
        assert getattr(ranslicer, name).__module__ == f"ranslicer.{ranslicer._HOMES[name]}", name
    assert set(namespace) - {"__builtins__"} == set(ranslicer.__all__)


def test_submodule_imports_in_a_fresh_process():
    out = _child("\n".join([
        "import ranslicer.validate",
        "from ranslicer.builtin import builtin_catalog",
        "from ranslicer import SliceRequest",
        "print(ranslicer.validate.validate_catalog(builtin_catalog()), SliceRequest.__module__)",
    ]))
    assert out == "[] ranslicer.io\n"

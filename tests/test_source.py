"""Static checks on the package source; ``ast`` only, so no linter is needed."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).parent.parent / "src" / "ranslicer"


def _unused_imports(text: str) -> list[str]:
    """Names bound by the module-level imports of ``text`` that the module
    neither reads nor lists in ``__all__``.  ``__future__`` imports and
    import statements marked ``# noqa: F401`` are exempt."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported: dict[str, int] = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCE.glob("*.py")))
def test_module_level_imports_are_used(module):
    assert _unused_imports((SOURCE / module).read_text()) == []


def test_unused_import_check_sees_what_it_should():
    text = "\n".join([
        "from __future__ import annotations",
        "import os",
        "import os.path as osp",
        "from math import inf, pi",
        "from json import dumps  # noqa: F401 (re-exported for a caller)",
        "from re import (",
        "    compile,  # noqa: F401",
        ")",
        "from sys import argv",
        "__all__ = ['argv']",
        "print(os.sep, inf)",
    ])
    assert _unused_imports(text) == ["line 3: osp", "line 4: pi"]

"""Static checks on the package source; ``ast`` only, so no linter is needed.  One
check also imports the module, to compare a record's declaration with its class
and with the caches ``ranslicer.io`` keeps on it."""

import ast
import importlib
from pathlib import Path

import pytest

from ranslicer import io

SOURCE = Path(__file__).parent.parent / "src" / "ranslicer"
MODULES = sorted(p.name for p in SOURCE.glob("*.py"))


def _unused_imports(text: str) -> list[str]:
    """Names bound by the module-level imports of ``text`` that the module
    neither reads nor lists in ``__all__``.  Only an ``__all__`` written as
    a literal list or tuple lists names; a computed one lists none.
    ``__future__`` imports and import statements marked ``# noqa: F401``
    are exempt."""
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
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
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
    # A computed __all__ lists no names; a literal tuple does.
    computed = "\n".join([
        "from sys import argv",
        "from os import sep",
        "__all__ = sorted({'argv': 'sys'})",
        "__all__ = ('sep',)",
    ])
    assert _unused_imports(computed) == ["line 1: argv"]


def _frozen_dataclasses(text: str) -> list[str]:
    """Classes of ``text`` decorated with ``dataclass(...)`` or
    ``dataclasses.dataclass(...)`` whose ``frozen`` is not a false constant."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            func = dec.func if isinstance(dec, ast.Call) else None
            if (isinstance(func, ast.Name) and func.id == "dataclass"
                    or isinstance(func, ast.Attribute) and func.attr == "dataclass") and any(
                    k.arg == "frozen" and not (isinstance(k.value, ast.Constant) and not k.value.value)
                    for k in dec.keywords):
                found.append(node.name)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_records_are_declared_with_model_record(module):
    """``@dataclass(frozen=True)`` compiles six methods per class on every
    import, where ``model.record`` compiles three by one ``exec``."""
    assert _frozen_dataclasses((SOURCE / module).read_text()) == []


def test_frozen_dataclass_check_sees_what_it_should():
    text = "\n".join([
        "import dataclasses",
        "from dataclasses import dataclass",
        "@dataclass(frozen=True)",
        "class A: pass",
        "@dataclasses.dataclass(order=True, frozen=True)",
        "class B: pass",
        "@dataclass(frozen=False)",
        "class C: pass",
        "@dataclass",
        "class D: pass",
        "@record",
        "class E: pass",
        "def f():",
        "    @dataclass(frozen=FROZEN)",
        "    class F: pass",
    ])
    assert _frozen_dataclasses(text) == ["A", "B", "F"]


def _undocumented_records(text: str) -> list[str]:
    """Classes of ``text`` decorated ``@record`` that have no docstring of their own."""
    return [node.name for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ClassDef) and ast.get_docstring(node) is None
            and any(isinstance(dec, ast.Name) and dec.id == "record" for dec in node.decorator_list)]


@pytest.mark.parametrize("module", MODULES)
def test_records_have_authored_docstrings(module):
    """For an undocumented record, dataclasses builds ``__doc__`` from
    ``inspect.signature`` on every import, about 1 ms over 20 records."""
    assert _undocumented_records((SOURCE / module).read_text()) == []


def test_undocumented_record_check_sees_what_it_should():
    text = "\n".join([
        "@record",
        "class A:",
        "    x: int",
        "@record",
        "class B:",
        '    """B."""',
        "@dataclass",
        "class C:",
        "    x: int",
        "def f():",
        "    @record",
        "    class D:",
        "        x: int",
    ])
    assert _undocumented_records(text) == ["A", "D"]


def _record_caches(text: str) -> dict[str, tuple[bool, bool]]:
    """Classes of ``text`` decorated ``@record``, each with whether it defines
    a ``cached_property`` and whether its body declares ``__slots__``."""
    def cached(node) -> bool:
        return any(isinstance(dec, ast.Name) and dec.id == "cached_property" for dec in node.decorator_list)

    def declares_slots(node) -> bool:
        return any(isinstance(target, ast.Name) and target.id == "__slots__" for target in node.targets)

    return {node.name: (any(isinstance(item, ast.FunctionDef) and cached(item) for item in node.body),
                        any(isinstance(item, ast.Assign) and declares_slots(item) for item in node.body))
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(dec, ast.Name) and dec.id == "record" for dec in node.decorator_list)}


@pytest.mark.parametrize("module", MODULES)
def test_records_keep_a_dict_only_for_their_caches(module):
    """A ``__dict__`` slot is where a record's caches live: its
    ``cached_property`` indexes, and the canonical text ``io`` writes once
    for each class it registers with ``_written_once``, which must declare
    ``__slots__ = ("__dict__",)``.  A record without one builds, pickles and
    takes memory as fields alone, so ``model.record`` must give the slot to
    exactly those records."""
    records = _record_caches((SOURCE / module).read_text())
    if records:
        found = vars(importlib.import_module(f"ranslicer.{module.removesuffix('.py')}"))
        written_once = {cls for cls, override in io._OVERRIDES.items() if override is io._written_once}
        assert {name: found[name] in written_once for name in records} == {
            name: declared for name, (_, declared) in records.items()}
        assert {name: "__dict__" in found[name].__slots__ for name in records} == {
            name: cached or declared for name, (cached, declared) in records.items()}


def test_record_cache_check_sees_what_it_should():
    text = "\n".join([
        "@record",
        "class A:",
        "    x: int",
        "    @cached_property",
        "    def index(self): return {}",
        "@record",
        "class B:",
        "    x: int",
        "    @property",
        "    def size(self): return 1",
        "class C:",
        "    @cached_property",
        "    def index(self): return {}",
        "@record",
        "class D:",
        "    __slots__ = ('__dict__',)",
        "    x: int",
    ])
    assert _record_caches(text) == {"A": (True, False), "B": (False, False), "D": (False, True)}

"""Static checks over the package source."""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

import ts_groups

SOURCES = sorted(Path(ts_groups.__file__).parent.glob("*.py"))

# names the package re-exports, by module stem
REEXPORTS = {}
for _node in ast.parse(Path(ts_groups.__file__).read_text()).body:
    if isinstance(_node, ast.ImportFrom) and _node.level == 1:
        REEXPORTS.setdefault(_node.module, []).extend(a.name for a in _node.names)


def _module(path):
    name = "ts_groups" if path.stem == "__init__" else f"ts_groups.{path.stem}"
    return importlib.import_module(name)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_raised_exception_names_resolve(path):
    """Every `raise Name(...)` names something the module or builtins
    define; otherwise the branch dies with a NameError instead of the
    error's exit code."""
    module = _module(path)
    unresolved = [
        (node.lineno, node.exc.func.id)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and not hasattr(module, node.exc.func.id)
        and not hasattr(builtins, node.exc.func.id)
    ]
    assert unresolved == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exports_resolve(path):
    """Every `__all__` entry exists, and every name the package imports
    from the module is in its `__all__`; deleting an export then cannot
    leave a stale name behind."""
    module = _module(path)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert [n for n in REEXPORTS.get(path.stem, []) if n not in exported] == []

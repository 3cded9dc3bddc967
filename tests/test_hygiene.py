"""Static checks over the package source."""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

import ts_groups

SOURCES = sorted(Path(ts_groups.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_raised_exception_names_resolve(path):
    """Every `raise Name(...)` names something the module or builtins
    define; otherwise the branch dies with a NameError instead of the
    error's exit code."""
    name = "ts_groups" if path.stem == "__init__" else f"ts_groups.{path.stem}"
    module = importlib.import_module(name)
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

import ast
import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "fisherdyn"


def declared_entry_points():
    """(group, name, "module:attr") for every script and entry point the
    project declares."""
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    groups = {"console_scripts": project.get("scripts", {}),
              "gui_scripts": project.get("gui-scripts", {}),
              **project.get("entry-points", {})}
    return [(group, name, target) for group, entries in groups.items()
            for name, target in entries.items()]


def resolve(target: str):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module.strip())
    for part in filter(None, attr.strip().split(".")):
        obj = getattr(obj, part)
    return obj


def test_every_declared_entry_point_resolves():
    for group, name, target in declared_entry_points():
        assert callable(resolve(target)), f"{group} entry {name} = {target!r}"


def test_resolve_rejects_a_missing_module():
    assert resolve("fisherdyn.training:train_regime") is not None
    with pytest.raises(ModuleNotFoundError):
        resolve("fisherdyn.cli:main")


def unused_imports(source: str) -> list:
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {path.name: unused_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_detector():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "from .nets import mlp_forward\n"
              "__all__ = ['mlp_forward']\n"
              "x = np.zeros(1)\n"
              "@dataclass\nclass A:\n    y: int = 0\n")
    assert unused_imports(source) == ["field (line 3)", "os (line 2)"]

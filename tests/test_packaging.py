import ast
import importlib
from collections import Counter
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


def definitions(tree) -> list:
    """(name, node) of the top-level functions and classes of a module and of
    the methods of those classes, dunder methods excepted."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    out = []
    for node in tree.body:
        if isinstance(node, defs):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(item.name, item) for item in node.body
                    if isinstance(item, defs[:2]) and not item.name.startswith("__")]
    return out


def name_uses(tree) -> Counter:
    """How often each name is read as a bare name or as an attribute; the
    strings of ``__all__`` and the ``def`` lines themselves do not count."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def dead_definitions(package: dict, others: list) -> list:
    """Definitions of the ``package`` modules (file name -> source) that no
    code outside their own body uses, in the package or in ``others``."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    uses = sum((name_uses(t) for t in [*trees.values(), *map(ast.parse, others)]),
               Counter())
    return sorted(f"{module}:{name} (line {node.lineno})"
                  for module, tree in trees.items()
                  for name, node in definitions(tree)
                  if uses[name] == name_uses(node)[name])


def test_no_dead_definitions():
    root = PYPROJECT.parent
    others = [path.read_text() for folder in ("tests", "perfbench")
              for path in sorted((root / folder).rglob("*.py"))]
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert package and others
    assert dead_definitions(package, others) == []


def test_dead_definition_detector():
    module = ("__all__ = ['dead', 'A']\n"
              "def dead(): pass\n"
              "def recursive(n): return recursive(n - 1)\n"
              "def used(): pass\n"
              "class A:\n"
              "    def __init__(self): self.kept()\n"
              "    def kept(self): pass\n"
              "    def unused(self): pass\n"
              "    @property\n    def size(self): return 1\n")
    elsewhere = "from m import used, A\nx = A().size + used()\n"
    assert dead_definitions({"m.py": module}, [elsewhere]) == [
        "m.py:dead (line 2)", "m.py:recursive (line 3)", "m.py:unused (line 8)"]


def file_io_calls(source: str) -> list:
    """Calls in a module that open a file or use ``json``: ``open`` as a name
    or a method, and every ``json.<name>``."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            calls.append((node.lineno, "open"))
        elif isinstance(func, ast.Attribute) and (
                func.attr == "open"
                or isinstance(func.value, ast.Name) and func.value.id == "json"):
            calls.append((node.lineno, ast.unparse(func)))
    return [f"{name} (line {line})" for line, name in sorted(calls)]


def test_file_io_stays_in_the_codec():
    io = {path.name: file_io_calls(path.read_text())
          for path in sorted(PACKAGE.glob("*.py")) if path.name != "_codec.py"}
    assert io
    assert {name: calls for name, calls in io.items() if calls} == {}


def test_file_io_detector():
    source = ("import json, gzip\n"
              "with open(p) as fh:\n    doc = json.load(fh)\n"
              "text = json.dumps(doc)\n"
              "gzip.open(p).read()\n"
              "fh.write(text)\n")
    assert file_io_calls(source) == ["open (line 2)", "json.load (line 3)",
                                     "json.dumps (line 4)", "gzip.open (line 5)"]

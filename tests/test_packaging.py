import ast
import importlib
import runpy
import types
from collections import Counter
from pathlib import Path

import numpy as np
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


def unresolved_exports(module) -> list:
    """Names in ``module.__all__`` that are not attributes of the module."""
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_every_exported_name_resolves():
    """The package and each public module list their exports in ``__all__``,
    and every listed name exists (a stale one breaks ``import *``)."""
    modules = [importlib.import_module("fisherdyn")] + [
        importlib.import_module(f"fisherdyn.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py")) if not path.stem.startswith("_")]
    assert len(modules) > 1
    assert {m.__name__: unresolved_exports(m) for m in modules if unresolved_exports(m)} == {}


def test_unresolved_export_detector():
    module = types.ModuleType("m")
    module.__all__ = ["kept", "gone"]
    module.kept = 1
    assert unresolved_exports(module) == ["gone"]


def traced_functions() -> list:
    """The fisherdyn functions ("module.function") that the benchmark's span
    tracer rebinds: every layer's ``functions`` and ``_EXTRA_FUNCTIONS``."""
    tracer = runpy.run_path(str(PYPROJECT.parent / "perfbench" / "tracer.py"))
    return ([name for layer in tracer["LAYERS"] for name in layer.functions]
            + [name for _, name, _ in tracer["_EXTRA_FUNCTIONS"]])


def test_every_traced_function_resolves():
    names = traced_functions()
    assert "datagen.read_dataset" in names
    missing = []
    for name in names:
        module, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"fisherdyn.{module}"), function, None)):
            missing.append(name)
    assert missing == []


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


# Attribute names of the containers the package passes around. ``x.copy()``
# is as likely an array's or a dict's call as a package method's, so an
# attribute use of these names keeps a method alive only through a receiver
# that names its class: ``self``, ``cls``, a capitalised class name or a
# call of one (``A().size``).
AMBIGUOUS = frozenset(name for kind in (np.ndarray, dict, list) for name in dir(kind))


def imported_modules(tree) -> set:
    """Names that a plain ``import`` of a module outside the package binds
    (``np`` for ``import numpy as np``). ``json.load`` reads json's ``load``,
    never a package definition; a module bound by ``from fisherdyn import
    datagen`` is the package's own and is not listed."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] != "fisherdyn"}


def _counts_as_use(node, modules) -> bool:
    if isinstance(node, ast.Name):
        return True
    if not isinstance(node, ast.Attribute):
        return False
    root = node.value
    while isinstance(root, ast.Attribute):
        root = root.value
    if isinstance(root, ast.Name) and root.id in modules:
        return False
    if node.attr not in AMBIGUOUS:
        return True
    receiver = node.value.func if isinstance(node.value, ast.Call) else node.value
    return isinstance(receiver, ast.Name) and (receiver.id in ("self", "cls")
                                               or receiver.id[:1].isupper())


def name_uses(tree, modules=None) -> Counter:
    """How often each name is read as a bare name or as an attribute (not
    through a name in ``modules``, by default the ``imported_modules`` of
    ``tree``; for the ``AMBIGUOUS`` names, only through a class receiver);
    the strings of ``__all__`` and the ``def`` lines themselves do not count."""
    if modules is None:
        modules = imported_modules(tree)
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if _counts_as_use(node, modules))


def dead_definitions(package: dict, others: list) -> list:
    """Definitions of the ``package`` modules (file name -> source) that no
    code outside their own body uses, in the package or in ``others``."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    uses = sum((name_uses(t) for t in [*trees.values(), *map(ast.parse, others)]),
               Counter())
    return sorted(f"{module}:{name} (line {node.lineno})"
                  for module, tree in trees.items()
                  for name, node in definitions(tree)
                  if uses[name] == name_uses(node, imported_modules(tree))[name])


def package_sources() -> dict:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def folder_sources(*folders) -> list:
    root = PYPROJECT.parent
    return [path.read_text() for folder in folders
            for path in sorted((root / folder).rglob("*.py"))]


def test_no_dead_definitions():
    package, others = package_sources(), folder_sources("tests", "perfbench")
    assert package and others
    assert dead_definitions(package, others) == []


# Definitions that only tests call, no package or benchmark code, and why
# each may stay. A name found beyond this list is library surface kept alive
# by its own tests: delete it, or move it into tests/oracles.py if tests use
# it as a reference.
TEST_ONLY_ALLOWED = {
    # the benchmark tracer hooks it by the string "estimator.predict_next_velocities"
    "estimator.py:predict_next_velocities",
    # turns estimated coefficients into tire and drivetrain structs, the way to
    # build a model from an estimate and compare its Fisher field
    "estimator.py:coefficients_to_structs",
    # report writers of the pipeline's outputs
    "fidelity.py:most_deviated",
    "fidelity.py:to_csv",
    "fisher.py:to_csv",
    "fisher.py:to_json",
    "nets.py:save",
    # checkpoint reader, the pair of ``save``
    "nets.py:load",
    "training.py:curve_csv",
}


def test_no_definitions_that_only_tests_call():
    dead = dead_definitions(package_sources(), folder_sources("perfbench"))
    assert {entry.split(" (line")[0] for entry in dead} == TEST_ONLY_ALLOWED


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

    # a read through a plainly imported module (json.load, np.linalg.norm) is
    # that module's; one through a module of the package is the package's
    module = ("import json\n"
              "class C:\n"
              "    def load(self): return json.load(open('p'))\n"
              "    def norm(self): pass\n"
              "def helper(): pass\n")
    elsewhere = ("import numpy as np\nimport fisherdyn.m\nfrom fisherdyn import m\n"
                 "np.linalg.norm(m.C())\nfisherdyn.m.helper()\n")
    assert dead_definitions({"m.py": module}, [elsewhere]) == [
        "m.py:load (line 3)", "m.py:norm (line 4)"]


def test_dead_definition_detector_sees_methods_named_like_array_calls():
    module = ("import numpy as np\n"
              "class P:\n"
              "    def copy(self): pass\n"
              "    def mean(self): pass\n"
              "    def total(self): return self.mean()\n"
              "    def keys(self): pass\n"
              "def use(p): return np.zeros(2).copy().mean() + {}.keys() + p.total()\n")
    elsewhere = "from m import P, use\nuse(P())\nP.keys\n"
    assert dead_definitions({"m.py": module}, [elsewhere]) == ["m.py:copy (line 3)"]


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


def defaulted_parameters(tree) -> list:
    """(call name, self shift, parameter index or None, parameter name) of each
    defaulted parameter of a module's functions and of its classes' methods.
    A class's ``__init__`` is called by the class name; a method, other than a
    static one, is called with ``self`` or ``cls`` already bound, so that
    its i-th parameter is the call's (i - 1)-th argument. Other dunder
    methods and dataclass fields are not options a call sets."""
    funcs = ast.FunctionDef, ast.AsyncFunctionDef
    defs = [(node.name, 0, node) for node in tree.body if isinstance(node, funcs)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for item in cls.body:
            if isinstance(item, funcs) and (item.name == "__init__"
                                            or not item.name.startswith("__")):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in item.decorator_list)
                defs.append((cls.name if item.name == "__init__" else item.name,
                             0 if static else 1, item))
    out = []
    for name, shift, node in defs:
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out += [(name, shift, i, p.arg) for i, p in enumerate(positional) if i >= first]
        out += [(name, shift, None, p.arg)
                for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _sets(call, shift, index, param) -> bool:
    """Whether ``call`` passes the parameter: by position (methods shift by
    ``self``), by keyword, or possibly through ``*args`` or ``**kwargs``."""
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, param) for k in call.keywords)):
        return True
    return index is not None and len(call.args) > index - shift


def unset_options(package: dict, others: list) -> list:
    """The defaulted parameters of the ``package`` modules (file name ->
    source) that no call in the package or in ``others`` sets; calls are
    matched to definitions by name."""
    calls = {}
    for tree in [*map(ast.parse, package.values()), *map(ast.parse, others)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return sorted(f"{module}:{name}({param})"
                  for module, source in package.items()
                  for name, shift, index, param in defaulted_parameters(ast.parse(source))
                  if not any(_sets(c, shift, index, param) for c in calls.get(name, [])))


# Options that no package or benchmark code sets, and why each may stay. A
# name found beyond this list is a setting with one value in use: write that
# value into the code, or add the option here with the reason it stays.
UNSET_OPTIONS_ALLOWED = {
    # the fixed directions of a Fisher field, the way to compare fields along
    # one state axis
    "fisher.py:evaluate_field(policy)",
    # the estimator's guard brackets, which a study of mis-bracketed guards sets
    "estimator.py:train_coefficient_estimator(bounds)",
    # the verdict's thresholds, which a study sets to its own precision
    "fidelity.py:well_trained_verdict(tolerances)",
    # a kinematic car of another wheelbase
    "dynamics.py:KinematicModel(params)",
    # the sizes that shrink a dataset or a validation set for a quick run
    "datagen.py:generate_kinematic_dataset(n_arcs)",
    "datagen.py:generate_kinematic_dataset(n_straights)",
    "training.py:build_training_data(n_validation)",
}


def test_every_option_has_a_caller():
    package, others = package_sources(), folder_sources("perfbench")
    assert package and others
    assert set(unset_options(package, others)) == UNSET_OPTIONS_ALLOWED


def test_unset_option_detector():
    module = ("import dataclasses\n"
              "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
              "def g(x=0): return f(1, 2, d=5)\n"
              "def h(y=0, z=0): pass\n"
              "class K:\n"
              "    def __init__(self, p=None, q=None): pass\n"
              "    def m(self, r=0, s=0): pass\n"
              "    @staticmethod\n    def st(v=0): pass\n"
              "    def __call__(self, w=0): pass\n"
              "@dataclasses.dataclass\nclass D:\n    field: int = 0\n")
    elsewhere = ("from m import K, h, st\n"
                 "K(None).m(1)\n"
                 "st(*[1])\n"
                 "h(**{'y': 1})\n")
    assert unset_options({"m.py": module}, [elsewhere]) == [
        "m.py:K(q)", "m.py:f(c)", "m.py:f(e)", "m.py:g(x)", "m.py:m(s)"]

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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

"""Package metadata points only at code that exists."""

import importlib
import re
from pathlib import Path

import pytest

import molfuse

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for script, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{script} = {target!r} is not callable"


def test_package_docstring_lists_every_module():
    listed = set(re.findall(r":mod:`molfuse\.(\w+)`", molfuse.__doc__))
    present = {p.stem for p in Path(molfuse.__file__).parent.glob("*.py")} - {"__init__"}
    assert listed == present

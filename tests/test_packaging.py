"""Package metadata points only at code that exists, and the pytest settings
report every failure."""

import importlib
import re
import subprocess
import sys
import textwrap
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


def test_module_docstrings_cite_only_existing_private_names():
    for path in sorted(Path(molfuse.__file__).parent.glob("*.py")):
        module = importlib.import_module("molfuse" if path.stem == "__init__" else f"molfuse.{path.stem}")
        cited = set(re.findall(r"``(_\w+)``", module.__doc__ or ""))
        missing = sorted(name for name in cited if not hasattr(module, name))
        assert not missing, f"{module.__name__} docstring cites {missing}"


def test_failing_property_test_prints_its_example_and_the_run_goes_on(tmp_path):
    # Under the repo's warning filters, a failing @given test must be reported
    # as a plain failure: exit 1, the falsifying example, and later tests run.
    (tmp_path / "test_probe.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_fails(x):
                assert x < 5

            def test_after():
                pass
            """
        )
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "1 failed, 1 passed" in out, out

"""Package metadata points only at code that exists and declares installable
floors, every public name has a user, and the pytest settings report every
failure."""

import ast
import dataclasses
import importlib
import importlib.metadata
import inspect
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from packaging.requirements import Requirement
from packaging.version import Version

import molfuse

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for script, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{script} = {target!r} is not callable"


def _floor(requirement):
    """The least version that a requirement's ``>=`` clauses allow."""
    return max(Version(spec.version) for spec in requirement.specifier if spec.operator == ">=")


def test_numpy_floor_meets_the_installed_scipys():
    # A numpy at the declared floor must be one the installed scipy accepts.
    tomllib = pytest.importorskip("tomllib")
    declared = {
        r.name: r
        for r in map(Requirement, tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"])
    }
    scipy_numpy = [
        r
        for r in map(Requirement, importlib.metadata.requires("scipy") or [])
        if r.name == "numpy" and (r.marker is None or r.marker.evaluate({"extra": ""}))
    ]
    assert scipy_numpy, "the installed scipy declares no numpy requirement"
    assert _floor(declared["numpy"]) >= _floor(scipy_numpy[0])


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


def _names_used(path: Path) -> set[str]:
    """Names a file uses as a Name, an Attribute's attr or an import alias,
    outside the annotated assignment of ``OP_CASES`` (its rows only register
    ops for gradient checks)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and node.target.id == "OP_CASES"
    }
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_every_public_name_has_a_user():
    # A public function or class is kept only while package or benchmark
    # code names it; tests alone do not count as a user.
    package = Path(molfuse.__file__).parent
    sources = sorted(package.glob("*.py")) + [
        p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")
    ]
    used = set().union(*map(_names_used, sources))
    # Tier-1's finite-difference suite is check_case's user.
    exempt = {"molfuse.gradcheck.check_case"}
    unused = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module("molfuse" if path.stem == "__init__" else f"molfuse.{path.stem}")
        for name, obj in vars(module).items():
            public = not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            qualname = f"{module.__name__}.{name}"
            if public and obj.__module__ == module.__name__ and name not in used and qualname not in exempt:
                unused.append(qualname)
    assert not unused, f"no package or benchmark code uses {unused}"


def test_every_dataclass_option_has_a_caller():
    # A field that a molfuse dataclass's constructor takes is kept only while
    # package or benchmark code passes it.  Positional arguments fill the
    # leading fields and keywords count by name; a call is matched by the
    # class's name, as ``AdamState(...)`` or ``model.Batch(...)``.
    package = Path(molfuse.__file__).parent
    sources = sorted(package.glob("*.py")) + [
        p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")
    ]
    calls: dict[str, list[ast.Call]] = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                calls.setdefault(getattr(node.func, "id", None) or getattr(node.func, "attr", None), []).append(node)
    unpassed = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module("molfuse" if path.stem == "__init__" else f"molfuse.{path.stem}")
        for name, obj in vars(module).items():
            if not (inspect.isclass(obj) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__):
                continue
            fields = [f.name for f in dataclasses.fields(obj) if f.init]
            passed = set()
            for call in calls.get(name, []):
                leading = next((k for k, a in enumerate(call.args) if isinstance(a, ast.Starred)), len(call.args))
                passed.update(fields[:leading], (kw.arg for kw in call.keywords))
            unpassed += [f"{module.__name__}.{name}.{field}" for field in fields if field not in passed]
    assert not unpassed, f"no package or benchmark call passes {unpassed}"


def test_fresh_import_loads_only_two_compiled_scipy_modules():
    # Importing scipy's Python packages costs a fresh process about 0.2 s and
    # 26 MB; molfuse loads only the two extension modules it calls.
    package = Path(molfuse.__file__).parent
    modules = ["molfuse"] + [f"molfuse.{p.stem}" for p in sorted(package.glob("*.py")) if p.stem != "__init__"]
    code = (
        "import importlib, sys\n"
        f"for name in {modules!r}: importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(package.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy.sparse._sparsetools', 'scipy.special._special_ufuncs']"


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

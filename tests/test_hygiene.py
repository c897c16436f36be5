"""Static hygiene checks over the package, the tests and the scripts."""

import ast
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

from cvsquash.verify import SUITES

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: every module except the package's __init__.py, whose imports are re-exports
FILES = sorted(
    path
    for folder in ("src/cvsquash", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(tree):
    """Names an import binds that the module never reads and does not list in __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_files_found():
    assert {path.parent.name for path in FILES} == {"cvsquash", "tests", "scripts"}


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "cvsquash").glob("*.py")),
                         ids=lambda path: path.name)
def test_package_uses_no_unchecked_strides(path):
    # as_strided checks no bounds; np.ndarray(..., buffer=, offset=, strides=) raises
    # ValueError for a view that leaves its buffer, so the package builds views that way
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "as_strided" not in names


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "cvsquash").glob("*.py")),
                         ids=lambda path: path.name)
def test_overflow_refused_only_by_finite(path):
    # every overflowing combination is refused by errors.finite, with one message form
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    texts = [node.value for raise_ in ast.walk(tree) if isinstance(raise_, ast.Raise)
             for node in ast.walk(raise_) if isinstance(node, ast.Constant)
             and isinstance(node.value, str) and "overflows" in node.value]
    assert path.name == "errors.py" or texts == []


def test_nothing_imports_scipy():
    # scipy is no dependency: the package, the tests and the scripts do without it
    for path in (path for folder in ("src/cvsquash", "tests", "scripts")
                 for path in (ROOT / folder).glob("*.py")):  # __init__.py too
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not {m for m in modules if m and m.split(".")[0] == "scipy"}, path


def test_reference_imports_no_package():
    # the tests' references stay independent of the code they cross-check
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "numpy" in modules
    assert not {m for m in modules if m.split(".")[0] == "cvsquash"}


def test_package_imports_no_scipy():
    # at run time too: importing the package and its CLI loads no scipy module
    code = (
        "import sys, cvsquash, cvsquash.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.stdout.strip() == "[]"


def test_readme_lists_every_suite():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    line = readme.split("Verification suites:", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([^`]+)`", line) == sorted(SUITES)


def test_readme_states_each_suite_tolerance():
    # each bullet "`name` (criterion NN, tolerance T, ...)" gives the suite's default
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = dict(re.findall(r"^- `([^`]+)` \(criterion \d\d, tolerance ([^,]+),", readme, re.M))
    assert sorted(stated) == sorted(SUITES)
    for name, text in stated.items():
        default = inspect.signature(SUITES[name]).parameters["tolerance"].default
        assert float(text) == default, name


def test_traced_functions_exist():
    # the benchmark's tracer skips absent names silently, so a rename would
    # empty a per-layer metric without failing the benchmark; bench is read,
    # not imported
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    assert layers
    for layer, functions in layers.items():
        module = importlib.import_module(f"cvsquash.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"

"""No module, script or test imports another module's private names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py"))


def private_imports(tree: ast.AST) -> list[str]:
    """`from puedet... import _x` and relative `from . import _x` statements."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "puedet":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"line {node.lineno}: from {'.' * node.level}{module} import {alias.name}")
    return found


def test_sources_were_found():
    assert any(p.name == "experiments.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_cross_module_private_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert private_imports(tree) == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("from puedet.experiments import _run_cell", True),
        ("from .experiments import run_cell, _kinematics", True),
        ("from . import _x", True),
        ("from puedet import __version__", False),
        ("from puedet.experiments import run_cell", False),
        ("from numpy import _core", False),
    ],
)
def test_guard_recognizes_private_imports(source, flagged):
    assert bool(private_imports(ast.parse(source))) == flagged


@pytest.mark.parametrize("module", ["experiments.py", "detection.py"])
def test_experiments_reach_the_tracker_only_through_the_scenario(module):
    """The scenario owns its tracker: the Monte Carlo engine and the
    reference route take the same law of the filter's estimate from
    ``Scenario.estimate_law``, the reference route takes its states from
    ``Scenario.track``, the detector takes a position, and neither imports
    anything from ``puedet.tracking`` itself."""
    tree = ast.parse((ROOT / "src" / "puedet" / module).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "tracking" for name in names):
            found.append(f"line {node.lineno}")
    assert found == []

"""Static checks on the package source, using only the standard library.

No linter is a dependency, so the stale imports and ``__all__`` entries that
removals tend to leave behind are caught here.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinbattery"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _imported_names(tree):
    """Names bound at module level by import statements (``__future__`` aside)."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_all_eight_modules_are_checked():
    assert MODULES == ["__init__", "cli", "ed", "ising", "quench", "regimes", "sums", "xy"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_no_unused_imports(module):
    # the package __init__ imports only to re-export, so it is left out
    tree = _tree(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree) if name not in used]
    assert unused == []


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module("spinbattery" if module == "__init__" else f"spinbattery.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    target = "spinbattery" if module == "__init__" else f"spinbattery.{module}"
    namespace = {}
    exec(f"from {target} import *", namespace)
    assert len(namespace) > 1

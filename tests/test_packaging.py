"""Packaging metadata against the code.

Core claims:
    - every third-party module that src/cubekern imports, at module level or
      inside a function, is declared in pyproject.toml's dependencies, and
      every declared dependency is imported
    - every name in a module's __all__ resolves in that module, so removing
      a name cannot leave a stale export
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path.stem for path in (ROOT / "src" / "cubekern").glob("*.py"))


def declared_dependencies() -> set[str]:
    """Distribution names of ``[project] dependencies``, read without tomllib (Python 3.10)."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r"^dependencies\s*=\s*(\[.*?\])", text, re.MULTILINE | re.DOTALL)
    assert match, "pyproject.toml declares no dependencies list"
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower().replace("-", "_") for dep in ast.literal_eval(match[1])}


def third_party_imports() -> set[str]:
    names = set()
    for path in sorted((ROOT / "src" / "cubekern").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names if name not in sys.stdlib_module_names and name != "cubekern"}


def test_dependencies_match_imports():
    imported = third_party_imports()
    assert "numpy" in imported
    assert imported == declared_dependencies()


@pytest.mark.parametrize("stem", MODULES)
def test_every_export_resolves(stem):
    module = importlib.import_module("cubekern" if stem == "__init__" else f"cubekern.{stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ names what it does not define"

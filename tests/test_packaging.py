"""Packaging metadata against the code.

Core claims:
    - every third-party module that src/cubekern imports, at module level or
      inside a function, is declared in pyproject.toml's dependencies, and
      every declared dependency is imported
    - no src/cubekern module imports scipy at module level
    - every name in a module's __all__ resolves in that module, so removing
      a name cannot leave a stale export
    - every function and method that perfbench/tracing.py wraps resolves on
      cubekern (a method in its class __dict__, where install reads it), so
      a rename cannot break a traced benchmark run unseen
"""

import ast
import importlib
import importlib.util
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


def imported_names(nodes) -> set[str]:
    """Top-level package names of the absolute imports among ``nodes``."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def module_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted((ROOT / "src" / "cubekern").glob("*.py"))}


def import_time_nodes(tree: ast.Module):
    """The nodes of ``tree`` that run when the module is imported: all but function bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        )


def third_party_imports() -> set[str]:
    names = set().union(*(imported_names(ast.walk(tree)) for tree in module_trees().values()))
    return {name for name in names if name not in sys.stdlib_module_names and name != "cubekern"}


def test_dependencies_match_imports():
    imported = third_party_imports()
    assert "numpy" in imported
    assert imported == declared_dependencies()


@pytest.mark.parametrize("stem", MODULES)
def test_scipy_is_never_imported_at_module_level(stem):
    """Importing scipy.optimize raises a fresh process's peak RSS from about
    30 to 77 MiB, which every workload's peak_rss_mib would carry; a module
    that needs scipy imports it inside the function that uses it."""
    module_level = imported_names(import_time_nodes(module_trees()[stem]))
    assert "scipy" not in module_level, f"cubekern.{stem} imports scipy at module level"


@pytest.mark.parametrize("stem", MODULES)
def test_every_export_resolves(stem):
    module = importlib.import_module("cubekern" if stem == "__init__" else f"cubekern.{stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ names what it does not define"


def tracing_module():
    """perfbench/tracing.py, loaded by path under a private name; nothing under perfbench/ is imported as a package."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up while the file runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves():
    tracing = tracing_module()
    missing = []
    for mod_name, attr, *_ in tracing._FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"cubekern.{mod_name}"), attr, None)):
            missing.append(f"{mod_name}.{attr}")
    for mod_name, cls_name, attr, *_ in tracing._METHODS:
        cls = getattr(importlib.import_module(f"cubekern.{mod_name}"), cls_name, None)
        if attr not in getattr(cls, "__dict__", {}):
            missing.append(f"{mod_name}.{cls_name}.{attr}")
    assert tracing._FUNCTIONS and tracing._METHODS
    assert missing == [], "perfbench/tracing.py wraps names cubekern does not define"

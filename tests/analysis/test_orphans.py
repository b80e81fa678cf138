"""Orphan-module guard: every module under ``src/repro`` has a caller.

A module counts as used when some file outside ``tests/`` (the library
itself, perfbench, benchmarks, examples) imports it or references one of
its top-level public names.  The module's own package ``__init__``
re-exporting it does not count, and neither does the module itself.  Code
only its unit tests call is dead weight: delete it with its tests.

Exempt: package ``__init__``/``__main__`` files, and the modules that
register themselves by decorator when their package is imported (the lint
rules and the bench suites).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

pytestmark = pytest.mark.analysis

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
CONSUMER_ROOTS = ("src", "perfbench", "benchmarks", "examples")
EXEMPT_PACKAGES = (("repro", "analysis", "rules"), ("repro", "perf", "suites"))


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def is_exempt(path: Path) -> bool:
    parts = path.relative_to(SRC).parts
    return path.name in ("__init__.py", "__main__.py") or parts[:-1] in EXEMPT_PACKAGES


def public_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def package_of(path: Path) -> str:
    """Dotted package a file's relative imports resolve against."""
    if path.is_relative_to(SRC):
        name = module_name(path)
        return name if path.name == "__init__.py" else name.rpartition(".")[0]
    return ""


def uses(path: Path, tree: ast.Module) -> tuple[set[str], set[str]]:
    """(modules imported, identifiers referenced) by one file."""
    modules: set[str] = set()
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = package_of(path).split(".")
                anchor = ".".join(package[: len(package) - node.level + 1])
                base = f"{anchor}.{base}" if base else anchor
            modules.add(base)
            for alias in node.names:
                modules.add(f"{base}.{alias.name}")
                names.add(alias.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return modules, names


def orphan_modules() -> list[str]:
    consumers = {
        path: uses(path, ast.parse(path.read_text(), filename=str(path)))
        for root in CONSUMER_ROOTS
        for path in sorted((REPO / root).rglob("*.py"))
    }
    orphans = []
    for path in sorted(SRC.joinpath("repro").rglob("*.py")):
        if is_exempt(path):
            continue
        name = module_name(path)
        public = public_names(ast.parse(path.read_text(), filename=str(path)))
        own_init = path.parent / "__init__.py"
        if not any(
            name in modules or public & names
            for consumer, (modules, names) in consumers.items()
            if consumer not in (path, own_init)
        ):
            orphans.append(name)
    return orphans


def test_every_module_has_a_caller_outside_tests():
    orphans = orphan_modules()
    assert not orphans, (
        "modules nothing outside tests/ uses (delete them with their tests): "
        + ", ".join(orphans)
    )


def test_guard_scans_the_tree():
    # A silently empty walk would make the guard vacuous.
    modules = [p for p in SRC.joinpath("repro").rglob("*.py") if not is_exempt(p)]
    assert len(modules) > 50

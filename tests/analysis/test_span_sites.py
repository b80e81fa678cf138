"""The frame-loop benchmark's traced sites still name code in ``src/``.

``perfbench/tracing.py`` patches functions at the module attribute where
their caller looks them up (``repro.pipelines.dark.split_channels``) and
methods on their class.  A renamed function or a caller that stops
importing it under that name breaks the traced run's ledger; this check
catches it in the analysis tier rather than only in ``pytest perfbench``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.analysis

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _tracing():
    # Registered before it runs: its dataclasses look their module up.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
SITES = [(module, attr) for module, attr, _ in tracing.SPAN_SITES] + list(tracing.COUNT_SITES)


def _called_names(module) -> set[str]:
    """Names called directly (``name(...)``) anywhere in a module's source."""
    tree = ast.parse(inspect.getsource(module))
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


@pytest.mark.parametrize(("module_name", "attr"), SITES, ids=[f"{m}:{a}" for m, a in SITES])
def test_site_resolves_to_a_callable(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert part in vars(owner), f"{module_name}.{attr}: no attribute {part!r}"
        owner = vars(owner)[part]
    assert callable(owner)


@pytest.mark.parametrize(
    ("module_name", "attr"),
    [(m, a) for m, a in SITES if "." not in a],
    ids=[f"{m}:{a}" for m, a in SITES if "." not in a],
)
def test_patched_function_is_called_under_its_name(module_name, attr):
    # A function patched on its caller's module only gets spans if that
    # module calls it by the patched name.
    assert attr in _called_names(importlib.import_module(module_name))

"""Determinism-taint rule: wall values must not reach deterministic sinks.

The repo's central correctness property is byte-identical output across
the three execution modes (per-window reference, batched kernels, sharded
fleet workers).  The artefacts that get byte-compared are produced by a
small set of *deterministic sinks* — ``deterministic_view``, the
frame-core canonicalizers and ``frames_digest``.  Any wall-clock, environment, or
entropy-derived value reaching a sink argument breaks the comparison in a
way no unit test notices until two runs happen to disagree.

This rule consumes the project pass: function return values carry
interprocedural taint summaries (``ProjectContext.wall_tainted_functions``,
a fixpoint over the call graph), and the shared :class:`TaintEvaluator`
tracks flow through locals, containers, arithmetic and ``with`` bindings
inside each scope.  A value stored under the one ``wall`` key
(:data:`~repro.analysis.project.WALL_KEY`), as a dict key or a keyword,
is laundered: every record keeps its wall data there and
``deterministic_view`` drops it, so the wall value never survives into
the artefact.  Any other name — a top-level ``latency_ms`` included —
carries its taint into the sink.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import ModuleContext, Rule, Violation, register
from repro.analysis.project import (
    WALL_KEY,
    TaintEvaluator,
    dotted_name,
    iter_scopes,
    walk_scope,
)


@register
class DeterministicSinkTaintRule(Rule):
    """Interprocedural wall-taint must never reach a deterministic sink."""

    id = "taint-deterministic-sink"
    family = "determinism-taint"
    summary = (
        "wall-clock/env/RNG-derived value flows into a deterministic sink "
        "(deterministic_view, frame cores, frames_digest) without being "
        "laundered under the wall key"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        sinks = module.config.deterministic_sinks
        summaries = (
            module.project.wall_tainted_functions
            if module.project is not None
            else frozenset()
        )
        evaluator = TaintEvaluator(
            project=module.project,
            module=module.module,
            summaries=summaries,
        )
        for scope_name, body in iter_scopes(module.tree):
            tainted = evaluator.scan_body(body)
            for node in walk_scope(body):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                sink = name.split(".")[-1]
                if sink not in sinks:
                    continue
                where = "" if scope_name == "<module>" else f" in {scope_name}()"
                for arg in node.args:
                    if evaluator.expr_tainted(arg, tainted):
                        yield self.violation(
                            module,
                            arg,
                            f"wall-clock/entropy-derived value reaches "
                            f"deterministic sink {sink}(){where}; store it "
                            "under the wall key or drop it before the sink",
                        )
                for keyword in node.keywords:
                    if keyword.arg == WALL_KEY:
                        continue
                    if evaluator.expr_tainted(keyword.value, tainted):
                        yield self.violation(
                            module,
                            keyword.value,
                            f"wall-clock/entropy-derived value reaches "
                            f"deterministic sink {sink}() via keyword "
                            f"{keyword.arg or '**'}{where}",
                        )

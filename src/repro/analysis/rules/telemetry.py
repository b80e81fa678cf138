"""Telemetry-hygiene rules: span lifetimes and the event vocabularies.

A ``tracer.span(...)`` held outside a ``with`` block is a span leak — it
never closes, never records, and silently skews every aggregate derived
from the dump.

Every event stream has a closed vocabulary declared next to its emitter
(:data:`repro.analysis.config.EVENT_VOCABULARIES`: trace, monitor, fleet
and quality events), and one vocabulary rule is registered per row.  A
kind outside its vocabulary is an event no summary, rollup, bundle loader
or acceptance test will ever look for — the runtime rejects it, but only
when that code path actually fires; the lint catches it at review time.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import EVENT_VOCABULARIES, EventVocabulary
from repro.analysis.core import ModuleContext, Rule, Violation, register


@register
class SpanContextRule(Rule):
    """``.span(...)`` is only legal as a ``with`` context manager."""

    id = "span-context"
    family = "telemetry"
    summary = (
        "Tracer.span(...) must be used as a context manager (use "
        "begin()/end() for callback-driven spans)"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        if module.config.is_span_exempt(module.module):
            return
        with_items: set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_items.add(id(item.context_expr))
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and id(node) not in with_items
            ):
                yield self.violation(
                    module,
                    node,
                    "span() result used outside a with-statement (span leak); "
                    "use tracer.begin()/end() for callback-driven spans",
                )


def _callee(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


class EventVocabularyRule(Rule):
    """Emitter event kinds are string literals from the declared vocabulary."""

    family = "telemetry"

    def __init__(self, row: EventVocabulary) -> None:
        self.row = row
        self.id = row.rule_id
        self.summary = (
            f"{' / '.join(row.calls)} kinds must be string literals from the "
            f"declared vocabulary ({row.source})"
        )
        self.callees = frozenset(call.rsplit(".", 1)[-1] for call in row.calls)

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        vocabulary = module.config.vocabularies[self.id]
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee(node)
            if callee not in self.callees:
                continue
            kind_node: ast.expr | None = None
            if len(node.args) > self.row.kind_index:
                kind_node = node.args[self.row.kind_index]
            for keyword in node.keywords:
                if keyword.arg == "kind":
                    kind_node = keyword.value
            if kind_node is None:
                continue
            if not (isinstance(kind_node, ast.Constant) and isinstance(kind_node.value, str)):
                yield self.violation(
                    module,
                    kind_node,
                    f"{callee} kind must be a string literal so the vocabulary "
                    "is statically checkable",
                )
            elif kind_node.value not in vocabulary:
                known = ", ".join(sorted(vocabulary))
                yield self.violation(
                    module,
                    kind_node,
                    f"{callee} kind {kind_node.value!r} is not in the declared "
                    f"vocabulary ({known}); add it to {self.row.source} first",
                )


for _row in EVENT_VOCABULARIES:
    register(EventVocabularyRule(_row))

"""The whole-program pass: import graph, symbol table, resolution,
call edges, and the interprocedural wall-taint fixpoint."""

import pytest

from repro.analysis.project import ProjectContext, parse_module

pytestmark = pytest.mark.analysis


def build(*modules: tuple[str, str]) -> ProjectContext:
    parsed = [
        parse_module(source, module=name, path=f"{name.replace('.', '/')}.py")
        for name, source in modules
    ]
    return ProjectContext(parsed)


class TestImportGraph:
    def test_module_level_imports_become_edges(self):
        project = build(
            ("repro.a", "import repro.b\n"),
            ("repro.b", "x = 1\n"),
        )
        assert "repro.b" in project.import_graph["repro.a"]

    def test_from_import_of_submodule_becomes_edge(self):
        project = build(
            ("repro.pkg.a", "from repro.pkg import b\n"),
            ("repro.pkg.b", "x = 1\n"),
        )
        assert "repro.pkg.b" in project.import_graph["repro.pkg.a"]

    def test_external_imports_create_no_edges(self):
        project = build(("repro.a", "import os\nimport numpy\n"))
        assert project.import_graph["repro.a"] == {}

    def test_type_checking_imports_excluded(self):
        project = build(
            (
                "repro.a",
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    import repro.b\n",
            ),
            ("repro.b", "x = 1\n"),
        )
        assert "repro.b" not in project.import_graph["repro.a"]

    def test_function_local_imports_create_no_edges(self):
        project = build(
            ("repro.a", "def f():\n    import repro.b\n    return repro.b\n"),
            ("repro.b", "x = 1\n"),
        )
        assert "repro.b" not in project.import_graph["repro.a"]


class TestSymbolTable:
    def test_defs_classified(self):
        project = build(
            (
                "repro.a",
                "import os\n"
                "CONST = 1\n"
                "ITEMS = []\n"
                "def f():\n    pass\n"
                "class C:\n    pass\n",
            )
        )
        summary = project.summaries["repro.a"]
        assert summary.defs["f"] == "function"
        assert summary.defs["C"] == "class"
        assert summary.defs["CONST"] == "value"
        assert summary.defs["os"] == "import"
        assert "ITEMS" in summary.mutable_globals

    def test_all_exports_recorded_with_linenos(self):
        project = build(("repro.a", '__all__ = ["f"]\n\ndef f():\n    pass\n'))
        summary = project.summaries["repro.a"]
        assert summary.exports == [("f", 1)]
        assert summary.exports_lineno == 1

    def test_no_all_means_none(self):
        project = build(("repro.a", "def f():\n    pass\n"))
        assert project.summaries["repro.a"].exports is None


class TestResolution:
    def test_from_import_resolves_to_origin(self):
        project = build(
            ("repro.a", "from repro.b import helper\n"),
            ("repro.b", "def helper():\n    return 1\n"),
        )
        assert project.resolve_function("repro.a", "helper") == "repro.b.helper"

    def test_plain_import_resolves_dotted_calls(self):
        project = build(
            ("repro.a", "import repro\n"),
            ("repro.b", "def helper():\n    return 1\n"),
        )
        assert (
            project.resolve_function("repro.a", "repro.b.helper") == "repro.b.helper"
        )

    def test_reexport_chain_is_chased(self):
        project = build(
            ("repro.pkg", "from repro.pkg.impl import helper\n"),
            ("repro.pkg.impl", "def helper():\n    return 1\n"),
            ("repro.user", "from repro.pkg import helper\n"),
        )
        assert (
            project.resolve_function("repro.user", "helper") == "repro.pkg.impl.helper"
        )

    def test_unknown_names_resolve_to_none(self):
        project = build(("repro.a", "x = 1\n"))
        assert project.resolve("repro.a", "os.path.join") is None
        assert project.resolve_function("repro.a", "print") is None

    def test_resolved_kind(self):
        project = build(
            ("repro.a", "from repro.b import C\n"),
            ("repro.b", "class C:\n    pass\n"),
        )
        assert project.resolved_kind("repro.a", "C") == "class"


class TestCallEdges:
    def test_project_calls_recorded(self):
        project = build(
            (
                "repro.a",
                "from repro.b import helper\n\ndef caller():\n    return helper()\n",
            ),
            ("repro.b", "def helper():\n    return 1\n"),
        )
        assert project.call_edges["repro.a.caller"] == frozenset({"repro.b.helper"})

    def test_method_functions_indexed(self):
        project = build(("repro.a", "class C:\n    def m(self):\n        return 1\n"))
        assert "repro.a.C.m" in project.functions


class TestTaintFixpoint:
    def test_direct_wall_return_is_tainted(self):
        project = build(("repro.a", "import time\n\ndef f():\n    return time.time()\n"))
        assert "repro.a.f" in project.wall_tainted_functions

    def test_taint_propagates_through_callers(self):
        project = build(
            ("repro.a", "import time\n\ndef src():\n    return time.monotonic()\n"),
            (
                "repro.b",
                "from repro.a import src\n\ndef wrap():\n    return src() * 2\n",
            ),
            (
                "repro.c",
                "from repro.b import wrap\n\ndef outer():\n    return wrap()\n",
            ),
        )
        assert {"repro.a.src", "repro.b.wrap", "repro.c.outer"} <= (
            project.wall_tainted_functions
        )

    def test_clean_function_is_not_tainted(self):
        project = build(("repro.a", "def f(x):\n    return x + 1\n"))
        assert "repro.a.f" not in project.wall_tainted_functions

    def test_strip_key_launders_return(self):
        project = build(
            (
                "repro.a",
                "import time\n\ndef f():\n    return {'wall': time.time()}\n",
            ),
            (
                "repro.b",
                "import time\n\ndef g():\n    return {'latency_ms': time.time()}\n",
            ),
        )
        assert "repro.a.f" not in project.wall_tainted_functions
        assert "repro.b.g" in project.wall_tainted_functions


class TestImportCycles:
    def test_two_module_cycle_detected(self):
        project = build(
            ("repro.a", "import repro.b\n"),
            ("repro.b", "import repro.a\n"),
        )
        assert project.import_cycles() == [["repro.a", "repro.b"]]

    def test_three_module_cycle_detected(self):
        project = build(
            ("repro.a", "import repro.b\n"),
            ("repro.b", "import repro.c\n"),
            ("repro.c", "import repro.a\n"),
        )
        assert project.import_cycles() == [["repro.a", "repro.b", "repro.c"]]

    def test_acyclic_tree_has_no_cycles(self):
        project = build(
            ("repro.a", "import repro.b\nimport repro.c\n"),
            ("repro.b", "import repro.c\n"),
            ("repro.c", "x = 1\n"),
        )
        assert project.import_cycles() == []

    def test_type_checking_back_edge_breaks_cycle(self):
        project = build(
            (
                "repro.a",
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    import repro.b\n",
            ),
            ("repro.b", "import repro.a\n"),
        )
        assert project.import_cycles() == []

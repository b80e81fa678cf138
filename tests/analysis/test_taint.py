"""The determinism-taint rule: sources, propagation, laundering, and
interprocedural flow through project function summaries."""

import pytest

from repro.analysis import analyze_source
from repro.analysis.core import analyze_sources

pytestmark = pytest.mark.analysis

MODULE = "repro.fleet.fake"
RULE = "taint-deterministic-sink"


def only(source: str, module: str = MODULE) -> list[str]:
    return [
        v.rule_id for v in analyze_source(source, module=module) if v.rule_id == RULE
    ]


def multi(*items: tuple[str, str]) -> list[str]:
    triples = [(f"{m.replace('.', '/')}.py", m, s) for m, s in items]
    return [v.rule_id for v in analyze_sources(triples) if v.rule_id == RULE]


class TestDirectFlow:
    def test_wall_clock_local_reaches_sink(self):
        src = (
            "import time\n"
            "def f():\n"
            "    t = time.perf_counter()\n"
            "    return deterministic_view({'t': t})\n"
        )
        assert only(src) == [RULE]

    def test_environ_subscript_reaches_sink(self):
        src = (
            "import os\n"
            "def f(frames):\n"
            "    tag = os.environ['TAG']\n"
            "    return frames_digest([tag])\n"
        )
        assert only(src) == [RULE]

    def test_getenv_reaches_sink(self):
        src = (
            "import os\n"
            "def f():\n"
            "    return deterministic_view(os.getenv('MODE'))\n"
        )
        assert only(src) == [RULE]

    def test_rng_call_reaches_sink(self):
        src = (
            "import random\n"
            "def f():\n"
            "    return frame_core_dict(random.random())\n"
        )
        assert only(src) == [RULE]

    def test_uuid4_reaches_sink(self):
        src = (
            "import uuid\n"
            "def f():\n"
            "    return deterministic_view({'id': str(uuid.uuid4())})\n"
        )
        assert only(src) == [RULE]

    def test_stopwatch_binding_is_tainted(self):
        src = (
            "from repro.telemetry import Stopwatch\n"
            "def f(report):\n"
            "    with Stopwatch() as sw:\n"
            "        pass\n"
            "    return deterministic_view({'elapsed': sw.elapsed_s})\n"
        )
        assert only(src) == [RULE]

    def test_clean_data_is_quiet(self):
        src = (
            "def f(frames):\n"
            "    payload = {'frames': len(frames), 'status': 'ok'}\n"
            "    return deterministic_view(payload)\n"
        )
        assert only(src) == []

    def test_sink_call_at_module_level(self):
        src = "import time\nX = frames_digest([time.time()])\n"
        assert only(src) == [RULE]


class TestPropagation:
    def test_through_arithmetic_and_fstring(self):
        src = (
            "import time\n"
            "def f():\n"
            "    t = time.time()\n"
            "    label = f'at {t * 1000:.1f}'\n"
            "    return deterministic_view({'label': label})\n"
        )
        assert only(src) == [RULE]

    def test_through_containers(self):
        src = (
            "import time\n"
            "def f():\n"
            "    ts = [time.time()]\n"
            "    return frames_digest(ts)\n"
        )
        assert only(src) == [RULE]

    def test_loop_carried_taint(self):
        src = (
            "import time\n"
            "def f(frames):\n"
            "    acc = 0\n"
            "    for _ in frames:\n"
            "        acc = acc + time.perf_counter()\n"
            "    return deterministic_view({'acc': acc})\n"
        )
        assert only(src) == [RULE]

    def test_rebinding_with_clean_value_untaints(self):
        src = (
            "import time\n"
            "def f():\n"
            "    t = time.time()\n"
            "    t = 0.0\n"
            "    return deterministic_view({'t': t})\n"
        )
        assert only(src) == []

    def test_unresolved_call_propagates_argument_taint(self):
        src = (
            "import time\n"
            "def f():\n"
            "    t = round(time.time(), 3)\n"
            "    return deterministic_view({'t': t})\n"
        )
        assert only(src) == [RULE]


class TestLaundering:
    def test_strip_key_in_dict_literal(self):
        src = (
            "import time\n"
            "def f():\n"
            "    return deterministic_view({'wall': {'latency_ms': time.time()}})\n"
        )
        assert only(src) == []

    def test_wall_rollup_key_launders(self):
        src = (
            "import time\n"
            "def f():\n"
            "    return deterministic_view({'wall': time.perf_counter()})\n"
        )
        assert only(src) == []

    def test_non_strip_key_still_fires(self):
        src = (
            "import time\n"
            "def f():\n"
            "    return deterministic_view({'started_at': time.time()})\n"
        )
        assert only(src) == [RULE]

    def test_strip_keyword_on_sink_call(self):
        src = (
            "import time\n"
            "def f(core):\n"
            "    return deterministic_view(core, wall=time.time())\n"
        )
        assert only(src) == []

    @pytest.mark.parametrize(
        "expr",
        [
            "deterministic_view({'latency_ms': time.time()})",
            "deterministic_view({'wall_s': time.time()})",
            "deterministic_view({'elapsed_s': time.time()})",
            "deterministic_view(core, wall_s=time.time())",
        ],
    )
    def test_former_strip_names_now_fire(self, expr):
        # Only the one wall key launders: a wall-sounding name at the top
        # level of a record carries its taint into the sink.
        src = f"import time\ndef f(core):\n    return {expr}\n"
        assert only(src) == [RULE]

    def test_project_dataclass_constructor_is_clean(self):
        # DriveOutcome keeps its wall data under the wall key by contract;
        # constructing one with a wall kwarg then viewing it
        # deterministically is the sanctioned pattern.
        assert multi(
            (
                "repro.fleet.kinds",
                "class Outcome:\n    def __init__(self, wall=None):\n"
                "        self.wall = wall\n",
            ),
            (
                "repro.fleet.use",
                "import time\n"
                "from repro.fleet.kinds import Outcome\n"
                "def f():\n"
                "    o = Outcome(wall={'wall_s': time.time()})\n"
                "    return deterministic_view(o)\n",
            ),
        ) == []


class TestInterprocedural:
    def test_tainted_helper_in_another_module(self):
        assert multi(
            (
                "repro.fleet.helper",
                "import time\n\ndef wall():\n    return time.monotonic()\n",
            ),
            (
                "repro.fleet.use",
                "from repro.fleet.helper import wall\n"
                "def f():\n"
                "    return deterministic_view({'w': wall()})\n",
            ),
        ) == [RULE]

    def test_clean_project_function_summary_is_trusted(self):
        # build() reads the clock but returns only laundered data; the
        # caller must stay quiet (no false positive on build_rollup-style
        # helpers).
        assert multi(
            (
                "repro.fleet.helper",
                "import time\n"
                "def build(frames):\n"
                "    t0 = time.perf_counter()\n"
                "    return {'frames': len(frames),\n"
                "            'wall': time.perf_counter() - t0}\n",
            ),
            (
                "repro.fleet.use",
                "from repro.fleet.helper import build\n"
                "def f(frames):\n"
                "    return deterministic_view(build(frames))\n",
            ),
        ) == []

    def test_transitive_taint_chain(self):
        assert multi(
            (
                "repro.fleet.a",
                "import time\n\ndef src():\n    return time.time()\n",
            ),
            (
                "repro.fleet.b",
                "from repro.fleet.a import src\n\ndef wrap():\n    return src()\n",
            ),
            (
                "repro.fleet.c",
                "from repro.fleet.b import wrap\n"
                "def f():\n"
                "    return frames_digest([wrap()])\n",
            ),
        ) == [RULE]

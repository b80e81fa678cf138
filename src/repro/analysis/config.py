"""Per-rule configuration for reprolint.

Everything a rule needs to know about *this* repository lives here: which
packages are simulation domains (and therefore must be deterministic),
which module is the sanctioned RNG injection point, what the telemetry
event vocabulary is, and which packages form the documented public API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module


@dataclass(frozen=True)
class EventVocabulary:
    """One closed event vocabulary and the emitter calls bound by it.

    Attributes:
        rule_id: The lint rule enforcing it.
        calls: Emitters, as ``Owner.method`` or a bare function name; a
            call matches on the last dotted component, as a method or a
            free function.
        kind_index: Position of the kind among the positional arguments
            (a ``kind=`` keyword is checked too).
        source: Dotted path of the declared vocabulary.
    """

    rule_id: str
    calls: tuple[str, ...]
    kind_index: int
    source: str


#: The four declared vocabularies, each next to its emitter.
EVENT_VOCABULARIES: tuple[EventVocabulary, ...] = (
    EventVocabulary(
        "event-vocabulary",
        ("Trace.emit",),
        2,
        "repro.zynq.events.EVENT_KINDS",
    ),
    EventVocabulary(
        "monitor-event-vocabulary",
        ("Monitor.emit_event",),
        0,
        "repro.monitor.events.MONITOR_EVENT_KINDS",
    ),
    EventVocabulary(
        "fleet-event-vocabulary",
        ("FleetScheduler.fleet_event",),
        0,
        "repro.fleet.events.FLEET_EVENT_KINDS",
    ),
    EventVocabulary(
        "quality-event-vocabulary",
        ("quality_event",),
        0,
        "repro.quality.events.QUALITY_EVENT_KINDS",
    ),
)


def _default_vocabularies() -> dict[str, frozenset[str]]:
    # Single source of truth: each vocabulary declared next to its emitter.
    vocabularies = {}
    for row in EVENT_VOCABULARIES:
        module, name = row.source.rsplit(".", 1)
        vocabularies[row.rule_id] = frozenset(getattr(import_module(module), name))
    return vocabularies


def _within(module: str, packages: tuple[str, ...]) -> bool:
    """True when ``module`` is one of ``packages`` or inside one."""
    return any(module == pkg or module.startswith(pkg + ".") for pkg in packages)


@dataclass(frozen=True)
class LintConfig:
    """Repository-specific knobs consumed by the rules.

    Attributes:
        sim_domains: Packages whose behaviour feeds paper numbers; the
            determinism rules apply only inside them.
        clock_injection_modules: Modules allowed to touch the host wall
            clock (the telemetry layer injects it everywhere else).
        rng_helper_module: The one module allowed to construct raw RNGs;
            everything else goes through its helpers.
        unit_stems: Name fragments that mark a value as time- or
            throughput-like and therefore unit-bearing.
        unit_suffixes: Accepted unit suffixes (the paper's units).
        vocabularies: Legal event kinds per vocabulary rule id (one
            entry per row of :data:`EVENT_VOCABULARIES`).
        api_packages: Packages whose public surface must carry docstrings
            and complete type annotations.
        span_exempt_modules: Modules implementing the span machinery
            itself (exempt from the context-manager rule).
        bench_suite_packages: Packages holding ``@bench`` suites, held to
            the bench-registry contract (registered, unit-suffixed,
            clock-free).
        hot_path_packages: Packages whose sliding-window scans must score
            through the batched entry points; per-window ``predict`` /
            ``decision`` calls inside loops are flagged there unless the
            enclosing function is a ``*_reference`` branch.
        deterministic_sinks: Function names whose arguments must be free
            of wall-clock/entropy taint (the byte-compared artefacts).
        fork_packages: Packages running under the fork-based worker pool;
            the fork-safety rules apply there.
        fork_worker_modules: Modules whose functions execute inside
            forked children (module-level mutable state diverges there).
        fork_payload_types: Constructors whose instances cross the fork
            boundary and therefore must stay picklable.
        fork_unpicklable_constructors: Constructors producing objects that
            must never be captured into a fork payload (tracers, monitors,
            locks, threads, open handles).
        select: When non-empty, only these rule ids run.
        ignore: Rule ids to skip.
    """

    sim_domains: tuple[str, ...] = (
        "repro.zynq",
        "repro.core",
        "repro.faults",
        "repro.pipelines",
        "repro.adaptive",
        "repro.experiments",
    )
    clock_injection_modules: tuple[str, ...] = ("repro.telemetry",)
    rng_helper_module: str = "repro.rng"
    unit_stems: frozenset[str] = frozenset(
        {
            "duration",
            "latency",
            "timeout",
            "elapsed",
            "interval",
            "delay",
            "period",
            "deadline",
            "throughput",
            "bandwidth",
        }
    )
    unit_suffixes: frozenset[str] = frozenset(
        {"s", "ms", "us", "ns", "mbs", "bps", "fps", "hz", "mhz", "cycles", "frames"}
    )
    vocabularies: dict[str, frozenset[str]] = field(default_factory=_default_vocabularies)
    api_packages: tuple[str, ...] = ("repro.pipelines", "repro.zynq")
    span_exempt_modules: tuple[str, ...] = ("repro.telemetry",)
    bench_suite_packages: tuple[str, ...] = ("repro.perf.suites",)
    hot_path_packages: tuple[str, ...] = ("repro.pipelines", "repro.core")
    deterministic_sinks: frozenset[str] = frozenset(
        {
            "deterministic_view",
            "frame_core_dict",
            "frame_core_bytes",
            "frames_digest",
        }
    )
    fork_packages: tuple[str, ...] = ("repro.fleet",)
    fork_worker_modules: tuple[str, ...] = ("repro.fleet.worker",)
    fork_payload_types: frozenset[str] = frozenset({"DriveSpec"})
    fork_unpicklable_constructors: frozenset[str] = frozenset(
        {
            "Tracer",
            "JsonlTracer",
            "ChromeTracer",
            "Monitor",
            "HealthMonitor",
            "FlightRecorder",
            "Lock",
            "RLock",
            "Condition",
            "Semaphore",
            "BoundedSemaphore",
            "Event",
            "Thread",
        }
    )
    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()

    def rule_enabled(self, rule_id: str) -> bool:
        """Whether a rule participates under the select/ignore filters."""
        if self.select and rule_id not in self.select:
            return False
        return rule_id not in self.ignore

    def in_sim_domain(self, module: str) -> bool:
        """True when ``module`` lives in a determinism-critical package."""
        return _within(module, self.sim_domains)

    def in_api_package(self, module: str) -> bool:
        """True when ``module`` is part of the documented public API."""
        return _within(module, self.api_packages)

    def is_clock_injection_point(self, module: str) -> bool:
        """True for modules allowed to read the host wall clock."""
        return _within(module, self.clock_injection_modules)

    def is_rng_helper(self, module: str) -> bool:
        """True for the sanctioned raw-RNG module."""
        return module == self.rng_helper_module

    def in_bench_suite(self, module: str) -> bool:
        """True when ``module`` is an ``@bench`` suite module."""
        return _within(module, self.bench_suite_packages)

    def in_hot_path(self, module: str) -> bool:
        """True when ``module`` must keep its window scans batched."""
        return _within(module, self.hot_path_packages)

    def is_span_exempt(self, module: str) -> bool:
        """True for modules implementing the span machinery."""
        return _within(module, self.span_exempt_modules)

    def in_fork_package(self, module: str) -> bool:
        """True when ``module`` runs under the fork-based worker pool."""
        return _within(module, self.fork_packages)

    def is_fork_worker_module(self, module: str) -> bool:
        """True when ``module``'s functions execute inside forked children."""
        return module in self.fork_worker_modules


DEFAULT_CONFIG = LintConfig()

"""The fleet's live status plane: fold side-channel records into snapshots.

While a sharded run drains, workers emit periodic heartbeats and
per-drive progress records over a dedicated status queue (never the
result queue — results stay the single source of truth for outcomes).
The scheduler feeds those records, plus completed outcomes, into a
:class:`StatusBoard`, and asks it for a ``FleetStatus`` snapshot — a
plain schema-versioned dict with per-worker state (idle / running /
suspect / hung), queue depth, in-flight drive ages, completion counts,
a rolling drives/s rate, and fleet-wide frame-latency percentiles.

Every timestamp the board judges against is the *scheduler's* clock at
record arrival — a worker cannot vouch for its own liveness with a
self-reported time.  And everything here is wall-clock territory: the
status plane observes the execution, never the simulation.  Snapshots
are never byte-compared and never reach a deterministic sink, so they
need no ``wall`` key: the whole snapshot is wall data.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Mapping

from repro import ratchet
from repro.errors import FleetError
from repro.fleet.events import check_fleet_event_kind
from repro.fleet.outcome import OUTCOME_STATUSES, DriveOutcome
from repro.monitor.liveness import LivenessConfig, WorkerLiveness
from repro.quality.records import merge_summaries
from repro.telemetry.metrics import merge_snapshots

STATUS_SCHEMA = "repro.fleet/status"
STATUS_SCHEMA_VERSION = 1

_SCHEMA = ratchet.Schema(
    name=STATUS_SCHEMA,
    version=STATUS_SCHEMA_VERSION,
    table="drives",
    label="fleet status snapshot",
    error=FleetError,
    create_hint="repro fleet run --status-out PATH",
)

#: Run phases a status snapshot can report.
STATUS_PHASES = ("running", "done")

#: Worker states the board reports.  ``idle``/``running`` come from the
#: worker's own progress records; ``suspect``/``hung`` are the liveness
#: machine's escalation when a *running* worker's heartbeats go quiet.
WORKER_STATES = ("idle", "running", "suspect", "hung")

#: Default window for the rolling drives/s rate.
DEFAULT_RATE_WINDOW_S = 10.0


class WorkerView:
    """The board's picture of one worker slot, keyed by ``worker_id``."""

    def __init__(self, worker_id: int, liveness: LivenessConfig, now_s: float):
        self.worker_id = worker_id
        self.liveness = WorkerLiveness(liveness, now_s=now_s)
        self.busy = False
        self.drive_index: int | None = None
        self.drive_name: str | None = None
        self.drive_started_s: float | None = None
        self.beats = 0
        self.frames = 0
        self.drives_done = 0
        self.respawns = 0
        self.suspect_flagged = False

    def begin_drive(self, index: int, name: str, now_s: float) -> None:
        self.busy = True
        self.drive_index = index
        self.drive_name = name
        self.drive_started_s = now_s
        self.suspect_flagged = False
        self.liveness.reset(now_s)

    def end_drive(self, now_s: float) -> None:
        if self.busy:
            self.drives_done += 1
        self.busy = False
        self.drive_index = None
        self.drive_name = None
        self.drive_started_s = None
        self.suspect_flagged = False
        self.liveness.reset(now_s)

    def heartbeat_age_s(self, now_s: float) -> float:
        return self.liveness.age_s(now_s)

    def drive_age_s(self, now_s: float) -> float | None:
        if self.drive_started_s is None:
            return None
        return max(0.0, now_s - self.drive_started_s)

    def state(self, now_s: float) -> str:
        """Idle workers are never suspect: only silence *mid-drive* counts."""
        if not self.busy:
            return "idle"
        liveness = self.liveness.state(now_s)
        return "running" if liveness == "alive" else liveness

    def view(self, now_s: float) -> dict:
        drive = None
        if self.busy:
            drive = {
                "index": self.drive_index,
                "name": self.drive_name,
                "drive_age_s": _round6(self.drive_age_s(now_s)),
                "frames": self.frames,
            }
        return {
            "worker_id": self.worker_id,
            "state": self.state(now_s),
            "heartbeat_age_s": _round6(self.heartbeat_age_s(now_s)),
            "beats": self.beats,
            "drives_done": self.drives_done,
            "respawns": self.respawns,
            "drive": drive,
        }


def _round6(value: float | None) -> float | None:
    return None if value is None else round(value, 6)


class StatusBoard:
    """Fold heartbeats, progress records, and outcomes into snapshots."""

    def __init__(
        self,
        liveness: LivenessConfig | None = None,
        rate_window_s: float = DEFAULT_RATE_WINDOW_S,
        now_s: float = 0.0,
    ):
        if rate_window_s <= 0:
            raise FleetError(f"rate_window_s must be positive, got {rate_window_s}")
        self.liveness = liveness if liveness is not None else LivenessConfig()
        self.rate_window_s = rate_window_s
        self.started_s = now_s
        self.workers: dict[int, WorkerView] = {}
        self.by_status: dict[str, int] = {status: 0 for status in OUTCOME_STATUSES}
        self.frames_total = 0
        self.record_counts: dict[str, int] = {}
        self._completions: deque[float] = deque()
        self._latency_snapshot: list[dict] = []
        self._quality_summaries: list[dict] = []

    # Worker lifecycle (driven by the scheduler, not the side channel) -------

    def ensure_worker(self, worker_id: int, now_s: float, respawn: bool = False) -> WorkerView:
        """Register a worker slot (initial spawn) or reset it (respawn)."""
        view = self.workers.get(worker_id)
        if view is None:
            view = WorkerView(worker_id, self.liveness, now_s)
            self.workers[worker_id] = view
        if respawn:
            view.respawns += 1
            view.end_drive(now_s)
        return view

    def mark_dispatch(self, worker_id: int, index: int, name: str, now_s: float) -> None:
        """The scheduler handed ``index`` to ``worker_id`` — start its clock
        immediately, so a worker that wedges before its first beat still
        ages toward suspect/hung."""
        self.ensure_worker(worker_id, now_s).begin_drive(index, name, now_s)

    # Side-channel records ----------------------------------------------------

    def ingest(self, record: Mapping[str, Any], now_s: float) -> None:
        """Fold one heartbeat/progress record in (arrival-time semantics)."""
        kind = str(record.get("kind", ""))
        check_fleet_event_kind(kind)
        self.record_counts[kind] = self.record_counts.get(kind, 0) + 1
        worker_id = int(record["worker_id"])
        view = self.ensure_worker(worker_id, now_s)
        if kind == "fleet.worker.heartbeat":
            view.beats += 1
            view.liveness.observe(now_s)
            if record.get("busy"):
                index = record.get("index")
                if not view.busy and index is not None:
                    view.begin_drive(int(index), str(record.get("name", "?")), now_s)
                view.frames = int(record.get("frames", view.frames))
        elif kind == "fleet.drive.progress":
            view.liveness.observe(now_s)
            if record.get("phase") == "start":
                view.begin_drive(
                    int(record["index"]), str(record.get("name", "?")), now_s
                )
                view.frames = 0
            else:
                view.end_drive(now_s)
        else:
            raise FleetError(
                f"status board cannot ingest fleet event kind {kind!r}"
            )

    def take_new_suspects(self, now_s: float) -> list[WorkerView]:
        """Workers that newly crossed the suspect threshold (one-shot).

        Each busy worker is reported at most once per drive; the flag
        resets when a new drive starts on that slot.
        """
        fresh: list[WorkerView] = []
        for view in self.workers.values():
            if view.busy and not view.suspect_flagged and view.state(now_s) in (
                "suspect",
                "hung",
            ):
                view.suspect_flagged = True
                fresh.append(view)
        return fresh

    # Authoritative completions (from the result queue) ----------------------

    def record_outcome(self, outcome: DriveOutcome, now_s: float) -> None:
        self.by_status[outcome.status] = self.by_status.get(outcome.status, 0) + 1
        self.frames_total += int(outcome.summary.get("frames", 0))
        self._completions.append(now_s)
        latency = outcome.frame_latency
        if latency:
            self._latency_snapshot = merge_snapshots(
                self._latency_snapshot, [dict(latency)]
            )
        if outcome.quality:
            self._quality_summaries.append(dict(outcome.quality))

    def drives_per_s(self, now_s: float) -> float:
        """Completions over the trailing window (run-age-clamped)."""
        floor_s = now_s - self.rate_window_s
        while self._completions and self._completions[0] < floor_s:
            self._completions.popleft()
        span_s = min(self.rate_window_s, max(now_s - self.started_s, 1e-9))
        return len(self._completions) / span_s

    # Snapshots ---------------------------------------------------------------

    def snapshot(
        self,
        now_s: float,
        backlog: int = 0,
        capacity: int = 0,
        submitted: int = 0,
        rejected: int = 0,
        phase: str = "running",
    ) -> dict:
        """One ``FleetStatus`` dict: the whole live plane at ``now_s``."""
        if phase not in STATUS_PHASES:
            raise FleetError(f"unknown status phase {phase!r} (one of {STATUS_PHASES})")
        done = sum(self.by_status.values())
        states = {state: 0 for state in WORKER_STATES}
        worker_views = []
        for worker_id in sorted(self.workers):
            view = self.workers[worker_id].view(now_s)
            states[view["state"]] += 1
            worker_views.append(view)
        latency = self._latency_snapshot[0] if self._latency_snapshot else None
        return {
            "schema": STATUS_SCHEMA,
            "schema_version": STATUS_SCHEMA_VERSION,
            "phase": phase,
            "elapsed_s": _round6(max(0.0, now_s - self.started_s)),
            "workers": worker_views,
            "worker_states": states,
            "queue": {
                "backlog": backlog,
                "capacity": capacity,
                "submitted": submitted,
                "rejected": rejected,
            },
            "drives": {
                "done": done,
                "in_flight": sum(1 for v in self.workers.values() if v.busy),
                "by_status": dict(self.by_status),
            },
            "frames_total": self.frames_total,
            "drives_per_s": _round6(self.drives_per_s(now_s)),
            "latency_ms": latency,
            # Merged detection quality over drives completed so far; None
            # until the first scored drive lands (quality plane off, or
            # nothing finished yet).  Sim-derived, not wall territory —
            # but live snapshots as a whole never feed deterministic
            # sinks, so no strip set grows here.
            "quality": (
                merge_summaries(self._quality_summaries)
                if self._quality_summaries
                else None
            ),
            "records_by_kind": dict(sorted(self.record_counts.items())),
        }


def status_metrics_snapshot(snapshot: Mapping[str, Any]) -> list[dict]:
    """Express one status snapshot as metric series (for OpenMetrics).

    The exposition twin of :meth:`StatusBoard.snapshot`: gauges for the
    queue and worker states, counters for completions and frames, and
    the merged ``frame_wall_ms`` histogram — the shape
    :func:`repro.telemetry.openmetrics.render_openmetrics` consumes, so
    a fleet run scrapes like any production service.
    """
    validate_status(snapshot)
    queue = snapshot.get("queue", {})
    drives = snapshot.get("drives", {})
    series: list[dict] = [
        _gauge("fleet_queue_backlog", queue.get("backlog", 0)),
        _gauge("fleet_queue_capacity", queue.get("capacity", 0)),
        _gauge("fleet_drives_in_flight", drives.get("in_flight", 0)),
        _gauge("fleet_drives_per_second", snapshot.get("drives_per_s") or 0.0),
        _gauge("fleet_elapsed_seconds", snapshot.get("elapsed_s") or 0.0),
    ]
    for state, count in sorted((snapshot.get("worker_states") or {}).items()):
        series.append(_gauge("fleet_workers", count, state=state))
    for status, count in sorted((drives.get("by_status") or {}).items()):
        series.append(
            {
                "kind": "counter",
                "name": "fleet_drives_done_total",
                "labels": {"status": status},
                "value": float(count),
            }
        )
    series.append(
        {
            "kind": "counter",
            "name": "fleet_frames_total",
            "labels": {},
            "value": float(snapshot.get("frames_total", 0)),
        }
    )
    latency = snapshot.get("latency_ms")
    if latency:
        series.append(
            {
                "kind": "histogram",
                "name": "fleet_frame_wall_ms",
                "labels": dict(latency.get("labels", {})),
                "bounds": list(latency.get("bounds", [])),
                "bucket_counts": list(latency.get("bucket_counts", [])),
                "count": latency.get("count", 0),
                "sum": latency.get("sum", 0.0),
            }
        )
    quality = snapshot.get("quality")
    if quality:
        overall = quality.get("overall") or {}
        series.append(
            _gauge("fleet_quality_scored_drives", quality.get("scored_drives", 0))
        )
        if overall.get("recall") is not None:
            series.append(_gauge("fleet_quality_recall", overall["recall"]))
        if overall.get("precision") is not None:
            series.append(_gauge("fleet_quality_precision", overall["precision"]))
        for condition, row in sorted((quality.get("by_condition") or {}).items()):
            if row.get("recall") is not None:
                series.append(
                    _gauge("fleet_quality_recall", row["recall"], condition=condition)
                )
    return series


def _gauge(name: str, value: Any, **labels: str) -> dict:
    return {"kind": "gauge", "name": name, "labels": labels, "value": float(value)}


def validate_status(snapshot: Mapping[str, Any]) -> None:
    """Reject snapshots that do not carry the declared schema envelope."""
    ratchet.check_snapshot(snapshot, _SCHEMA, origin="fleet status")
    if snapshot.get("phase") not in STATUS_PHASES:
        raise FleetError(f"unknown status phase {snapshot.get('phase')!r}")


def render_status(snapshot: Mapping[str, Any]) -> str:
    """The ``fleet top`` text view of one status snapshot."""
    validate_status(snapshot)
    queue = snapshot.get("queue", {})
    drives = snapshot.get("drives", {})
    states = snapshot.get("worker_states", {})
    lines = [
        f"fleet status · phase={snapshot['phase']} · "
        f"elapsed={snapshot.get('elapsed_s', 0.0):.1f}s · "
        f"{snapshot.get('drives_per_s', 0.0):.2f} drives/s",
        f"  queue: {queue.get('backlog', 0)}/{queue.get('capacity', 0)} backlog · "
        f"{queue.get('submitted', 0)} submitted · {queue.get('rejected', 0)} rejected",
        "  drives: "
        + f"{drives.get('done', 0)} done ({_by_status_text(drives.get('by_status', {}))}) · "
        + f"{drives.get('in_flight', 0)} in flight · "
        + f"{snapshot.get('frames_total', 0)} frames",
        "  workers: "
        + " · ".join(f"{states.get(s, 0)} {s}" for s in WORKER_STATES),
    ]
    workers = snapshot.get("workers", [])
    if workers:
        lines.append(
            f"  {'id':>4} {'state':<8} {'beat age':>9} {'beats':>6} "
            f"{'done':>5} {'drive':<24} {'age':>7} {'frames':>7}"
        )
        for view in workers:
            drive = view.get("drive") or {}
            name = drive.get("name", "-")
            if drive and drive.get("index") is not None:
                name = f"#{drive['index']} {name}"
            age = drive.get("drive_age_s")
            lines.append(
                f"  {view.get('worker_id', '?'):>4} {view.get('state', '?'):<8} "
                f"{view.get('heartbeat_age_s', 0.0):>8.2f}s {view.get('beats', 0):>6} "
                f"{view.get('drives_done', 0):>5} {name:<24} "
                f"{(f'{age:.1f}s' if age is not None else '-'):>7} "
                f"{drive.get('frames', '-') if drive else '-':>7}"
            )
    latency = snapshot.get("latency_ms")
    if latency:
        percentiles = latency.get("percentiles", {})
        if percentiles:
            lines.append(
                "  frame latency: "
                + " · ".join(
                    f"{k}={v:.2f}ms" for k, v in sorted(percentiles.items())
                )
            )
    quality = snapshot.get("quality")
    if quality and quality.get("scored_drives"):
        overall = quality.get("overall") or {}
        by_condition = quality.get("by_condition") or {}
        parts = [
            f"recall={overall.get('recall', 0.0):.3f}",
            f"precision={overall.get('precision', 0.0):.3f}",
        ]
        parts.extend(
            f"{condition}={row.get('recall', 0.0):.3f}"
            for condition, row in sorted(by_condition.items())
        )
        lines.append(
            f"  quality ({quality['scored_drives']} scored): " + " · ".join(parts)
        )
    return "\n".join(lines)


def _by_status_text(by_status: Mapping[str, int]) -> str:
    parts = [f"{n} {status}" for status, n in sorted(by_status.items()) if n]
    return ", ".join(parts) if parts else "none yet"

"""The fleet worker: execute one ``DriveSpec``, return one ``DriveOutcome``.

:func:`execute_spec` is the deterministic, reentrant unit of work the
scheduler shards across processes.  It materialises the drive from plain
data (:func:`repro.core.system.run_drive_spec`), digests the frame cores,
extracts the monitor verdict, splits the telemetry snapshot's
:data:`~repro.core.system.WALL_SERIES` off under the outcome's ``wall``
key, and folds everything into a picklable outcome dict.  A drive that
raises is *contained*: the exception becomes a ``failed`` outcome, never
a dead worker.

:func:`worker_main` is the process entry point: a loop pulling
``(index, spec_dict)`` tasks from a queue and pushing
``(index, outcome_dict)`` results back.  When the scheduler runs with
the live plane on, the worker also owns a :class:`HeartbeatEmitter` — a
daemon thread beating plain-dict liveness records onto a dedicated
*status queue* (never the result queue; a congested side channel drops
beats, it never delays outcomes) — and writes each drive's span dump
under the fleet trace directory for cross-process stitching.

Chaos specs (``spec.chaos = "crash" | "hang" | "slow"``) deliberately
break the worker — hard-exit, go silent then sleep, or sleep while still
heartbeating — so the scheduler's containment paths (crash detection,
hung-vs-deadline timeout verdicts, respawn) stay honest under test.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from pathlib import Path
from typing import Any, Mapping

from repro.core.spec import DriveSpec, frames_digest
from repro.core.system import WALL_SERIES
from repro.fleet.outcome import DriveOutcome
from repro.monitor.liveness import DEFAULT_HEARTBEAT_INTERVAL_S
from repro.monitor.session import Monitor, MonitorConfig
from repro.monitor.slo import SloBudgets
from repro.telemetry import Stopwatch, Telemetry, export_jsonl

#: Exit code of a chaos-crashed worker (recognisable in scheduler events).
CHAOS_EXIT_CODE = 21

#: How long a chaos ``hang``/``slow`` sleeps — far past any sane timeout.
CHAOS_HANG_S = 3600.0

#: Task-queue poll interval.  A worker must never block forever on a
#: queue whose producer may have died; it polls and loops instead, so the
#: scheduler's containment (or a plain SIGTERM) always gets a turn.
TASK_POLL_TIMEOUT_S = 1.0

#: How long to wait for the heartbeat thread on orderly shutdown.
_EMITTER_JOIN_TIMEOUT_S = 2.0


class HeartbeatEmitter:
    """Daemon-thread liveness beats for one worker process.

    Beats are plain dicts on the status queue: worker id, busy flag, the
    in-flight drive (index/name), and a live frame count read off the
    drive's telemetry counter.  The queue put is always non-blocking — a
    full side channel drops the beat (``queue.Full`` swallowed by
    design); liveness is judged from beat *arrival* on the scheduler
    side, so a dropped beat just ages the worker slightly.

    :meth:`wedge` silences the thread without stopping it — the chaos
    ``hang`` hook, simulating a worker wedged so hard its beats stop.
    """

    def __init__(
        self,
        worker_id: int,
        status_queue: Any,
        interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    ):
        self.worker_id = worker_id
        self.interval_s = interval_s
        self._queue = status_queue
        self._lock = threading.Lock()
        self._busy = False
        self._index: int | None = None
        self._name: str | None = None
        self._metrics: Any = None
        self._stop = threading.Event()
        self._wedged = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"fleet-heartbeat-{worker_id}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=_EMITTER_JOIN_TIMEOUT_S)

    def wedge(self) -> None:
        """Stop beating (chaos ``hang``): the thread lives, the beats die."""
        self._wedged.set()

    def begin_drive(self, index: int, name: str, metrics: Any = None) -> None:
        with self._lock:
            self._busy = True
            self._index = index
            self._name = name
            self._metrics = metrics
        self._send(self._progress_record(index, name, "start"))

    def attach_frames(self, metrics: Any) -> None:
        """Point the live frame count at the drive's metrics registry.

        The count is read lazily via ``registry.value("drive_frames")`` —
        a peek that never creates the series, so attaching the emitter
        cannot change the registry's creation order (which the
        deterministic metrics snapshot preserves).
        """
        with self._lock:
            self._metrics = metrics

    def end_drive(self, index: int, name: str, status: str) -> None:
        with self._lock:
            self._busy = False
            self._index = None
            self._name = None
            self._metrics = None
        self._send(self._progress_record(index, name, "done", status=status))

    def beat(self) -> None:
        with self._lock:
            registry = self._metrics
            frames = registry.value("drive_frames") if registry is not None else None
            record = {
                "kind": "fleet.worker.heartbeat",
                "worker_id": self.worker_id,
                "busy": self._busy,
                "index": self._index,
                "name": self._name,
                "frames": int(frames) if frames is not None else 0,
            }
        self._send(record)

    def _progress_record(
        self, index: int, name: str, phase: str, status: str | None = None
    ) -> dict:
        return {
            "kind": "fleet.drive.progress",
            "worker_id": self.worker_id,
            "index": index,
            "name": name,
            "phase": phase,
            "status": status,
        }

    def _send(self, record: dict) -> None:
        try:
            self._queue.put_nowait(record)
        except queue.Full:
            pass

    def _run(self) -> None:
        while not self._stop.is_set():
            if not self._wedged.is_set():
                self.beat()
            self._stop.wait(self.interval_s)


def _spec_of(spec: "DriveSpec | Mapping[str, Any]") -> DriveSpec:
    if isinstance(spec, DriveSpec):
        return spec
    return DriveSpec.from_dict(spec)


def execute_spec(
    spec: "DriveSpec | Mapping[str, Any]",
    worker_id: int | None = None,
    incidents_dir: "str | Path | None" = None,
    monitored: bool = True,
    record_latency: bool = True,
    contained: bool = True,
    emitter: HeartbeatEmitter | None = None,
    trace_path: "str | Path | None" = None,
    drive_index: int | None = None,
    quality: bool = False,
) -> DriveOutcome:
    """Run one drive spec to completion and fold it into an outcome.

    ``contained=True`` (the inline/reference mode) turns chaos specs into
    synthetic ``crashed``/``timeout`` outcomes instead of actually taking
    the process down — the sequential executor must survive everything the
    sharded one contains.  Workers call with ``contained=False`` so chaos
    genuinely breaks them.

    ``emitter`` (sharded live plane only) gets the drive's live frame
    counter attached; ``trace_path`` dumps the drive's telemetry as JSONL
    for cross-process trace stitching.  Both are observability only: the
    PR-2/PR-5 non-perturbation contract (re-pinned by the fleet tests)
    guarantees the frame cores — and therefore ``frames_digest`` — are
    identical whether or not the drive is observed.

    ``quality=True`` attaches the seeded ground-truth observer
    (:class:`repro.quality.observer.ModelQualityObserver`) and folds its
    per-drive summary onto the outcome.  The monitor still runs with
    quality SLO evaluation *off* — fleet verdicts stay quality-blind, the
    same way ``wall_clock_slos=False`` keeps them latency-blind — so a
    scored fleet's deterministic view is byte-identical to an unscored
    one's.
    """
    spec = _spec_of(spec)
    if spec.chaos == "crash":
        if not contained:
            os._exit(CHAOS_EXIT_CODE)
        return DriveOutcome(
            spec=spec.to_dict(),
            status="crashed",
            error="chaos: worker crash injected",
            wall={"worker_id": worker_id},
        )
    if spec.chaos in ("hang", "slow"):
        if not contained:
            if spec.chaos == "hang" and emitter is not None:
                emitter.wedge()
            time.sleep(CHAOS_HANG_S)
        return DriveOutcome(
            spec=spec.to_dict(),
            status="timeout",
            error=f"chaos: worker {spec.chaos} injected",
            wall={"worker_id": worker_id},
        )

    telemetry = Telemetry.recording() if record_latency else None
    if telemetry is not None and emitter is not None:
        emitter.attach_frames(telemetry.metrics)
    monitor = None
    if monitored:
        out_dir = None
        if incidents_dir is not None:
            out_dir = str(Path(incidents_dir) / spec.name)
        monitor = Monitor(
            MonitorConfig(
                out_dir=out_dir,
                budgets=SloBudgets.for_fps(spec.fps),
                wall_clock_slos=False,
                quality_slos=False,
                trigger_on_quality=False,
            ),
            telemetry=telemetry,
        )
    observer = None
    if quality:
        from repro.quality.observer import ModelQualityObserver

        observer = ModelQualityObserver.for_spec(spec)
    try:
        from repro.core.system import run_drive_spec

        with Stopwatch() as stopwatch:
            report = run_drive_spec(
                spec, telemetry=telemetry, monitor=monitor, quality=observer
            )
    except Exception as exc:  # noqa: BLE001 - containment is the contract
        return DriveOutcome(
            spec=spec.to_dict(),
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
            wall={"worker_id": worker_id},
        )
    metrics: list = []
    wall_metrics: list = []
    if telemetry is not None and telemetry.enabled:
        for series in telemetry.metrics.snapshot():
            (wall_metrics if series["name"] in WALL_SERIES else metrics).append(series)
        if trace_path is not None:
            telemetry.meta.update(
                {
                    "source": "fleet-worker",
                    "worker_id": worker_id,
                    "drive_index": drive_index,
                    "drive": spec.name,
                }
            )
            export_jsonl(telemetry, str(trace_path))
    verdict = monitor.verdict() if monitor is not None else {}
    incidents = [str(p) for p in monitor.bundles] if monitor is not None else []
    return DriveOutcome(
        spec=spec.to_dict(),
        status="ok",
        frames_digest=frames_digest(report.frames),
        summary=report.summary(),
        verdict=verdict,
        metrics=metrics,
        quality=observer.summary() if observer is not None else {},
        incidents=incidents,
        wall={
            "metrics": wall_metrics,
            "wall_s": stopwatch.elapsed_s,
            "worker_id": worker_id,
        },
    )


def drive_trace_path(trace_dir: "str | Path", index: int) -> Path:
    """The canonical per-drive span-dump path under a fleet trace dir."""
    return Path(trace_dir) / f"drive-{index:04d}.jsonl"


def worker_main(
    worker_id: int,
    task_queue: Any,
    result_queue: Any,
    incidents_dir: str | None,
    monitored: bool,
    record_latency: bool,
    status_queue: Any = None,
    heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    trace_dir: str | None = None,
    quality: bool = False,
) -> None:
    """Process entry point: drain tasks until the ``None`` sentinel.

    Every task is executed with ``contained=False`` — a chaos spec really
    does kill or hang this process, and the scheduler's containment turns
    that into an outcome on the parent side.  With a ``status_queue`` the
    worker runs the live plane: a heartbeat thread plus start/done
    progress records around every drive.
    """
    emitter = None
    if status_queue is not None:
        emitter = HeartbeatEmitter(
            worker_id, status_queue, interval_s=heartbeat_interval_s
        )
        emitter.start()
    try:
        while True:
            try:
                item = task_queue.get(timeout=TASK_POLL_TIMEOUT_S)
            except queue.Empty:
                continue
            if item is None:
                return
            index, spec_dict = item
            name = str(spec_dict.get("name", "drive"))
            if emitter is not None:
                emitter.begin_drive(index, name)
            trace_path = None
            if trace_dir is not None and record_latency:
                trace_path = drive_trace_path(trace_dir, index)
            outcome = execute_spec(
                spec_dict,
                worker_id=worker_id,
                incidents_dir=incidents_dir,
                monitored=monitored,
                record_latency=record_latency,
                contained=False,
                emitter=emitter,
                trace_path=trace_path,
                drive_index=index,
                quality=quality,
            )
            if emitter is not None:
                emitter.end_drive(index, name, outcome.status)
            result_queue.put((index, outcome.to_dict()))
    finally:
        if emitter is not None:
            emitter.stop()

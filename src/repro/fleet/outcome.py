"""``DriveOutcome``: the compact, picklable result of one fleet drive.

An outcome is everything the aggregator needs and nothing it does not:
the spec that produced it, a status, the drive's frame-core digest (the
byte-identity comparator from :mod:`repro.core.spec`), the deterministic
drive summary, the monitor verdict, a compact telemetry snapshot, and
harvested incident-bundle paths.  It crosses the worker->scheduler
process boundary as a plain dict.

Everything that is not a pure function of the spec lives under the one
``wall`` key, set when the outcome is built: the wall timings and
identity of the execution, and the metric series the worker split off
the snapshot (:data:`repro.core.system.WALL_SERIES`).  The rollup's
``deterministic_view`` drops that key and nothing else needs to know
what is in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import FleetError

#: Legal outcome statuses.  ``ok`` is the only success; everything else is
#: a contained failure — the run keeps going either way.
OUTCOME_STATUSES = ("ok", "failed", "crashed", "timeout", "rejected")

#: Legal ``hang_verdict`` values for ``timeout`` outcomes: ``hung`` means
#: the worker's heartbeats stopped before the deadline fired; ``deadline``
#: means the worker was still beating — slow, not wedged.
HANG_VERDICTS = ("hung", "deadline")


@dataclass
class DriveOutcome:
    """One drive's result, ready to fold into a fleet rollup.

    Attributes:
        spec: The producing :class:`~repro.core.spec.DriveSpec` as a dict.
        status: One of :data:`OUTCOME_STATUSES`.
        frames_digest: SHA-256 chain over the drive's frame cores
            (``None`` when the drive produced no frames).
        summary: :meth:`DriveReport.summary` output (sim-deterministic).
        verdict: :meth:`Monitor.verdict` output (sim-deterministic when
            the monitor runs with ``wall_clock_slos=False``, the fleet
            default); empty dict for unmonitored drives.
        metrics: Telemetry metric snapshot (plain dicts; empty when the
            drive ran unobserved).
        quality: Per-drive detection-quality summary from the quality
            plane (:func:`repro.quality.records.fold_records` output);
            empty dict for unscored drives.  Sim-deterministic, but
            stripped from the deterministic view so scored and unscored
            fleets compare byte-identically.
        incidents: Incident-bundle paths harvested from the drive.
        error: Failure detail for non-``ok`` statuses.
        wall: What the execution, not the spec, decided: ``metrics``
            (the split-off wall and quality series, ``frame_wall_ms``
            among them), ``wall_s`` (drive duration), ``worker_id``, and
            for ``timeout`` outcomes ``hang_verdict`` (``"hung"`` when
            heartbeats stopped, ``"deadline"`` when still beating, ``None``
            with streaming off) and ``last_heartbeat_age_s``.
    """

    spec: dict
    status: str
    frames_digest: str | None = None
    summary: dict = field(default_factory=dict)
    verdict: dict = field(default_factory=dict)
    metrics: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    incidents: list = field(default_factory=list)
    error: str = ""
    wall: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in OUTCOME_STATUSES:
            raise FleetError(
                f"unknown outcome status {self.status!r} (one of {OUTCOME_STATUSES})"
            )
        hang_verdict = self.wall.get("hang_verdict")
        if hang_verdict is not None and hang_verdict not in HANG_VERDICTS:
            raise FleetError(
                f"unknown hang_verdict {hang_verdict!r} (one of {HANG_VERDICTS})"
            )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def name(self) -> str:
        return str(self.spec.get("name", "drive"))

    @property
    def frame_latency(self) -> dict | None:
        """The drive's ``frame_wall_ms`` histogram (``None`` if unrecorded)."""
        for series in self.wall.get("metrics", ()):
            if series.get("name") == "frame_wall_ms":
                return series
        return None

    def to_dict(self) -> dict:
        return {
            "spec": dict(self.spec),
            "status": self.status,
            "frames_digest": self.frames_digest,
            "summary": dict(self.summary),
            "verdict": dict(self.verdict),
            "metrics": list(self.metrics),
            "quality": dict(self.quality),
            "incidents": list(self.incidents),
            "error": self.error,
            "wall": dict(self.wall),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DriveOutcome":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise FleetError(
                f"unknown DriveOutcome fields: {sorted(unknown)} (known: {sorted(known)})"
            )
        return cls(**dict(data))


"""repro.fleet: multiplexed many-vehicle drive service.

Shards seeded :class:`~repro.core.spec.DriveSpec` drives across worker
processes, contains worker crashes and timeouts as per-drive outcomes,
and folds everything into a schema-versioned fleet rollup
(``FLEET_*.json``).  See FLEET.md for the full design.

Unlike the simulation domains, this package is *about* wall clocks and
processes — it is deliberately outside the determinism lint fence.  The
determinism contract lives one level down: every drive it schedules is a
pure function of its spec, pinned by frame-core digests.
"""

from repro.fleet.events import FLEET_EVENT_KINDS, check_fleet_event_kind
from repro.fleet.outcome import HANG_VERDICTS, OUTCOME_STATUSES, DriveOutcome
from repro.fleet.rollup import (
    FLEET_SCHEMA,
    FLEET_SCHEMA_VERSION,
    build_rollup,
    deterministic_view,
    load_rollup,
    render_rollup,
    validate_rollup,
    write_rollup,
)
from repro.fleet.scheduler import Admission, FleetConfig, FleetScheduler, run_fleet
from repro.fleet.specs import sweep_specs
from repro.fleet.status import (
    STATUS_SCHEMA,
    STATUS_SCHEMA_VERSION,
    WORKER_STATES,
    StatusBoard,
    render_status,
    status_metrics_snapshot,
    validate_status,
)
from repro.fleet.trace import SCHEDULER_PID, stitch_fleet_trace, worker_pid
from repro.fleet.worker import HeartbeatEmitter, drive_trace_path, execute_spec

__all__ = [
    "FLEET_EVENT_KINDS",
    "FLEET_SCHEMA",
    "FLEET_SCHEMA_VERSION",
    "HANG_VERDICTS",
    "OUTCOME_STATUSES",
    "SCHEDULER_PID",
    "STATUS_SCHEMA",
    "STATUS_SCHEMA_VERSION",
    "WORKER_STATES",
    "Admission",
    "DriveOutcome",
    "FleetConfig",
    "FleetScheduler",
    "HeartbeatEmitter",
    "StatusBoard",
    "build_rollup",
    "check_fleet_event_kind",
    "deterministic_view",
    "drive_trace_path",
    "execute_spec",
    "load_rollup",
    "render_rollup",
    "render_status",
    "run_fleet",
    "status_metrics_snapshot",
    "stitch_fleet_trace",
    "sweep_specs",
    "validate_rollup",
    "validate_status",
    "worker_pid",
    "write_rollup",
]

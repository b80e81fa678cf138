"""The quality baseline store: schema-versioned snapshots + the ratchet gate.

A snapshot (``QUALITY_BASELINE.json``) holds the per-drive and merged
quality summaries of the canonical *quality suite* — a fixed list of
seeded drives covering every lighting regime and the fault scenarios that
stress adaptation.  Because the suite and the ground-truth model are
fully seeded, the summaries are a pure function of the code: re-running
the suite on any machine reproduces the committed numbers exactly, which
is what makes an *absolute* noise floor meaningful (unlike the bench
gate, nothing here measures a wall clock).

``compare`` judges a fresh suite run against a stored baseline through
the shared :mod:`repro.ratchet`: a drive whose recall or precision drops
more than ``noise_floor`` below the committed value is a *regression*
(exit 1 from the CLI); a rise beyond the floor is an *improvement*, and
the gate ratchets by re-writing the baseline.  A drive on one side only
is *missing* or *new*: reported, not failing.

The one wall-valued field (``suite_wall_s``, how long the suite took to
score) sits under the snapshot's ``wall`` key, the one name every record
in the repo keeps its wall data under and the determinism-taint lint
rule launders.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from repro import ratchet
from repro.core.spec import DriveSpec
from repro.errors import QualityError
from repro.quality.observer import ModelQualityObserver, QualityModelConfig
from repro.quality.records import merge_summaries
from repro.rng import derive_seed

QUALITY_SCHEMA = "repro.quality/baseline"
QUALITY_SCHEMA_VERSION = 1

SCHEMA = ratchet.Schema(
    name=QUALITY_SCHEMA,
    version=QUALITY_SCHEMA_VERSION,
    table="drives",
    label="quality baseline",
    error=QualityError,
    create_hint="repro quality report --out QUALITY_BASELINE.json",
)

#: Absolute recall/precision drop tolerated before a drive regresses.
#: The suite is fully deterministic, so the floor only absorbs *intended*
#: model-tuning noise (a re-tuned jitter constant), not measurement noise.
DEFAULT_NOISE_FLOOR = 0.02

#: The canonical suite: (short name, trace, fault scenario).  Every
#: lighting regime is crossed, and both fault rows stress the quality
#: plane's reason to exist — ``sensor_blackout`` holds the lux register
#: through a lighting transition (stale configuration, recall collapse),
#: ``flaky_dma`` drops vehicle frames outright.
_SUITE_ROWS: tuple[tuple[str, str, str | None], ...] = (
    ("sunset-clean", "sunset", None),
    ("urban-clean", "urban", None),
    ("tunnel-clean", "tunnel", None),
    ("flicker-clean", "flicker", None),
    ("sunset-blackout", "sunset", "sensor_blackout"),
    ("urban-flaky-dma", "urban", "flaky_dma"),
)

#: Suite drive length: long enough for every trace to cross a lighting
#: boundary, short enough for a check.sh gate.
SUITE_DURATION_S = 8.0


def quality_suite_specs(
    duration_s: float = SUITE_DURATION_S, seed: int = 0
) -> list[DriveSpec]:
    """The canonical quality-suite drive specs (deterministic)."""
    if duration_s <= 0:
        raise QualityError(f"suite duration_s must be positive, got {duration_s}")
    return [
        DriveSpec(
            name=f"quality-{name}",
            trace=trace,
            duration_s=duration_s,
            seed=derive_seed(seed, f"quality-suite:{name}"),
            fault_scenario=scenario,
        )
        for name, trace, scenario in _SUITE_ROWS
    ]


def run_suite(
    specs: Sequence[DriveSpec] | None = None,
    config: QualityModelConfig | None = None,
) -> dict[str, dict]:
    """Run the suite inline and return ``{drive name: quality summary}``."""
    from repro.core.system import run_drive_spec

    drives: dict[str, dict] = {}
    for spec in specs if specs is not None else quality_suite_specs():
        observer = ModelQualityObserver.for_spec(spec, config=config)
        run_drive_spec(spec, quality=observer)
        drives[spec.name] = observer.summary()
    return drives


def build_snapshot(
    drives: Mapping[str, Mapping],
    label: str = "quality",
    config: QualityModelConfig | None = None,
    suite_wall_s: float | None = None,
) -> dict:
    """Assemble the schema-versioned snapshot document."""
    model = (config or QualityModelConfig()).to_dict()
    doc = {
        "schema": QUALITY_SCHEMA,
        "schema_version": QUALITY_SCHEMA_VERSION,
        "label": label,
        "model": model,
        "drives": {name: dict(summary) for name, summary in sorted(drives.items())},
        "suite": merge_summaries(drives.values()),
    }
    if suite_wall_s is not None:
        doc["wall"] = {"suite_wall_s": suite_wall_s}
    return doc


def write_snapshot(path: "str | Path", doc: dict) -> Path:
    """Validate and write one snapshot (stable key order, human-diffable)."""
    validate_snapshot(doc)
    return ratchet.write_snapshot(path, doc)


def load_snapshot(path: "str | Path") -> dict:
    """Load and schema-check a snapshot written by :func:`write_snapshot`."""
    doc = ratchet.load_snapshot(path, SCHEMA)
    validate_snapshot(doc, origin=repr(str(path)))
    return doc


def validate_snapshot(doc: Mapping, origin: str = "snapshot") -> None:
    """Reject structurally broken snapshots (schema gate for readers)."""
    ratchet.check_snapshot(doc, SCHEMA, origin=origin)
    for name, summary in doc["drives"].items():
        if not isinstance(summary, Mapping) or "overall" not in summary:
            raise QualityError(f"{origin} drive {name!r} carries no overall metrics")


def _overall(summary: Mapping) -> tuple[float, float]:
    overall = dict(summary.get("overall", {}))
    return float(overall.get("recall", 0.0)), float(overall.get("precision", 0.0))


def _fields(entry: ratchet.Entry) -> dict:
    fields: dict = {}
    for side in ("baseline", "current"):
        summary = getattr(entry, side)
        recall, precision = _overall(summary) if summary is not None else (None, None)
        fields[f"{side}_recall"] = recall
        fields[f"{side}_precision"] = precision
    return fields


def _detail(fields: dict) -> str:
    return ", ".join(
        f"{metric} {ratchet.fmt(fields[f'baseline_{metric}'])} -> "
        f"{ratchet.fmt(fields[f'current_{metric}'])}"
        for metric in ("recall", "precision")
    )


def compare(
    baseline_doc: Mapping,
    current_drives: Mapping[str, Mapping],
    noise_floor: float = DEFAULT_NOISE_FLOOR,
) -> ratchet.Report:
    """Judge a fresh suite run against a loaded baseline snapshot.

    A drive present in both regresses when recall *or* precision drops
    more than ``noise_floor`` below the baseline; the symmetric rise
    marks it improved (the ratchet signal).
    """
    if noise_floor < 0:
        raise QualityError(f"noise_floor must be >= 0, got {noise_floor}")
    validate_snapshot(baseline_doc, origin="baseline")

    def judge(base: Mapping, cur: Mapping) -> str:
        base_recall, base_precision = _overall(base)
        cur_recall, cur_precision = _overall(cur)
        if (
            cur_recall < base_recall - noise_floor
            or cur_precision < base_precision - noise_floor
        ):
            return "worse"
        if (
            cur_recall > base_recall + noise_floor
            or cur_precision > base_precision + noise_floor
        ):
            return "better"
        return "same"

    baseline_label = str(baseline_doc.get("label", "?"))
    return ratchet.Report(
        ratchet.compare(baseline_doc["drives"], current_drives, judge),
        tool="quality compare",
        title=f"suite vs baseline {baseline_label!r} (noise floor {noise_floor:.3f})",
        unit="drives",
        failure="recall/precision regressed",
        ratchet_hint="repro quality report --out QUALITY_BASELINE.json",
        meta={"baseline": baseline_label, "noise_floor": noise_floor},
        fields_of=_fields,
        detail_of=_detail,
    )


def render_report(drives: Mapping[str, Mapping], suite: Mapping | None = None) -> str:
    """A compact human-readable view of one suite run."""
    merged = dict(suite) if suite is not None else merge_summaries(drives.values())
    overall = merged.get("overall", {})
    lines = [
        f"quality suite: {merged.get('scored_drives', len(drives))} drives, "
        f"{merged.get('sampled_frames', 0)} frames scored",
        f"  overall: recall={overall.get('recall', 0.0):.3f} "
        f"precision={overall.get('precision', 0.0):.3f} "
        f"f1={overall.get('f1', 0.0):.3f}",
    ]
    for condition, row in dict(merged.get("by_condition", {})).items():
        lines.append(
            f"  {condition}: recall={row.get('recall', 0.0):.3f} "
            f"precision={row.get('precision', 0.0):.3f} "
            f"tp={row.get('tp', 0)} fp={row.get('fp', 0)} fn={row.get('fn', 0)}"
        )
    for name, summary in sorted(drives.items()):
        recall, precision = _overall(summary)
        lines.append(
            f"  {name}: recall={recall:.3f} precision={precision:.3f} "
            f"({summary.get('sampled_frames', 0)} frames, "
            f"{summary.get('mismatched_frames', 0)} mismatched)"
        )
    return "\n".join(lines)

"""One ratchet: the snapshot-and-compare core behind every regression gate.

Three gates hold the code to a committed baseline: ``repro bench
--compare`` (``BENCH_*.json``), ``repro quality compare``
(``QUALITY_BASELINE.json``) and ``repro lint --compare-baseline``
(``LINT_BASELINE.json``).  Everything they have in common lives here:

* :func:`write_snapshot` — stable JSON (``indent=2``, sorted keys,
  trailing newline), so rewriting an unchanged baseline changes no byte;
* :func:`load_snapshot` / :func:`check_snapshot` — the schema-name,
  schema-version and entries-table checks, raising the gate's own typed
  error for any malformed document (the CLIs turn it into exit 2);
* :data:`STATUSES` — the five verdicts, in severity order;
* :func:`compare` — one loop over the union of baseline and current
  keys.  A key on one side only is *new* or *missing*: reported, never
  failing.  A key on both sides goes to the gate's judge, which says
  ``"worse"``, ``"better"`` or ``"same"``;
* :class:`Report` — counts, regressions, improvements, and the text and
  JSON renders.

A gate keeps only its own meaning: what an entry is and when it is worse.
The fleet's rollup and status snapshots reuse the writer and the checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

from repro.errors import ReproError

#: Compare verdicts, in severity order.
STATUSES = ("regressed", "missing", "new", "improved", "unchanged")

#: What a judge may say about a key present on both sides.
_JUDGEMENTS = {"worse": "regressed", "better": "improved", "same": "unchanged"}

T = TypeVar("T")


@dataclass(frozen=True)
class Schema:
    """What one gate's snapshot document must look like.

    Attributes:
        name: The document's ``schema`` value.
        version: The one schema version this build reads.
        table: Key of a mapping every snapshot carries (a gate's entries).
        label: How error messages name the document.
        error: The gate's typed error, raised for any malformed snapshot.
        create_hint: The command that writes a fresh snapshot.
        version_key: Key holding the version number.
    """

    name: str
    version: int
    table: str
    label: str
    error: type[ReproError]
    create_hint: str
    version_key: str = "schema_version"


def write_snapshot(path: str | Path, doc: Mapping) -> Path:
    """Write one snapshot as stable, human-diffable JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_snapshot(path: str | Path, schema: Schema) -> dict:
    """Read and schema-check a snapshot written by :func:`write_snapshot`."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise schema.error(
            f"no {schema.label} at {str(path)!r} (cannot read: {exc.strerror or exc}); "
            f"create one with `{schema.create_hint}`"
        ) from exc
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        raise schema.error(
            f"unreadable {schema.label} {str(path)!r}: not valid JSON ({exc})"
        ) from exc
    check_snapshot(doc, schema, origin=repr(str(path)))
    return doc


def check_snapshot(doc: Any, schema: Schema, origin: str = "snapshot") -> None:
    """Reject a document of the wrong schema, version or shape."""
    found = doc.get("schema") if isinstance(doc, Mapping) else None
    if found != schema.name:
        raise schema.error(
            f"{origin} is not a {schema.label} "
            f"(schema {found!r}, expected {schema.name!r})"
        )
    version = doc.get(schema.version_key)
    if version != schema.version:
        raise schema.error(
            f"{origin} has {schema.version_key} {version!r}; "
            f"this build reads version {schema.version}"
        )
    if not isinstance(doc.get(schema.table), Mapping):
        raise schema.error(f"{origin} has no {schema.table} table")


def fmt(value: float | None) -> str:
    """A report number: three decimals, or ``-`` for an absent side."""
    return f"{value:.3f}" if value is not None else "-"


@dataclass
class Entry:
    """One key's verdict; a side the key is absent from holds ``None``."""

    name: str
    status: str
    baseline: Any = None
    current: Any = None


def compare(
    baseline: Mapping[str, T],
    current: Mapping[str, T],
    judge: Callable[[T, T], str],
) -> list[Entry]:
    """Judge every key of ``baseline`` and ``current``, sorted by name."""
    entries = []
    for name in sorted(set(baseline) | set(current)):
        if name not in baseline:
            entries.append(Entry(name, "new", current=current[name]))
        elif name not in current:
            entries.append(Entry(name, "missing", baseline=baseline[name]))
        else:
            base, cur = baseline[name], current[name]
            entries.append(Entry(name, _JUDGEMENTS[judge(base, cur)], base, cur))
    return entries


@dataclass
class Report:
    """The verdict of one current run against one baseline.

    Attributes:
        entries: The verdicts, as :func:`compare` returns them.
        tool: Prefix of every text line (``"bench compare"``); the JSON
            ``tool`` is the same words, hyphenated after ``repro-``.
        title: The rest of the text header line.
        unit: What an entry is, plural (``"drives"``).
        failure: Why regressions fail the gate, for the last text line.
        ratchet_hint: When set, improvements print a hint to re-baseline.
        meta: Extra top-level fields of the JSON render.
        fields_of: An entry's numbers, as the JSON render lists them.
        detail_of: Those numbers as the text between parentheses.
    """

    entries: list[Entry]
    tool: str = "compare"
    title: str = ""
    unit: str = "entries"
    failure: str = "regressions found"
    ratchet_hint: str | None = None
    meta: dict = field(default_factory=dict)
    fields_of: Callable[[Entry], dict] = lambda entry: {}
    detail_of: Callable[[dict], str] = lambda fields: ""

    @property
    def regressions(self) -> list[Entry]:
        return [e for e in self.entries if e.status == "regressed"]

    @property
    def improvements(self) -> list[Entry]:
        return [e for e in self.entries if e.status == "improved"]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def counts(self) -> dict[str, int]:
        table = {status: 0 for status in STATUSES}
        for entry in self.entries:
            table[entry.status] += 1
        return table

    def render_text(self) -> str:
        """One line per entry that is not unchanged, most severe first."""
        lines = [f"{self.tool}: {self.title}"]
        order = {status: i for i, status in enumerate(STATUSES)}
        for entry in sorted(self.entries, key=lambda e: (order[e.status], e.name)):
            if entry.status != "unchanged":
                detail = self.detail_of(self.fields_of(entry))
                lines.append(f"  {entry.name}: {entry.status} ({detail})")
        counts = self.counts()
        lines.append(
            f"{self.tool}: "
            + ", ".join(f"{counts[s]} {s}" for s in STATUSES)
            + f" across {len(self.entries)} {self.unit}"
        )
        if self.has_regressions:
            lines.append(f"{self.tool}: FAILED ({self.failure})")
        elif self.improvements and self.ratchet_hint:
            lines.append(
                f"{self.tool}: improved beyond the floor — ratchet with "
                f"`{self.ratchet_hint}`"
            )
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "tool": "repro-" + self.tool.replace(" ", "-"),
                **self.meta,
                "counts": self.counts(),
                "has_regressions": self.has_regressions,
                "entries": [
                    {"name": e.name, "status": e.status, **self.fields_of(e)}
                    for e in self.entries
                ],
            },
            indent=2,
            sort_keys=True,
        )

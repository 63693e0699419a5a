"""Run reports in JSON, text and SARIF form.

The report body is fully determined by pipeline inputs: no stage duration
or wall-clock timestamp appears in it, so two runs over identical inputs
produce byte-identical report files. Stage wall times go to the
``timings.json`` sidecar next to the report, which the text form shows when
it is given them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .artifacts import JsonDataclass, check_version, dump_json, read_json, shape_checked
from .errors import ArtifactCorrupt
from .metrics import Metrics, format_rate
from .rulegen import Finding

REPORT_VERSION = 1
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

REPORT_FORMATS = ("json", "text", "sarif")


@dataclass(frozen=True)
class StageSummary(JsonDataclass):
    name: str
    status: str  # ok | failed | skipped


@dataclass(frozen=True)
class PipelineReport(JsonDataclass):
    project: str
    backend: str
    llm_mode: str
    stages: tuple[StageSummary, ...]
    counts: dict[str, int]
    metrics: Metrics | None = None
    warnings: tuple[str, ...] = field(default_factory=tuple)


def dump_report(report: PipelineReport) -> str:
    return dump_json({"version": REPORT_VERSION, **asdict(report)})


def load_report(path: str | Path) -> PipelineReport:
    doc = read_json(path)
    check_version(doc, path, REPORT_VERSION)
    with shape_checked(path, "report"):
        return PipelineReport.from_dict(doc)


def load_stage_seconds(path: str | Path) -> dict[str, float]:
    """The per-stage wall times of a ``timings.json`` sidecar."""
    doc = read_json(path)
    seconds = doc.get("stage_seconds")
    if not isinstance(seconds, dict) or not all(
        isinstance(s, (int, float)) and not isinstance(s, bool) for s in seconds.values()
    ):
        raise ArtifactCorrupt(f"{path}: expected 'stage_seconds' to map stages to seconds")
    return seconds


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------


def render_text(report: PipelineReport, stage_seconds: dict[str, float] | None = None) -> str:
    """The report as text; ``stage_seconds`` adds each timed stage's wall time."""
    seconds = stage_seconds or {}
    lines = [
        "qlforge run report",
        "==================",
        f"project: {report.project}",
        f"backend: {report.backend}",
        f"llm: {report.llm_mode}",
        "",
        "stages:",
    ]
    for stage in report.stages:
        timed = f" {seconds[stage.name]:.3f}s" if stage.name in seconds else ""
        lines.append(f"  {stage.name:<10} {stage.status:<8}{timed}".rstrip())
    lines.append("")
    lines.append("counts:")
    for key, value in report.counts.items():
        lines.append(f"  {key}: {value}")
    lines.append("")
    m = report.metrics
    if m is None:
        lines.append("metrics: (not computed)")
    else:
        lines.append("metrics:")
        lines.append(
            f"  correctness_rate: {format_rate(m.correctness_rate)}"
            f" ({m.compiled}/{m.total_pairs} rules compiled)"
        )
        lines.append(
            f"  detection_rate: {format_rate(m.detection_rate)}"
            f" ({m.detected}/{m.known_vulns} known vulnerabilities)"
        )
    lines.append("")
    if report.warnings:
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in report.warnings)
    else:
        lines.append("warnings: (none)")
    return "\n".join(lines) + "\n"


def render_sarif(report: PipelineReport, findings: list[Finding]) -> str:
    ordered = sorted(findings, key=lambda f: (f.file, f.start_line, f.end_line, f.pair_id))
    rule_ids = sorted({f.pair_id for f in ordered})
    classes = {f.pair_id: f.vuln_class for f in ordered}
    doc = {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "qlforge",
                        "version": __version__,
                        "rules": [
                            {
                                "id": rid,
                                "shortDescription": {"text": classes.get(rid, "") or rid},
                            }
                            for rid in rule_ids
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": f.pair_id,
                        "level": "error",
                        "message": {"text": f.message or f.vuln_class or f.pair_id},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {"uri": f.file},
                                    "region": {
                                        "startLine": f.start_line,
                                        "endLine": f.end_line,
                                    },
                                }
                            }
                        ],
                    }
                    for f in ordered
                ],
            }
        ],
    }
    return dump_json(doc)


def emit_report(
    report: PipelineReport,
    fmt: str,
    findings: list[Finding] | None = None,
    stage_seconds: dict[str, float] | None = None,
) -> str:
    """Render the report in one of the supported formats.

    SARIF output needs the findings list and text output shows the stage
    times; each format ignores what it does not show.
    """
    if fmt == "json":
        return dump_report(report)
    if fmt == "text":
        return render_text(report, stage_seconds)
    if fmt == "sarif":
        return render_sarif(report, findings or [])
    raise ValueError(f"unknown report format: {fmt!r}")

"""Run reports in JSON, text and SARIF form.

The report body is fully determined by pipeline inputs: stage durations are
stored as whole seconds (rounded down) and no wall-clock timestamps appear,
so two runs over identical inputs produce byte-identical report files.
Sub-second timing detail goes to a sidecar next to the report instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .artifacts import check_version, dump_json, read_json, shape_checked
from .metrics import Metrics, format_rate
from .rulegen import Finding

REPORT_VERSION = 1
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

REPORT_FORMATS = ("json", "text", "sarif")


@dataclass(frozen=True)
class StageSummary:
    name: str
    status: str  # ok | failed | skipped
    duration_s: int = 0

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "duration_s": self.duration_s}

    @classmethod
    def from_dict(cls, data: dict) -> "StageSummary":
        return cls(name=data["name"], status=data["status"], duration_s=data["duration_s"])


@dataclass(frozen=True)
class PipelineReport:
    project: str
    backend: str
    llm_mode: str
    stages: tuple[StageSummary, ...]
    counts: dict[str, int]
    metrics: Metrics | None = None
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "project": self.project,
            "backend": self.backend,
            "llm_mode": self.llm_mode,
            "stages": [s.to_dict() for s in self.stages],
            "counts": dict(self.counts),
            "metrics": None if self.metrics is None else self.metrics.to_dict(),
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineReport":
        if data.get("version") != REPORT_VERSION:
            raise ValueError(f"unsupported report version: {data.get('version')!r}")
        return cls(
            project=data["project"],
            backend=data["backend"],
            llm_mode=data["llm_mode"],
            stages=tuple(StageSummary.from_dict(s) for s in data["stages"]),
            counts=dict(data["counts"]),
            metrics=None if data["metrics"] is None else Metrics.from_dict(data["metrics"]),
            warnings=tuple(data["warnings"]),
        )


def dump_report(report: PipelineReport) -> str:
    return dump_json(report.to_dict())


def load_report(path: str | Path) -> PipelineReport:
    doc = read_json(path)
    check_version(doc, path, REPORT_VERSION)
    with shape_checked(path, "report"):
        return PipelineReport.from_dict(doc)


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------


def render_text(report: PipelineReport) -> str:
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
        lines.append(f"  {stage.name:<10} {stage.status:<8} {stage.duration_s}s")
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
) -> str:
    """Render the report in one of the supported formats.

    SARIF output needs the findings list; the other formats ignore it.
    """
    if fmt == "json":
        return dump_report(report)
    if fmt == "text":
        return render_text(report)
    if fmt == "sarif":
        return render_sarif(report, findings or [])
    raise ValueError(f"unknown report format: {fmt!r}")

import json

import pytest

from qlforge import __version__
from qlforge.metrics import Metrics
from qlforge.report import (
    PipelineReport,
    StageSummary,
    dump_report,
    emit_report,
    load_report,
    render_sarif,
    render_text,
)
from qlforge.rulegen import Finding


def _metrics():
    return Metrics(
        total_pairs=4,
        compiled=3,
        aborted=1,
        correctness_rate=75.0,
        known_vulns=2,
        detected=1,
        detection_rate=50.0,
        detected_ids=("v1",),
        missed_ids=("v2",),
    )


def _report(metrics=True, warnings=()):
    return PipelineReport(
        project="demo",
        backend="fixture",
        llm_mode="mock",
        stages=(
            StageSummary("extract", "ok", 0),
            StageSummary("classify", "ok", 2),
        ),
        counts={"apis_extracted": 22, "pairs": 4},
        metrics=_metrics() if metrics else None,
        warnings=tuple(warnings),
    )


def _findings():
    return [
        Finding("b__y", "sqli", "B.java", 7, 7, "query built from request"),
        Finding("a__x", "xss", "A.java", 3, 4),
    ]


def test_report_round_trip(tmp_path):
    report = _report(warnings=["2 tie(s)"])
    path = tmp_path / "report.json"
    path.write_text(dump_report(report))
    assert load_report(path) == report


def test_report_version_guard():
    with pytest.raises(ValueError):
        PipelineReport.from_dict({"version": 5})


def test_text_rendering_contents():
    text = render_text(_report(warnings=["something odd"]))
    assert "qlforge run report" in text
    assert "project: demo" in text
    assert "backend: fixture" in text
    assert "extract" in text and "classify" in text
    assert "apis_extracted: 22" in text
    assert "correctness_rate: 75.00 (3/4 rules compiled)" in text
    assert "detection_rate: 50.00 (1/2 known vulnerabilities)" in text
    assert "- something odd" in text


def test_text_rendering_without_metrics_or_warnings():
    text = render_text(_report(metrics=False))
    assert "metrics: (not computed)" in text
    assert "warnings: (none)" in text


def test_sarif_structure():
    doc = json.loads(render_sarif(_report(), _findings()))
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-2.1.0.json")
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "qlforge"
    assert driver["version"] == __version__
    assert [r["id"] for r in driver["rules"]] == ["a__x", "b__y"]
    results = run["results"]
    # Results are sorted by location, not input order.
    assert [r["ruleId"] for r in results] == ["a__x", "b__y"]
    first = results[0]
    assert first["level"] == "error"
    assert first["message"]["text"] == "xss"  # falls back to the class
    loc = first["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "A.java"
    assert loc["region"] == {"startLine": 3, "endLine": 4}
    assert results[1]["message"]["text"] == "query built from request"


def test_sarif_with_no_findings():
    doc = json.loads(render_sarif(_report(), []))
    assert doc["runs"][0]["results"] == []
    assert doc["runs"][0]["tool"]["driver"]["rules"] == []


def test_emit_report_dispatch():
    report = _report()
    assert emit_report(report, "json") == dump_report(report)
    assert emit_report(report, "text") == render_text(report)
    assert json.loads(emit_report(report, "sarif", _findings()))["runs"]
    with pytest.raises(ValueError):
        emit_report(report, "yaml")

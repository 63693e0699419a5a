import json

import pytest

from qlforge import __version__
from qlforge.errors import ArtifactCorrupt
from qlforge.metrics import Metrics
from qlforge.report import (
    PipelineReport,
    StageSummary,
    dump_report,
    load_report,
    load_stage_seconds,
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
            StageSummary("extract", "ok"),
            StageSummary("classify", "ok"),
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


def test_report_stages_carry_no_duration():
    doc = json.loads(dump_report(_report()))
    assert doc["stages"] == [
        {"name": "extract", "status": "ok"},
        {"name": "classify", "status": "ok"},
    ]


def test_load_report_reads_an_older_report_with_stage_durations(tmp_path):
    doc = json.loads(dump_report(_report()))
    for stage, seconds in zip(doc["stages"], (0, 2)):
        stage["duration_s"] = seconds
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert load_report(path) == _report()


def test_load_stage_seconds(tmp_path):
    path = tmp_path / "timings.json"
    path.write_text('{"stage_seconds": {"extract": 0.25, "classify": 1}}')
    assert load_stage_seconds(path) == {"extract": 0.25, "classify": 1}
    for bad in ("{}", '{"stage_seconds": [1]}', '{"stage_seconds": {"x": "1"}}',
                '{"stage_seconds": {"x": true}}'):
        path.write_text(bad)
        with pytest.raises(ArtifactCorrupt, match=f"{path}: expected 'stage_seconds'"):
            load_stage_seconds(path)


def test_report_version_guard(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({**json.loads(dump_report(_report())), "version": 5}))
    with pytest.raises(ArtifactCorrupt, match=f"{path}: unsupported document version: 5"):
        load_report(path)


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


def test_text_rendering_shows_the_stage_times_it_is_given():
    lines = render_text(_report(), {"classify": 1.23456, "scan": 4.0}).splitlines()
    assert "  extract    ok" in lines
    assert "  classify   ok       1.235s" in lines
    assert not any("scan" in line for line in lines)
    assert "  classify   ok" in render_text(_report()).splitlines()


def test_text_rendering_without_metrics_or_warnings():
    text = render_text(_report(metrics=False))
    assert "metrics: (not computed)" in text
    assert "warnings: (none)" in text


def test_sarif_structure():
    doc = json.loads(render_sarif(_findings()))
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
    doc = json.loads(render_sarif([]))
    assert doc["runs"][0]["results"] == []
    assert doc["runs"][0]["tool"]["driver"]["rules"] == []


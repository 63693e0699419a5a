import json
from dataclasses import asdict

import pytest

from qlforge.errors import ConfigError
from qlforge.metrics import (
    ManifestEntry,
    Metrics,
    compute_metrics,
    finding_hits_entry,
    format_rate,
    load_manifest,
    percent,
)
from qlforge.rulegen import ArtifactStatus, Finding, RuleArtifact


def test_percent_reference_values():
    # Hand-checked long division, half-up at two decimals.
    assert percent(1347, 1924) == 70.01
    assert percent(1452, 1924) == 75.47
    assert percent(1749, 1924) == 90.90
    assert percent(1522, 1924) == 79.11
    assert percent(1, 3) == 33.33
    assert percent(2, 3) == 66.67
    assert percent(0, 5) == 0.0
    assert percent(5, 5) == 100.0


def test_percent_half_up_at_the_boundary():
    # 1/800 = 0.125%: ties round away from zero, not to even.
    assert percent(1, 800) == 0.13
    assert percent(1, 8000, 3) == 0.013
    assert percent(1, 16) == 6.25
    assert percent(1, 3200) == 0.03


def test_percent_one_decimal():
    assert percent(29, 62, 1) == 46.8
    assert percent(41, 62, 1) == 66.1
    assert percent(31, 62, 1) == 50.0
    assert percent(24, 62, 1) == 38.7


def test_percent_zero_denominator_is_none():
    assert percent(0, 0) is None
    assert percent(3, 0) is None


def test_format_rate():
    assert format_rate(None) == "n/a"
    assert format_rate(46.8) == "46.80"
    assert format_rate(100.0) == "100.00"
    assert format_rate(0.0) == "0.00"


def _entry(id="v1", file="A.java", start=10, end=12):
    return ManifestEntry(id=id, file=file, start_line=start, end_line=end, vuln_class="xss")


def _finding(file="A.java", start=10, end=10):
    return Finding("p__q", "xss", file, start, end)


def test_overlap_rules():
    entry = _entry()
    assert finding_hits_entry(_finding(start=10, end=10), entry)
    assert finding_hits_entry(_finding(start=12, end=12), entry)  # touching end
    assert finding_hits_entry(_finding(start=1, end=100), entry)  # containing
    assert finding_hits_entry(_finding(start=11, end=11), entry)  # inside
    assert not finding_hits_entry(_finding(start=13, end=20), entry)  # after
    assert not finding_hits_entry(_finding(start=1, end=9), entry)  # before
    assert not finding_hits_entry(_finding(file="B.java"), entry)  # other file


def _artifacts(compiled, aborted=0):
    arts = [
        RuleArtifact(f"c{i}__s", "xss", ArtifactStatus.COMPILED, 1, "x\n")
        for i in range(compiled)
    ]
    arts += [
        RuleArtifact(f"a{i}__s", "xss", ArtifactStatus.ABORTED, 1, "x\n")
        for i in range(aborted)
    ]
    return arts


def test_compute_metrics_counts_and_rates():
    manifest = [
        _entry("v1", "A.java", 10, 12),
        _entry("v2", "B.java", 5, 5),
        _entry("v3", "C.java", 1, 2),
    ]
    findings = [_finding("A.java", 11, 11), _finding("B.java", 5, 5)]
    metrics = compute_metrics(_artifacts(3, aborted=1), findings, manifest)
    assert metrics.total_pairs == 4
    assert metrics.compiled == 3
    assert metrics.aborted == 1
    assert metrics.correctness_rate == 75.0
    assert metrics.known_vulns == 3
    assert metrics.detected == 2
    assert metrics.detection_rate == 66.7
    assert metrics.detected_ids == ("v1", "v2")
    assert metrics.missed_ids == ("v3",)


def test_compute_metrics_invalid_counts_aborted_excluded():
    # Aborted rules stay in the denominator and drag the rate down.
    metrics = compute_metrics(_artifacts(1, aborted=3), [], None)
    assert metrics.correctness_rate == 25.0
    metrics = compute_metrics(_artifacts(2, aborted=2), [], None)
    assert metrics.total_pairs == 4
    assert metrics.aborted == 2
    assert metrics.correctness_rate == 50.0


def test_compute_metrics_all_aborted_has_no_rate():
    # Pairs were attempted, so the rate is a measured zero, not None.
    metrics = compute_metrics(_artifacts(0, aborted=2), [], None)
    assert metrics.correctness_rate == 0.0


def test_compute_metrics_without_manifest():
    metrics = compute_metrics(_artifacts(2), [], None)
    assert metrics.known_vulns == 0
    assert metrics.detection_rate is None
    assert metrics.detected_ids == ()


def test_compute_metrics_empty_everything():
    metrics = compute_metrics([], [], None)
    assert metrics.correctness_rate is None
    assert metrics.detection_rate is None


def test_metrics_round_trip():
    metrics = compute_metrics(_artifacts(2, aborted=2), [_finding()], [_entry()])
    assert Metrics.from_dict(json.loads(json.dumps(asdict(metrics)))) == metrics


def test_manifest_loading(tmp_path):
    doc = {
        "version": 1,
        "vulns": [
            {"id": "v1", "file": "A.java", "start_line": 3, "end_line": 4, "vuln_class": "xss"}
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    manifest = load_manifest(path)
    assert manifest == [ManifestEntry("v1", "A.java", 3, 4, "xss")]


def test_manifest_version_guard(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"version": 3, "vulns": []}))
    with pytest.raises(ConfigError, match=f"{path}: unsupported document version: 3"):
        load_manifest(path)

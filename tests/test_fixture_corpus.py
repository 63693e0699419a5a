import json
import shutil

import pytest

from tests.fixture_check import FixtureDrift, validate_fixture


def test_bundled_fixture_is_consistent(fixture_dir):
    summary = validate_fixture(fixture_dir)
    assert summary == {
        "call_sites": 22,
        "kept_records": 16,
        "known_vulns": 3,
        "endpoint_methods": 5,
        "decoy_methods": 9,
    }


def _copy_fixture(fixture_dir, tmp_path):
    target = tmp_path / "fixture"
    shutil.copytree(fixture_dir, target, ignore=shutil.ignore_patterns("run"))
    return target


def test_missing_project_detected(fixture_dir, tmp_path):
    copy = _copy_fixture(fixture_dir, tmp_path)
    shutil.rmtree(copy / "demo_project")
    with pytest.raises(FixtureDrift, match="missing fixture project"):
        validate_fixture(copy)


def test_manifest_drift_detected(fixture_dir, tmp_path):
    copy = _copy_fixture(fixture_dir, tmp_path)
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["vulns"][0]["file"] = "src/com/example/Nowhere.java"
    manifest["vulns"][1]["end_line"] = 9999
    (copy / "manifest.json").write_text(json.dumps(manifest, indent=2))
    with pytest.raises(FixtureDrift) as err:
        validate_fixture(copy)
    text = str(err.value)
    assert "not in fixture project" in text
    assert "outside" in text


def test_duplicate_manifest_id_detected(fixture_dir, tmp_path):
    copy = _copy_fixture(fixture_dir, tmp_path)
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["vulns"].append(dict(manifest["vulns"][0]))
    (copy / "manifest.json").write_text(json.dumps(manifest, indent=2))
    with pytest.raises(FixtureDrift, match="duplicated"):
        validate_fixture(copy)


def test_unlabeled_record_detected(fixture_dir, tmp_path):
    # Adding an API call to the project without extending the mock script
    # must trip the cross-check.
    copy = _copy_fixture(fixture_dir, tmp_path)
    extra = copy / "demo_project" / "src" / "com" / "example" / "Extra.java"
    extra.write_text(
        "package com.example;\n"
        "public class Extra {\n"
        "    void touch(Path path) {\n"
        "        Files fs;\n"
        "        fs.readAllBytes(path);\n"
        "    }\n"
        "}\n"
    )
    with pytest.raises(FixtureDrift, match="labels nothing"):
        validate_fixture(copy)


def test_stale_compiler_pair_detected(fixture_dir, tmp_path):
    copy = _copy_fixture(fixture_dir, tmp_path)
    script = json.loads((copy / "mock_compiler.json").read_text())
    script["pairs"]["deadbeef00000000__feedface00000000"] = {"fail_count": 0}
    (copy / "mock_compiler.json").write_text(json.dumps(script, indent=2))
    with pytest.raises(FixtureDrift, match="does not join two extracted ids"):
        validate_fixture(copy)

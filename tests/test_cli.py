import json
import shutil

import pytest
from click.testing import CliRunner

from qlforge.cli import EXIT_CONFIG, EXIT_NOTHING, EXIT_OK, EXIT_STAGE, main
from tests.conftest import FIXTURES


@pytest.fixture
def runner():
    return CliRunner()


def _write_config(tmp_path, **overrides):
    data = json.loads((FIXTURES / "pipeline_config.json").read_text(encoding="utf-8"))
    data["project"] = str(FIXTURES / "demo_project")
    data["mock_script"] = str(FIXTURES / "mock_llm.jsonl")
    data["compiler"]["script"] = str(FIXTURES / "mock_compiler.json")
    data["scan"]["manifest"] = str(FIXTURES / "manifest.json")
    data["out_dir"] = str(tmp_path / "run")
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data, indent=2))
    return path


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == EXIT_OK
    assert "0.1.0" in result.output


def test_help_lists_commands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == EXIT_OK
    for command in ("extract", "classify", "pair", "generate", "scan", "run", "report"):
        assert command in result.output


def test_stepwise_chain_matches_run(runner, tmp_path):
    specs = tmp_path / "specs.json"
    votes = tmp_path / "votes.json"
    pairs = tmp_path / "pairs.json"
    rules = tmp_path / "rules"
    findings = tmp_path / "findings.json"
    mock = str(FIXTURES / "mock_llm.jsonl")

    result = runner.invoke(
        main,
        ["extract", "--project", str(FIXTURES / "demo_project"), "--out", str(specs)],
    )
    assert result.exit_code == EXIT_OK, result.output
    assert "extracted 22 call site(s), kept 16" in result.output

    result = runner.invoke(
        main,
        [
            "classify", "--specs", str(specs), "--budget", "2000", "--seed", "7",
            "--mock-script", mock, "--out", str(votes),
        ],
    )
    assert result.exit_code == EXIT_OK, result.output
    assert "classified 16 API(s) (0 tie(s))" in result.output

    result = runner.invoke(
        main,
        [
            "pair", "--votes", str(votes), "--specs", str(specs),
            "--mock-script", mock, "--drop-sanitized", "--out", str(pairs),
        ],
    )
    assert result.exit_code == EXIT_OK, result.output
    assert "paired 3 source/sink chain(s)" in result.output

    result = runner.invoke(
        main,
        [
            "generate", "--pairs", str(pairs), "--specs", str(specs),
            "--mock-script", mock,
            "--compiler-script", str(FIXTURES / "mock_compiler.json"),
            "--out", str(rules),
        ],
    )
    assert result.exit_code == EXIT_OK, result.output
    assert "3 compiled, 0 aborted" in result.output

    result = runner.invoke(
        main,
        [
            "scan", "--rules", str(rules), "--database", "demo",
            "--compiler-script", str(FIXTURES / "mock_compiler.json"),
            "--out", str(findings),
        ],
    )
    assert result.exit_code == EXIT_OK, result.output
    assert "3 finding(s)" in result.output

    # The step artifacts agree with what one `run` invocation produces.
    config = _write_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == EXIT_OK, result.output
    run_dir = tmp_path / "run"
    assert votes.read_bytes() == (run_dir / "votes.json").read_bytes()
    assert pairs.read_bytes() == (run_dir / "pairs.json").read_bytes()
    assert findings.read_bytes() == (run_dir / "findings.json").read_bytes()


def test_run_prints_rates(runner, tmp_path):
    config = _write_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == EXIT_OK, result.output
    assert "run complete" in result.output
    assert "correctness_rate=100.00" in result.output
    assert "detection_rate=100.00" in result.output


def test_run_set_overrides_config_keys(runner, tmp_path):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    result = runner.invoke(
        main,
        ["run", "--config", str(config), "--set", "out_dir=run2", "--set", "workers=1"],
    )
    assert result.exit_code == EXIT_OK, result.output
    baseline = (tmp_path / "run" / "report.json").read_bytes()
    assert (tmp_path / "run2" / "report.json").read_bytes() == baseline


def test_run_set_override_is_validated(runner, tmp_path):
    config = _write_config(tmp_path)
    result = runner.invoke(
        main, ["run", "--config", str(config), "--set", "classify.budget=0"]
    )
    assert result.exit_code == EXIT_CONFIG
    assert "config error" in result.output


def test_run_resume_exit_codes(runner, tmp_path):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    result = runner.invoke(main, ["run", "--config", str(config), "--resume"])
    assert result.exit_code == EXIT_NOTHING
    assert "nothing to do" in result.output


@pytest.mark.parametrize(
    "document, key, value",
    [("rules/*/status.json", "status", "Invalid"), ("rules/index.json", "version", 0)],
)
def test_run_resume_on_corrupt_rule_artifact_is_stage_error(
    runner, tmp_path, document, key, value
):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    run_dir = tmp_path / "run"
    path = sorted(run_dir.glob(document))[0]
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    # Without findings the resumed run starts at scan, which loads the rules.
    (run_dir / "findings.json").unlink()
    result = runner.invoke(main, ["run", "--config", str(config), "--resume"])
    assert result.exit_code == EXIT_STAGE
    assert f"{value!r}" in result.output


@pytest.mark.parametrize("document", ["rules/*/status.json", "rules/index.json"])
def test_run_resume_on_truncated_rule_artifact_is_stage_error(runner, tmp_path, document):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    run_dir = tmp_path / "run"
    path = sorted(run_dir.glob(document))[0]
    path.write_bytes(path.read_bytes()[:40])
    (run_dir / "findings.json").unlink()
    result = runner.invoke(main, ["run", "--config", str(config), "--resume"])
    assert result.exit_code == EXIT_STAGE
    assert str(path) in result.output
    assert "not valid JSON" in result.output


@pytest.mark.parametrize(
    "document, shape",
    [("rules/*/status.json", {}), ("rules/index.json", {"version": 1})],
)
def test_run_resume_on_mis_shaped_rule_artifact_is_stage_error(
    runner, tmp_path, document, shape
):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    run_dir = tmp_path / "run"
    path = sorted(run_dir.glob(document))[0]
    path.write_text(json.dumps(shape))
    (run_dir / "findings.json").unlink()
    result = runner.invoke(main, ["run", "--config", str(config), "--resume"])
    assert result.exit_code == EXIT_STAGE
    assert f"{path}: malformed" in result.output


@pytest.mark.parametrize("name", ["rule.ql", "status.json"])
def test_run_resume_on_missing_rule_file_is_stage_error(runner, tmp_path, name):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    run_dir = tmp_path / "run"
    path = sorted(run_dir.glob(f"rules/*/{name}"))[0]
    path.unlink()
    (run_dir / "findings.json").unlink()
    (run_dir / "report.json").unlink()
    result = runner.invoke(main, ["run", "--config", str(config), "--resume"])
    assert result.exit_code == EXIT_STAGE
    assert f"{path}: cannot read: No such file or directory" in result.output


def test_run_resume_without_extract_stats_is_stage_error(runner, tmp_path):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    run_dir = tmp_path / "run"
    path = run_dir / "extract_stats.json"
    path.unlink()
    (run_dir / "votes.json").unlink()
    result = runner.invoke(main, ["run", "--config", str(config), "--resume"])
    assert result.exit_code == EXIT_STAGE
    assert f"{path}: cannot read" in result.output


@pytest.mark.parametrize("stats", [{}, {"call_sites": "22"}])
def test_run_resume_on_bad_extract_stats_is_stage_error(runner, tmp_path, stats):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    run_dir = tmp_path / "run"
    path = run_dir / "extract_stats.json"
    path.write_text(json.dumps(stats))
    (run_dir / "votes.json").unlink()
    result = runner.invoke(main, ["run", "--config", str(config), "--resume"])
    assert result.exit_code == EXIT_STAGE
    assert f"{path}: expected an integer 'call_sites'" in result.output


def test_run_rejects_a_retired_config_key(runner, tmp_path):
    config = _write_config(tmp_path, pairing={"chunk_size": 10})
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == EXIT_CONFIG
    assert "unknown config key(s): pairing.chunk_size" in result.output


@pytest.mark.parametrize(
    "document, next_artifact",
    [
        ("specs.json", "votes.json"),
        ("votes.json", "pairs.json"),
        ("pairs.json", "rules"),
        ("findings.json", "report.json"),
    ],
)
def test_run_resume_on_truncated_stage_document_is_stage_error(
    runner, tmp_path, document, next_artifact
):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    run_dir = tmp_path / "run"
    path = run_dir / document
    path.write_bytes(path.read_bytes()[:40])
    # Resuming starts at the stage whose artifact is missing, which loads
    # the truncated document of the stage before it.
    if next_artifact == "rules":
        shutil.rmtree(run_dir / next_artifact)
    else:
        (run_dir / next_artifact).unlink()
    result = runner.invoke(main, ["run", "--config", str(config), "--resume"])
    assert result.exit_code == EXIT_STAGE
    assert f"{path}: not valid JSON" in result.output


def _cut_transcript(run_dir, keep_lines):
    # Keep ``keep_lines`` whole lines and half of the next one, as a run
    # killed during an append leaves the file.
    path = run_dir / "transcript.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:keep_lines]) + lines[keep_lines][: len(lines[keep_lines]) // 2])
    return path


def test_run_resume_drops_torn_final_transcript_line(runner, tmp_path, caplog):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    run_dir = tmp_path / "run"
    path = _cut_transcript(run_dir, keep_lines=9)
    (run_dir / "votes.json").unlink()
    with caplog.at_level("WARNING"):
        result = runner.invoke(main, ["run", "--config", str(config), "--resume"])
    assert result.exit_code == EXIT_OK, result.output
    assert "dropping torn final line" in caplog.text
    # Numbering continues after the last whole line: 9 kept, then the
    # resumed run's 9 classify calls and 1 pair call.
    seqs = [json.loads(line)["seq"] for line in path.read_text(encoding="utf-8").splitlines()]
    assert seqs == list(range(1, 20))


def test_run_resume_on_corrupt_transcript_line_is_stage_error(runner, tmp_path):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    run_dir = tmp_path / "run"
    path = _cut_transcript(run_dir, keep_lines=3)
    with path.open("ab") as fh:
        fh.write(b"\n" + json.dumps({"seq": 4}).encode() + b"\n")
    (run_dir / "votes.json").unlink()
    result = runner.invoke(main, ["run", "--config", str(config), "--resume"])
    assert result.exit_code == EXIT_STAGE
    assert f"{path}: line 4 is not a transcript entry" in result.output


def test_run_config_error_exit_code(runner, tmp_path):
    config = _write_config(tmp_path, backend="telepathy")
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == EXIT_CONFIG
    assert "config error" in result.output


def test_run_stage_failure_exit_code(runner, tmp_path):
    bad = tmp_path / "bad_compiler.json"
    bad.write_text(json.dumps({"version": 41}))
    config = _write_config(tmp_path, compiler={"kind": "mock", "script": str(bad)})
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == EXIT_STAGE
    assert "stage failure" in result.output


def test_classify_requires_mock_script(runner, tmp_path):
    specs = tmp_path / "specs.json"
    runner.invoke(
        main, ["extract", "--project", str(FIXTURES / "demo_project"), "--out", str(specs)]
    )
    result = runner.invoke(
        main, ["classify", "--specs", str(specs), "--out", str(tmp_path / "v.json")]
    )
    assert result.exit_code == EXIT_CONFIG
    assert "--mock-script is required" in result.output


def test_report_formats(runner, tmp_path):
    config = _write_config(tmp_path)
    runner.invoke(main, ["run", "--config", str(config)])
    run_dir = str(tmp_path / "run")

    text = runner.invoke(main, ["report", "--run", run_dir])
    assert text.exit_code == EXIT_OK
    assert "qlforge run report" in text.output

    as_json = runner.invoke(main, ["report", "--run", run_dir, "--format", "json"])
    assert as_json.exit_code == EXIT_OK
    assert json.loads(as_json.output)["counts"]["findings"] == 3

    out_path = tmp_path / "report.sarif"
    sarif = runner.invoke(
        main, ["report", "--run", run_dir, "--format", "sarif", "--out", str(out_path)]
    )
    assert sarif.exit_code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert len(doc["runs"][0]["results"]) == 3


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(lambda text: text[:40], "not valid JSON", id="truncated"),
        pytest.param(
            lambda text: text.replace('"version": 1', '"version": 2'),
            "unsupported document version: 2",
            id="version-2",
        ),
        pytest.param(lambda text: '{"version": 1}', "malformed 'report' entry", id="no-project"),
    ],
)
def test_report_on_unreadable_report_is_stage_error(runner, tmp_path, corrupt, message):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    path = tmp_path / "run" / "report.json"
    path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
    result = runner.invoke(main, ["report", "--run", str(tmp_path / "run")])
    assert result.exit_code == EXIT_STAGE
    assert f"{path}: {message}" in result.output


@pytest.mark.parametrize("line", ["7", "[1]", '{"response": 5}'])
def test_run_with_a_malformed_mock_script_line_is_config_error(runner, tmp_path, line):
    script = tmp_path / "mock.jsonl"
    script.write_text((FIXTURES / "mock_llm.jsonl").read_text(encoding="utf-8") + line + "\n")
    lineno = len(script.read_text(encoding="utf-8").splitlines())
    config = _write_config(tmp_path, mock_script=str(script))
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == EXIT_CONFIG
    assert f"{script}:{lineno}: bad mock script line" in result.output
    assert not (tmp_path / "run" / "specs.json").exists()


def test_report_before_run_is_nothing_to_do(runner, tmp_path):
    empty = tmp_path / "empty_run"
    empty.mkdir()
    result = runner.invoke(main, ["report", "--run", str(empty)])
    assert result.exit_code == EXIT_NOTHING
    assert "no report" in result.output


def test_extract_missing_project_is_usage_error(runner, tmp_path):
    result = runner.invoke(
        main, ["extract", "--project", str(tmp_path / "nope"), "--out", "x.json"]
    )
    assert result.exit_code != EXIT_OK

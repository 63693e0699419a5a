import hashlib
import json
import shutil

import pytest
from click.testing import CliRunner

from qlforge.cli import EXIT_CONFIG, EXIT_NOTHING, EXIT_OK, EXIT_STAGE, main
from qlforge.pipeline import STAGE_ORDER
from tests.conftest import FIXTURES, assert_same_run
from tests.test_pipeline import GOLDEN_DIGESTS


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
    listed = result.output.split("Commands:\n", 1)[1].splitlines()
    assert [line.split()[0] for line in listed] == ["report", "run"]


def test_stepwise_chain_matches_run(runner, tmp_path):
    # One stage per invocation: --until the first stage, then --resume
    # --until each later one.
    config = _write_config(tmp_path)
    chain = ["run", "--config", str(config), "--set", "out_dir=chain"]
    result = runner.invoke(main, [*chain, "--until", STAGE_ORDER[0]])
    assert result.exit_code == EXIT_OK, result.output
    assert result.output == f"stopped after extract -> {tmp_path / 'chain'}\n"
    for stage in STAGE_ORDER[1:-1]:
        result = runner.invoke(main, [*chain, "--resume", "--until", stage])
        assert result.exit_code == EXIT_OK, result.output
        assert result.output == f"stopped after {stage} -> {tmp_path / 'chain'}\n"
    result = runner.invoke(main, [*chain, "--resume", "--until", "report"])
    assert result.exit_code == EXIT_OK, result.output
    assert f"run complete -> {tmp_path / 'chain' / 'report.json'}" in result.output

    # The chain's run directory agrees with what one `run` invocation produces.
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == EXIT_OK, result.output
    names = assert_same_run(tmp_path / "chain", tmp_path / "run")
    assert {"extract_stats.json", "specs.json", "votes.json", "pairs.json"} <= set(names)
    assert {"rules/index.json", "findings.json", "report.json", "transcript.jsonl"} <= set(names)


def test_run_resume_already_past_until_is_nothing_to_do(runner, tmp_path):
    config = _write_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(config), "--until", "classify"])
    assert result.exit_code == EXIT_OK, result.output
    run_dir = tmp_path / "run"
    before = {name: (run_dir / name).read_bytes() for name in ("votes.json", "transcript.jsonl")}
    result = runner.invoke(
        main, ["run", "--config", str(config), "--resume", "--until", "extract"]
    )
    assert result.exit_code == EXIT_NOTHING
    assert "already complete through extract" in result.output
    assert {name: (run_dir / name).read_bytes() for name in before} == before
    assert not (run_dir / "pairs.json").exists()


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


def _resume_after_setting(runner, tmp_path, stage, document, key, entry_field, value):
    """Stop a run after ``stage``, set one field of the first entry, resume."""
    config = _write_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(config), "--until", stage])
    assert result.exit_code == EXIT_OK
    path = tmp_path / "run" / document
    doc = json.loads(path.read_text(encoding="utf-8"))
    *parents, name = entry_field
    target = doc[key][0]
    for parent in parents:
        target = target[parent]
    target[name] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path, runner.invoke(main, ["run", "--config", str(config), "--resume"])


@pytest.mark.parametrize(
    "entry_field, value",
    [(("id",), 5), (("first_seen", "line"), "7"), (("first_seen", "line"), True)],
)
def test_run_resume_on_a_mis_typed_specs_field_is_stage_error(
    runner, tmp_path, entry_field, value
):
    path, result = _resume_after_setting(
        runner, tmp_path, "extract", "specs.json", "apis", entry_field, value
    )
    assert result.exit_code == EXIT_STAGE
    assert f"{path}: malformed 'apis' entry" in result.output


@pytest.mark.parametrize(
    "entry_field, value",
    [
        (("api_id",), 5),
        (("ballots", 0, "label"), 5),
        (("ballots", 0, "round"), "0"),
        (("tie",), 0),
    ],
)
def test_run_resume_on_a_mis_typed_votes_field_is_stage_error(
    runner, tmp_path, entry_field, value
):
    path, result = _resume_after_setting(
        runner, tmp_path, "classify", "votes.json", "votes", entry_field, value
    )
    assert result.exit_code == EXIT_STAGE
    assert f"{path}: malformed 'votes' entry" in result.output


def test_run_resume_on_a_mis_typed_pairs_field_is_stage_error(runner, tmp_path):
    path, result = _resume_after_setting(
        runner, tmp_path, "pair", "pairs.json", "pairs", ("pair_id",), 5
    )
    assert result.exit_code == EXIT_STAGE
    assert f"{path}: malformed 'pairs' entry" in result.output


def test_run_resume_on_a_pair_id_outside_the_run_dir_is_stage_error(runner, tmp_path):
    path, result = _resume_after_setting(
        runner, tmp_path, "pair", "pairs.json", "pairs", ("pair_id",), "../../escape_pair"
    )
    assert result.exit_code == EXIT_STAGE
    assert (
        "stage 'generate' failed: pair id '../../escape_pair' is not a plain directory name"
        in result.output
    )
    assert not (tmp_path / "escape_pair").exists()
    assert not (tmp_path / "run" / "rules").exists()


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
    path = _cut_transcript(run_dir, keep_lines=6)
    (run_dir / "votes.json").unlink()
    with caplog.at_level("WARNING"):
        result = runner.invoke(main, ["run", "--config", str(config), "--resume"])
    assert result.exit_code == EXIT_OK, result.output
    assert "dropping torn final line" in caplog.text
    # Numbering continues after the last whole line: 6 kept, then the
    # resumed run's 6 classify calls and 1 pair call.
    seqs = [json.loads(line)["seq"] for line in path.read_text(encoding="utf-8").splitlines()]
    assert seqs == list(range(1, 14))


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


@pytest.mark.parametrize(
    "filters, key", [({"deny": ["("]}, "filters.deny"), ({"allow": ["^ok", "[a-"]}, "filters.allow")]
)
def test_run_with_a_bad_filter_pattern_keeps_the_previous_run(runner, tmp_path, filters, key):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    run_dir = tmp_path / "run"
    before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    result = runner.invoke(main, ["run", "--config", str(_write_config(tmp_path, filters=filters))])
    assert result.exit_code == EXIT_CONFIG
    assert f"config key {key}: bad pattern" in result.output
    assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before


def test_run_with_a_mistyped_codeql_path_keeps_the_previous_run(runner, tmp_path):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    run_dir = tmp_path / "run"
    before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    result = runner.invoke(
        main,
        ["run", "--config", str(config), "--set", "compiler.kind=codeql", "--set", "codeql.path=3"],
    )
    assert result.exit_code == EXIT_CONFIG
    assert "config error: codeql.path must be a string, got 3" in result.output
    assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("inside", [False, True])
def test_run_with_an_out_dir_that_names_a_file_is_config_error(runner, tmp_path, inside):
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    out_dir = taken / "run" if inside else taken
    config = _write_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(config), "--set", f"out_dir={out_dir}"])
    assert result.exit_code == EXIT_CONFIG
    assert f"config error: out_dir is not a directory: {out_dir}" in result.output
    assert taken.read_text() == "keep me"


def test_run_with_a_malformed_endpoint_exits_before_any_stage(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("QLFORGE_LLM_KEY", "k")
    config = _write_config(tmp_path, llm={"mode": "live", "endpoint": "localhost:9/v1"})
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == EXIT_CONFIG
    assert "llm.endpoint must be an http:// or https:// URL" in result.output
    assert not (tmp_path / "run" / "specs.json").exists()


def test_run_stage_failure_exit_code(runner, tmp_path):
    config = _write_config(tmp_path, backend="codeql", codeql={"path": str(tmp_path / "none")})
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == EXIT_STAGE
    assert "stage failure" in result.output


def test_run_with_a_bad_compiler_script_keeps_the_previous_run(runner, tmp_path):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    run_dir = tmp_path / "run"
    before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    bad = tmp_path / "bad_compiler.json"
    bad.write_text(json.dumps({"version": 1, "default": {"fail_count": "x"}}))
    result = runner.invoke(
        main, ["run", "--config", str(config), "--set", f"compiler.script={bad}"]
    )
    assert result.exit_code == EXIT_CONFIG
    assert f"{bad}: malformed 'compiler script' entry" in result.output
    # transcript.jsonl among them: no model call was made.
    assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "old, new",
    [
        ('"start_line": 18', '"start_line": "x"'),
        ('"file": "src/com/example/web/UserController.java"', '"file": 5'),
        ('"message": "user-controlled name reaches executeQuery"', '"message": 7'),
        ('"end_line": 18', '"end_line": 2.5'),
    ],
)
def test_run_with_a_mis_typed_scripted_finding_exits_before_the_run(runner, tmp_path, old, new):
    text = (FIXTURES / "mock_compiler.json").read_text(encoding="utf-8")
    assert text.count(old) == 1
    script = tmp_path / "compiler.json"
    script.write_text(text.replace(old, new))
    config = _write_config(tmp_path, compiler={"kind": "mock", "script": str(script)})
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == EXIT_CONFIG
    assert f"config error: {script}: malformed" in result.output
    assert not (tmp_path / "run").exists()


def test_report_formats(runner, tmp_path):
    config = _write_config(tmp_path)
    runner.invoke(main, ["run", "--config", str(config)])
    run_dir = str(tmp_path / "run")

    text = runner.invoke(main, ["report", "--run", run_dir])
    assert text.exit_code == EXIT_OK
    assert "qlforge run report" in text.output
    # Stage times come from the timings sidecar; the report stage has none.
    timings = json.loads((tmp_path / "run" / "timings.json").read_text())["stage_seconds"]
    assert f"  classify   ok       {timings['classify']:.3f}s\n" in text.output
    assert "  report     ok\n" in text.output
    (tmp_path / "run" / "timings.json").unlink()
    untimed = runner.invoke(main, ["report", "--run", run_dir])
    assert untimed.exit_code == EXIT_OK
    assert "  classify   ok\n" in untimed.output

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


_MIS_TYPED_SIDECARS = {
    "timings.json": '{"stage_seconds": {"extract": "slow"}}',
    "findings.json": '{"version": 1, "findings": [{"pair_id": 5}]}',
}


@pytest.mark.parametrize(
    "fmt, sidecar, code",
    [
        ("json", "timings.json", EXIT_OK),
        ("sarif", "timings.json", EXIT_OK),
        ("text", "timings.json", EXIT_STAGE),
        ("text", "findings.json", EXIT_OK),
        ("json", "findings.json", EXIT_OK),
        ("sarif", "findings.json", EXIT_STAGE),
    ],
)
def test_report_reads_only_the_sidecar_its_format_shows(runner, tmp_path, fmt, sidecar, code):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    path = tmp_path / "run" / sidecar
    path.write_text(_MIS_TYPED_SIDECARS[sidecar], encoding="utf-8")
    result = runner.invoke(main, ["report", "--run", str(tmp_path / "run"), "--format", fmt])
    assert result.exit_code == code, result.output
    if code == EXIT_STAGE:
        assert str(path) in result.output


@pytest.mark.parametrize(
    "line",
    [
        "7",
        "[1]",
        '{"response": 5}',
        '{"once": "false", "contains": "no such prompt", "response": "x"}',
        '{"stage": 1}',
        '{"contains": ["a"]}',
        '{"default": 3}',
    ],
)
def test_run_with_a_malformed_mock_script_line_is_config_error(runner, tmp_path, line):
    script = tmp_path / "mock.jsonl"
    script.write_text((FIXTURES / "mock_llm.jsonl").read_text(encoding="utf-8") + line + "\n")
    lineno = len(script.read_text(encoding="utf-8").splitlines())
    config = _write_config(tmp_path, mock_script=str(script))
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == EXIT_CONFIG
    assert f"{script}:{lineno}: bad mock script line" in result.output
    assert not (tmp_path / "run" / "specs.json").exists()


def test_run_with_a_malformed_mock_script_keeps_the_previous_run(runner, tmp_path):
    config = _write_config(tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == EXIT_OK
    run_dir = tmp_path / "run"
    before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    bad = tmp_path / "bad.jsonl"
    bad.write_text("7\n")
    result = runner.invoke(main, ["run", "--config", str(config), "--set", f"mock_script={bad}"])
    assert result.exit_code == EXIT_CONFIG
    assert f"{bad}:1: bad mock script line" in result.output
    assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before


def test_run_reads_a_source_file_that_is_not_utf8(runner, tmp_path, caplog):
    project = tmp_path / "project"
    shutil.copytree(FIXTURES / "demo_project", project)
    legacy = project / "src" / "com" / "example" / "Legacy.java"
    legacy.write_bytes("// Auteur : José\nclass Legacy {}\n".encode("latin-1"))
    config = _write_config(tmp_path, project=str(project))
    with caplog.at_level("WARNING"):
        result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == EXIT_OK, result.output
    assert "correctness_rate=100.00" in result.output
    assert [m for m in caplog.messages if "Legacy.java" in m] == [
        "src/com/example/Legacy.java is not UTF-8 (byte 0xe9 at offset 15); "
        "reading it with undecodable bytes replaced"
    ]
    # The file holds no call, so the fixture's APIs are extracted unchanged.
    specs = hashlib.sha256((tmp_path / "run" / "specs.json").read_bytes()).hexdigest()
    assert specs == GOLDEN_DIGESTS["specs.json"]


def test_run_skips_java_entries_that_are_not_readable_files(runner, tmp_path, caplog):
    project = tmp_path / "project"
    shutil.copytree(FIXTURES / "demo_project", project)
    (project / "src" / "weird.java").mkdir()
    (project / "src" / "dangling.java").symlink_to(project / "src" / "gone.java")
    config = _write_config(tmp_path, project=str(project))
    with caplog.at_level("WARNING"):
        result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == EXIT_OK, result.output
    assert "correctness_rate=100.00" in result.output
    assert [m for m in caplog.messages if ".java" in m] == [
        "src/dangling.java cannot be read (No such file or directory); skipping it"
    ]
    specs = hashlib.sha256((tmp_path / "run" / "specs.json").read_bytes()).hexdigest()
    assert specs == GOLDEN_DIGESTS["specs.json"]


def test_report_before_run_is_nothing_to_do(runner, tmp_path):
    empty = tmp_path / "empty_run"
    empty.mkdir()
    result = runner.invoke(main, ["report", "--run", str(empty)])
    assert result.exit_code == EXIT_NOTHING
    assert "no report" in result.output


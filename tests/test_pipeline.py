import hashlib
import json
from collections import Counter

import pytest

from qlforge.errors import ConfigError, NothingToDo, StageFailure
from qlforge.gateway import estimate_tokens
from qlforge.pipeline import (
    PipelineConfig,
    STAGE_ORDER,
    _first_missing_stage,
    apply_overrides,
    build_compiler,
    build_llm_client,
    run_pipeline,
)
from qlforge.report import load_report
from qlforge.rulegen import MockCompiler
from tests.conftest import FIXTURES

ARTIFACTS = (
    "specs.json",
    "extract_stats.json",
    "votes.json",
    "pairs.json",
    "rules/index.json",
    "findings.json",
    "report.json",
    "timings.json",
)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _config_data(**overrides):
    data = json.loads((FIXTURES / "pipeline_config.json").read_text(encoding="utf-8"))
    data.update(overrides)
    return data


def test_config_resolves_relative_paths(tmp_path):
    config = PipelineConfig.from_dict(_config_data(out_dir=str(tmp_path)), base_dir=FIXTURES)
    assert config.project == FIXTURES / "demo_project"
    assert config.project.is_absolute()
    assert config.mock_script == FIXTURES / "mock_llm.jsonl"
    assert config.manifest_path == FIXTURES / "manifest.json"
    assert config.llm_mode == "mock"
    assert config.budget == 2000
    assert config.seed == 7


def test_config_from_file_round(tmp_path):
    config = PipelineConfig.from_file(FIXTURES / "pipeline_config.json")
    assert config.project.name == "demo_project"


def test_apply_overrides_sets_nested_and_parses_json():
    data = {"classify": {"budget": 2000, "seed": 7}}
    apply_overrides(
        data,
        (
            "classify.seed=9",
            "pairing.drop_sanitized=true",
            "llm.model=gpt-x",
            "workers=2",
        ),
    )
    assert data["classify"] == {"budget": 2000, "seed": 9}
    assert data["pairing"] == {"drop_sanitized": True}
    assert data["llm"] == {"model": "gpt-x"}
    assert data["workers"] == 2


@pytest.mark.parametrize(
    "assignment, message",
    [
        ("noequals", "not of the form"),
        ("=5", "not of the form"),
        ("classify..seed=1", "empty path segment"),
        ("project.inner=1", "non-table"),
    ],
)
def test_apply_overrides_rejects_bad_assignments(assignment, message):
    with pytest.raises(ConfigError, match=message):
        apply_overrides({"project": "demo"}, (assignment,))


def test_config_from_file_applies_overrides():
    config = PipelineConfig.from_file(
        FIXTURES / "pipeline_config.json",
        overrides=("classify.seed=11", "rulegen.max_iters=3"),
    )
    assert config.seed == 11
    assert config.max_iters == 3


def test_config_from_file_override_still_validated():
    with pytest.raises(ConfigError, match="budget"):
        PipelineConfig.from_file(
            FIXTURES / "pipeline_config.json", overrides=("classify.budget=0",)
        )


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        PipelineConfig.from_dict(
            _config_data(out_dir=str(tmp_path), extra_knob=1), base_dir=FIXTURES
        )


@pytest.mark.parametrize(
    "mutation, match",
    [
        ({"project": None}, "missing required key: project"),
        ({"out_dir": None}, "missing required key: out_dir"),
        ({"project": "no_such_dir"}, "does not exist"),
        ({"backend": "guesswork"}, "backend must be"),
        ({"llm": {"mode": "psychic"}}, "llm.mode"),
        ({"llm": {"mode": "live"}}, "endpoint is required"),
        ({"llm": {"mode": "mock", "temperature": -1}}, "temperature"),
        ({"mock_script": "missing.jsonl"}, "mock_script does not exist"),
        ({"compiler": {"kind": "wishful"}}, "compiler.kind"),
        ({"compiler": {"kind": "mock"}}, "requires compiler.script"),
        ({"classify": {"budget": 0}}, "budget"),
        ({"classify": {"budget": 100, "seed": "x"}}, "seed"),
        ({"pairing": {"chunk_size": 0}}, "chunk_size"),
        ({"pairing": {"drop_sanitized": "yes"}}, "drop_sanitized"),
        ({"rulegen": {"max_iters": 0}}, "max_iters"),
        ({"rulegen": {"timeout_s": -3}}, "timeout_s"),
        ({"scan": {"manifest": "gone.json"}}, "manifest does not exist"),
        ({"workers": 0}, "workers"),
        ({"pairing": {"budget": 0}}, "pairing.budget must be a positive integer"),
        ({"classify": {"budjet": 4000}}, "unknown config key\\(s\\): classify.budjet"),
        ({"llm": "mock"}, "llm must be a table"),
        ({"pairing": {"budget": True}}, "pairing.budget must be a positive integer"),
        ({"classify": {"budget": True}}, "classify.budget must be a positive integer"),
        ({"rulegen": {"max_iters": True}}, "rulegen.max_iters must be a positive integer"),
        ({"workers": True}, "workers must be a positive integer"),
    ],
)
def test_config_validation_failures(tmp_path, mutation, match):
    data = _config_data(out_dir=str(tmp_path))
    for key, value in mutation.items():
        if value is None:
            data.pop(key, None)
        else:
            data[key] = value
    with pytest.raises(ConfigError, match=match):
        PipelineConfig.from_dict(data, base_dir=FIXTURES)


def test_config_mock_llm_requires_script(tmp_path):
    data = _config_data(out_dir=str(tmp_path))
    data.pop("mock_script")
    with pytest.raises(ConfigError, match="requires mock_script"):
        PipelineConfig.from_dict(data, base_dir=FIXTURES)


def test_config_live_mode_needs_no_mock_script(tmp_path):
    data = _config_data(out_dir=str(tmp_path))
    data.pop("mock_script")
    data["llm"] = {"mode": "live", "endpoint": "https://example.invalid/v1"}
    config = PipelineConfig.from_dict(data, base_dir=FIXTURES)
    assert config.mock_script is None
    assert config.endpoint == "https://example.invalid/v1"


def test_config_bad_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        PipelineConfig.from_file(path)
    with pytest.raises(ConfigError, match="cannot read"):
        PipelineConfig.from_file(tmp_path / "absent.json")


def test_live_client_built_from_env(monkeypatch, tmp_path):
    monkeypatch.setenv("QLFORGE_LLM_KEY", "sekrit")
    data = _config_data(out_dir=str(tmp_path))
    data.pop("mock_script")
    data["llm"] = {"mode": "live", "endpoint": "https://example.invalid/v1"}
    config = PipelineConfig.from_dict(data, base_dir=FIXTURES)
    client = build_llm_client(config.llm_mode, config.mock_script, config.endpoint)
    assert client.api_key == "sekrit"


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

EXPECTED_COUNTS = {
    "apis_extracted": 22,
    "apis_kept": 16,
    "votes": 16,
    "sources": 4,
    "sinks": 3,
    "sanitizers": 1,
    "pairs": 3,
    "rules_compiled": 3,
    "rules_aborted": 0,
    "findings": 3,
}


def test_full_run_counts_and_metrics(run_config):
    config = run_config()
    report = run_pipeline(config)
    assert report.counts == EXPECTED_COUNTS
    assert report.metrics.correctness_rate == 100.0
    assert report.metrics.detection_rate == 100.0
    assert report.metrics.detected_ids == (
        "vuln-cmdi-admin-exec",
        "vuln-path-upload-write",
        "vuln-sqli-user-lookup",
    )
    assert report.metrics.missed_ids == ()
    assert report.warnings == ()
    assert [s.name for s in report.stages] == list(STAGE_ORDER)
    assert all(s.status == "ok" for s in report.stages)


# Model calls and estimated prompt tokens per stage on the fixture, summed over
# every transcript, and compile calls per pair. The mock compiler fails one
# pair once, hence 4 writes, 1 repair and 1 + 1 + 2 compiles for 3 pairs. A
# change that adds calls or prompt text fails here.
EXPECTED_CALLS = {"classify": 9, "pair": 1, "write": 4, "repair": 1}
EXPECTED_PROMPT_TOKENS = {"classify": 16203, "pair": 2073, "write": 3597, "repair": 362}


def test_full_run_model_calls_and_prompt_tokens(run_config, monkeypatch):
    compiles = Counter()
    original = MockCompiler.compile

    def counting_compile(self, pair_id, rule_text):
        compiles[pair_id] += 1
        return original(self, pair_id, rule_text)

    monkeypatch.setattr(MockCompiler, "compile", counting_compile)
    config = run_config()
    run_pipeline(config)
    assert sorted(compiles.values()) == [1, 1, 2]  # 4 compiles in total
    calls, tokens = Counter(), Counter()
    for transcript in config.out_dir.rglob("transcript.jsonl"):
        for line in transcript.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            calls[entry["stage"]] += 1
            tokens[entry["stage"]] += sum(
                estimate_tokens(m["content"]) for m in entry["request"]["messages"]
            )
    assert calls == EXPECTED_CALLS
    assert tokens == EXPECTED_PROMPT_TOKENS


def test_pairing_budget_tiles_the_prompts_without_changing_the_pairs(run_config):
    whole = run_config("whole")
    run_pipeline(whole)
    tiled = run_config("tiled", pairing={"budget": 1400, "drop_sanitized": True})
    run_pipeline(tiled)
    prompts = [
        estimate_tokens(entry["request"]["messages"][0]["content"])
        for entry in map(json.loads, (tiled.out_dir / "transcript.jsonl").read_text().splitlines())
        if entry["stage"] == "pair"
    ]
    # 4 sources and 3 sinks fall into 6 tiles, every one within the budget.
    assert len(prompts) == 6
    assert max(prompts) <= 1400
    pairs = (tiled.out_dir / "pairs.json").read_bytes()
    assert pairs == (whole.out_dir / "pairs.json").read_bytes()


def test_full_run_writes_every_artifact(run_config):
    config = run_config()
    run_pipeline(config)
    for name in ARTIFACTS:
        assert (config.out_dir / name).is_file(), name
    stages = {
        json.loads(line)["stage"]
        for line in (config.out_dir / "transcript.jsonl").read_text().splitlines()
    }
    assert stages == {"classify", "pair"}
    timings = json.loads((config.out_dir / "timings.json").read_text())
    assert set(timings["stage_seconds"]) == set(STAGE_ORDER) - {"report"}


# sha256 of every artifact of the fixture run but the transcripts and the
# wall-clock timings. These pin the behaviour contract: a change that alters
# any byte of what the pipeline writes fails here, not only a change that
# makes two runs of the same code disagree.
GOLDEN_DIGESTS = {
    "specs.json": "07d3371b4a78f85ed5766a150d64051713894dc66d9757557c474bbe4f8a8aaa",
    "extract_stats.json": "7432343b5f2d89fb463b333dfdd155daea5d1aed6a673c25b691a0e66ee091ff",
    "votes.json": "5d06edbbbf287315a449609a4e4943b16d12832ad42ea65a65d968d89ec1c8cc",
    "pairs.json": "7329a184faf6450a9269f446ce13a70c890e7c685f58199b8de48058ba1dfe7f",
    "rules/index.json": "655a3af6de922d7c7fe3502753a5c55236dd69ddd7431810a3bc9c7d0fc91c34",
    "rules/35ae7cb3a1e82ec0__bc5caa3125faa3d4/rule.ql":
        "593607556ffaa97eb44e5afca3e2800b40add68e84f294ccde4356b3e901d765",
    "rules/35ae7cb3a1e82ec0__bc5caa3125faa3d4/status.json":
        "f3d72f9b82eae7c762973fe8524d4524930db79a758310afac5c6a4208bd4954",
    "rules/36fdcc4350f3c45c__0465103141b4b803/rule.ql":
        "e950e4b90af3903668d355b479d39dceb46a53a21cd720b2f4398b501f2b4947",
    "rules/36fdcc4350f3c45c__0465103141b4b803/status.json":
        "a1a70ee1209c0842cfff989aea94d6478c71be8b50d07bf2d8adec53ca531b46",
    "rules/36fdcc4350f3c45c__10fc72d39a64e0f0/rule.ql":
        "eaf74369e1453412c09e7891fe80f508d1aadc84441457cda460927621acceaf",
    "rules/36fdcc4350f3c45c__10fc72d39a64e0f0/status.json":
        "0501686a5818b23381895493cbe3aee710883cd20212db6a919df50d7bdf715a",
    "findings.json": "c1a79c59f0bb81a96790ded5b7b127ac5bd5cd09689abbdfa609033e420f77ee",
    "report.json": "b6edce1468d552d84046b5a9c4c335a03e33f4f4636e084c1af6eb000add7873",
}


def test_fixture_run_matches_golden_digests(run_config):
    config = run_config()
    run_pipeline(config)
    digests = {
        str(path.relative_to(config.out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in config.out_dir.rglob("*")
        if path.is_file() and path.name not in ("transcript.jsonl", "timings.json")
    }
    assert digests == GOLDEN_DIGESTS


def test_unset_temperature_uses_stage_defaults(run_config):
    config = run_config("temps", llm={"mode": "mock", "model": "demo"})
    assert config.temperature is None
    run_pipeline(config)
    label_temps = {
        (entry["stage"], entry["request"]["temperature"])
        for line in (config.out_dir / "transcript.jsonl").read_text().splitlines()
        for entry in [json.loads(line)]
    }
    assert label_temps == {("classify", 0.0), ("pair", 0.0)}
    write_temps = {
        json.loads(line)["request"]["temperature"]
        for rule_transcript in (config.out_dir / "rules").glob("*/transcript.jsonl")
        for line in rule_transcript.read_text().splitlines()
    }
    assert write_temps == {0.7}


def test_two_runs_byte_identical(run_config):
    first = run_config("one")
    second = run_config("two")
    run_pipeline(first)
    run_pipeline(second)
    for name in ARTIFACTS:
        if name == "timings.json":
            continue  # wall-clock detail, intentionally not stable
        a = (first.out_dir / name).read_bytes()
        b = (second.out_dir / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def _transcript_entries(path):
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        del entry["ts"], entry["response"]["latency_s"]
        entries.append(entry)
    return entries


def test_results_do_not_depend_on_workers(run_config):
    narrow = run_config("narrow", workers=1)
    wide = run_config("wide", workers=4)
    run_pipeline(narrow)
    run_pipeline(wide)

    def files(out_dir, transcripts):
        return sorted(
            str(p.relative_to(out_dir))
            for p in out_dir.rglob("*")
            if p.is_file() and (p.name == "transcript.jsonl") == transcripts
        )

    # Every artifact but the wall-clock timings is byte-identical.
    artifacts = files(narrow.out_dir, transcripts=False)
    assert artifacts == files(wide.out_dir, transcripts=False)
    artifacts.remove("timings.json")
    assert {"specs.json", "votes.json", "pairs.json", "rules/index.json"} <= set(artifacts)
    assert {"findings.json", "report.json"} <= set(artifacts)
    for name in artifacts:
        assert (narrow.out_dir / name).read_bytes() == (wide.out_dir / name).read_bytes(), name
    # Transcripts differ only in their timestamps and latencies.
    transcripts = files(narrow.out_dir, transcripts=True)
    assert transcripts == files(wide.out_dir, transcripts=True)
    assert len(transcripts) == 4  # the shared one and one per pair
    for name in transcripts:
        narrow_entries = _transcript_entries(narrow.out_dir / name)
        assert narrow_entries == _transcript_entries(wide.out_dir / name), name


def test_fresh_run_clears_stale_artifacts(run_config):
    config = run_config()
    run_pipeline(config)
    baseline = (config.out_dir / "votes.json").read_bytes()
    (config.out_dir / "votes.json").write_text('{"version": 1, "votes": []}')
    (config.out_dir / "transcript.jsonl").write_text("")
    run_pipeline(config)
    assert (config.out_dir / "votes.json").read_bytes() == baseline


def test_stop_after_each_stage(run_config):
    for stage in STAGE_ORDER[:-1]:
        config = run_config(f"stop_{stage}")
        result = run_pipeline(config, stop_after=stage)
        assert result is None
        assert _first_missing_stage(config.out_dir) == STAGE_ORDER[STAGE_ORDER.index(stage) + 1]


def test_stop_after_unknown_stage(run_config):
    with pytest.raises(ValueError):
        run_pipeline(run_config(), stop_after="ship_it")


def test_resume_completes_interrupted_run(run_config):
    full = run_config("full")
    run_pipeline(full)
    expected = (full.out_dir / "report.json").read_bytes()

    partial = run_config("partial")
    run_pipeline(partial, stop_after="pair")
    assert not (partial.out_dir / "report.json").exists()
    report = run_pipeline(partial, resume=True)
    assert report is not None
    assert (partial.out_dir / "report.json").read_bytes() == expected


def test_resume_on_complete_run_is_nothing_to_do(run_config):
    config = run_config()
    run_pipeline(config)
    with pytest.raises(NothingToDo):
        run_pipeline(config, resume=True)


def test_nothing_to_pair_becomes_nothing_to_do(run_config, corpus_records, tmp_path):
    # A script that labels every API a Source leaves zero sinks to pair.
    script = tmp_path / "all_sources.jsonl"
    labels = "\n".join(f"{r.id}: Source" for r in corpus_records)
    script.write_text(
        json.dumps({"stage": "classify", "response": labels})
        + "\n"
        + json.dumps({"default": "NO_PAIRS"})
        + "\n"
    )
    config = run_config(mock_script=str(script))
    with pytest.raises(NothingToDo):
        run_pipeline(config)


def test_stage_failure_names_the_stage(run_config, tmp_path):
    bad_script = tmp_path / "bad_compiler.json"
    bad_script.write_text(json.dumps({"version": 99}))
    config = run_config(compiler={"kind": "mock", "script": str(bad_script)})
    with pytest.raises(StageFailure) as err:
        run_pipeline(config)
    assert err.value.stage == "generate"
    assert "generate" in str(err.value)


@pytest.mark.parametrize(
    "text",
    [pytest.param('{"version": 1, "pai', id="truncated"), pytest.param("[1]", id="array")],
)
def test_unreadable_compiler_script_fails_generate(run_config, tmp_path, text):
    bad_script = tmp_path / "bad_compiler.json"
    bad_script.write_text(text)
    config = run_config(compiler={"kind": "mock", "script": str(bad_script)})
    with pytest.raises(StageFailure, match=f"{bad_script}: ") as err:
        run_pipeline(config)
    assert err.value.stage == "generate"
    assert isinstance(err.value.__cause__, ConfigError)


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda text: text[:40], id="truncated"),
        pytest.param(lambda text: '{"version": 1, "vulns": [{}]}', id="empty-entry"),
    ],
)
def test_unreadable_manifest_fails_report(run_config, tmp_path, corrupt):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(corrupt((FIXTURES / "manifest.json").read_text(encoding="utf-8")))
    config = run_config(scan={"database": "demo_project", "manifest": str(manifest)})
    with pytest.raises(StageFailure, match=f"{manifest}: ") as err:
        run_pipeline(config)
    assert err.value.stage == "report"
    assert isinstance(err.value.__cause__, ConfigError)


def test_empty_project_raises_nothing_to_do(run_config, tmp_path):
    empty = tmp_path / "empty_project"
    empty.mkdir()
    config = run_config(project=str(empty))
    # Zero records classify to zero votes, so pairing has nothing to work on.
    with pytest.raises(NothingToDo):
        run_pipeline(config)


def test_build_compiler_mock(run_config):
    config = run_config()
    compiler = build_compiler(config.compiler_kind, config.compiler_script, config.codeql_path)
    assert compiler.name == "mock"

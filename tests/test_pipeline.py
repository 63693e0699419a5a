import hashlib
import json
import re
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlforge import pipeline
from qlforge.classify import build_classification_prompt, plan_groups
from qlforge.codeql import CodeQLCompiler
from qlforge.errors import CompilerUnavailable, ConfigError, NothingToDo, StageFailure
from qlforge.extract import FixtureBackend, dedupe, extract_apis, filter_risky
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
from qlforge.pairing import PAIRS
from qlforge.records import SPECS, SourceLocation, make_record, record_lookup
from qlforge.report import load_report
from qlforge.rulegen import MockCompiler
from tests.conftest import FIXTURES, assert_same_run, fake_codeql, skeleton_around_module

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
    # Any dotted key goes in: PipelineConfig.from_dict, not apply_overrides, checks the keys.
    apply_overrides(
        data,
        (
            "classify.seed=9",
            "extra.flag=true",
            "llm.model=gpt-x",
            "workers=2",
        ),
    )
    assert data["classify"] == {"budget": 2000, "seed": 9}
    assert data["extra"] == {"flag": True}
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
        ({"pairing": {"drop_sanitized": True}}, "unknown config key\\(s\\): pairing.drop_sanitized"),
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
        ({"llm": {"mode": "live", "endpoint": "localhost:9/v1"}}, "llm.endpoint must be an http"),
        ({"llm": {"mode": "live", "endpoint": "ftp://x/v1"}}, "llm.endpoint must be an http"),
        ({"llm": {"mode": "live", "endpoint": "http://"}}, "llm.endpoint must be an http"),
        ({"llm": {"mode": "live", "endpoint": "http://h:port/v1"}}, "llm.endpoint 'http://h:port"),
        ({"llm": {"mode": "mock", "temperature": float("nan")}}, "temperature"),
        ({"llm": {"mode": "mock", "temperature": float("inf")}}, "temperature"),
        ({"filters": {"deny": "^exec"}}, "config key filters.deny must be list, not str"),
        ({"filters": {"deny": [5]}}, "config key filters.deny item must be str, not int"),
        ({"project": 5}, "project must be a string, got 5"),
        ({"llm": {"model": 5}}, "llm.model must be a string, got 5"),
        ({"llm": {"mode": "live", "endpoint": 5}}, "llm.endpoint must be a string, got 5"),
        ({"codeql": {"path": 3}}, "codeql.path must be a string, got 3"),
        ({"scan": {"database": 7}}, "scan.database must be a string, got 7"),
        ({"classify": {"seed": True}}, "classify.seed must be an integer, got True"),
        ({"rulegen": {"timeout_s": True}}, "rulegen.timeout_s must be a positive number, got True"),
        (
            {"llm": {"mode": "mock", "temperature": True}},
            "llm.temperature must be a non-negative number, got True",
        ),
        ({"llm": {"mode": "live", "endpoint": "http://[::1/v1"}}, "Invalid IPv6 URL"),
        ({"filters": {"deny": ["a{4294967296}"]}}, "filters.deny: bad pattern"),
        ({"compiler": {"kind": "codeql"}, "scan": {}}, "codeql compiler requires scan.database"),
        (
            {"compiler": {"kind": "codeql"}, "scan": {"database": ""}},
            "codeql compiler requires scan.database",
        ),
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


_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# Every config key, and every table, in whose place any value may stand.
_DECLARED_KEYS = (
    "project", "out_dir", "backend", "mock_script", "workers",
    "llm", "llm.mode", "llm.model", "llm.endpoint", "llm.temperature",
    "compiler", "compiler.kind", "compiler.script", "codeql", "codeql.path",
    "classify", "classify.budget", "classify.seed",
    "pairing", "pairing.budget",
    "rulegen", "rulegen.max_iters", "rulegen.timeout_s",
    "scan", "scan.database", "scan.manifest", "filters", "filters.deny", "filters.allow",
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from(["mock", "live"]),
    key=st.sampled_from(_DECLARED_KEYS),
    value=_JSON_VALUE,
)
def test_any_json_value_at_any_key_gives_a_config_or_a_config_error(mode, key, value):
    data = _config_data(out_dir="run")
    if mode == "live":
        data["llm"] = {"mode": "live", "endpoint": "http://127.0.0.1:9/v1"}
    table, _, name = key.rpartition(".")
    (data.setdefault(table, {}) if table else data)[name] = value
    try:
        config = PipelineConfig.from_dict(data, base_dir=FIXTURES)
    except ConfigError:
        return
    assert isinstance(config, PipelineConfig)


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
    client = build_llm_client(config)
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
    "pairs": 4,
    "rules_compiled": 4,
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


def test_a_record_the_spec_document_cannot_hold_leaves_the_run(run_config, monkeypatch, caplog):
    # An analyzer can report a lone surrogate (a "\\ud800" escape in its output).
    odd = make_record(
        "com.example.odd", "Env", "getenv", [("name", "String")], "String",
        snippet='String v = System.getenv("\ud800");', first_seen=SourceLocation("Odd.java", 3),
    )

    class Backend(FixtureBackend):
        def enumerate_calls(self, project_root):
            return [*super().enumerate_calls(project_root), odd]

    monkeypatch.setattr(pipeline, "build_backend", lambda config: Backend())
    config = run_config()
    with caplog.at_level("WARNING"):
        report = run_pipeline(config)
    specs = json.loads((config.out_dir / "specs.json").read_text(encoding="utf-8"))
    assert report.counts["apis_kept"] == len(specs["apis"]) == EXPECTED_COUNTS["apis_kept"]
    assert report.counts["apis_extracted"] == EXPECTED_COUNTS["apis_extracted"] + 1
    assert f"dropping record {odd.id}: snippet not encodable as UTF-8" in caplog.messages


# Model calls and estimated prompt tokens per stage on the fixture, summed over
# every transcript, and compile calls per pair. The mock compiler fails one
# pair once, hence 5 writes, 1 repair and 1 + 1 + 1 + 2 compiles for 4 pairs.
# Classify sends 3 groups in each of rounds 1 and 2, which agree on every
# record, so no round 3. A change that adds calls or prompt text fails here.
EXPECTED_CALLS = {"classify": 6, "pair": 1, "write": 5, "repair": 1}
EXPECTED_PROMPT_TOKENS = {"classify": 9855, "pair": 646, "write": 3224, "repair": 362}


def test_full_run_model_calls_and_prompt_tokens(run_config, monkeypatch):
    compiles = Counter()
    original = MockCompiler.compile

    def counting_compile(self, pair_id, rule_text):
        compiles[pair_id] += 1
        return original(self, pair_id, rule_text)

    monkeypatch.setattr(MockCompiler, "compile", counting_compile)
    config = run_config()
    run_pipeline(config)
    assert sorted(compiles.values()) == [1, 1, 1, 2]  # 5 compiles in total
    calls, tokens = Counter(), Counter()
    for transcript in config.out_dir.rglob("transcript.jsonl"):
        for line in transcript.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            calls[entry["stage"]] += 1
            tokens[entry["stage"]] += estimate_tokens(entry["request"]["prompt"])
    assert calls == EXPECTED_CALLS
    assert tokens == EXPECTED_PROMPT_TOKENS


def test_label_prompts_name_records_by_handle_and_write_prompts_by_pair_id(run_config):
    config = run_config()
    run_pipeline(config)
    ids = [api["id"] for api in json.loads((config.out_dir / "specs.json").read_text())["apis"]]
    entries = [
        json.loads(line)
        for line in (config.out_dir / "transcript.jsonl").read_text().splitlines()
    ]
    assert {entry["stage"] for entry in entries} == {"classify", "pair"}
    for entry in entries:
        prompt = entry["request"]["prompt"]
        assert '"id":"' in prompt
        assert not [rid for rid in ids if rid in prompt], entry["seq"]
    rule_dirs = sorted(p for p in (config.out_dir / "rules").iterdir() if p.is_dir())
    assert len(rule_dirs) == 4
    for rule_dir in rule_dirs:
        for line in (rule_dir / "transcript.jsonl").read_text().splitlines():
            entry = json.loads(line)
            if entry["stage"] == "write":
                assert rule_dir.name in entry["request"]["prompt"]


def test_pair_prompts_leave_out_the_snippets_that_write_prompts_carry(run_config):
    config = run_config()
    run_pipeline(config)
    lookup = record_lookup(SPECS.load(config.out_dir / "specs.json"))
    # A snippet as a prompt line would hold it: JSON-escaped, without quotes.
    snippets = [json.dumps(r.snippet, ensure_ascii=False)[1:-1] for r in lookup.values()]
    assert all(snippets)
    entries = [
        (transcript.parent, json.loads(line))
        for transcript in sorted(config.out_dir.rglob("transcript.jsonl"))
        for line in transcript.read_text(encoding="utf-8").splitlines()
    ]
    pair_prompts = [entry["request"]["prompt"] for _, entry in entries if entry["stage"] == "pair"]
    assert len(pair_prompts) == EXPECTED_CALLS["pair"]
    for prompt in pair_prompts:
        assert not [snippet for snippet in snippets if snippet in prompt]
    pairs = {p.pair_id: p for p in PAIRS.load(config.out_dir / "pairs.json")}
    writes = [(d.name, entry) for d, entry in entries if entry["stage"] == "write"]
    assert len(writes) == EXPECTED_CALLS["write"]
    shared = 0
    for pair_id, entry in writes:
        prompt = entry["request"]["prompt"]
        source, sink = lookup[pairs[pair_id].source_id], lookup[pairs[pair_id].sink_id]
        assert f"source record: {source.prompt_text}\n" in prompt
        # A snippet the sink shares with the source is written once.
        if sink.snippet == source.snippet:
            shared += 1
            same = replace(sink, snippet="(same as the source record)").prompt_text
            assert f"sink record: {same}\n" in prompt
            assert prompt.count(json.dumps(sink.snippet, ensure_ascii=False)[1:-1]) == 1
        else:
            assert f"sink record: {sink.prompt_text}\n" in prompt
    assert shared == 1


def test_a_sanitized_pair_gets_a_rule_whose_barrier_names_its_sanitizer(run_config):
    config = run_config()
    run_pipeline(config)
    lookup = record_lookup(SPECS.load(config.out_dir / "specs.json"))
    pairs = PAIRS.load(config.out_dir / "pairs.json")
    assert [len(p.sanitizers) for p in pairs].count(1) == 1 and len(pairs) == 4
    for pair in pairs:
        rule_dir = config.out_dir / "rules" / pair.pair_id
        # The first write prompt; a repaired pair's next one repeats its pair info.
        write = json.loads((rule_dir / "transcript.jsonl").read_text().splitlines()[0])
        prompt = write["request"]["prompt"]
        rule = (rule_dir / "rule.ql").read_text(encoding="utf-8")
        assert ("isBarrier" in prompt) == ("isBarrier" in rule) == bool(pair.sanitizers)
        for rid in pair.sanitizers:
            assert f"{lookup[rid].signature}\n" in prompt and rid not in prompt
            assert f'hasName("{lookup[rid].method}")' in rule.partition("isBarrier")[2]
    assert json.loads((config.out_dir / "rules/index.json").read_text())["compiled"] == 4


def test_pairing_budget_tiles_the_prompts_without_changing_the_pairs(run_config):
    whole = run_config("whole")
    run_pipeline(whole)
    tiled = run_config("tiled", pairing={"budget": 565})
    run_pipeline(tiled)
    prompts = [
        estimate_tokens(entry["request"]["prompt"])
        for entry in map(json.loads, (tiled.out_dir / "transcript.jsonl").read_text().splitlines())
        if entry["stage"] == "pair"
    ]
    # 4 sources and 3 sinks fall into 4 tiles, every one within the budget.
    assert len(prompts) == 4
    assert max(prompts) <= 565
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
    "votes.json": "97b879778717258b47bd463eab0470a97c3461622d307ed609c5d5571db39bbc",
    "pairs.json": "0896e59337171e57276e66f50322400ee7f488315345a2fe3d174171b40c3948",
    "rules/index.json": "f7f57da807f41ae29e1f05c6d60bc5bf8fc905cfb57be4d97bd46a2262f4b06a",
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
    "rules/36fdcc4350f3c45c__bc5caa3125faa3d4/rule.ql":
        "2dd42300e2e883687d9182ba2bf6fc6c99717a332c81807118bb39ba482a4bbf",
    "rules/36fdcc4350f3c45c__bc5caa3125faa3d4/status.json":
        "700ee2a085e3daa28be3fa8f63a6c96d55aa6603c70de820ce026e8190c0c88c",
    "findings.json": "c1a79c59f0bb81a96790ded5b7b127ac5bd5cd09689abbdfa609033e420f77ee",
    "report.json": "71542b191936d90bb969748b73b8841468ae96bd609d8dfcac2ed201361d9c8b",
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


@pytest.mark.parametrize("temperature", [None, 0.3])
def test_unset_temperature_uses_stage_defaults(run_config, temperature):
    llm = {"mode": "mock", "model": "demo"}
    if temperature is not None:
        llm["temperature"] = temperature
    config = run_config("temps", llm=llm)
    assert config.temperature == temperature
    run_pipeline(config)
    label_requests = {
        (entry["stage"], entry["request"]["model"], entry["request"]["temperature"])
        for line in (config.out_dir / "transcript.jsonl").read_text().splitlines()
        for entry in [json.loads(line)]
    }
    label_temp = 0.0 if temperature is None else temperature
    assert label_requests == {("classify", "demo", label_temp), ("pair", "demo", label_temp)}
    write_requests = {
        (request["model"], request["temperature"])
        for rule_transcript in (config.out_dir / "rules").glob("*/transcript.jsonl")
        for line in rule_transcript.read_text().splitlines()
        for request in [json.loads(line)["request"]]
    }
    assert write_requests == {("demo", 0.7 if temperature is None else temperature)}


def test_report_does_not_depend_on_stage_wall_times(run_config, monkeypatch):
    # Classify takes 0.4 s on one run and 1.6 s on the other, by the clock.
    real_monotonic = time.monotonic
    offset = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: real_monotonic() + offset[0])
    original = pipeline.classify_records
    reports = []
    for seconds in (0.4, 1.6):

        def slow_classify(*args, seconds=seconds, **kwargs):
            offset[0] += seconds
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "classify_records", slow_classify)
        config = run_config(f"classify_{seconds}s")
        run_pipeline(config)
        took = json.loads((config.out_dir / "timings.json").read_text())["stage_seconds"]
        assert seconds <= took["classify"] < seconds + 0.4
        reports.append((config.out_dir / "report.json").read_bytes())
    assert reports[0] == reports[1]


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


def _script(path, entries):
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return path


def _synthetic_project(root, classes):
    """A corpus of ``classes`` services, each with a source, sanitizer, sink and neutral call."""
    for k in range(classes):
        path = root / "src" / "com" / "synth" / f"Service{k}.java"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "package com.synth;\n\n"
            f"public class Service{k} {{\n\n"
            f"    public void handle{k}(Gateway gateway, Store store) {{\n"
            f'        String value = gateway.fetchParam{k}("q");\n'
            f"        String clean = gateway.escapeText{k}(value);\n"
            f"        store.execSql{k}(value);\n"
            f"        store.compute{k}(clean);\n"
            "    }\n}\n"
        )
    return root


_SYNTHETIC_LABELS = {"fetchParam": "Source", "escapeText": "Sanitizer", "execSql": "Sink"}


def _synthetic_label(method):
    return next((v for k, v in _SYNTHETIC_LABELS.items() if method.startswith(k)), "None")


def test_results_do_not_depend_on_workers(run_config, tmp_path):
    narrow = run_config("narrow", workers=1)
    wide = run_config("wide", workers=4)
    run_pipeline(narrow)
    run_pipeline(wide)

    # Every artifact but the wall-clock timings is byte-identical, and
    # transcripts differ only in their timestamps and latencies.
    names = assert_same_run(narrow.out_dir, wide.out_dir)
    assert {"specs.json", "votes.json", "pairs.json", "rules/index.json"} <= set(names)
    assert {"findings.json", "report.json", "timings.json"} <= set(names)
    # The shared transcript and one per pair.
    assert sum(1 for name in names if name.endswith("transcript.jsonl")) == 5

    # A synthetic corpus whose script has consume-once entries for classify
    # and pair, each of which a whole batch of requests matches: the first
    # in request order takes it, whatever the thread timing.
    project = _synthetic_project(tmp_path / "synth", classes=6)
    records = dedupe(filter_risky(extract_apis(project, FixtureBackend())))
    labels = {r.id: _synthetic_label(r.method) for r in records}
    flipped = {rid: "Sink" if label == "Source" else "Source" for rid, label in labels.items()}
    by_method = {r.method: r.id for r in records}
    pair_lines = "".join(
        f"PAIR: ({by_method[f'fetchParam{k}']}, {by_method[f'execSql{k}']}) | CLASS: sql-injection"
        " | RATIONALE: parameter reaches the query | CONFIDENCE: high\n"
        for k in range(6)
    )
    script = _script(
        tmp_path / "synth.jsonl",
        [
            {"stage": "classify", "response": "".join(
                f"{rid}: {label}\n" for rid, label in flipped.items()), "once": True},
            {"stage": "classify", "response": "nothing to label", "once": True},
            {"stage": "pair", "response": "hmm, unclear", "once": True},
            {"stage": "pair", "response": "NO_PAIRS", "once": True},
            {"stage": "pair", "response": pair_lines},
            {"stage": "write", "response": "import java\nselect 1"},
            {"default": "".join(f"{rid}: {label}\n" for rid, label in labels.items())},
        ],
    )
    runs = [
        run_config(
            f"synth{workers}",
            project=str(project),
            mock_script=str(script),
            pairing={"budget": 850},
            workers=workers,
        )
        for workers in (1, 4)
    ]
    for config in runs:
        run_pipeline(config)
    names = assert_same_run(runs[0].out_dir, runs[1].out_dir)
    assert {"votes.json", "pairs.json", "report.json"} <= set(names)
    stages = Counter(
        json.loads(line)["stage"]
        for line in (runs[0].out_dir / "transcript.jsonl").read_text().splitlines()
    )
    assert stages["pair"] > 2  # several tiles, so the pair entries had a choice
    votes = json.loads((runs[0].out_dir / "votes.json").read_text())["votes"]
    assert any(len(v["ballots"]) == 3 for v in votes)


def test_round_three_goes_to_split_and_malformed_records_only(run_config, corpus_records, tmp_path):
    config = run_config()
    fixture_lines = (FIXTURES / "mock_llm.jsonl").read_text(encoding="utf-8").splitlines()
    labels = dict(
        line.split(": ")
        for line in json.loads(fixture_lines[0])["response"].splitlines()
    )
    first = plan_groups(corpus_records, config.budget, config.seed, rounds=range(2))
    r0g0, broken = first[0], [g for g in first if g.round_index == 0][-1]
    lookup = record_lookup(corpus_records)
    # Two members of r0g0 ballot another label in round 1 than in round 2;
    # the last round-1 group answers garbage to its request and its retry.
    split = r0g0.member_ids[:2]
    flipped = {**labels, **{rid: "Sink" if labels[rid] == "Source" else "Source" for rid in split}}
    garbage = {
        "stage": "classify",
        "contains": build_classification_prompt(broken, lookup),
        "response": "no labels here",
        "once": True,
    }
    script = _script(
        tmp_path / "split.jsonl",
        [
            garbage,
            garbage,
            {"stage": "classify", "response": "".join(
                f"{rid}: {label}\n" for rid, label in flipped.items()), "once": True},
            *map(json.loads, fixture_lines),
        ],
    )
    config = run_config("split", mock_script=str(script), workers=4)
    run_pipeline(config)

    undecided = sorted({*split, *broken.member_ids})
    votes = json.loads((config.out_dir / "votes.json").read_text())["votes"]
    assert sorted(v["api_id"] for v in votes if len(v["ballots"]) == 3) == undecided
    assert all(len(v["ballots"]) == 2 for v in votes if v["api_id"] not in undecided)
    assert {v["api_id"]: v["resolved"] for v in votes} == labels  # round 3 restores them
    warned = {v["api_id"] for v in votes for b in v["ballots"] if b["parse_warning"]}
    assert warned == set(broken.member_ids)

    # The transcript: rounds 1 and 2, the broken group's retry, then round 3
    # over the undecided records alone, then pairing.
    transcript = (config.out_dir / "transcript.jsonl").read_text()
    entries = [json.loads(line) for line in transcript.splitlines()]
    prompts = [e["request"]["prompt"] for e in entries if e["stage"] == "classify"]
    last = plan_groups([lookup[rid] for rid in undecided], config.budget, config.seed, (2,), first)
    assert prompts == [
        *(build_classification_prompt(g, lookup) for g in first),
        build_classification_prompt(broken, lookup),
        *(build_classification_prompt(g, lookup) for g in last),
    ]
    assert [e["stage"] for e in entries[len(prompts):]] == ["pair"]
    # Every resolved label is the fixture's, so every later artifact is too;
    # the report adds a warning for the broken group's ballots.
    for name in ("pairs.json", "findings.json", "rules/index.json"):
        digest = hashlib.sha256((config.out_dir / name).read_bytes()).hexdigest()
        assert digest == GOLDEN_DIGESTS[name], name
    assert load_report(config.out_dir / "report.json").warnings == (
        f"classify: {len(broken.member_ids)} ballot(s) defaulted on a parse warning",
    )


_ONCE_RULE = {"response": "import java\nselect 2", "once": True}


def _fixture_script_after(path, entry):
    fixture_lines = (FIXTURES / "mock_llm.jsonl").read_text(encoding="utf-8").splitlines()
    return _script(path, [entry, *map(json.loads, fixture_lines)])


@pytest.mark.parametrize("stage", ["write", "repair", None])
def test_a_once_entry_for_a_per_pair_stage_without_contains_is_refused(run_config, tmp_path, stage):
    entry = {**_ONCE_RULE, "stage": stage} if stage else _ONCE_RULE
    script = _fixture_script_after(tmp_path / "once.jsonl", entry)
    config = run_config(mock_script=str(script))
    with pytest.raises(ConfigError, match=f'^{re.escape(str(script))}:1: a once entry .* needs "contains"'):
        run_pipeline(config)
    assert not (config.out_dir / "specs.json").exists()


def test_a_once_entry_naming_a_pair_gives_the_same_rules_at_any_timing(run_config, tmp_path):
    pair_id = "36fdcc4350f3c45c__0465103141b4b803"
    entry = {**_ONCE_RULE, "stage": "write", "contains": pair_id}
    script = _fixture_script_after(tmp_path / "once.jsonl", entry)
    rules = set()
    for run in range(12):
        config = run_config(f"once{run}", mock_script=str(script), workers=4)
        run_pipeline(config)
        rule_dir = config.out_dir / "rules"
        rules.add(tuple(
            (str(path.relative_to(rule_dir)), path.read_bytes())
            for path in sorted(rule_dir.rglob("*"))
            if path.is_file() and path.name != "transcript.jsonl"
        ))
    [only] = rules
    assert dict(only)[f"{pair_id}/rule.ql"] == b"import java\nselect 2\n"


def test_a_pair_answered_with_a_module_gets_the_skeleton_around_it(run_config, tmp_path):
    pair_id = "36fdcc4350f3c45c__0465103141b4b803"
    module = (
        "module RuleConfig implements DataFlow::ConfigSig {\n"
        "  predicate isSource(DataFlow::Node source) {\n"
        '    exists(MethodCall call | call.getMethod().hasName("getParameter") and source.asExpr() = call)\n'
        "  }\n\n"
        "  predicate isSink(DataFlow::Node sink) {\n"
        '    exists(MethodCall call | call.getMethod().hasName("executeQuery") and sink.asExpr() = call.getAnArgument())\n'
        "  }\n"
        "}"
    )
    entry = {"stage": "write", "contains": pair_id, "response": f"```ql\n{module}\n```"}
    config = run_config(mock_script=str(_fixture_script_after(tmp_path / "module.jsonl", entry)))
    report = run_pipeline(config)
    head, _, tail = skeleton_around_module()
    rule = (config.out_dir / "rules" / pair_id / "rule.ql").read_text(encoding="utf-8")
    assert rule == f"{head}{module}\n{tail}"
    assert report.counts == EXPECTED_COUNTS and report.metrics.correctness_rate == 100.0
    for name in ("findings.json", "report.json", "rules/index.json"):
        digest = hashlib.sha256((config.out_dir / name).read_bytes()).hexdigest()
        assert digest == GOLDEN_DIGESTS[name], name


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
    config = run_config(backend="codeql", codeql={"path": str(tmp_path / "no-codeql")})
    with pytest.raises(StageFailure) as err:
        run_pipeline(config)
    assert err.value.stage == "extract"
    assert "extract" in str(err.value)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param('{"version": 1, "pai', id="truncated"),
        pytest.param("[1]", id="array"),
        pytest.param('{"version": 1, "pairs": [1]}', id="pairs-list"),
        pytest.param('{"version": 1, "default": {"fail_count": "x"}}', id="fail-count-text"),
        pytest.param('{"version": 1, "default": {"fail_cont": 1}}', id="misspelt-key"),
    ],
)
def test_unreadable_compiler_script_is_config_error_before_any_stage(run_config, tmp_path, text):
    bad_script = tmp_path / "bad_compiler.json"
    bad_script.write_text(text)
    config = run_config(compiler={"kind": "mock", "script": str(bad_script)})
    with pytest.raises(ConfigError, match=f"{bad_script}: "):
        run_pipeline(config)
    assert not (config.out_dir / "specs.json").exists()


def test_a_lone_surrogate_in_a_scripted_diagnostic_reaches_the_repair_prompt_replaced(
    run_config, tmp_path
):
    script = json.loads((FIXTURES / "mock_compiler.json").read_text(encoding="utf-8"))
    failing = "35ae7cb3a1e82ec0__bc5caa3125faa3d4"
    script["pairs"][failing]["diagnostics"][0] += "\ud800"
    path = tmp_path / "compiler.json"
    path.write_text(json.dumps(script))
    config = run_config(compiler={"kind": "mock", "script": str(path)})
    assert run_pipeline(config).counts["rules_compiled"] == EXPECTED_COUNTS["rules_compiled"]
    transcript = (config.out_dir / "rules" / failing / "transcript.jsonl").read_text("utf-8")
    assert "unresolved predicate or missing import\ufffd" in transcript


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda text: text[:40], id="truncated"),
        pytest.param(lambda text: '{"version": 1, "vulns": [{}]}', id="empty-entry"),
        pytest.param(lambda text: text.replace('"start_line": 18', '"start_line": "18"', 1),
                     id="mis-typed-field"),
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
    compiler = build_compiler(config)
    assert isinstance(compiler, MockCompiler)


def test_build_compiler_codeql_carries_the_binary_and_timeout(run_config, tmp_path):
    binary = fake_codeql(tmp_path, "exit 0\n")
    config = run_config(
        compiler={"kind": "codeql"}, codeql={"path": binary}, rulegen={"timeout_s": 7}
    )
    compiler = build_compiler(config)
    assert isinstance(compiler, CodeQLCompiler)
    assert (compiler.binary, compiler.timeout_s) == (binary, 7)
    Path(binary).unlink()
    with pytest.raises(CompilerUnavailable, match="codeql.path or QLFORGE_CODEQL"):
        build_compiler(config)

import json
import random
import re
import sys
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlforge.codeql import CodeQLCompiler
from qlforge.errors import (
    ArtifactCorrupt,
    CompilerUnavailable,
    ConfigError,
    ExecutionFailed,
    UnknownApiId,
)
from qlforge.gateway import LlmGateway, LlmResponse, _RetryableTransport
from qlforge.pairing import SourceSinkPair, make_pair_id
from qlforge.prompts import load_template
from qlforge.rulegen import (
    _strip_fences,
    ArtifactStatus,
    MockCompiler,
    RuleArtifact,
    format_diagnostics,
    generate_all,
    generate_rule,
    load_rule_artifacts,
    pair_dir_of,
    repair_advice,
    save_rule_artifact,
    scan,
    write_rule,
    write_rule_index,
)
from qlforge.records import record_lookup
from tests.conftest import (
    CountingClient,
    FakeAnalyzeCodeql,
    StaticClient,
    scripted_client,
    skeleton_around_module,
    synthetic_records,
)

RULE_TEXT = "import java\n\nfrom Expr e\nselect e"


class RecordingClient:
    """Wraps a client and keeps every request for prompt inspection."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def send(self, request):
        self.requests.append(request)
        return self.inner.send(request)


def _pair_and_lookup(seed=70):
    records = synthetic_records(2, random.Random(seed))
    src, snk = sorted(r.id for r in records)
    pair = SourceSinkPair(make_pair_id(src, snk), src, snk, "sql-injection")
    return pair, record_lookup(records)


def _compiler(pair_id, fail_count, **extra):
    entry = {"fail_count": fail_count, **extra}
    return MockCompiler({"version": 1, "pairs": {pair_id: entry}})


@pytest.mark.parametrize("fail_count", range(8))
def test_loop_state_machine(fail_count):
    pair, lookup = _pair_and_lookup()
    compiler = _compiler(pair.pair_id, fail_count)
    client = CountingClient(StaticClient(RULE_TEXT))
    artifact = generate_rule(
        pair, lookup, LlmGateway(client, model="m"), compiler, max_iters=5
    )
    should_compile = fail_count < 5
    expected = ArtifactStatus.COMPILED if should_compile else ArtifactStatus.ABORTED
    assert artifact.status is expected
    assert artifact.attempts == min(fail_count + 1, 5)
    assert client.count("write") == min(fail_count + 1, 5)
    assert client.count("repair") == min(fail_count, 4)
    assert compiler.compile_calls(pair.pair_id) == min(fail_count + 1, 5)
    if should_compile:
        assert artifact.diagnostics == ()
        assert artifact.rule_text == RULE_TEXT + "\n"
    else:
        assert artifact.diagnostics  # last diagnostics are preserved


def test_no_calls_after_success():
    # A clean first compile must not trigger any repair traffic at all.
    pair, lookup = _pair_and_lookup()
    client = CountingClient(StaticClient(RULE_TEXT))
    generate_rule(pair, lookup, LlmGateway(client, model="m"), _compiler(pair.pair_id, 0))
    assert client.calls == ["write"]


def test_repair_advice_flows_into_next_write_prompt():
    pair, lookup = _pair_and_lookup()
    compiler = _compiler(pair.pair_id, 1, diagnostics=["rule.ql:3:9: error: missing semicolon"])
    client = RecordingClient(
        scripted_client(
            [
                {"stage": "write", "response": RULE_TEXT},
                {"stage": "repair", "response": "ADVICE-MARKER: add the semicolon"},
            ]
        )
    )
    artifact = generate_rule(pair, lookup, LlmGateway(client, model="m"), compiler)
    assert artifact.status is ArtifactStatus.COMPILED
    assert [r.stage for r in client.requests] == ["write", "repair", "write"]
    repair_prompt = client.requests[1].prompt
    assert RULE_TEXT in repair_prompt
    assert "rule.ql:3:9: error: missing semicolon" in repair_prompt
    second_write = client.requests[2].prompt
    assert "ADVICE-MARKER: add the semicolon" in second_write
    assert "--- previous rule ---" in second_write
    assert "missing semicolon" in second_write
    first_write = client.requests[0].prompt
    assert "(first attempt)" in first_write
    assert "ADVICE-MARKER" not in first_write


def test_blank_repair_advice_falls_back_to_the_first_diagnostic():
    diagnostics = ("rule.ql:3:9: error: missing semicolon",)
    gateway = LlmGateway(StaticClient(" \n"), model="m")
    advice = repair_advice(RULE_TEXT, diagnostics, gateway)
    assert advice == "Address the first diagnostic: rule.ql:3:9: error: missing semicolon"


def test_empty_draft_consumes_attempt_without_repair_call():
    pair, lookup = _pair_and_lookup()
    compiler = _compiler(pair.pair_id, 0)
    client = RecordingClient(
        scripted_client(
            [{"stage": "write", "response": "   \n", "once": True}], default=RULE_TEXT
        )
    )
    artifact = generate_rule(pair, lookup, LlmGateway(client, model="m"), compiler, max_iters=5)
    assert artifact.status is ArtifactStatus.COMPILED
    assert artifact.attempts == 2
    assert [r.stage for r in client.requests] == ["write", "write"]
    assert compiler.compile_calls(pair.pair_id) == 1
    assert "produced no output" in client.requests[1].prompt


def test_all_empty_drafts_are_invalid():
    pair, lookup = _pair_and_lookup()
    compiler = _compiler(pair.pair_id, 0)
    client = CountingClient(StaticClient("```\n```"))
    artifact = generate_rule(pair, lookup, LlmGateway(client, model="m"), compiler, max_iters=3)
    assert artifact.status is ArtifactStatus.ABORTED
    assert artifact.attempts == 3
    assert client.count("write") == 3
    assert client.count("repair") == 0
    assert compiler.compile_calls(pair.pair_id) == 0
    assert artifact.diagnostics == ("rule.ql: error: writer returned empty output",)


def test_timeout_counts_as_failure():
    pair, lookup = _pair_and_lookup()
    script = {"version": 1, "pairs": {pair.pair_id: {"delay_s": 0.05}}}
    compiler = MockCompiler(script, timeout_s=0.01)
    client = CountingClient(StaticClient(RULE_TEXT))
    artifact = generate_rule(pair, lookup, LlmGateway(client, model="m"), compiler, max_iters=1)
    assert artifact.status is ArtifactStatus.ABORTED
    assert artifact.diagnostics == ("rule.ql: error: compilation exceeded 0.01s",)


def test_a_failing_compile_slower_than_the_timeout_times_out():
    script = {"version": 1, "default": {"fail_count": 1, "delay_s": 0.3}}
    compiler = MockCompiler(script, timeout_s=0.1)
    began = time.monotonic()
    diagnostics = compiler.compile("p1", RULE_TEXT)
    assert time.monotonic() - began < 0.3
    assert diagnostics == ("rule.ql: error: compilation exceeded 0.1s",)


def test_a_timed_out_attempt_is_revised_as_a_failed_compile():
    pair, lookup = _pair_and_lookup()
    script = {"version": 1, "pairs": {pair.pair_id: {"delay_s": 0.05}}}
    client = RecordingClient(StaticClient(RULE_TEXT))
    generate_rule(
        pair, lookup, LlmGateway(client, model="m"), MockCompiler(script, timeout_s=0.01),
        max_iters=2,
    )
    second_write = client.requests[2].prompt
    assert "Attempt 1 failed to compile (Error)." in second_write
    assert "rule.ql: error: compilation exceeded 0.01s" in second_write


def test_missing_compiler_aborts_pair():
    class UnavailableCompiler:
        name = "broken"

        def compile(self, pair_id, rule_text):
            raise CompilerUnavailable("no compiler on PATH")

        def execute(self, rules, database):
            raise CompilerUnavailable("no compiler on PATH")

    pair, lookup = _pair_and_lookup()
    client = CountingClient(StaticClient(RULE_TEXT))
    artifact = generate_rule(pair, lookup, LlmGateway(client, model="m"), UnavailableCompiler())
    assert artifact.status is ArtifactStatus.ABORTED
    assert artifact.attempts == 1
    assert client.count("write") == 1
    assert client.count("repair") == 0
    assert artifact.rule_text == RULE_TEXT + "\n"
    assert artifact.diagnostics == ("rule.ql: error: compiler unavailable: no compiler on PATH",)


def test_max_iters_must_be_positive():
    pair, lookup = _pair_and_lookup()
    with pytest.raises(ValueError):
        generate_rule(
            pair, lookup, LlmGateway(StaticClient(RULE_TEXT), model="m"), _compiler(pair.pair_id, 0), max_iters=0
        )


def test_write_rule_strips_code_fences():
    pair, lookup = _pair_and_lookup()
    fenced = f"```ql\n{RULE_TEXT}\n```"
    text = write_rule(pair, lookup, LlmGateway(StaticClient(fenced), model="m"))
    assert text == RULE_TEXT + "\n"


def test_write_rule_returns_empty_for_a_blank_answer():
    pair, lookup = _pair_and_lookup()
    assert write_rule(pair, lookup, LlmGateway(StaticClient(" \n"), model="m")) == ""


def test_write_prompt_carries_the_skeleton_only_while_no_draft_exists():
    pair, lookup = _pair_and_lookup()
    draft = "import java\n\nfrom Expr draft\nselect draft"
    client = RecordingClient(
        scripted_client(
            [
                {"stage": "write", "response": draft, "once": True},
                {"stage": "write", "response": " \n", "once": True},
                {"stage": "repair", "response": "advice"},
            ],
            default=RULE_TEXT,
        )
    )
    # The first compile fails; the second draft is empty; the third compiles.
    artifact = generate_rule(pair, lookup, LlmGateway(client, model="m"), _compiler(pair.pair_id, 1))
    assert artifact.status is ArtifactStatus.COMPILED and artifact.attempts == 3
    first, revision, after_empty = (r.prompt for r in client.requests if r.stage == "write")
    _, module, _ = skeleton_around_module()
    assert first.count(module) == 1
    # A revision shows the previous rule once, as compiled, in its revision
    # context, and asks for its corrected module in the skeleton's place.
    assert module not in revision and "HOLE" not in revision
    assert revision.count(draft) == 1
    assert revision.index("corrected RuleConfig module") < revision.index("--- previous rule ---")
    # After an empty draft there is no rule to revise, so the module is back.
    assert after_empty.count(module) == 1
    assert "corrected RuleConfig module" not in first + after_empty
    assert "--- previous rule ---\n(empty)\n" in after_empty
    assert "produced no output; emit the complete RuleConfig module." in after_empty


def test_a_first_write_prompt_shows_the_module_s_holes_and_no_import_or_select_line():
    pair, lookup = _pair_and_lookup()
    client = RecordingClient(StaticClient(RULE_TEXT))
    write_rule(pair, lookup, LlmGateway(client, model="m"))
    prompt = client.requests[0].prompt
    head, module, tail = skeleton_around_module()
    assert prompt.count(module) == 1 and prompt.count("// HOLE:") == 2
    assert not [line for line in prompt.splitlines() if line.startswith(("import", "select"))]
    assert head not in prompt and tail.strip() not in prompt


def test_a_revision_prompt_shows_the_previous_rule_as_compiled():
    pair, lookup = _pair_and_lookup()
    module = "module RuleConfig implements DataFlow::ConfigSig {\n  broken\n}"
    client = RecordingClient(
        scripted_client(
            [
                {"stage": "write", "response": module, "once": True},
                {"stage": "repair", "response": "advice"},
            ],
            default=RULE_TEXT,
        )
    )
    compiler = _compiler(pair.pair_id, 1, diagnostics=["rule.ql:13: error: bad"])
    artifact = generate_rule(pair, lookup, LlmGateway(client, model="m"), compiler)
    assert artifact.status is ArtifactStatus.COMPILED and artifact.attempts == 2
    head, _, tail = skeleton_around_module()
    compiled = f"{head}{module}\n{tail}"
    repair, revision = (r.prompt for r in client.requests[1:])
    assert compiled in repair
    # The diagnostic's line 13 is the module's second line in the rule shown.
    assert f"--- previous rule ---\n{compiled}\n--- diagnostics ---\nrule.ql:13: error: bad\n" in revision
    assert compiled.splitlines()[12] == "  broken"


def test_a_module_answer_becomes_the_skeleton_with_that_module_in_place():
    pair, lookup = _pair_and_lookup()
    module = (
        "module RuleConfig implements DataFlow::ConfigSig {\n"
        '  predicate isSource(DataFlow::Node source) { source.asExpr().(MethodCall).getMethod().hasName("a") }\n'
        '  predicate isSink(DataFlow::Node sink) { sink.asExpr().(MethodCall).getMethod().hasName("b") }\n'
        "}"
    )
    head, skeleton_module, tail = skeleton_around_module()
    for answer in (module, f"```ql\n{module}\n```", f"Here it is:\n```\n{module}\n```\nDone."):
        text = write_rule(pair, lookup, LlmGateway(StaticClient(answer), model="m"))
        assert text == f"{head}{module}\n{tail}"
    # The skeleton's own module gives back the skeleton, byte for byte.
    text = write_rule(pair, lookup, LlmGateway(StaticClient(skeleton_module), model="m"))
    assert text == load_template("rule_skeleton.ql")


def _module(source_body: str, sink_body: str) -> str:
    return (
        "module RuleConfig implements DataFlow::ConfigSig {\n"
        f"  predicate isSource(DataFlow::Node source) {{\n    {source_body}\n  }}\n\n"
        f"  predicate isSink(DataFlow::Node sink) {{\n    {sink_body}\n  }}\n"
        "}"
    )


class RecordingCompiler:
    """Compiles every rule cleanly and keeps each rule text it was given."""

    def __init__(self):
        self.rules = []

    def compile(self, pair_id, rule_text):
        self.rules.append(rule_text)
        return ()


def test_an_echoed_skeleton_module_is_a_failed_attempt_without_compile_or_repair():
    pair, lookup = _pair_and_lookup()
    _, skeleton_module, _ = skeleton_around_module()
    compiler = _compiler(pair.pair_id, 0)
    client = RecordingClient(StaticClient(skeleton_module))
    artifact = generate_rule(pair, lookup, LlmGateway(client, model="m"), compiler, max_iters=3)
    assert artifact.status is ArtifactStatus.ABORTED and artifact.attempts == 3
    assert artifact.rule_text == load_template("rule_skeleton.ql")
    assert artifact.diagnostics == (
        "isSource still matches nothing: none()",
        "isSink still matches nothing: none()",
    )
    assert compiler.compile_calls(pair.pair_id) == 0
    assert [r.stage for r in client.requests] == ["write"] * 3
    advice = "--- repair advice ---\nReplace none() in isSource and isSink with a match"
    assert advice in client.requests[1].prompt


def test_a_module_with_one_hole_filled_fails_naming_the_other():
    pair, lookup = _pair_and_lookup()
    filled = _module('source.asExpr().(MethodCall).getMethod().hasName("a")', "none()")
    compiler = _compiler(pair.pair_id, 0)
    client = RecordingClient(
        scripted_client([{"stage": "write", "response": filled, "once": True}], default=RULE_TEXT)
    )
    artifact = generate_rule(pair, lookup, LlmGateway(client, model="m"), compiler)
    assert artifact.status is ArtifactStatus.COMPILED and artifact.attempts == 2
    assert compiler.compile_calls(pair.pair_id) == 1
    assert [r.stage for r in client.requests] == ["write", "write"]
    revision = client.requests[1].prompt
    assert "--- diagnostics ---\nisSink still matches nothing: none()\n" in revision
    assert "Replace none() in isSink with a match" in revision
    assert "isSource still matches nothing" not in revision


_BODY_PIECES = st.lists(
    st.sampled_from(["none()", "any()", "// HOLE: x", "\n", " ", "source.asExpr() = e", " or "]),
    max_size=6,
).map("".join)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(source_body=_BODY_PIECES, sink_body=_BODY_PIECES)
def test_a_draft_reaches_the_compiler_unchanged_unless_a_body_is_still_none(source_body, sink_body):
    pair, lookup = _pair_and_lookup()
    module = _module(source_body, sink_body)
    compiler = RecordingCompiler()
    artifact = generate_rule(
        pair, lookup, LlmGateway(StaticClient(module), model="m"), compiler, max_iters=1
    )
    holes = [
        name for name, body in (("isSource", source_body), ("isSink", sink_body))
        if "".join(re.sub(r"//[^\n]*", "", body).split()) == "none()"
    ]
    if holes:
        assert compiler.rules == [] and artifact.status is ArtifactStatus.ABORTED
        assert artifact.diagnostics == tuple(f"{h} still matches nothing: none()" for h in holes)
    else:
        head, _, tail = skeleton_around_module()
        assert compiler.rules == [f"{head}{module}\n{tail}"]
        assert artifact.status is ArtifactStatus.COMPILED


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    answer=st.one_of(
        st.text(),
        st.lists(
            st.sampled_from(["```", "```ql", "\n", " ", "\t", "import java", "import", "x", "}", "select 1"]),
            max_size=12,
        ).map("".join),
    )
)
def test_write_rule_reads_any_answer_as_a_whole_file_or_a_module(answer):
    pair, lookup = _pair_and_lookup()
    text = write_rule(pair, lookup, LlmGateway(StaticClient(answer), model="m"))
    stripped = _strip_fences(answer)
    if not stripped:
        assert text == ""
    elif re.search(r"^import\s", stripped, re.MULTILINE):
        assert text == stripped + "\n"
    else:
        head, _, tail = skeleton_around_module()
        assert text.startswith(head) and text.endswith(tail)
        assert stripped in text


def test_write_prompt_pair_line_keeps_only_what_its_records_do_not_say():
    pair, lookup = _pair_and_lookup()
    pair = replace(pair, rationale="tainted — «quoted»", confidence="high")
    client = RecordingClient(StaticClient(RULE_TEXT))
    write_rule(pair, lookup, LlmGateway(client, model="m"))
    prompt = client.requests[0].prompt
    (line,) = [line for line in prompt.splitlines() if line.startswith("pair: ")]
    body = line.removeprefix("pair: ")
    assert list(json.loads(body)) == ["pair_id", "vuln_class", "rationale"]
    fields = {"pair_id": pair.pair_id, "vuln_class": "sql-injection", "rationale": pair.rationale}
    assert body == json.dumps(fields, ensure_ascii=False, separators=(",", ":"))
    assert f"source record: {lookup[pair.source_id].prompt_text}\n" in prompt
    assert f"sink record: {lookup[pair.sink_id].prompt_text}\n" in prompt


def test_write_prompt_lists_a_pair_s_sanitizers_for_its_barrier():
    records = synthetic_records(4, random.Random(71))
    src, snk, *sanitizer_ids = sorted(r.id for r in records)
    lookup = record_lookup(records)
    plain = SourceSinkPair(make_pair_id(src, snk), src, snk, "xss")

    def write_prompt(pair):
        client = RecordingClient(StaticClient(RULE_TEXT))
        write_rule(pair, lookup, LlmGateway(client, model="m"))
        return client.requests[0].prompt

    unsanitized = write_prompt(plain)
    assert "sanitizers:" not in unsanitized and "isBarrier" not in unsanitized
    # Listed in the pair's order, after the sink record, by signature alone:
    # the barrier matches calls by name, and no parser reads an id back.
    order = sanitizer_ids[::-1]
    sanitized = write_prompt(replace(plain, sanitizers=tuple(order)))
    header = "sanitizers: add predicate isBarrier(DataFlow::Node node) matching calls to these\n"
    lines = "".join(f"{lookup[rid].signature}\n" for rid in order)
    assert f"sink record: {lookup[snk].prompt_text}\n{header}{lines}\n" in sanitized
    assert not any(rid in sanitized for rid in order)
    unknown = replace(plain, sanitizers=(sanitizer_ids[0], "feedfacefeedface"))
    with pytest.raises(UnknownApiId, match=f"pair {plain.pair_id} references unknown api id feedface"):
        write_prompt(unknown)


def test_format_diagnostics_truncation():
    many = tuple(f"rule.ql:{i}: error: issue {i}" for i in range(60))
    text = format_diagnostics(many)
    assert text == "\n".join(many[:40]) + "\n(truncated)"
    assert format_diagnostics(("x" * 9000,)) == "x" * 8192 + "\n(truncated)"
    assert format_diagnostics(()) == "(no diagnostics)"


def test_mock_compiler_script_validation():
    with pytest.raises(ConfigError):
        MockCompiler({"version": 2})
    with pytest.raises(ConfigError):
        MockCompiler({})


@pytest.mark.parametrize(
    "script, match",
    [
        ({"version": 1, "pairs": [1]}, "pairs must be dict, not list"),
        ({"version": 1, "pairs": {"p": 1}}, r"pairs\['p'\]: ScriptedOutcome must be dict"),
        ({"version": 1, "default": {"fail_count": "x"}}, "fail_count must be int, not str"),
        ({"version": 1, "default": {"delay_s": True}}, "delay_s must be float, not bool"),
        (
            {"version": 1, "default": {"diagnostics": [{"message": "m"}]}},
            "diagnostics item must be str, not dict",
        ),
        (
            {"version": 1, "pairs": {"p": {"findings": [{"file": "A.java"}]}}},
            r"pairs\['p'\]: start_line is missing",
        ),
        ({"version": 1, "default": {"fail_cont": 1}}, r"unknown key\(s\): fail_cont"),
        ({"version": 1, "default": {"delay_s": -1}}, "delay_s must be from 0 to"),
    ],
)
def test_mock_compiler_script_shape_is_config_error_naming_the_file(tmp_path, script, match):
    path = tmp_path / "compiler.json"
    path.write_text(json.dumps(script))
    with pytest.raises(ConfigError, match=match) as err:
        MockCompiler.from_file(path)
    assert str(err.value).startswith(f"{path}: ")


def test_mock_compiler_default_entry():
    compiler = MockCompiler({"version": 1, "default": {"fail_count": 1}})
    first = compiler.compile("anything", "text")
    second = compiler.compile("anything", "text")
    assert first == ("rule.ql:1: error: syntax error in rule",)  # none scripted
    assert second == ()


@pytest.mark.parametrize(
    "finding, match",
    [
        ({"start_line": "x"}, "start_line must be int, not str"),
        ({"file": 5}, "file must be str, not int"),
        ({"message": 7}, "message must be str, not int"),
        ({"end_line": 2.5}, "end_line must be int, not float"),
    ],
)
def test_a_mis_typed_scripted_finding_is_config_error(tmp_path, finding, match):
    path = tmp_path / "compiler.json"
    row = {"file": "A.java", "start_line": 2, **finding}
    path.write_text(json.dumps({"version": 1, "pairs": {"p": {"findings": [row]}}}))
    with pytest.raises(ConfigError, match=match) as err:
        MockCompiler.from_file(path)
    assert str(err.value).startswith(f"{path}: ")


def test_mock_compiler_rows_are_complete_findings():
    script = {"version": 1, "default": {"findings": [{"file": "A.java", "start_line": 4}]}}
    rows = MockCompiler(script).execute({"p": "select 1"}, "db")
    assert rows == {"p": [{"file": "A.java", "start_line": 4, "end_line": 4, "message": ""}]}


def test_a_lone_surrogate_in_the_compiler_script_is_replaced_with_a_warning(tmp_path, caplog):
    path = tmp_path / "compiler.json"
    diagnostic = "rule.ql: error: missing import \ud800"
    path.write_text(json.dumps({"version": 1, "default": {"fail_count": 1, "diagnostics": [diagnostic]}}))
    with caplog.at_level("WARNING"):
        compiler = MockCompiler.from_file(path)
    assert caplog.messages == [f"{path}: lone surrogates in the script replaced with U+FFFD"]
    assert compiler.compile("p", RULE_TEXT) == ("rule.ql: error: missing import \ufffd",)


def test_artifact_store_round_trip(tmp_path):
    compiled = RuleArtifact("a__x", "xss", ArtifactStatus.COMPILED, 2, "select 1\n")
    aborted = RuleArtifact(
        "b__y",
        "sqli",
        ArtifactStatus.ABORTED,
        5,
        "broken\n",
        ("rule.ql:7: error: no such predicate", "ERROR: could not resolve type Foo (rule.ql:5,3-6)"),
    )
    for artifact in (aborted, compiled):
        save_rule_artifact(artifact, tmp_path)
    write_rule_index([aborted, compiled], tmp_path)
    loaded = load_rule_artifacts(tmp_path)
    assert loaded == [compiled, aborted]  # sorted by pair id
    index = json.loads((tmp_path / "index.json").read_text())
    assert index["compiled"] == 1
    assert index["aborted"] == 1
    assert [r["pair_id"] for r in index["rules"]] == ["a__x", "b__y"]


def test_a_status_with_object_diagnostics_is_artifact_corrupt_naming_it(tmp_path):
    # status.json as runs wrote it while a diagnostic was an object.
    aborted = RuleArtifact("b__y", "sqli", ArtifactStatus.ABORTED, 5, "broken\n", ("x",))
    status_path = save_rule_artifact(aborted, tmp_path) / "status.json"
    write_rule_index([aborted], tmp_path)
    status = json.loads(status_path.read_text())
    status["diagnostics"] = [{"message": "no such predicate", "file": "rule.ql", "line": 7}]
    status_path.write_text(json.dumps(status))
    match = f"^{re.escape(str(status_path))}: .*diagnostics item must be str"
    with pytest.raises(ArtifactCorrupt, match=match):
        load_rule_artifacts(tmp_path)


def test_load_rule_artifacts_requires_index(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_rule_artifacts(tmp_path)
    (tmp_path / "index.json").write_text(json.dumps({"version": 9, "rules": []}))
    with pytest.raises(ValueError):
        load_rule_artifacts(tmp_path)


def test_load_rule_artifacts_refuses_an_index_row_outside_the_rules_dir(tmp_path):
    rules_dir = tmp_path / "rules"
    outside = RuleArtifact("x", "xss", ArtifactStatus.COMPILED, 1, "select 1\n")
    save_rule_artifact(outside, tmp_path)  # next to the rules directory
    write_rule_index([replace(outside, pair_id="../x")], rules_dir)
    with pytest.raises(ArtifactCorrupt, match="pair id '../x' is not a plain directory name"):
        load_rule_artifacts(rules_dir)


def test_load_rule_artifacts_refuses_a_status_of_another_pair(tmp_path):
    artifact = RuleArtifact("a__x", "xss", ArtifactStatus.COMPILED, 1, "select 1\n")
    status_path = save_rule_artifact(artifact, tmp_path) / "status.json"
    status_path.write_text(json.dumps({**json.loads(status_path.read_text()), "pair_id": "b__y"}))
    write_rule_index([artifact], tmp_path)
    with pytest.raises(ArtifactCorrupt, match="pair_id 'b__y' is not 'a__x'"):
        load_rule_artifacts(tmp_path)


@pytest.mark.parametrize(
    "pair_id", ["", ".", "..", "../x", "a/b", "a\\b", "a\0b", "a\ud800b", "\udfff", 5, None]
)
def test_a_pair_id_that_is_no_plain_directory_name_is_refused(tmp_path, pair_id):
    with pytest.raises(ArtifactCorrupt, match="is not a plain directory name"):
        pair_dir_of(tmp_path, pair_id)


def test_generate_all_checks_every_pair_id_before_any_pair_runs(tmp_path):
    # A lone surrogate names no file: mkdir would fail after the other pairs ran.
    for bad_id in ("../escape", "escape\ud800"):
        pairs, lookup = _pairs(3)
        pairs.append(replace(pairs[0], pair_id=bad_id))
        client = StaticClient(RULE_TEXT)
        rules_dir = tmp_path / "rules"
        with pytest.raises(ArtifactCorrupt, match=re.escape(f"pair id {bad_id!r} is not a plain")):
            generate_all(pairs, lookup, LlmGateway(client), MockCompiler({"version": 1}), rules_dir)
        assert client.calls == 0
        assert not rules_dir.exists() and not (tmp_path / "escape").exists()


@pytest.mark.parametrize("pair_id", ["a" * 253, "\u00e9" * 127], ids=["ascii", "two-byte"])
def test_a_pair_id_too_long_to_name_its_rule_file_is_refused(tmp_path, pair_id):
    # 252 bytes of UTF-8 plus scan's ".ql" fill a 255-byte file name.
    assert pair_dir_of(tmp_path, "a" * 252) == tmp_path / ("a" * 252)
    with pytest.raises(ArtifactCorrupt, match="is longer than 252 bytes"):
        pair_dir_of(tmp_path, pair_id)


def test_generate_all_refuses_a_repeated_pair_id_before_any_pair_runs(tmp_path):
    pairs, lookup = _pairs(3)
    pairs.append(replace(pairs[0], sink_id=pairs[1].sink_id))
    client = StaticClient(RULE_TEXT)
    rules_dir = tmp_path / "rules"
    with pytest.raises(ArtifactCorrupt, match=f"pair id '{pairs[0].pair_id}' is listed 2 times"):
        generate_all(pairs, lookup, LlmGateway(client), MockCompiler({"version": 1}), rules_dir)
    assert client.calls == 0
    assert not rules_dir.exists()


def test_load_rule_artifacts_refuses_an_index_naming_a_lone_surrogate(tmp_path):
    artifact = RuleArtifact("a__x", "xss", ArtifactStatus.COMPILED, 1, "select 1\n")
    save_rule_artifact(artifact, tmp_path)
    write_rule_index([artifact], tmp_path)
    index = tmp_path / "index.json"
    index.write_text(index.read_text().replace('"a__x"', '"a__x\\ud800"'))
    with pytest.raises(ArtifactCorrupt, match=r"pair id 'a__x\\ud800' is not a plain directory name"):
        load_rule_artifacts(tmp_path)


def test_load_rule_artifacts_refuses_an_index_listing_a_pair_twice(tmp_path):
    artifact = RuleArtifact("a__x", "xss", ArtifactStatus.COMPILED, 1, "select 1\n")
    save_rule_artifact(artifact, tmp_path)
    write_rule_index([artifact, artifact], tmp_path)
    with pytest.raises(ArtifactCorrupt, match="pair id 'a__x' is listed 2 times"):
        load_rule_artifacts(tmp_path)


def test_generate_all_layout_and_transcripts(tmp_path):
    records = synthetic_records(3, random.Random(80))
    ids = sorted(r.id for r in records)
    pairs = [
        SourceSinkPair(make_pair_id(ids[0], ids[1]), ids[0], ids[1], "xss"),
        SourceSinkPair(make_pair_id(ids[0], ids[2]), ids[0], ids[2], "sqli"),
    ]
    compiler = MockCompiler(
        {"version": 1, "pairs": {pairs[1].pair_id: {"fail_count": 1}}, "default": {}}
    )
    client = scripted_client(
        [{"stage": "repair", "response": "tighten the select"}], default=RULE_TEXT
    )
    artifacts = generate_all(
        pairs, record_lookup(records), LlmGateway(client, model="m", workers=2), compiler, tmp_path
    )
    assert [a.pair_id for a in artifacts] == sorted(p.pair_id for p in pairs)
    assert all(a.status is ArtifactStatus.COMPILED for a in artifacts)
    for pair in pairs:
        pair_dir = tmp_path / pair.pair_id
        assert (pair_dir / "rule.ql").read_text() == RULE_TEXT + "\n"
        assert (pair_dir / "status.json").is_file()
        transcript = (pair_dir / "transcript.jsonl").read_text().splitlines()
        assert transcript  # every pair logs its own calls
    # The failing pair needed write, repair, write.
    retried = tmp_path / pairs[1].pair_id / "transcript.jsonl"
    stages = [json.loads(l)["stage"] for l in retried.read_text().splitlines()]
    assert stages == ["write", "repair", "write"]
    assert load_rule_artifacts(tmp_path) == artifacts


class _FailsFirstCallOfEachStage:
    """Fails the first request of each stage with a retryable HTTP 503."""

    def __init__(self):
        self.failed = set()

    def send(self, request):
        if request.stage not in self.failed:
            self.failed.add(request.stage)
            raise _RetryableTransport("HTTP 503", status=503)
        return LlmResponse(text=RULE_TEXT)


def test_generate_retries_are_logged_with_the_pair_id(tmp_path, caplog):
    pairs, lookup = _pairs(1)
    pair_id = pairs[0].pair_id
    compiler = MockCompiler({"version": 1, "pairs": {pair_id: {"fail_count": 1}}, "default": {}})
    sleeps = []
    gateway = LlmGateway(_FailsFirstCallOfEachStage(), sleep=sleeps.append, model="m", workers=1)
    with caplog.at_level("WARNING", logger="qlforge.gateway"):
        artifacts = generate_all(pairs, lookup, gateway, compiler, tmp_path)
    assert [a.status for a in artifacts] == [ArtifactStatus.COMPILED]
    assert sleeps == [1.0, 1.0]
    retries = [(r.levelname, r.getMessage()) for r in caplog.records if r.name == "qlforge.gateway"]
    assert retries == [
        ("WARNING", f"write pair {pair_id}: attempt 1/3 failed, retrying: HTTP 503"),
        ("WARNING", f"repair pair {pair_id}: attempt 1/3 failed, retrying: HTTP 503"),
    ]


def _pairs(count, seed=90):
    records = synthetic_records(count + 1, random.Random(seed))
    source, *sinks = sorted(r.id for r in records)
    pairs = [SourceSinkPair(make_pair_id(source, sink), source, sink, "xss") for sink in sinks]
    return pairs, record_lookup(records)


# How long a fake waits for a call that should come. Tests that pass never
# wait this long; a broken lane makes them fail after it.
_RENDEZVOUS_S = 5.0
# How long a call stays in flight so that a call past the lane's width, if
# the lane lets one through, is there to be seen.
_LINGER_S = 0.1


class _OverlapProbe:
    """Client and compiler in one. Every send after the first waits for a
    compile to start; the compile waits for a send while it runs."""

    def __init__(self):
        self.sends = 0
        self.compiling = threading.Event()
        self.sent_while_compiling = threading.Event()
        self.overlapped = []
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            self.sends += 1
            first = self.sends == 1
        if not first and self.compiling.wait(_RENDEZVOUS_S):
            self.sent_while_compiling.set()
        return LlmResponse(text=RULE_TEXT)

    def compile(self, pair_id, rule_text):
        self.compiling.set()
        self.overlapped.append(self.sent_while_compiling.wait(_RENDEZVOUS_S))
        return ()


def test_generate_overlaps_compile_with_model_call(tmp_path):
    pairs, lookup = _pairs(2)
    probe = _OverlapProbe()
    artifacts = generate_all(pairs, lookup, LlmGateway(probe, model="m", workers=1), probe, tmp_path)
    assert all(a.status is ArtifactStatus.COMPILED for a in artifacts)
    # Even one worker wide, a model call runs while the first compile does.
    assert probe.overlapped == [True, True]


class _Gauge:
    """Counts calls in flight and keeps the peak.

    The first ``width`` calls wait for one another, so a full lane is always
    seen. Every call then lingers until more than ``width`` are in flight or
    a short wait passes.
    """

    def __init__(self, width):
        self.width = width
        self.now = self.peak = 0
        self.full = threading.Event()
        self.over = threading.Event()
        self._lock = threading.Lock()

    def __enter__(self):
        with self._lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
            if self.now >= self.width:
                self.full.set()
            if self.now > self.width:
                self.over.set()
        self.full.wait(_RENDEZVOUS_S)
        self.over.wait(_LINGER_S)

    def __exit__(self, *exc):
        with self._lock:
            self.now -= 1


class _GaugedFakes:
    def __init__(self, width):
        self.sends = _Gauge(width)
        self.compiles = _Gauge(width)

    def send(self, request):
        with self.sends:
            return LlmResponse(text=RULE_TEXT)

    def compile(self, pair_id, rule_text):
        with self.compiles:
            return ()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_generate_lanes_never_exceed_workers(tmp_path, workers):
    pairs, lookup = _pairs(3 * workers)
    fakes = _GaugedFakes(workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        gateway = LlmGateway(fakes, model="m", workers=workers)
        artifacts = generate_all(pairs, lookup, gateway, fakes, tmp_path)
    finally:
        sys.setswitchinterval(interval)
    assert all(a.status is ArtifactStatus.COMPILED for a in artifacts)
    assert fakes.sends.peak == workers
    assert fakes.compiles.peak == workers


def _artifact(pair_id, status=ArtifactStatus.COMPILED):
    return RuleArtifact(pair_id, "xss", status, 1, "select 1\n")


def test_scan_dedupes_within_pair_only():
    script = {
        "version": 1,
        "pairs": {
            "a__x": {
                "findings": [
                    {"file": "F.java", "start_line": 5, "end_line": 5, "message": "first"},
                    {"file": "F.java", "start_line": 5, "end_line": 5, "message": "again"},
                ]
            },
            "b__x": {"findings": [{"file": "F.java", "start_line": 5, "end_line": 5}]},
        },
    }
    findings = scan([_artifact("a__x"), _artifact("b__x")], "db", MockCompiler(script))
    assert [(f.pair_id, f.file, f.start_line) for f in findings] == [
        ("a__x", "F.java", 5),
        ("b__x", "F.java", 5),
    ]
    assert findings[0].message == "first"


def test_scan_skips_aborted_rules():
    script = {
        "version": 1,
        "default": {"findings": [{"file": "G.java", "start_line": 1}]},
    }
    findings = scan(
        [_artifact("ok__x"), _artifact("bad__y", ArtifactStatus.ABORTED)],
        "db",
        MockCompiler(script),
    )
    assert [f.pair_id for f in findings] == ["ok__x"]
    assert findings[0].end_line == 1  # defaults to start_line


def test_scan_continues_past_failing_rule(caplog):
    class FlakyCompiler(MockCompiler):
        def execute(self, rules, database):
            if "a__x" in rules:
                raise ExecutionFailed("analysis crashed")
            return super().execute(rules, database)

    script = {"version": 1, "default": {"findings": [{"file": "H.java", "start_line": 4}]}}
    with caplog.at_level("WARNING", logger="qlforge.rulegen"):
        findings = scan([_artifact("a__x"), _artifact("b__y")], "db", FlakyCompiler(script))
    assert [f.pair_id for f in findings] == ["b__y"]
    assert "execution failed" in caplog.text


def test_scan_fails_when_the_compiler_cannot_run(tmp_path):
    # A missing toolchain is not a broken rule: no per-rule fallback, and
    # the error reaches the caller instead of an empty list of findings.
    compiler = CodeQLCompiler(binary=str(tmp_path / "no-codeql"))
    with pytest.raises(CompilerUnavailable, match="not found"):
        scan([_artifact("a__x"), _artifact("b__y")], "db", compiler)


def _codeql_scan(tmp_path, rule_texts, lines=None):
    lines = lines or dict(zip(sorted(rule_texts), range(1, len(rule_texts) + 1)))
    rows = {pid: [{"file": "F.java", "line": line, "message": pid}] for pid, line in lines.items()}
    fake = FakeAnalyzeCodeql(tmp_path, rows)
    artifacts = [
        RuleArtifact(pid, "xss", ArtifactStatus.COMPILED, 1, text)
        for pid, text in rule_texts.items()
    ]
    artifacts.append(RuleArtifact("z__aborted", "xss", ArtifactStatus.ABORTED, 5, "x\n"))
    findings = scan(artifacts, "db", CodeQLCompiler(binary=str(fake.binary)))
    return findings, fake.calls()


def test_scan_runs_all_compiled_rules_in_one_codeql_call(tmp_path):
    skeleton = load_template("rule_skeleton.ql")
    # a__x and b__y share the skeleton's constant @id; c__z has none.
    rules = {"a__x": skeleton, "b__y": skeleton, "c__z": RULE_TEXT + "\n"}
    findings, calls = _codeql_scan(tmp_path, rules)
    assert len(calls) == 1
    assert calls[0]["command"] == "database analyze"
    assert sorted(calls[0]["ids"]) == ["a__x", "b__y", "c__z"]
    assert [(f.pair_id, f.start_line, f.message) for f in findings] == [
        ("a__x", 1, "a__x"),
        ("b__y", 2, "b__y"),
        ("c__z", 3, "c__z"),
    ]


def test_scan_isolates_a_rule_that_breaks_the_batch(tmp_path, caplog):
    rules = {"a__x": RULE_TEXT + "\n", "b__y": "CRASH\n" + RULE_TEXT, "c__z": RULE_TEXT + "\n"}
    with caplog.at_level("WARNING", logger="qlforge.rulegen"):
        findings, calls = _codeql_scan(tmp_path, rules)
    # One batch call, then one call per rule.
    assert [sorted(c["ids"]) for c in calls] == [
        ["a__x", "b__y", "c__z"],
        ["a__x"],
        ["b__y"],
        ["c__z"],
    ]
    assert [f.pair_id for f in findings] == ["a__x", "c__z"]
    assert "pair b__y: execution failed" in caplog.text


def test_scan_isolates_a_rule_whose_sarif_is_mis_shaped(tmp_path, caplog):
    rules = {pid: RULE_TEXT + "\n" for pid in ("a__x", "b__y", "c__z")}
    with caplog.at_level("WARNING", logger="qlforge.rulegen"):
        findings, calls = _codeql_scan(tmp_path, rules, {"a__x": 1, "b__y": "x", "c__z": 3})
    assert len(calls) == 4
    assert [f.pair_id for f in findings] == ["a__x", "c__z"]
    assert "pair b__y: execution failed" in caplog.text
    assert "no readable SARIF: TypeError: startLine must be int, not str" in caplog.text


def test_scan_output_sorted_by_location():
    script = {
        "version": 1,
        "pairs": {
            "p__1": {
                "findings": [
                    {"file": "Z.java", "start_line": 9},
                    {"file": "A.java", "start_line": 30},
                    {"file": "A.java", "start_line": 2},
                ]
            }
        },
    }
    findings = scan([_artifact("p__1")], "db", MockCompiler(script))
    assert [(f.file, f.start_line) for f in findings] == [
        ("A.java", 2),
        ("A.java", 30),
        ("Z.java", 9),
    ]


@pytest.mark.parametrize(
    "answer, rule",
    [
        ("```ql\nimport java\n```", "import java"),
        ("Here is the rule:\n```ql\nimport java\n```", "import java"),
        ("```ql\nimport java\n```\nThis rule matches the sink.", "import java"),
        ("Sure.\n\n```\nimport java\nselect 1\n```\nNotes:\n```\nother\n```", "import java\nselect 1"),
        ("  ```ql\n  import java\n  ```  ", "import java"),
        ("```ql\nimport java", "import java"),  # a truncated answer: no closing fence
        ("```", ""),
        ("import java\nselect 1\n", "import java\nselect 1"),  # no fence: kept
        ("  from Expr e\nselect e, \"a ``` b\"  ", "from Expr e\nselect e, \"a ``` b\""),
    ],
)
def test_strip_fences_returns_the_first_fenced_block(answer, rule):
    assert _strip_fences(answer) == rule


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.one_of(st.text(), st.lists(st.sampled_from(["```", "```ql", "\n", " ", "x"]), max_size=10).map("".join)))
def test_strip_fences_never_raises(text):
    stripped = _strip_fences(text)
    assert stripped == stripped.strip()

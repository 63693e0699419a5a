import json
import os
import random
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlforge import codeql
from qlforge.codeql import (
    CodeQLBackend,
    CodeQLCompiler,
    _sarif_results,
    _split_sarif,
    resolve_binary,
    stamp_rule_id,
)
from qlforge.errors import BackendUnavailable, CompilerUnavailable, ExecutionFailed
from qlforge.gateway import LlmGateway
from qlforge.pairing import SourceSinkPair, make_pair_id
from qlforge.prompts import load_template
from qlforge.records import SourceLocation, clamp_snippet, make_record, record_lookup
from qlforge.rulegen import FINDINGS, ArtifactStatus, RuleArtifact, generate_all, scan
from tests.conftest import FakeAnalyzeCodeql, fake_codeql, scripted_client, synthetic_records


# ---------------------------------------------------------------------------
# Binary resolution
# ---------------------------------------------------------------------------


def _fake_codeqls(tmp_path, *names):
    """One executable fake ``codeql`` in each named directory under ``tmp_path``."""
    fakes = []
    for name in names:
        (tmp_path / name).mkdir()
        fakes.append(fake_codeql(tmp_path / name, "exit 0\n"))
    return fakes


def test_resolve_prefers_explicit_path(tmp_path, monkeypatch):
    explicit, env = _fake_codeqls(tmp_path, "explicit", "env")
    monkeypatch.setenv("QLFORGE_CODEQL", env)
    assert resolve_binary(explicit) == explicit


def test_resolve_falls_back_to_env(tmp_path, monkeypatch):
    (env,) = _fake_codeqls(tmp_path, "env")
    monkeypatch.setenv("QLFORGE_CODEQL", env)
    assert resolve_binary(None) == env


def test_resolve_falls_back_to_path_lookup(monkeypatch):
    monkeypatch.delenv("QLFORGE_CODEQL", raising=False)
    monkeypatch.setattr("qlforge.codeql.shutil.which", lambda name: "/usr/bin/codeql")
    assert resolve_binary(None) == "/usr/bin/codeql"


def test_resolve_returns_none_when_absent(monkeypatch):
    monkeypatch.delenv("QLFORGE_CODEQL", raising=False)
    monkeypatch.setattr("qlforge.codeql.shutil.which", lambda name: None)
    assert resolve_binary(None) is None


def test_resolve_does_not_fall_back_past_a_path_that_cannot_run(tmp_path, monkeypatch):
    # The first path that is set decides, even when it names no executable file.
    (env,) = _fake_codeqls(tmp_path, "env")
    monkeypatch.setenv("QLFORGE_CODEQL", env)
    (tmp_path / "plain").write_text("#!/bin/sh\nexit 0\n")
    for path in (tmp_path / "missing", tmp_path / "plain", tmp_path / "env"):
        assert resolve_binary(str(path)) is None, path


def test_missing_binary_raises_unavailable(monkeypatch):
    monkeypatch.delenv("QLFORGE_CODEQL", raising=False)
    monkeypatch.setattr("qlforge.codeql.shutil.which", lambda name: None)
    with pytest.raises(CompilerUnavailable):
        CodeQLCompiler().compile("p", "select 1")
    with pytest.raises(BackendUnavailable):
        CodeQLBackend().enumerate_calls(".")


def test_nonexistent_binary_path_raises_unavailable(tmp_path):
    # Caught when the compiler is built, before anything could call it.
    missing = str(tmp_path / "no-such-codeql")
    with pytest.raises(CompilerUnavailable, match="codeql.path or QLFORGE_CODEQL") as err:
        CodeQLCompiler(binary=missing)
    assert repr(missing) in str(err.value)
    with pytest.raises(BackendUnavailable, match="codeql.path or QLFORGE_CODEQL"):
        CodeQLBackend(binary=missing)


def test_the_timeout_defaults_when_the_compiler_is_built(tmp_path):
    binary = fake_codeql(tmp_path, "exit 0\n")
    assert CodeQLCompiler(binary=binary).timeout_s == codeql.DEFAULT_TIMEOUT_S
    assert CodeQLCompiler(binary=binary, timeout_s=7).timeout_s == 7


def _not_a_program(tmp_path):
    """An executable file the kernel cannot run: exec fails with ENOEXEC."""
    path = tmp_path / "codeql"
    path.write_bytes(b"not a program\n")
    path.chmod(0o755)
    return str(path)


def test_a_binary_that_cannot_start_is_unavailable_to_every_caller(tmp_path):
    binary = _not_a_program(tmp_path)
    with pytest.raises(BackendUnavailable, match="cannot run: .*Exec format error"):
        CodeQLBackend(binary=binary).enumerate_calls(tmp_path)
    compiler = CodeQLCompiler(binary=binary)
    with pytest.raises(CompilerUnavailable, match="cannot run: .*Exec format error"):
        compiler.compile("p", "select 1")
    with pytest.raises(CompilerUnavailable, match="cannot run: .*Exec format error"):
        compiler.execute({"p": "select 1"}, "db")


# ---------------------------------------------------------------------------
# Compiler via stub binaries
# ---------------------------------------------------------------------------


def test_compile_ok(tmp_path):
    binary = fake_codeql(tmp_path, "exit 0\n")
    assert CodeQLCompiler(binary=binary).compile("p", "import java\nselect 1") == ()


@pytest.mark.parametrize(
    "echo, expected",
    [
        ('"$3:13:3: error: unresolved type Expr"', ("rule.ql:13:3: error: unresolved type Expr",)),
        ('"$(realpath "$3"):2:1: error: expected select"', ("rule.ql:2:1: error: expected select",)),
        ('"cannot read $3"', ("cannot read rule.ql",)),
        ('"$(dirname "$3")/qlpack.yml: bad pack"', ("qlpack.yml: bad pack",)),
    ],
)
def test_compile_diagnostics_name_the_rule_file_not_its_temporary_directory(
    tmp_path, monkeypatch, echo, expected
):
    # codeql gets the rule's absolute path ($3) and may echo it, or its resolved
    # form: the temporary directory here is reached through a symbolic link.
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "real")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "link"))
    binary = fake_codeql(tmp_path, f"echo {echo} >&2\nexit 2\n")
    assert CodeQLCompiler(binary=binary).compile("p", "from Expr e select e") == expected


def test_compile_error_without_parseable_stderr(tmp_path):
    # Each non-blank line comes back as printed, whatever its form.
    binary = fake_codeql(
        tmp_path,
        "printf 'Compiling query.\\n\\n  something went sideways  \\n' >&2\n"
        "echo 'ERROR: could not resolve type Foo (rule.ql:5,3-6)' >&2\nexit 1\n",
    )
    assert CodeQLCompiler(binary=binary).compile("p", "x") == (
        "Compiling query.",
        "  something went sideways  ",
        "ERROR: could not resolve type Foo (rule.ql:5,3-6)",
    )


def test_compile_error_with_an_exit_code_only(tmp_path):
    binary = fake_codeql(tmp_path, "echo ' ' >&2\nexit 3\n")
    assert CodeQLCompiler(binary=binary).compile("p", "x") == ("rule.ql: error: codeql exited 3",)


def test_compile_reads_stderr_that_is_not_utf8_with_replacements(tmp_path):
    binary = fake_codeql(tmp_path, "printf 'bad \\377 byte' >&2\nexit 1\n")
    assert CodeQLCompiler(binary=binary).compile("p", "x") == ("bad \ufffd byte",)


def test_compile_timeout(tmp_path):
    binary = fake_codeql(tmp_path, "sleep 5\n")
    assert CodeQLCompiler(binary=binary, timeout_s=0.2).compile("p", "x") == (
        "rule.ql: error: codeql query compile exceeded 0.2s",
    )


def test_a_timeout_kills_what_codeql_started(tmp_path):
    # The child shell and its sleep are in codeql's process group; killing
    # codeql alone would leave them to touch the marker.
    marker = tmp_path / "marker"
    binary = fake_codeql(tmp_path, f"(sleep 0.5; touch '{marker}') &\nwait\n")
    assert CodeQLCompiler(binary=binary, timeout_s=0.2).compile("p", "x") == (
        "rule.ql: error: codeql query compile exceeded 0.2s",
    )
    time.sleep(1)
    assert not marker.exists()


def test_compile_timeout_names_the_default_limit_when_none_is_set(tmp_path, monkeypatch):
    monkeypatch.setattr(codeql, "DEFAULT_TIMEOUT_S", 0.3)
    binary = fake_codeql(tmp_path, "exec sleep 5\n")
    assert CodeQLCompiler(binary=binary).compile("p", "x") == (
        "rule.ql: error: codeql query compile exceeded 0.3s",
    )


def test_generate_carries_each_codeql_line_as_printed_to_repair_revision_and_status(tmp_path):
    printed = (
        "rule.ql:14:5: error: unresolved predicate or missing import",
        "ERROR: could not resolve type Foo (rule.ql:5,3-6)",
    )
    # The first line names the rule by the absolute path codeql was given.
    binary = fake_codeql(
        tmp_path,
        'echo "$3:14:5: error: unresolved predicate or missing import" >&2\n'
        f"echo '{printed[1]}' >&2\nexit 1\n",
    )
    records = synthetic_records(2, random.Random(70))
    source, sink = sorted(r.id for r in records)
    pair = SourceSinkPair(make_pair_id(source, sink), source, sink, "sql-injection")
    client = scripted_client(
        [
            {"stage": "write", "response": "import java\n\nfrom Expr e\nselect e"},
            {"stage": "repair", "response": "advice"},
        ]
    )
    rules = tmp_path / "rules"
    (artifact,) = generate_all(
        [pair], record_lookup(records), LlmGateway(client, model="m"),
        CodeQLCompiler(binary=binary), rules, max_iters=2,
    )
    assert artifact.status is ArtifactStatus.ABORTED and artifact.diagnostics == printed
    transcript = (rules / pair.pair_id / "transcript.jsonl").read_text(encoding="utf-8")
    entries = [json.loads(line) for line in transcript.splitlines()]
    assert [entry["stage"] for entry in entries] == ["write", "repair", "write"]
    repair, revision = (entry["request"]["prompt"] for entry in entries[1:])
    shown = "\n".join(printed)
    assert f"COMPILER DIAGNOSTICS:\n{shown}" in repair
    assert f"--- diagnostics ---\n{shown}\n--- repair advice ---\nadvice\n" in revision
    status = json.loads((rules / pair.pair_id / "status.json").read_text(encoding="utf-8"))
    assert status["status"] == "Aborted" and status["diagnostics"] == list(printed)


def _sarif_result(message: str) -> dict:
    return {
        "runs": [
            {
                "results": [
                    {
                        "ruleId": "qlforge/p",
                        "message": {"text": message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {"uri": "src/App.java"},
                                    "region": {"startLine": 9, "endLine": 10},
                                }
                            }
                        ],
                    }
                ]
            }
        ]
    }


def _analyze_writing(tmp_path, sarif: dict) -> str:
    """A fake ``codeql`` whose ``database analyze`` writes ``sarif`` (as ASCII JSON)."""
    return fake_codeql(
        tmp_path,
        f"""\
        if [ "$1 $2" = "database analyze" ]; then
          for a in "$@"; do
            case "$a" in --output=*) printf '%s' '{json.dumps(sarif)}' > "${{a#--output=}}";; esac
          done
          exit 0
        fi
        exit 1
        """,
    )


def test_execute_parses_sarif(tmp_path):
    binary = _analyze_writing(tmp_path, _sarif_result("tainted flow"))
    findings = CodeQLCompiler(binary=binary).execute({"p": "select 1"}, "somedb")["p"]
    assert findings == [
        {"file": "src/App.java", "start_line": 9, "end_line": 10, "message": "tainted flow"}
    ]


def test_a_lone_surrogate_in_sarif_becomes_a_replacement_character(tmp_path):
    # The SARIF holds a "\\ud800" escape, which UTF-8 could not write to findings.json.
    binary = _analyze_writing(tmp_path, _sarif_result("tainted \ud800 flow"))
    rules = [RuleArtifact("p", "xss", ArtifactStatus.COMPILED, 1, "select 1\n")]
    findings = scan(rules, "somedb", CodeQLCompiler(binary=binary))
    assert [finding.message for finding in findings] == ["tainted \ufffd flow"]
    FINDINGS.save(findings, tmp_path / "findings.json")


def test_execute_failure_raises(tmp_path):
    binary = fake_codeql(tmp_path, "echo 'no such database' >&2\nexit 1\n")
    with pytest.raises(ExecutionFailed, match="no such database"):
        CodeQLCompiler(binary=binary).execute({"p": "select 1"}, "missing-db")


def test_execute_of_a_crashing_rule_is_execution_failed(tmp_path):
    fake = FakeAnalyzeCodeql(tmp_path, {})
    compiler = CodeQLCompiler(binary=str(fake.binary))
    with pytest.raises(ExecutionFailed, match="analysis crashed"):
        compiler.execute({"a__x": "CRASH\nselect 1"}, "db")
    assert [c["command"] for c in fake.calls()] == ["database analyze"]


def test_execute_without_a_binary_is_unavailable_not_a_failed_execution(tmp_path):
    # The binary is there when the compiler is built and gone when it runs.
    compiler = CodeQLCompiler(binary=fake_codeql(tmp_path, "exit 0\n"))
    Path(compiler.binary).unlink()
    with pytest.raises(CompilerUnavailable, match="cannot run: .*No such file") as err:
        compiler.execute({"a__x": "select 1"}, "db")
    assert not isinstance(err.value, ExecutionFailed)


def test_execute_timeout_raises_unavailable(tmp_path):
    binary = fake_codeql(tmp_path, "exec sleep 5\n")
    with pytest.raises(CompilerUnavailable, match="exceeded"):
        CodeQLCompiler(binary=binary, timeout_s=0.2).execute({"p": "select 1"}, "db")


def test_execute_runs_all_rules_in_one_analyze_call(tmp_path):
    skeleton = load_template("rule_skeleton.ql")
    rows = {
        "a__x": [{"file": "A.java", "line": 3, "message": "from a"}],
        "b__y": [{"file": "B.java", "line": 7, "message": "from b"}],
        "c__z": [{"file": "C.java", "line": 1, "message": "from c"}],
    }
    fake = FakeAnalyzeCodeql(tmp_path, rows)
    rules = {
        # Both carry the skeleton's constant @id; the third has none at all.
        "a__x": skeleton,
        "b__y": skeleton,
        "c__z": "import java\nfrom Expr e\nselect e\n",
    }
    findings = CodeQLCompiler(binary=str(fake.binary)).execute(rules, "db")
    calls = fake.calls()
    assert [c["command"] for c in calls] == ["database analyze"]
    assert calls[0]["ids"] == {pid: f"qlforge/{pid}" for pid in rules}
    assert findings == {
        "a__x": [{"file": "A.java", "start_line": 3, "end_line": 3, "message": "from a"}],
        "b__y": [{"file": "B.java", "start_line": 7, "end_line": 7, "message": "from b"}],
        "c__z": [{"file": "C.java", "start_line": 1, "end_line": 1, "message": "from c"}],
    }


def test_execute_without_rules_runs_nothing(tmp_path):
    fake = FakeAnalyzeCodeql(tmp_path, {})
    assert CodeQLCompiler(binary=str(fake.binary)).execute({}, "db") == {}
    assert fake.calls() == []


# ---------------------------------------------------------------------------
# Rule ids in the scan workspace
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rule, stamped",
    [
        (
            "/**\n * @name n\n * @id qlforge/generated-taint-rule\n */\nselect 1\n",
            "/**\n * @name n\n * @id qlforge/p__q\n */\nselect 1\n",
        ),
        (
            "/**\n * @name n\n * @kind problem\n */\nselect 1\n",
            "/**\n * @id qlforge/p__q\n *\n * @name n\n * @kind problem\n */\nselect 1\n",
        ),
        (
            "/** @name n @id old */\nselect 1\n",
            "/** @name n @id qlforge/p__q */\nselect 1\n",
        ),
        (
            "/** @name n */\nselect 1\n",
            "/**\n * @id qlforge/p__q\n * @name n */\nselect 1\n",
        ),
        (
            "// generated\n/* licence */\n/**\n * @id x/y\n */\nselect 1\n",
            "// generated\n/* licence */\n/**\n * @id qlforge/p__q\n */\nselect 1\n",
        ),
        (
            "import java\n/** @id later */\nselect 1\n",
            "/**\n * @id qlforge/p__q\n */\nimport java\n/** @id later */\nselect 1\n",
        ),
        # Many comment markers and no QLDoc block: must not backtrack for ages.
        (
            "// " * 40 + "/* */ " * 40 + "\n",
            "/**\n * @id qlforge/p__q\n */\n" + "// " * 40 + "/* */ " * 40 + "\n",
        ),
    ],
)
def test_stamp_rule_id(rule, stamped):
    assert stamp_rule_id(rule, "qlforge/p__q") == stamped


def test_stamp_rule_id_leaves_other_tags_alone():
    rule = "/**\n * @identifier keep\n * @id\n * @kind problem\n */\nselect 1\n"
    assert stamp_rule_id(rule, "qlforge/p") == (
        "/**\n * @identifier keep\n * @id qlforge/p\n * @kind problem\n */\nselect 1\n"
    )


def test_split_sarif_by_rule_id(caplog):
    def result(location, **rule):
        return {
            **rule,
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": location},
                        "region": {"startLine": 1},
                    }
                }
            ],
        }

    sarif = {
        "runs": [
            {
                "results": [
                    result("A.java", ruleId="qlforge/a"),
                    result("B.java", rule={"id": "qlforge/b"}),
                    result("Z.java", ruleId="someone/else"),
                ]
            }
        ]
    }
    with caplog.at_level("WARNING", logger="qlforge.codeql"):
        split = _split_sarif(sarif, {"qlforge/a": "a", "qlforge/b": "b", "qlforge/c": "c"})
    assert {pid: [f["file"] for f in rows] for pid, rows in split.items()} == {
        "a": ["A.java"],
        "b": ["B.java"],
        "c": [],
    }
    assert "someone/else" in caplog.text


# ---------------------------------------------------------------------------
# Backend via stub binaries
# ---------------------------------------------------------------------------


def test_enumerate_calls_via_stub(tmp_path):
    project = tmp_path / "proj"
    project.mkdir()
    (project / "App.java").write_text(
        "package demo;\nclass App {\n  void go(Req r) { r.getParameter(\"q\"); }\n}\n"
    )
    rows = {
        "#select": {
            "tuples": [
                [
                    "javax.servlet.http",
                    "HttpServletRequest",
                    "getParameter",
                    "(String)",
                    "String",
                    "App.java",
                    3,
                ]
            ]
        }
    }
    binary = fake_codeql(
        tmp_path,
        f"""\
        cmd="$1 $2"
        if [ "$cmd" = "database create" ]; then mkdir -p "$3"; exit 0; fi
        if [ "$cmd" = "query run" ]; then
          for a in "$@"; do case "$a" in --output=*) : > "${{a#--output=}}";; esac; done
          exit 0
        fi
        if [ "$cmd" = "bqrs decode" ]; then printf '%s' '{json.dumps(rows)}'; exit 0; fi
        exit 1
        """,
    )
    records = CodeQLBackend(binary=binary).enumerate_calls(project)
    assert len(records) == 1
    record = records[0]
    assert record.package == "javax.servlet.http"
    assert record.method == "getParameter"
    assert [(p.name, p.type) for p in record.params] == [("arg0", "String")]
    assert record.return_type == "String"
    assert record.first_seen.file == "App.java"
    assert record.first_seen.line == 3
    assert "getParameter" in record.snippet  # pulled from the real source file


def test_rows_to_records_reads_each_source_file_once(tmp_path, monkeypatch):
    source = [f"line {n}" for n in range(1, 41)]
    (tmp_path / "App.java").write_text("\n".join(source) + "\n")
    lines = (1, 5, 20, 33, 40)
    rows = [["p", "T", f"m{i}", "(String)", "void", "App.java", n] for i, n in enumerate(lines)]
    rows.append(["p", "T", "gone", "()", "void", "Gone.java", 3])
    reads = []
    real_read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(self.name)
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    decoded = json.dumps({"#select": {"tuples": rows}})
    records = codeql._rows_to_records(decoded, tmp_path)
    assert sorted(reads) == ["App.java", "Gone.java"]
    # Reference: each snippet is the ten lines before its call site, the
    # call's line and the nine after it.
    expected = [
        make_record(
            package="p", type_name="T", method=f"m{i}", params=[("arg0", "String")],
            return_type="void", annotations=[],
            snippet=clamp_snippet("\n".join(source[max(0, n - 11): n + 9])),
            first_seen=SourceLocation("App.java", n),
        )
        for i, n in enumerate(lines)
    ]
    expected.append(
        make_record(
            package="p", type_name="T", method="gone", params=[], return_type="void",
            annotations=[], snippet="", first_seen=SourceLocation("Gone.java", 3),
        )
    )
    assert records == sorted(expected, key=lambda r: (r.id, r.first_seen.file, r.first_seen.line))


def test_rows_to_records_windows_snippets_as_the_fixture_backend_does(tmp_path):
    source = [f"line {n}" for n in range(1, 41)]
    (tmp_path / "App.java").write_text("\n".join(source) + "\n")
    rows = [["p", "T", f"m{n}", "()", "void", "App.java", n] for n in (3, 15)]
    records = codeql._rows_to_records(
        json.dumps({"#select": {"tuples": rows}}), tmp_path
    )
    windows = {r.first_seen.line: r.snippet.splitlines() for r in records}
    assert windows == {3: source[0:12], 15: source[4:24]}  # lines 1-12 and 5-24


_ROW = ["p", "T", "m", "(String)", "void", "App.java", 3]


@pytest.mark.parametrize(
    "decoded, message",
    [
        ("not json {", "no readable JSON"),
        (json.dumps([_ROW]), "no '#select' tuples list"),
        (json.dumps({"#select": {"tuples": [_ROW[:6]]}}), "mis-shaped row"),
        (json.dumps({"#select": {"tuples": [_ROW[:6] + ["x"]]}}), "mis-shaped row"),
    ],
    ids=["not-json", "json-list", "short-row", "non-integer-line"],
)
def test_rows_to_records_of_mis_shaped_output_is_unavailable(tmp_path, decoded, message):
    with pytest.raises(BackendUnavailable, match=message):
        codeql._rows_to_records(decoded, tmp_path)


def test_enumerate_calls_timeout_raises_unavailable(tmp_path):
    binary = fake_codeql(tmp_path, "exec sleep 5\n")
    with pytest.raises(BackendUnavailable, match="database create exceeded"):
        CodeQLBackend(binary=binary, timeout_s=0.2).enumerate_calls(tmp_path)


def test_enumerate_calls_database_failure(tmp_path):
    binary = fake_codeql(tmp_path, "echo 'extractor crashed' >&2\nexit 1\n")
    with pytest.raises(BackendUnavailable, match="database create failed"):
        CodeQLBackend(binary=binary).enumerate_calls(tmp_path)


def test_sarif_results_edge_cases():
    sarif = {
        "runs": [
            {
                "results": [
                    {"locations": [{"physicalLocation": {"region": {}}}]},
                    {
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {"uri": "F.java"},
                                    "region": {"startLine": 4},
                                }
                            }
                        ]
                    },
                ]
            }
        ]
    }
    results = list(_sarif_results(sarif))
    # No startLine means no finding; endLine defaults to startLine.
    assert results == [(None, {"file": "F.java", "start_line": 4, "end_line": 4, "message": ""})]
    assert list(_sarif_results({})) == []


_SARIF_KEYS = st.sampled_from(
    ["runs", "results", "ruleId", "rule", "id", "locations", "physicalLocation", "region",
     "startLine", "endLine", "artifactLocation", "uri", "message", "text"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(["qlforge/a", "7"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_SARIF_KEYS, children, max_size=4),
    max_leaves=16,
)
# SARIF's own nesting, where each field holds either a value of its type or a leaf
# of any type: arbitrary JSON seldom nests deep enough to reach a location.
_LEAF = st.none() | st.integers() | st.floats() | st.text(max_size=3)


def _field(valid):
    return st.one_of(valid, _LEAF)


_SARIF = st.fixed_dictionaries({"runs": st.lists(st.fixed_dictionaries({"results": st.lists(
    st.fixed_dictionaries({
        "ruleId": _field(st.just("qlforge/a")),
        "message": st.fixed_dictionaries({"text": _field(st.text(max_size=3))}),
        "locations": st.lists(st.fixed_dictionaries({"physicalLocation": st.fixed_dictionaries({
            "artifactLocation": st.fixed_dictionaries({"uri": _field(st.text(max_size=5))}),
            "region": st.fixed_dictionaries({
                "startLine": _field(st.integers(0, 99)), "endLine": _field(st.integers(0, 99))
            }),
        })}), max_size=2),
    }), max_size=3)}), max_size=2)})


def _sarif_with_region(region):
    return {"runs": [{"results": [{"ruleId": "qlforge/a", "locations": [
        {"physicalLocation": {"artifactLocation": {"uri": "A.java"}, "region": region}}
    ]}]}]}


@pytest.mark.parametrize(
    "region", [{"startLine": 2.5, "endLine": 3}, {"startLine": 2, "endLine": True}]
)
def test_split_sarif_refuses_a_line_number_that_is_not_an_integer(region):
    # int() would truncate 2.5 to 2 and read true as line 1.
    with pytest.raises(ExecutionFailed, match="no readable SARIF"):
        _split_sarif(_sarif_with_region(region), {"qlforge/a": "a"})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sarif=_JSON | _SARIF)
@example(sarif=[])
@example(sarif={"runs": "x"})
@example(sarif={"runs": [None]})
@example(sarif={"runs": [{"results": [None]}]})
@example(sarif={"runs": [{"results": [{"locations": [
    {"physicalLocation": {"region": {"startLine": "x"}}}
]}]}]})
@example(sarif=_sarif_with_region({"startLine": 2.5, "endLine": 3}))
@example(sarif=_sarif_with_region({"startLine": 2, "endLine": True}))
def test_split_sarif_returns_findings_or_raises_execution_failed(sarif):
    try:
        split = _split_sarif(sarif, {"qlforge/a": "a"})
    except ExecutionFailed as exc:
        assert "no readable SARIF" in str(exc)
        return
    assert list(split) == ["a"]
    for finding in split["a"]:
        assert isinstance(finding["file"], str) and isinstance(finding["message"], str)
        assert isinstance(finding["start_line"], int) and isinstance(finding["end_line"], int)


_RULE_PIECES = st.sampled_from(
    ["/**", "*/", "/*", "//", "@id", "@id x", "@id-y", "@identifier", " ", "\n", "*", "select 1"]
)
_RULE_TEXT = st.one_of(st.text(), st.lists(_RULE_PIECES, max_size=12).map("".join))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rule=_RULE_TEXT)
@example(rule="/**\n * @id a\n * @id b\n */\nselect 1\n")
def test_stamp_rule_id_leaves_exactly_one_id_for_any_text(rule):
    stamped = stamp_rule_id(rule, "qlforge/p__q")
    block = codeql._LEADING_QLDOC_RE.match(stamped).group(1)
    assert re.findall(r"@id(?![\w-])[ \t]*(\S*?)(?=\*/|\s|$)", block) == ["qlforge/p__q"]

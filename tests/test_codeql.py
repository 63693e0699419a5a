import json
import os
import re
import stat
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlforge import codeql
from qlforge.codeql import (
    CodeQLBackend,
    CodeQLCompiler,
    _sarif_results,
    _split_sarif,
    parse_compile_diagnostics,
    resolve_binary,
    stamp_rule_id,
)
from qlforge.errors import BackendUnavailable, CompilerUnavailable
from qlforge.prompts import load_template
from qlforge.rulegen import CompileStatus
from tests.conftest import FakeAnalyzeCodeql


def _fake_codeql(tmp_path, body):
    script = tmp_path / "codeql"
    script.write_text("#!/bin/sh\n" + textwrap.dedent(body))
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


# ---------------------------------------------------------------------------
# Binary resolution
# ---------------------------------------------------------------------------


def test_resolve_prefers_explicit_path(monkeypatch):
    monkeypatch.setenv("QLFORGE_CODEQL", "/env/codeql")
    assert resolve_binary("/explicit/codeql") == "/explicit/codeql"


def test_resolve_falls_back_to_env(monkeypatch):
    monkeypatch.setenv("QLFORGE_CODEQL", "/env/codeql")
    assert resolve_binary(None) == "/env/codeql"


def test_resolve_falls_back_to_path_lookup(monkeypatch):
    monkeypatch.delenv("QLFORGE_CODEQL", raising=False)
    monkeypatch.setattr("qlforge.codeql.shutil.which", lambda name: "/usr/bin/codeql")
    assert resolve_binary(None) == "/usr/bin/codeql"


def test_resolve_returns_none_when_absent(monkeypatch):
    monkeypatch.delenv("QLFORGE_CODEQL", raising=False)
    monkeypatch.setattr("qlforge.codeql.shutil.which", lambda name: None)
    assert resolve_binary(None) is None


def test_missing_binary_raises_unavailable(monkeypatch):
    monkeypatch.delenv("QLFORGE_CODEQL", raising=False)
    monkeypatch.setattr("qlforge.codeql.shutil.which", lambda name: None)
    with pytest.raises(CompilerUnavailable):
        CodeQLCompiler().compile("p", "select 1")
    with pytest.raises(BackendUnavailable):
        CodeQLBackend().enumerate_calls(".")


def test_nonexistent_binary_path_raises_unavailable(tmp_path):
    compiler = CodeQLCompiler(binary=str(tmp_path / "no-such-codeql"))
    with pytest.raises(CompilerUnavailable):
        compiler.compile("p", "select 1")


# ---------------------------------------------------------------------------
# Diagnostics parsing
# ---------------------------------------------------------------------------


def test_parse_plain_diagnostic():
    diags = parse_compile_diagnostics("rule.ql:12:3: error: unresolved predicate foo\n")
    assert len(diags) == 1
    assert diags[0].file == "rule.ql"
    assert diags[0].line == 12
    assert diags[0].column == 3
    assert diags[0].severity == "error"
    assert diags[0].message == "unresolved predicate foo"


def test_parse_span_diagnostic():
    diags = parse_compile_diagnostics("rule.ql:4:1:6:20: warning: deprecated predicate\n")
    assert diags[0].line == 4
    assert diags[0].column == 1
    assert diags[0].severity == "warning"
    assert diags[0].message == "deprecated predicate"


def test_parse_skips_chatter():
    stderr = (
        "Compiling query.\n"
        "rule.ql:1:1: error: expected select\n"
        "1 query compiled with errors\n"
    )
    diags = parse_compile_diagnostics(stderr)
    assert [d.line for d in diags] == [1]


# ---------------------------------------------------------------------------
# Compiler via stub binaries
# ---------------------------------------------------------------------------


def test_compile_ok(tmp_path):
    binary = _fake_codeql(tmp_path, "exit 0\n")
    result = CodeQLCompiler(binary=binary).compile("p", "import java\nselect 1")
    assert result.status is CompileStatus.OK
    assert result.diagnostics == ()


def test_compile_error_with_parsed_diagnostics(tmp_path):
    binary = _fake_codeql(
        tmp_path,
        """\
        echo "rule.ql:3:5: error: unresolved type Expr" >&2
        exit 2
        """,
    )
    result = CodeQLCompiler(binary=binary).compile("p", "from Expr e select e")
    assert result.status is CompileStatus.ERROR
    assert result.diagnostics[0].line == 3
    assert "unresolved type Expr" in result.diagnostics[0].message


def test_compile_error_without_parseable_stderr(tmp_path):
    binary = _fake_codeql(tmp_path, "echo 'something went sideways' >&2\nexit 1\n")
    result = CodeQLCompiler(binary=binary).compile("p", "x")
    assert result.status is CompileStatus.ERROR
    assert result.diagnostics[0].message == "something went sideways"


def test_compile_timeout(tmp_path):
    binary = _fake_codeql(tmp_path, "sleep 5\n")
    result = CodeQLCompiler(binary=binary, timeout_s=0.2).compile("p", "x")
    assert result.status is CompileStatus.TIMEOUT
    assert "exceeded" in result.diagnostics[0].message


def test_execute_parses_sarif(tmp_path):
    sarif = {
        "runs": [
            {
                "results": [
                    {
                        "ruleId": "qlforge/p",
                        "message": {"text": "tainted flow"},
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
    binary = _fake_codeql(
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
    findings = CodeQLCompiler(binary=binary).execute({"p": "select 1"}, "somedb")["p"]
    assert findings == [
        {"file": "src/App.java", "start_line": 9, "end_line": 10, "message": "tainted flow"}
    ]


def test_execute_failure_raises(tmp_path):
    binary = _fake_codeql(tmp_path, "echo 'no such database' >&2\nexit 1\n")
    with pytest.raises(CompilerUnavailable):
        CodeQLCompiler(binary=binary).execute({"p": "select 1"}, "missing-db")


def test_execute_timeout_raises_unavailable(tmp_path):
    binary = _fake_codeql(tmp_path, "exec sleep 5\n")
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
    binary = _fake_codeql(
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


def test_enumerate_calls_timeout_raises_unavailable(tmp_path):
    binary = _fake_codeql(tmp_path, "exec sleep 5\n")
    with pytest.raises(BackendUnavailable, match="database create exceeded"):
        CodeQLBackend(binary=binary, timeout_s=0.2).enumerate_calls(tmp_path)


def test_enumerate_calls_database_failure(tmp_path):
    binary = _fake_codeql(tmp_path, "echo 'extractor crashed' >&2\nexit 1\n")
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stderr=st.one_of(st.text(), st.lists(st.sampled_from(
    ["rule.ql", ":", "12", "3", " error", " warning", " msg", "\n", "x:1:2:3:4:"]
), max_size=12).map("".join)))
def test_parse_compile_diagnostics_never_raises(stderr):
    for diagnostic in parse_compile_diagnostics(stderr):
        assert diagnostic.line >= 0 and diagnostic.column >= 0

import os
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlforge.errors import ConfigError
from qlforge.extract import (
    FilterConfig,
    FixtureBackend,
    _infer_arg_type,
    _split_args,
    dedupe,
    extract_apis,
    filter_risky,
)
from qlforge.records import clamp_snippet

ONE_CALL = "class C {\n  void f() {\n    out.println(1);\n  }\n}\n"


@pytest.fixture(scope="module")
def raw_records(fixture_dir):
    return extract_apis(fixture_dir / "demo_project", FixtureBackend())


def test_corpus_call_site_count(raw_records):
    # Hand count over the four fixture files: 4 + 8 + 4 + 6 invocations.
    assert len(raw_records) == 22


def test_filter_and_dedupe_counts(raw_records, corpus_records):
    kept = filter_risky(raw_records)
    # 22 sites minus setHeader, getRuntime, toString, size.
    assert len(kept) == 18
    assert len(corpus_records) == 16


def test_getparameter_survives_getter_deny(corpus_records):
    methods = {r.method for r in corpus_records}
    assert "getParameter" in methods
    assert "getSubmittedFileName" in methods
    assert "getRuntime" not in methods
    assert "setHeader" not in methods
    assert "toString" not in methods


def test_dedupe_keeps_earliest_location(raw_records):
    kept = dedupe(raw_records)
    get_param = [r for r in kept if r.method == "getParameter"]
    assert len(get_param) == 1
    # AdminTools sorts before the web/ files, so its call site wins.
    assert get_param[0].first_seen.file.endswith("AdminTools.java")
    assert get_param[0].first_seen.line == 8


def test_dedupe_idempotent(raw_records):
    once = dedupe(raw_records)
    assert dedupe(once) == once


def test_extraction_deterministic(fixture_dir):
    backend = FixtureBackend()
    a = extract_apis(fixture_dir / "demo_project", backend)
    b = extract_apis(fixture_dir / "demo_project", backend)
    assert a == b


def test_records_sorted_by_id(corpus_records):
    ids = [r.id for r in corpus_records]
    assert ids == sorted(ids)


def test_empty_project_warns_and_returns_empty(tmp_path, caplog):
    with caplog.at_level("WARNING"):
        records = extract_apis(tmp_path, FixtureBackend())
    assert records == []
    assert any("no API invocations" in m for m in caplog.messages)


def test_a_file_that_is_not_utf8_is_read_with_replacement_and_one_warning(tmp_path, caplog):
    legacy = tmp_path / "src" / "Legacy.java"
    legacy.parent.mkdir()
    legacy.write_bytes('class Legacy {\n  void f() {\n    out.println("café");\n  }\n}\n'.encode("latin-1"))
    with caplog.at_level("WARNING"):
        records = extract_apis(tmp_path, FixtureBackend())
    assert [r.method for r in records] == ["println"]
    assert 'out.println("caf\ufffd");' in records[0].snippet
    assert [m for m in caplog.messages if "Legacy.java" in m] == [
        "src/Legacy.java is not UTF-8 (byte 0xe9 at offset 48); "
        "reading it with undecodable bytes replaced"
    ]


def test_which_java_entries_are_scanned(tmp_path):
    for rel in ("a-b/X.java", "a/Y.java", ".gen/Z.java", "real/W.java", "U.JAVA"):
        path = tmp_path / rel
        path.parent.mkdir(exist_ok=True)
        path.write_text(ONE_CALL)
    (tmp_path / "linked").symlink_to(tmp_path / "real", target_is_directory=True)
    (tmp_path / "V.java").symlink_to(tmp_path / "real" / "W.java")
    records = FixtureBackend().enumerate_calls(tmp_path)
    # "a-b/X.java" sorts before "a/Y.java" as a string but after it by path
    # component; both are scanned either way.
    assert {r.first_seen.file for r in records} == {
        "a-b/X.java", "a/Y.java", ".gen/Z.java", "real/W.java", "V.java",
    }


def test_a_directory_named_like_a_java_file_is_walked_not_read(tmp_path, caplog):
    weird = tmp_path / "src" / "weird.java"
    weird.mkdir(parents=True)
    (weird / "Inner.java").write_text(ONE_CALL)
    with caplog.at_level("WARNING"):
        records = extract_apis(tmp_path, FixtureBackend())
    assert [r.first_seen.file for r in records] == ["src/weird.java/Inner.java"]
    assert caplog.messages == []


def test_a_java_file_that_cannot_be_opened_is_skipped_with_one_warning(tmp_path, caplog):
    (tmp_path / "A.java").write_text(ONE_CALL)
    (tmp_path / "dangling.java").symlink_to(tmp_path / "gone.java")
    with caplog.at_level("WARNING"):
        records = extract_apis(tmp_path, FixtureBackend())
    assert [r.first_seen.file for r in records] == ["A.java"]
    assert [m for m in caplog.messages if "dangling.java" in m] == [
        "dangling.java cannot be read (No such file or directory); skipping it"
    ]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_a_fifo_named_like_a_java_file_is_skipped_with_one_warning(tmp_path, caplog):
    (tmp_path / "A.java").write_text(ONE_CALL)
    without = extract_apis(tmp_path, FixtureBackend())
    os.mkfifo(tmp_path / "pipe.java")
    results = []
    scan = threading.Thread(
        target=lambda: results.append(extract_apis(tmp_path, FixtureBackend())), daemon=True
    )
    with caplog.at_level("WARNING"):
        scan.start()
        scan.join(timeout=5)
        hung = scan.is_alive()
        if hung:  # a writer lets the blocked open return, so the thread ends
            os.close(os.open(tmp_path / "pipe.java", os.O_WRONLY | os.O_NONBLOCK))
            scan.join(timeout=5)
    assert not hung, "opening the FIFO blocked the scan"
    assert results == [without] and len(without) == 1
    assert caplog.messages == ["pipe.java cannot be read (not a regular file); skipping it"]


# Filler lines hold no call and no line break; some are blank, and some are
# long enough that a 20-line window passes the snippet's character cap.
_FILLER = st.one_of(st.just(""), st.text(alphabet="abXY ;{}=\t", max_size=150))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    lines=st.lists(_FILLER, min_size=1, max_size=45),
    call_lines=st.sets(st.integers(min_value=1, max_value=45), min_size=1, max_size=6),
)
# The character cap falls just after a line break.
@example(lines=["a" * 1199, "", "b"], call_lines={3})
def test_each_snippet_is_the_clamped_window_around_its_call(lines, call_lines):
    lines = list(lines)
    calls = sorted(n for n in call_lines if n <= len(lines))
    if not calls:
        calls = [len(lines)]
    for n in calls:
        lines[n - 1] = f"    x.m{n}(1);"
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / "F.java").write_text("\n".join(lines) + "\n", encoding="utf-8")
        records = FixtureBackend().enumerate_calls(Path(root))
    assert [r.first_seen.line for r in records] == calls
    for record in records:
        n = record.first_seen.line
        window = "\n".join(lines[max(0, n - 11) : n + 9])
        # The scanner hands make_record the clamped window and make_record
        # clamps it again, so a window ending in blank lines loses two.
        assert record.snippet == clamp_snippet(clamp_snippet(window))


def test_receiver_and_package_resolution(corpus_records):
    by_method = {(r.type_name, r.method): r for r in corpus_records}
    exec_rec = by_method[("Runtime", "exec")]
    assert exec_rec.package == "java.lang"
    query_rec = by_method[("Statement", "executeQuery")]
    assert query_rec.package == "java.sql"
    assert query_rec.return_type == "ResultSet"
    assert [p.type for p in query_rec.params] == ["String"]
    forhtml = by_method[("Encode", "forHtml")]
    assert forhtml.package == "org.owasp.encoder"


def test_annotations_attached_to_enclosing_method(corpus_records):
    by_method = {(r.type_name, r.method): r for r in corpus_records}
    assert by_method[("Statement", "executeQuery")].annotations == ("Audited",)
    assert by_method[("Runtime", "exec")].annotations == ()


def test_unknown_types_recorded_not_guessed(corpus_records):
    by_method = {(r.type_name, r.method): r for r in corpus_records}
    write = by_method[("FileOutputStream", "write")]
    assert [p.type for p in write.params] == ["unknown", "int", "unknown"]
    assert write.return_type == "unknown"


def test_allow_overrides_deny_custom_rules(raw_records):
    config = FilterConfig(deny=(r"^get",), allow=(r"^getParameter$",))
    kept = filter_risky(raw_records, config)
    methods = {r.method for r in kept}
    assert "getParameter" in methods
    assert "getPart" not in methods
    assert "exec" in methods  # untouched by either list


def test_filter_preserves_input_order(raw_records):
    kept = filter_risky(raw_records)
    positions = {id(r): i for i, r in enumerate(raw_records)}
    assert [positions[id(r)] for r in kept] == sorted(positions[id(r)] for r in kept)


def test_invalid_filter_pattern_raises():
    with pytest.raises(ConfigError, match=r"filters\.deny: bad pattern '\*\*bad\('"):
        FilterConfig(deny=(r"**bad(",), allow=())
    with pytest.raises(ConfigError, match=r"filters\.allow: bad pattern '\['"):
        FilterConfig(allow=("[",))


def test_split_args_handles_nesting_and_strings():
    assert _split_args('a, b(c, d), "x,y")') == ["a", "b(c, d)", '"x,y"']
    assert _split_args(")") == []
    assert _split_args('"only")') == ['"only"']


def test_infer_arg_type():
    vars_ = {"name": "String", "count": "int"}
    assert _infer_arg_type('"literal"', vars_) == "String"
    assert _infer_arg_type("42", vars_) == "int"
    assert _infer_arg_type("-3.5", vars_) == "double"
    assert _infer_arg_type("true", vars_) == "boolean"
    assert _infer_arg_type("name", vars_) == "String"
    assert _infer_arg_type("mystery", vars_) == "unknown"

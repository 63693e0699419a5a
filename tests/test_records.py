import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlforge.records import (
    ApiParam,
    ApiRecord,
    SourceLocation,
    SPECS,
    clamp_snippet,
    encodable_only,
    make_record,
    record_lookup,
    signature_hash,
)
from tests.conftest import record_from_prompt_line, synthetic_records


def test_signature_hash_matches_reference_construction():
    # Reference oracle: sha256 over the pipe-joined signature, first 16 hex.
    key = "java.sql|Statement|executeQuery|String|ResultSet"
    expected = hashlib.sha256(key.encode()).hexdigest()[:16]
    assert signature_hash("java.sql", "Statement", "executeQuery", ["String"], "ResultSet") == expected
    assert len(expected) == 16
    assert all(c in "0123456789abcdef" for c in expected)


def test_signature_hash_ignores_param_names_and_location():
    a = make_record(
        "p", "T", "m", [("x", "String"), ("y", "int")], "void",
        first_seen=SourceLocation("a.java", 1),
    )
    b = make_record(
        "p", "T", "m", [("renamed", "String"), ("other", "int")], "void",
        first_seen=SourceLocation("deep/b.java", 999),
    )
    assert a.id == b.id


def test_signature_hash_sensitive_to_each_component():
    base = signature_hash("p", "T", "m", ["String"], "void")
    assert signature_hash("q", "T", "m", ["String"], "void") != base
    assert signature_hash("p", "U", "m", ["String"], "void") != base
    assert signature_hash("p", "T", "n", ["String"], "void") != base
    assert signature_hash("p", "T", "m", ["int"], "void") != base
    assert signature_hash("p", "T", "m", ["String"], "int") != base
    assert signature_hash("p", "T", "m", ["String", "String"], "void") != base


def test_param_order_matters():
    a = signature_hash("p", "T", "m", ["String", "int"], "void")
    b = signature_hash("p", "T", "m", ["int", "String"], "void")
    assert a != b


def test_clamp_snippet_bounds():
    long_text = "\n".join(f"line {i}" for i in range(100))
    clamped = clamp_snippet(long_text)
    assert len(clamped.splitlines()) == 20
    wide = "x" * 5000
    assert len(clamp_snippet(wide)) == 1200


def test_make_record_rejects_empty_method():
    with pytest.raises(ValueError):
        make_record("p", "T", "", [], "void")


def test_spec_document_field_names():
    record = make_record(
        "javax.servlet.http", "HttpServletRequest", "getParameter",
        [("arg0", "String")], "String",
        annotations=["Audited"], snippet="String name = request.getParameter(\"name\");",
        first_seen=SourceLocation("src/A.java", 15),
    )
    doc = json.loads(SPECS.dump([record]))
    assert doc["version"] == 1
    entry = doc["apis"][0]
    assert set(entry) == {
        "id", "package", "type_name", "method", "params",
        "return_type", "annotations", "snippet", "first_seen",
    }
    assert entry["params"] == [{"name": "arg0", "type": "String"}]
    assert entry["first_seen"] == {"file": "src/A.java", "line": 15}


def test_encodable_only_drops_unencodable_record_with_warning(caplog):
    good = make_record("p", "T", "m", [], "void")
    bad = ApiRecord(
        id="deadbeefdeadbeef", package="p", type_name="T", method="broken",
        params=(), return_type="void", annotations=(),
        snippet="lone surrogate: \udcff", first_seen=SourceLocation("x.java", 1),
    )
    with caplog.at_level("WARNING"):
        assert encodable_only([good, bad]) == [good]
    assert caplog.messages == ["dropping record deadbeefdeadbeef: snippet not encodable as UTF-8"]


_TEXT = st.text(max_size=20)
_PARAM = st.builds(
    ApiParam,
    # A parameter name is a Java identifier: it never holds a space.
    name=st.text(st.characters(blacklist_characters=" "), max_size=8),
    type=st.text(max_size=20) | st.sampled_from(["Map<String, Integer>", "int[]", "a b, c"]),
)
_RECORD = st.builds(
    ApiRecord,
    id=_TEXT,
    package=_TEXT,
    type_name=_TEXT | st.just("Outer.Inner"),
    method=_TEXT,
    params=st.lists(_PARAM, max_size=4).map(tuple),
    return_type=_TEXT,
    annotations=st.lists(_TEXT, max_size=3).map(tuple),
    snippet=st.text(max_size=80),
    first_seen=st.builds(
        SourceLocation,
        file=_TEXT | st.sampled_from(["C:\\src\\A.java", "a:1:b.java", ":"]),
        line=st.integers(-5, 10**6),
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(record=_RECORD)
@example(
    record=make_record(
        "java.util", "Map.Entry", "put", [("arg0", "Map<String, Integer>"), ("arg1", "int")], "V",
        annotations=["Audited", "Deprecated"], snippet='naïve — 日本 "quoted"\n\tnext',
        first_seen=SourceLocation("C:\\work\\src:odd/A.java", 12),
    )
)
@example(record=make_record("p", "T", "m", [], "void"))
def test_prompt_text_reads_back_every_field(record):
    line = record.prompt_text
    assert "\n" not in line
    assert record_from_prompt_line(line) == record
    assert record.prompt_text is line  # built once, then cached


def test_parse_rejects_unknown_version():
    with pytest.raises(ValueError):
        SPECS.parse(json.dumps({"version": 2, "apis": []}))


def test_record_lookup():
    records = synthetic_records(5, random.Random(3))
    lookup = record_lookup(records)
    assert set(lookup) == {r.id for r in records}
    assert lookup[records[0].id] is records[0]

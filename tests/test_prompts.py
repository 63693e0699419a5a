import hashlib
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlforge.classify import ContextGroup, build_classification_prompt
from qlforge.errors import TemplateError
from qlforge.pairing import build_pairing_prompt
from qlforge.prompts import (
    handle_names,
    handles,
    load_template,
    render_template,
    with_handle,
)
from qlforge.records import SourceLocation, make_record, record_lookup
from tests.conftest import record_from_prompt_line


def test_render_fills_placeholders():
    assert render_template("a {X} b {Y}", {"X": "1", "Y": "2"}) == "a 1 b 2"


def test_render_missing_placeholder_lists_names():
    with pytest.raises(TemplateError) as err:
        render_template("{ALPHA} {BETA}", {"ALPHA": "x"})
    assert "BETA" in str(err.value)


def test_render_single_pass_never_rescans_values():
    # A value containing something placeholder-shaped must stay literal.
    out = render_template("{X}", {"X": "{Y} stays", "Y": "BOOM"})
    assert out == "{Y} stays"


def test_lowercase_braces_are_not_placeholders():
    assert render_template("json {like} this", {}) == "json {like} this"


def test_templates_ship_with_package():
    for name in (
        "classify_prompt.txt",
        "pair_prompt.txt",
        "write_prompt.txt",
        "repair_prompt.txt",
        "rule_skeleton.ql",
        "extract_calls.ql",
    ):
        assert load_template(name).strip()


def test_repair_template_is_advice_only():
    text = load_template("repair_prompt.txt")
    assert "Do not output a corrected file" in text


def test_handles_number_from_one():
    assert handles("a", 3) == ["a1", "a2", "a3"]
    assert handles("s", 0) == []
    # Classify names its members by line number alone.
    assert handles("", 3) == ["1", "2", "3"]
    assert handle_names(["x", "y"], "") == {"x": "x", "y": "y", "1": "x", "2": "y"}


def test_handle_names_map_handles_and_full_ids_and_handles_win():
    assert handle_names(["x", "y"], "a") == {"x": "x", "y": "y", "a1": "x", "a2": "y"}
    assert handle_names(["a2", "y"], "a") == {"a2": "y", "y": "y", "a1": "a2"}


_RECORD = make_record("com.x", "T", "m", [("p", "String")], "void", ["A"], 'say "hi"\n')


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rid=st.text(), handle=st.sampled_from(["a1", "s12", "z300"]))
@example(rid='"\\\u2028\x00é', handle="a1")
def test_with_handle_replaces_only_the_id_for_any_id(rid, handle):
    record = replace(_RECORD, id=rid)
    line = with_handle(record, handle)
    assert record_from_prompt_line(line) == replace(record, id=handle)
    assert line.endswith(record.prompt_text[record.prompt_text.index(',"package"'):])


_PINNED_PAIR = [
    make_record("com.x", "Req", "param", [("name", "String")], "String", ["Api"], "return q.get(name);"),
    make_record(
        "com.y", "Db", "exec", [("sql", "String"), ("n", "int")], "void",
        snippet="s.run(sql);\n", first_seen=SourceLocation("src/Db.java", 12),
    ),
]

# sha256 of the prompts whose fixed text comes from a template: a change to any
# byte of that text, or to how the varying parts are filled in, moves a digest.
PROMPT_DIGESTS = {
    "classify, no members": "1b7dcd59a58a8a8e787473e24918b506fc09782b90cccc99539168fc1bcf656a",
    "classify, two members": "99ce9a8cc626e6f0031c2c97bef22befa7d09296785b8cf13d52bccf2bbfbcfa",
    "pairing, no candidates": "d6553f362c550fd67cc123ff1b27a1fd3e7abdcec391f7adc0cd711bfdd7ebca",
}


def test_prompt_bytes_are_pinned():
    group = ContextGroup(0, "r0g0", tuple(r.id for r in _PINNED_PAIR), 0)
    texts = {
        "classify, no members": build_classification_prompt(ContextGroup(0, "r0g0", (), 0), {}),
        "classify, two members": build_classification_prompt(group, record_lookup(_PINNED_PAIR)),
        "pairing, no candidates": build_pairing_prompt([], [], [], {}),
    }
    digests = {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in texts.items()}
    assert digests == PROMPT_DIGESTS

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlforge.errors import TemplateError
from qlforge.prompts import (
    handle_names,
    handles,
    load_catalog,
    load_template,
    render_template,
    with_handle,
)
from qlforge.records import make_record
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


def test_catalog_counts():
    catalog = load_catalog()
    assert len(catalog["sink_characteristics"]) == 9
    assert len(catalog["source_heuristics"]) == 8
    assert len(catalog["sanitizer_criteria"]) == 3


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

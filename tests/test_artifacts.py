import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlforge.artifacts import dump_json, read_text, write_json, write_text
from qlforge.classify import load_votes
from qlforge.errors import ArtifactCorrupt, UnwritableOutput
from qlforge.pairing import SourceSinkPair, load_pairs, save_pairs
from qlforge.records import load_spec_document
from qlforge.rulegen import load_findings

LOADERS = [
    (load_spec_document, "apis"),
    (load_votes, "votes"),
    (load_pairs, "pairs"),
    (load_findings, "findings"),
]

CORRUPTIONS = [
    ('{"version": 1, "ap', "not valid JSON"),
    ("[1, 2]", "expected a JSON object"),
    ('{"version": 99}', "unsupported document version: 99"),
]


@pytest.mark.parametrize("loader, key", LOADERS)
@pytest.mark.parametrize("text, message", CORRUPTIONS)
def test_loaders_name_the_corrupt_file(tmp_path, loader, key, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ArtifactCorrupt, match=message) as err:
        loader(path)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("loader, key", LOADERS)
def test_loaders_reject_malformed_entries(tmp_path, loader, key):
    path = tmp_path / "doc.json"
    for entries in ([{}], [7], None):
        path.write_text(json.dumps({"version": 1, key: entries}))
        with pytest.raises(ArtifactCorrupt, match=f"{path}: malformed '{key}' entry"):
            loader(path)


def test_write_text_wraps_oserror(tmp_path):
    target = tmp_path / "missing" / "deeper" / "out.json"
    with pytest.raises(UnwritableOutput):
        write_text(target, "{}")
    ok = tmp_path / "out.json"
    write_text(ok, "hello")
    assert ok.read_text() == "hello"


def test_write_text_keeps_the_old_file_when_the_rename_fails(tmp_path, monkeypatch):
    target = tmp_path / "votes.json"
    target.write_bytes(b'{"version": 1, "votes": []}\n')

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(UnwritableOutput, match=f"cannot write {target}"):
        write_text(target, "new text")
    assert target.read_bytes() == b'{"version": 1, "votes": []}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["votes.json"]


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)
_DOCUMENT = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_DOCUMENT)
def test_write_json_writes_exactly_dump_json_bytes(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == dump_json(doc).encode("utf-8")


def test_write_json_failing_midstream_keeps_the_old_file(tmp_path):
    path = tmp_path / "pairs.json"
    path.write_bytes(b'{"version": 1, "pairs": []}\n')
    pairs = [
        SourceSinkPair(f"p{i}", f"src{i}", f"snk{i}", "xss", rationale="fine " * 50)
        for i in range(200)
    ]
    pairs[150] = SourceSinkPair("p150", "src150", "snk150", "xss", rationale="lone \ud800")
    with pytest.raises(UnwritableOutput, match=f"cannot write {path}: .*surrogate"):
        save_pairs(pairs, path)
    assert path.read_bytes() == b'{"version": 1, "pairs": []}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.json"]


def test_read_text_names_a_missing_or_undecodable_file(tmp_path):
    path = tmp_path / "rule.ql"
    with pytest.raises(ArtifactCorrupt, match=f"{path}: cannot read: No such file"):
        read_text(path)
    path.write_bytes(b"\xff\xfe select")
    with pytest.raises(ArtifactCorrupt, match=f"{path}: cannot read: 'utf-8' codec"):
        read_text(path)

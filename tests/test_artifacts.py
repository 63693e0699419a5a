import json
import os

import pytest

from qlforge.artifacts import read_text, write_text
from qlforge.classify import load_votes
from qlforge.errors import ArtifactCorrupt, UnwritableOutput
from qlforge.pairing import load_pairs
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


def test_read_text_names_a_missing_or_undecodable_file(tmp_path):
    path = tmp_path / "rule.ql"
    with pytest.raises(ArtifactCorrupt, match=f"{path}: cannot read: No such file"):
        read_text(path)
    path.write_bytes(b"\xff\xfe select")
    with pytest.raises(ArtifactCorrupt, match=f"{path}: cannot read: 'utf-8' codec"):
        read_text(path)

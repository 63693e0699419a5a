import json

import pytest

from qlforge.classify import load_votes
from qlforge.errors import ArtifactCorrupt
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

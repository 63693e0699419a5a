import copy
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlforge.artifacts import dump_json, read_text, write_json, write_text
from qlforge.classify import Ballot, TaintLabel, VoteRecord, dump_votes, load_votes
from qlforge.errors import ArtifactCorrupt, ConfigError, UnwritableOutput
from qlforge.gateway import LlmResponse, TranscriptStore, simple_request
from qlforge.metrics import Metrics, load_manifest
from qlforge.pairing import SourceSinkPair, dump_pairs, load_pairs, save_pairs
from qlforge.records import dump_spec_document, load_spec_document, make_record
from qlforge.report import PipelineReport, StageSummary, dump_report, load_report
from qlforge.rulegen import Finding, dump_findings, load_findings
from tests.conftest import FIXTURES

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


# One valid document per loader: each example reads a document as every
# loader, so each loader also meets the others' documents.
_VALID_DOCUMENTS = [
    json.loads(text)
    for text in (
        dump_spec_document(
            [make_record("com.x", "T", "m", [("p", "String")], "void", ["A"], "s();")]
        ),
        dump_votes(
            [VoteRecord("a", (Ballot(0, "r0g0", TaintLabel.SINK, 1),), TaintLabel.SINK, False)]
        ),
        dump_pairs([SourceSinkPair("a__b", "a", "b", "xss", "r", "high", ("c",))]),
        dump_findings([Finding("a__b", "xss", "A.java", 3, 4, "m")]),
        dump_report(
            PipelineReport(
                "p", "fixture", "mock", (StageSummary("extract", "ok"),), {"pairs": 1},
                Metrics(1, 1, 0, 100.0, 1, 1, 100.0, ("v",), ()), ("w",),
            )
        ),
        (FIXTURES / "manifest.json").read_text(encoding="utf-8"),
    )
]
_ARTIFACT_LOADERS = (
    load_spec_document, load_votes, load_pairs, load_findings, load_report, load_manifest
)
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, (*prefix, key))


def _replaced(doc, path, value):
    """``doc`` with the value at ``path`` replaced, or removed when ``value`` is ``_DROP``."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


_DROP = object()
_MUTATED_DOCUMENT = st.sampled_from(_VALID_DOCUMENTS).flatmap(
    lambda doc: st.builds(
        _replaced,
        st.just(doc),
        st.sampled_from(list(_paths(doc))[1:]),
        _JSON_VALUE | st.just(_DROP),
    )
).map(lambda doc: json.dumps(doc).encode())
_ARTIFACT_BYTES = st.one_of(
    st.binary(max_size=64),
    _MUTATED_DOCUMENT,
    st.builds(lambda data, cut: data[:cut], _MUTATED_DOCUMENT, st.integers(0, 400)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=_ARTIFACT_BYTES)
@example(data=b"[" * 100_000)
@example(data=b'{"version": 1, "apis": ' + b"[" * 100_000)
@example(data=b'\xef\xbb\xbf{"version": 1}')
def test_artifact_loaders_raise_only_typed_errors_for_any_bytes(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "artifact.json"
    path.write_bytes(data)
    for loader in _ARTIFACT_LOADERS:
        try:
            loader(path)
        except (ConfigError, ArtifactCorrupt) as exc:
            assert str(path) in str(exc)


def _transcript_bytes(path) -> bytes:
    store = TranscriptStore(path)
    for stage, text in (("classify", "a1: Sink"), ("pair", "NO_PAIRS — é"), ("pair", "∅")):
        store.append(simple_request(stage, "m", f"prompt for {stage} ✓"), LlmResponse(text=text))
    return path.read_bytes()


def test_transcript_cut_at_every_offset_continues_numbering(tmp_path):
    data = _transcript_bytes(tmp_path / "whole.jsonl")
    path = tmp_path / "cut.jsonl"
    for offset in range(len(data) + 1):
        path.write_bytes(data[:offset])
        complete = data[:offset].count(b"\n")
        next_seq = TranscriptStore(path).append(
            simple_request("pair", "m", "again"), LlmResponse(text="NO_PAIRS")
        )
        assert next_seq == complete + 1, offset
        lines = path.read_bytes().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == list(range(1, complete + 2))


_TRANSCRIPT_LINE = st.one_of(
    _JSON_VALUE.map(json.dumps),
    _JSON_VALUE.map(lambda seq: json.dumps({"seq": seq})),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.one_of(
    st.binary(max_size=64),
    st.lists(_TRANSCRIPT_LINE, max_size=3).map(lambda lines: "\n".join(lines).encode()),
))
@example(data=b"[" * 100_000 + b"\n")
@example(data=b'{"seq": true}\n{"seq": 1.5}\n')
def test_transcript_of_any_bytes_continues_numbering_or_is_corrupt(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "transcript.jsonl"
    path.write_bytes(data)
    try:
        store = TranscriptStore(path)
    except ArtifactCorrupt as exc:
        assert str(path) in str(exc)
        return
    seq = store.append(simple_request("pair", "m", "p"), LlmResponse(text="NO_PAIRS"))
    assert isinstance(seq, int) and not isinstance(seq, bool) and seq >= 1

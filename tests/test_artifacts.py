import copy
import dataclasses
import json
import os
import random
import re
import types
from enum import Enum
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qlforge.pipeline  # noqa: F401  (so JsonDataclass.__subclasses__() lists every class)
from qlforge.artifacts import Document, JsonDataclass, dump_json, read_text, write_json, write_text
from qlforge.classify import VOTES, Ballot, TaintLabel, VoteRecord, save_votes
from qlforge.errors import ArtifactCorrupt, ConfigError, UnwritableOutput
from qlforge.extract import FilterConfig
from qlforge.gateway import LlmRequest, LlmResponse, TranscriptStore
from qlforge.metrics import MANIFEST, ManifestEntry, Metrics, load_manifest
from qlforge.pairing import PAIRS, SourceSinkPair
from qlforge.records import SPECS, ApiRecord, make_record
from qlforge.report import PipelineReport, StageSummary, dump_report, load_report
from qlforge.rulegen import (
    FINDINGS,
    ArtifactStatus,
    Finding,
    RuleArtifact,
    load_rule_artifacts,
)
from tests.conftest import FIXTURES, synthetic_records

# Each id names the document's loader as load_<document>.
LOADERS = [
    pytest.param(SPECS.load, "apis", id="load_spec_document-apis"),
    pytest.param(VOTES.load, "votes", id="load_votes-votes"),
    pytest.param(PAIRS.load, "pairs", id="load_pairs-pairs"),
    pytest.param(FINDINGS.load, "findings", id="load_findings-findings"),
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


# Per document key: one field of a fully-formed entry and a value of the wrong type.
_WRONG_TYPED_FIELDS = {
    "apis": ("id", 5),
    "votes": ("tie", 0),
    "pairs": ("pair_id", 5),
    "findings": ("start_line", "3"),
}


@pytest.mark.parametrize("loader, key", LOADERS)
def test_loaders_reject_malformed_entries(tmp_path, loader, key):
    path = tmp_path / "doc.json"
    (entry,) = next(doc[key] for doc in _VALID_DOCUMENTS if key in doc)
    name, value = _WRONG_TYPED_FIELDS[key]
    for entries in ([{}], [7], None, [{**entry, name: value}]):
        path.write_text(json.dumps({"version": 1, key: entries}))
        with pytest.raises(ArtifactCorrupt, match=f"{path}: malformed '{key}' entry"):
            loader(path)


def _rule_store(base, status: dict):
    """A rules directory holding one pair whose ``status.json`` is ``status``; that file's path."""
    rules = base / "rules"
    (rules / "p").mkdir(parents=True, exist_ok=True)
    (rules / "index.json").write_text(json.dumps({"version": 1, "rules": [{"pair_id": "p"}]}))
    (rules / "p" / "rule.ql").write_text("select 1")
    path = rules / "p" / "status.json"
    path.write_text(json.dumps(status))
    return path


def test_report_status_and_manifest_loaders_reject_a_wrong_typed_field(tmp_path):
    path = tmp_path / "report.json"
    report = next(doc for doc in _VALID_DOCUMENTS if "counts" in doc)
    path.write_text(json.dumps({**report, "counts": {"pairs": "1"}}))
    with pytest.raises(ArtifactCorrupt, match=f"{path}: malformed 'report' entry"):
        load_report(path)

    artifact = RuleArtifact("p", "xss", ArtifactStatus.COMPILED, 2, "select 1")
    status = {**dataclasses.asdict(artifact), "attempts": "2"}
    path = _rule_store(tmp_path, status)
    with pytest.raises(ArtifactCorrupt, match=f"{path}: malformed 'status' entry"):
        load_rule_artifacts(tmp_path / "rules")

    manifest = json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))
    manifest["vulns"][0]["start_line"] = "18"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=f"{path}: malformed 'vulns' entry"):
        load_manifest(path)


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
        PAIRS.save(pairs, path)
    assert path.read_bytes() == b'{"version": 1, "pairs": []}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.json"]


def test_a_vote_that_cannot_be_encoded_fails_the_write_and_keeps_the_old_file(tmp_path):
    path = tmp_path / "votes.json"
    path.write_bytes(b'{"version": 1, "votes": []}\n')
    ballot = Ballot(0, "r0g0", TaintLabel.SINK, 1)
    votes = [VoteRecord(f"a{i:03}", (ballot,), TaintLabel.SINK, False) for i in range(200)]
    lone = Ballot(0, "lone \udc80", TaintLabel.SINK)
    votes[150] = VoteRecord("a150", (lone,), TaintLabel.SINK, False)
    with pytest.raises(UnwritableOutput, match=f"cannot write {path}: .*surrogate"):
        save_votes(votes, path)
    assert path.read_bytes() == b'{"version": 1, "votes": []}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["votes.json"]


_RECORDS = synthetic_records(25, random.Random(11))
_VOTES = [
    VoteRecord(
        "b", (Ballot(0, "r0g1", TaintLabel.SINK, 3), Ballot(1, "r1g0", TaintLabel.NONE, None, True)),
        TaintLabel.SINK, False,
    ),
    VoteRecord("a", (), TaintLabel.NONE, True),
]
_PAIRS = [
    SourceSinkPair("b__a", "b", "a", "sqli"),
    SourceSinkPair("a__c", "a", "c", "xss", "why", "high", ("s",)),
    SourceSinkPair("a__b", "a", "b", "xss"),
]
_FINDINGS = [
    Finding("c__d", "sqli", "G.java", 1, 1),
    Finding("a__b", "xss", "F.java", 3, 4, "tainted"),
    Finding("a__b", "xss", "F.java", 3, 3),
]
_VULNS = [ManifestEntry("v1", "A.java", 3, 9, "xss"), ManifestEntry("v0", "B.java", 1, 1)]
# Per document key: the document, the entries given and the entries it writes, in order.
_ROUND_TRIPS = {
    "apis": (SPECS, _RECORDS, _RECORDS),
    "votes": (VOTES, _VOTES, _VOTES[::-1]),
    "pairs": (PAIRS, _PAIRS, _PAIRS[::-1]),
    "findings": (FINDINGS, _FINDINGS, _FINDINGS[::-1]),
    "vulns": (MANIFEST, _VULNS, _VULNS),
}


@pytest.mark.parametrize("key", _ROUND_TRIPS)
def test_document_round_trip(tmp_path, key):
    document, entries, written = _ROUND_TRIPS[key]
    path = tmp_path / f"{key}.json"
    document.save(entries, path)
    assert document.load(path) == written
    text = path.read_text(encoding="utf-8")
    assert text == document.dump(entries)
    assert text == dump_json({"version": 1, key: [dataclasses.asdict(entry) for entry in written]})


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
        SPECS.dump([make_record("com.x", "T", "m", [("p", "String")], "void", ["A"], "s();")]),
        VOTES.dump(
            [VoteRecord("a", (Ballot(0, "r0g0", TaintLabel.SINK, 1),), TaintLabel.SINK, False)]
        ),
        PAIRS.dump([SourceSinkPair("a__b", "a", "b", "xss", "r", "high", ("c",))]),
        FINDINGS.dump([Finding("a__b", "xss", "A.java", 3, 4, "m")]),
        dump_report(
            PipelineReport(
                "p", "fixture", "mock", (StageSummary("extract", "ok"),), {"pairs": 1},
                Metrics(1, 1, 0, 100.0, 1, 1, 100.0, ("v",), ()), ("w",),
            )
        ),
        (FIXTURES / "manifest.json").read_text(encoding="utf-8"),
    )
]
_ARTIFACT_LOADERS = (SPECS.load, VOTES.load, PAIRS.load, FINDINGS.load, load_report, load_manifest)
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
        store.append(LlmRequest(stage, "m", f"prompt for {stage} ✓"), LlmResponse(text=text))
    return path.read_bytes()


def test_transcript_cut_at_every_offset_continues_numbering(tmp_path):
    data = _transcript_bytes(tmp_path / "whole.jsonl")
    path = tmp_path / "cut.jsonl"
    for offset in range(len(data) + 1):
        path.write_bytes(data[:offset])
        complete = data[:offset].count(b"\n")
        next_seq = TranscriptStore(path).append(
            LlmRequest("pair", "m", "again"), LlmResponse(text="NO_PAIRS")
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
    seq = store.append(LlmRequest("pair", "m", "p"), LlmResponse(text="NO_PAIRS"))
    assert isinstance(seq, int) and not isinstance(seq, bool) and seq >= 1


# ---------------------------------------------------------------------------
# The dataclass codec
# ---------------------------------------------------------------------------

CODEC_CLASSES = sorted(JsonDataclass.__subclasses__(), key=lambda cls: cls.__name__)


def _none_or(kind):
    """The non-None member of ``X | None``, or None when ``kind`` is not that union."""
    if get_origin(kind) in (Union, types.UnionType):
        (inner,) = [arg for arg in get_args(kind) if arg is not type(None)]
        return inner
    return None


_LEAVES = {
    str: st.text(max_size=5),
    int: st.integers(),
    bool: st.booleans(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
}


def _values(kind, leaves=_LEAVES):
    """Values of one field annotation the codec handles, with ``leaves`` per scalar kind."""
    if _none_or(kind) is not None:
        return st.none() | _values(_none_or(kind), leaves)
    if get_origin(kind) is tuple:
        return st.lists(_values(get_args(kind)[0], leaves), max_size=3).map(tuple)
    if get_origin(kind) is dict:
        return st.dictionaries(leaves[str], _values(get_args(kind)[1], leaves), max_size=3)
    if dataclasses.is_dataclass(kind):
        return _instances(kind, leaves)
    if isinstance(kind, type) and issubclass(kind, Enum):
        return st.sampled_from(kind)
    return leaves.get(kind, leaves[dict])


def _instances(cls, leaves=_LEAVES):
    hints = get_type_hints(cls)
    return st.builds(cls, **{
        f.name: _RESTRICTED[cls, f.name]
        if (cls, f.name) in _RESTRICTED
        else _values(hints[f.name], leaves)
        for f in dataclasses.fields(cls)
    })


# Fields whose values the class itself checks.
_RESTRICTED = {
    (FilterConfig, "deny"): st.lists(st.text(max_size=5).map(re.escape), max_size=3).map(tuple),
    (FilterConfig, "allow"): st.lists(st.text(max_size=5).map(re.escape), max_size=3).map(tuple),
}


@pytest.mark.parametrize("cls", CODEC_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_codec_round_trips_every_class_through_json(cls, data):
    value = data.draw(_instances(cls))
    assert cls.from_dict(json.loads(json.dumps(dataclasses.asdict(value)))) == value


# Text JSON must escape or may pass through: quotes, backslashes, control
# characters, U+2028, non-ASCII and lone surrogates.
_AWKWARD_TEXT = st.text(
    st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029é日\ud800\udfff'), max_size=8
)
_AWKWARD_LEAVES = {
    **_LEAVES,
    str: _AWKWARD_TEXT,
    int: st.integers() | st.sampled_from([-(2**70), 2**64]),
    float: st.floats() | st.sampled_from([-0.0, 1e300, 5e-324, float("nan"), float("-inf")]),
    dict: st.dictionaries(_AWKWARD_TEXT, _JSON_VALUE, max_size=3),
}


@pytest.mark.parametrize("cls", CODEC_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_document_is_written_as_json_dumps_writes_its_dicts(cls, data):
    entries = data.draw(st.lists(_instances(cls, _AWKWARD_LEAVES), max_size=3))
    expected = {"version": 3, "entries": [dataclasses.asdict(entry) for entry in entries]}
    assert Document(3, "entries", cls).dump(entries) == dump_json(expected)


def _json_kinds(kind) -> set:
    """The JSON value types the codec accepts for a field annotation."""
    if _none_or(kind) is not None:
        return {type(None)} | _json_kinds(_none_or(kind))
    if get_origin(kind) is tuple:
        return {list}
    if isinstance(kind, type) and issubclass(kind, Enum):
        return {str}
    return {str: {str}, int: {int}, bool: {bool}, float: {int, float}}.get(kind, {dict})


_JSON_OF_KIND = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(),
    str: st.text(max_size=3),
    list: st.lists(st.integers(), max_size=2),
    dict: st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}
_ENTRY_LOADERS = {
    ApiRecord: (SPECS.load, "apis"),
    VoteRecord: (VOTES.load, "votes"),
    SourceSinkPair: (PAIRS.load, "pairs"),
    Finding: (FINDINGS.load, "findings"),
    ManifestEntry: (load_manifest, "vulns"),
}


def _write_for_loader(base, cls, entry: dict):
    """Write ``entry`` where the loader of ``cls`` reads it; return that load and the file."""
    if cls is RuleArtifact:
        path = _rule_store(base, entry)
        return lambda: load_rule_artifacts(base / "rules"), path
    if cls is PipelineReport:
        path = base / "report.json"
        path.write_text(json.dumps({"version": 1, **entry}))
        return lambda: load_report(path), path
    loader, key = _ENTRY_LOADERS[cls]
    path = base / "doc.json"
    path.write_text(json.dumps({"version": 1, key: [entry]}))
    return lambda: loader(path), path


@pytest.mark.parametrize(
    "cls", [*_ENTRY_LOADERS, PipelineReport, RuleArtifact], ids=lambda cls: cls.__name__
)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_field_of_another_json_kind_is_corrupt_through_the_loader(tmp_path_factory, cls, data):
    hints = get_type_hints(cls)
    # rule.ql, not status.json, holds a rule's text.
    names = [f.name for f in dataclasses.fields(cls) if f.name != "rule_text"]
    name = data.draw(st.sampled_from(names))
    kinds = sorted(set(_JSON_OF_KIND) - _json_kinds(hints[name]), key=lambda kind: kind.__name__)
    wrong = data.draw(st.sampled_from(kinds).flatmap(_JSON_OF_KIND.get))
    base = tmp_path_factory.getbasetemp() / cls.__name__
    base.mkdir(exist_ok=True)
    entry = {**dataclasses.asdict(data.draw(_instances(cls))), name: wrong}
    load, path = _write_for_loader(base, cls, entry)
    with pytest.raises(ConfigError if cls is ManifestEntry else ArtifactCorrupt) as err:
        load()
    assert str(err.value).startswith(f"{path}: malformed")

import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlforge.classify import Ballot, TaintLabel, VoteRecord
from qlforge.errors import NothingToPair, RecordTooLarge, UnknownApiId, WhollyMalformed
from qlforge.gateway import LlmGateway, LlmResponse, estimate_tokens
from qlforge.pairing import (
    DEFAULT_BUDGET,
    PAIRS,
    build_pairing_prompt,
    make_pair_id,
    pair_all,
    parse_pair_lines,
    plan_tiles,
)
from qlforge.prompts import pack_greedy
from qlforge.records import SourceLocation, make_record, record_lookup
from tests.conftest import (
    CountingClient,
    StaticClient,
    record_from_pairing_line,
    scripted_client,
    synthetic_records,
)

SRC = {"src1", "src2"}
SNK = {"snk1", "snk2"}
SAN = {"san1"}


def _sized_records(kind: str, path_chars: list[int]):
    """One record per entry, its file path that many characters long, so costs vary.

    The path is part of the pairing line; the snippet is not.
    """
    return [
        make_record(
            package="com.tiles",
            type_name=kind.title(),
            method=f"{kind}{i:03d}",
            params=[],
            return_type="void",
            first_seen=SourceLocation("x" * chars, 1),
        )
        for i, chars in enumerate(path_chars)
    ]


_PATH_CHARS = st.lists(st.integers(0, 1200), min_size=1, max_size=12)


def _cost(lookup, rid):
    return estimate_tokens(lookup[rid].pairing_text + "\n")


def _score(tiles, lookup, frame):
    """K·Σsources + S·Σsinks + S·K·frame: the tokens a plan of S × K tiles sends."""
    return sum(frame + sum(_cost(lookup, rid) for rid in srcs + snks) for srcs, snks in tiles)


def _even_split_tiles(source_ids, sink_ids, lookup, room):
    """The plan the cost search replaced: each side packed into half of the room.

    A side that fits its half stays whole, and a member larger than its
    side's share borrows room from the other side.
    """
    sources, sinks = sorted(source_ids), sorted(sink_ids)
    costs = {rid: _cost(lookup, rid) for rid in sources + sinks}
    src_total = sum(costs[rid] for rid in sources)
    snk_total = sum(costs[rid] for rid in sinks)
    src_room = src_total if src_total + snk_total <= room else room // 2
    src_room = max(max(map(costs.get, sources)), min(src_room, room - max(map(costs.get, sinks))))
    return [
        (srcs, snks)
        for snks in pack_greedy(sinks, costs, room - src_room)
        for srcs in pack_greedy(sources, costs, src_room)
    ]


def _contiguous_partitions(ids):
    """Every split of ``ids`` into non-empty runs, in order."""
    for cuts in range(2 ** (len(ids) - 1)):
        groups, start = [], 0
        for i in range(1, len(ids)):
            if cuts >> (i - 1) & 1:
                groups.append(ids[start:i])
                start = i
        yield groups + [ids[start:]]


def _planned(source_chars, sink_chars, sanitizer_chars):
    """The ids of sized sources, sinks and sanitizers, their lookup and the frame."""
    sources = _sized_records("source", source_chars)
    sinks = _sized_records("sink", sink_chars)
    sanitizers = _sized_records("sanitizer", sanitizer_chars)
    lookup = record_lookup(sources + sinks + sanitizers)
    ids = [[r.id for r in side] for side in (sources, sinks, sanitizers)]
    frame = estimate_tokens(build_pairing_prompt([], [], ids[2], lookup))
    return ids, lookup, frame


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    source_chars=_PATH_CHARS,
    sink_chars=_PATH_CHARS,
    sanitizer_chars=st.lists(st.integers(0, 1200), max_size=3),
    room=st.integers(0, 2500),
)
# One source larger than half the room, which the even split made borrow
# room from the sinks.
@example(source_chars=[1200] + [0] * 10, sink_chars=[0] * 12, sanitizer_chars=[], room=500)
def test_tile_plan_covers_each_combination_once_within_budget(
    source_chars, sink_chars, sanitizer_chars, room
):
    (source_ids, sink_ids, sanitizer_ids), lookup, frame = _planned(
        source_chars, sink_chars, sanitizer_chars
    )
    budget = frame + room

    def cost(rid):
        return _cost(lookup, rid)

    if frame + max(map(cost, source_ids)) + max(map(cost, sink_ids)) > budget:
        with pytest.raises(RecordTooLarge):
            plan_tiles(source_ids, sink_ids, sanitizer_ids, lookup, budget)
        return
    tiles = plan_tiles(source_ids, sink_ids, sanitizer_ids, lookup, budget)
    covered = [(src, snk) for srcs, snks in tiles for src in srcs for snk in snks]
    assert sorted(covered) == sorted((src, snk) for src in source_ids for snk in sink_ids)
    for tile_sources, tile_sinks in tiles:
        prompt = build_pairing_prompt(tile_sources, tile_sinks, sanitizer_ids, lookup)
        assert estimate_tokens(prompt) <= budget
    # The same inputs, in any order, give the same tiles.
    again = plan_tiles(source_ids[::-1], sink_ids[::-1], sanitizer_ids[::-1], lookup, budget)
    assert again == tiles
    even_split = _even_split_tiles(source_ids, sink_ids, lookup, room)
    assert _score(tiles, lookup, frame) <= _score(even_split, lookup, frame)


_FEW_PATH_CHARS = st.lists(st.integers(0, 1200), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(source_chars=_FEW_PATH_CHARS, sink_chars=_FEW_PATH_CHARS, room=st.integers(200, 1500))
def test_tile_plan_score_is_the_least_of_all_contiguous_plans(source_chars, sink_chars, room):
    (source_ids, sink_ids, _), lookup, frame = _planned(source_chars, sink_chars, [])
    sources, sinks = sorted(source_ids), sorted(sink_ids)

    def largest(groups):
        return max(sum(_cost(lookup, rid) for rid in group) for group in groups)

    scores = [
        _score([(srcs, snks) for snks in sink_groups for srcs in source_groups], lookup, frame)
        for source_groups in _contiguous_partitions(sources)
        for sink_groups in _contiguous_partitions(sinks)
        if largest(source_groups) + largest(sink_groups) <= room
    ]
    if not scores:
        with pytest.raises(RecordTooLarge):
            plan_tiles(source_ids, sink_ids, [], lookup, frame + room)
        return
    tiles = plan_tiles(source_ids, sink_ids, [], lookup, frame + room)
    assert _score(tiles, lookup, frame) == min(scores)


def test_tile_plan_rejects_a_budget_too_small_for_one_source_and_one_sink():
    records = synthetic_records(3, random.Random(70))
    lookup = record_lookup(records)
    ids = sorted(r.id for r in records)
    frame = estimate_tokens(build_pairing_prompt([], [], [ids[2]], lookup))
    need = frame + sum(_cost(lookup, rid) for rid in ids[:2])
    assert plan_tiles([ids[0]], [ids[1]], [ids[2]], lookup, need) == [([ids[0]], [ids[1]])]
    with pytest.raises(RecordTooLarge, match=f"source {ids[0]} with sink {ids[1]}") as err:
        plan_tiles([ids[0]], [ids[1]], [ids[2]], lookup, need - 1)
    assert err.value.record_ids == (ids[0], ids[1])


def test_tile_plan_gives_the_sinks_the_room_the_sources_leave():
    sources = _sized_records("source", [40, 60])
    sinks = _sized_records("sink", [200] * 8)
    lookup = record_lookup(sources + sinks)
    source_ids = sorted(r.id for r in sources)
    sink_ids = sorted(r.id for r in sinks)
    frame = estimate_tokens(build_pairing_prompt([], [], [], lookup))
    sink_cost = _cost(lookup, sink_ids[0])
    source_total = sum(_cost(lookup, rid) for rid in source_ids)
    # The room holds six sinks. The two sources stay whole and leave room
    # for at least four sinks, so the eight sinks take two tiles of four;
    # the even split packed them into three, three and two.
    budget = frame + 6 * sink_cost
    assert source_total <= 2 * sink_cost
    tiles = plan_tiles(source_ids, sink_ids, [], lookup, budget)
    assert tiles == [(source_ids, sink_ids[:4]), (source_ids, sink_ids[4:])]
    assert len(_even_split_tiles(source_ids, sink_ids, lookup, 6 * sink_cost)) == 3


def test_tile_plan_balances_the_groups_instead_of_leaving_a_small_last_one():
    sources = _sized_records("source", [200] * 7)
    # "Sink"/"sink000" are four characters shorter than "Source"/"source000".
    sinks = _sized_records("sink", [204] * 7)
    lookup = record_lookup(sources + sinks)
    source_ids = sorted(r.id for r in sources)
    sink_ids = sorted(r.id for r in sinks)
    frame = estimate_tokens(build_pairing_prompt([], [], [], lookup))
    cost = _cost(lookup, source_ids[0])
    assert {_cost(lookup, rid) for rid in source_ids + sink_ids} == {cost}
    # The room holds six records. The even split packs each side into
    # three, three and one: 9 tiles. Two source groups of four and three
    # leave room for sink groups of two: 8 tiles, each side sent as often
    # as before. Four source groups by two sinks send the same tokens in
    # as many tiles; the tie goes to fewer source groups.
    budget = frame + 6 * cost
    tiles = plan_tiles(source_ids, sink_ids, [], lookup, budget)
    source_groups = [source_ids[:4], source_ids[4:]]
    sink_groups = [sink_ids[i : i + 2] for i in (0, 2, 4, 6)]
    assert tiles == [(srcs, snks) for snks in sink_groups for srcs in source_groups]
    even_split = _even_split_tiles(source_ids, sink_ids, lookup, 6 * cost)
    assert len(even_split) == 9
    assert _score(tiles, lookup, frame) == _score(even_split, lookup, frame) - frame


class _PromptLog:
    """Answers each prompt from ``replies``, else NO_PAIRS, and keeps every prompt."""

    def __init__(self, replies=None):
        self.replies = replies or {}
        self.prompts = []

    def send(self, request):
        prompt = request.prompt
        self.prompts.append(prompt)
        return LlmResponse(text=self.replies.get(prompt, "NO_PAIRS"))


def test_pair_all_sends_one_untiled_prompt_when_candidates_fit():
    records = synthetic_records(9, random.Random(71))
    ids = sorted(r.id for r in records)
    sources, sinks, sanitizers = ids[:3], ids[3:7], ids[7:]
    client = _PromptLog()
    votes = _votes(sources=sources, sinks=sinks, sanitizers=sanitizers)
    pair_all(votes, records, LlmGateway(client, model="m"))
    assert client.prompts == [
        build_pairing_prompt(sources, sinks, sanitizers, record_lookup(records))
    ]


def test_pair_line_full_form():
    line = (
        "PAIR: (src1, snk2) | CLASS: SQL Injection | RATIONALE: user input reaches "
        "a query | CONFIDENCE: high"
    )
    pairs = parse_pair_lines(line, SRC, SNK, SAN)
    assert len(pairs) == 1
    p = pairs[0]
    assert p.pair_id == make_pair_id("src1", "snk2") == "src1__snk2"
    assert p.vuln_class == "sql-injection"
    assert p.rationale == "user input reaches a query"
    assert p.confidence == "high"
    assert p.sanitizers == ()


def test_pair_line_minimal_form():
    pairs = parse_pair_lines("PAIR: (src2, snk1) | CLASS: xss", SRC, SNK, SAN)
    assert pairs[0].vuln_class == "xss"
    assert pairs[0].rationale == ""
    assert pairs[0].confidence == ""


def test_pair_line_sanitized_by():
    line = "PAIR: (src1, snk1) | CLASS: xss | RATIONALE: r | CONFIDENCE: low | SANITIZED_BY: san1"
    pairs = parse_pair_lines(line, SRC, SNK, SAN)
    assert pairs[0].sanitizers == ("san1",)


def test_pair_line_sanitizer_filtered_to_known_ids():
    line = "PAIR: (src1, snk1) | CLASS: xss | RATIONALE: r | CONFIDENCE: low | SANITIZED_BY: ghost, san1"
    pairs = parse_pair_lines(line, SRC, SNK, SAN)
    assert pairs[0].sanitizers == ("san1",)


def test_pair_line_names_candidates_by_handle():
    line = "PAIR: (s2, k1) | CLASS: xss | RATIONALE: r | CONFIDENCE: low | SANITIZED_BY: z1, z2"
    pairs = parse_pair_lines(line, SRC, SNK, SAN)
    assert [(p.source_id, p.sink_id, p.sanitizers) for p in pairs] == [
        ("src2", "snk1", ("san1",))
    ]
    # A handle is numbered within its own list: k1 is no source.
    assert parse_pair_lines("PAIR: (k1, s1) | CLASS: xss", SRC, SNK, SAN) == []


@pytest.mark.parametrize(
    "line",
    [
        "- PAIR: (s1, k1) | CLASS: xss | RATIONALE: r | CONFIDENCE: high",
        "1. PAIR: (s1, k1) | CLASS: xss",
        "`PAIR: (s1, k1) | CLASS: xss | RATIONALE: r | CONFIDENCE: high`",
        "**PAIR:** (**s1**, `k1`) | **CLASS:** `xss`",
        "2) __PAIR__: (src1, snk1) | CLASS: xss",
    ],
)
def test_pair_line_in_a_list_or_emphasis(line):
    pairs = parse_pair_lines(line, SRC, SNK, SAN)
    assert [(p.source_id, p.sink_id, p.vuln_class) for p in pairs] == [("src1", "snk1", "xss")]


def test_pair_decorated_sentinel_and_fields():
    assert parse_pair_lines("`NO_PAIRS`", SRC, SNK, SAN) == []
    line = "- PAIR: (s1, k1) | CLASS: xss | CONFIDENCE: **high** | SANITIZED_BY: `z1`"
    (pair,) = parse_pair_lines(line, SRC, SNK, SAN)
    assert (pair.confidence, pair.sanitizers) == ("high", ("san1",))
    for chatter in ("1. Consider every source first.", "- PAIR of candidates: none", "**Pairs:**"):
        with pytest.raises(WhollyMalformed):
            parse_pair_lines(chatter, SRC, SNK, SAN)


def test_pair_handle_wins_over_an_equal_full_id():
    # The first source's id is the second source's handle.
    sources = {"s2", "x"}
    pairs = parse_pair_lines(
        "PAIR: (s2, k1) | CLASS: xss\nPAIR: (s1, k1) | CLASS: sqli", sources, SNK, SAN
    )
    assert [(p.source_id, p.vuln_class) for p in pairs] == [("x", "xss"), ("s2", "sqli")]


def test_pair_unknown_ids_dropped_with_warning(caplog):
    text = "PAIR: (nobody, snk1) | CLASS: xss\nPAIR: (src1, stranger) | CLASS: xss\n"
    with caplog.at_level("WARNING"):
        pairs = parse_pair_lines(text, SRC, SNK, SAN)
    assert pairs == []
    assert "unknown id" in caplog.text


def test_pair_duplicates_first_wins():
    text = (
        "PAIR: (src1, snk1) | CLASS: xss | RATIONALE: first | CONFIDENCE: high\n"
        "PAIR: (src1, snk1) | CLASS: sqli | RATIONALE: second | CONFIDENCE: low\n"
    )
    pairs = parse_pair_lines(text, SRC, SNK, SAN)
    assert len(pairs) == 1
    assert pairs[0].rationale == "first"


def test_pair_ignores_chatter_and_sentinel():
    text = "Considering the candidates...\nNO_PAIRS\nnot a pair line either\n"
    assert parse_pair_lines(text, SRC, SNK, SAN) == []


def test_pair_wholly_malformed_raises():
    with pytest.raises(WhollyMalformed):
        parse_pair_lines("I could not decide on anything.", SRC, SNK, SAN)
    with pytest.raises(WhollyMalformed):
        parse_pair_lines("", SRC, SNK, SAN)
    # A recognizable pair line that fails validation is not wholly malformed.
    assert parse_pair_lines("PAIR: (ghost, snk1) | CLASS: xss", SRC, SNK, SAN) == []


def test_class_tag_normalization():
    pairs = parse_pair_lines(
        "PAIR: (src1, snk1) | CLASS:  Path   Traversal ", SRC, SNK, SAN
    )
    assert pairs[0].vuln_class == "path-traversal"


def _votes(sources=(), sinks=(), sanitizers=(), nones=()):
    def vote(api_id, label):
        ballots = tuple(Ballot(i, f"r{i}g0", label) for i in range(3))
        return VoteRecord(api_id, ballots, label, tie=False)

    votes = []
    votes += [vote(a, TaintLabel.SOURCE) for a in sources]
    votes += [vote(a, TaintLabel.SINK) for a in sinks]
    votes += [vote(a, TaintLabel.SANITIZER) for a in sanitizers]
    votes += [vote(a, TaintLabel.NONE) for a in nones]
    return votes


def _escaper(number: int, snippet_chars: int = 40):
    return make_record(
        package="com.acme",
        type_name=f"Esc{number}",
        method="html",
        params=[("s", "java.lang.String")],
        return_type="java.lang.String",
        snippet="x" * snippet_chars,
        first_seen=SourceLocation(f"src/com/acme/Esc{number}.java", 12),
    )


def test_prompt_contains_all_three_candidate_lists():
    records = synthetic_records(4, random.Random(31))
    sanitizers = [_escaper(2), _escaper(1)]
    lookup = record_lookup(records + sanitizers)
    ids = [r.id for r in records]
    sanitizer_ids = [r.id for r in sanitizers]
    text = build_pairing_prompt([ids[0]], [ids[2], ids[1]], sanitizer_ids, lookup)
    # Each list names its records by handle, in sorted-id order, and no
    # record id is left in the prompt.
    sections = {
        name: text.split(f"{name} CANDIDATES:\n", 1)[1].split("\n\n", 1)[0].splitlines()
        for name in ("SOURCE", "SINK", "SANITIZER")
    }
    expected = {
        "SOURCE": [("s1", ids[0])],
        "SINK": list(zip(("k1", "k2"), sorted(ids[1:3]))),
    }
    # A source or sink is its pairing line: every field but the snippet.
    for name, members in expected.items():
        assert [record_from_pairing_line(line) for line in sections[name]] == [
            replace(lookup[rid], id=handle, snippet="") for handle, rid in members
        ]
    assert "x = y.z(" not in text
    # A sanitizer is its handle and signature alone: no snippet, location or JSON.
    by_id = sorted(sanitizers, key=lambda r: r.id)
    assert sections["SANITIZER"] == [
        f"z{n} com.acme.{r.type_name}.html(java.lang.String) -> java.lang.String"
        for n, r in enumerate(by_id, 1)
    ]
    assert "xxxx" not in text and "src/com/acme" not in text
    assert not any(rid in text for rid in ids + sanitizer_ids)
    assert text.index("NO_PAIRS") > text.index('"id":"s1"')


def test_prompt_lists_a_source_and_a_sink_by_their_pairing_lines():
    source = make_record(
        "javax.servlet.http", "HttpServletRequest", "getParameter", [("name", "String")], "String",
        annotations=["Nullable"], snippet='String q = req.getParameter("q");',
        first_seen=SourceLocation("src/web/Search.java", 14),
    )
    sink = make_record(
        "java.sql", "Statement", "executeQuery", [("sql", "String")], "ResultSet",
        snippet="return stmt.executeQuery(q);", first_seen=SourceLocation("src/web/Search.java", 15),
    )
    text = build_pairing_prompt([source.id], [sink.id], [], record_lookup([source, sink]))
    assert (
        '\n{"id":"s1","package":"javax.servlet.http","type":"HttpServletRequest",'
        '"method":"getParameter","params":["String name"],"returns":"String",'
        '"annotations":["Nullable"],"at":"src/web/Search.java:14"}\n'
    ) in text
    assert (
        '\n{"id":"k1","package":"java.sql","type":"Statement","method":"executeQuery",'
        '"params":["String sql"],"returns":"ResultSet","at":"src/web/Search.java:15"}\n'
    ) in text
    assert "snippet" not in text and "stmt" not in text and "req." not in text


def test_many_sanitizers_plan_within_the_default_budget():
    # 4 × 4 with 500 sanitizers of about 104 tokens as full records, 16 as
    # signature lines. Listed whole, more than 153 left no room for a source
    # and a sink; 1,000 lines alone would fill the budget.
    records = synthetic_records(8, random.Random(32))
    sources, sinks = sorted(r.id for r in records[:4]), sorted(r.id for r in records[4:])
    sanitizers = [_escaper(n, snippet_chars=220) for n in range(500)]
    assert all(100 <= estimate_tokens(r.prompt_text) <= 110 for r in sanitizers)
    lookup = record_lookup(records + sanitizers)
    sanitizer_ids = [r.id for r in sanitizers]
    tiles = plan_tiles(sources, sinks, sanitizer_ids, lookup)
    assert tiles == [(sources, sinks)]
    assert estimate_tokens(build_pairing_prompt(sources, sinks, sanitizer_ids, lookup)) <= DEFAULT_BUDGET


def test_prompt_unknown_candidate():
    with pytest.raises(UnknownApiId):
        build_pairing_prompt(["missing"], [], [], {})


def test_pair_all_requires_both_sides():
    records = synthetic_records(2, random.Random(1))
    gateway = LlmGateway(StaticClient("NO_PAIRS"), model="m")
    with pytest.raises(NothingToPair):
        pair_all(_votes(sources=[records[0].id]), records, gateway)
    with pytest.raises(NothingToPair):
        pair_all(_votes(sinks=[records[0].id]), records, gateway)


def test_pair_all_tiles_and_merges_sorted():
    records = synthetic_records(7, random.Random(40))
    ids = sorted(r.id for r in records)
    sources, sinks = ids[:2], ids[2:7]
    lookup = record_lookup(records)
    votes = _votes(sources=sources, sinks=sinks)
    budget = estimate_tokens(build_pairing_prompt(sources, sinks[:2], [], lookup))
    tiles = plan_tiles(sources, sinks, [], lookup, budget)
    assert len(tiles) > 1
    # Sink-group-major: the sink groups come in sorted order.
    sink_order = [tile_sinks[0] for _, tile_sinks in tiles]
    assert sink_order == sorted(sink_order)
    # Every tile call claims its first source with its first sink, and also
    # a sink of the last tile, which only that tile may pair.
    last_sink = tiles[-1][1][-1]
    replies = {
        build_pairing_prompt(tile_sources, tile_sinks, [], lookup): "".join(
            f"PAIR: ({tile_sources[0]}, {snk}) | CLASS: xss | RATIONALE: x | CONFIDENCE: low\n"
            for snk in (tile_sinks[0], last_sink)
        )
        for tile_sources, tile_sinks in tiles
    }
    gateway = LlmGateway(_PromptLog(replies), model="m")
    pairs = pair_all(votes, records, gateway, budget=budget)
    sent = [entry["request"]["prompt"] for entry in gateway.transcripts.entries]
    assert sent == list(replies)
    expected = {(tile_sources[0], tile_sinks[0]) for tile_sources, tile_sinks in tiles}
    expected |= {(srcs[0], last_sink) for srcs, snks in tiles if last_sink in snks}
    assert [(p.source_id, p.sink_id) for p in pairs] == sorted(expected)


def test_pair_all_keeps_a_sanitized_pair_with_its_sanitizer():
    records = synthetic_records(3, random.Random(50))
    ids = sorted(r.id for r in records)
    votes = _votes(sources=[ids[0]], sinks=[ids[1]], sanitizers=[ids[2]])
    # The answer names the candidates by full id, then by the prompt's handles.
    # The pair stays, and the rule writer makes its sanitizer a barrier.
    for names in (ids, ("s1", "k1", "z1")):
        line = f"PAIR: ({names[0]}, {names[1]}) | CLASS: xss | RATIONALE: r | CONFIDENCE: low | SANITIZED_BY: {names[2]}"
        kept = pair_all(votes, records, LlmGateway(StaticClient(line), model="m"))
        assert [(p.source_id, p.sink_id, p.sanitizers) for p in kept] == [
            (ids[0], ids[1], (ids[2],))
        ]


def test_pair_all_no_pairs_response():
    records = synthetic_records(2, random.Random(60))
    ids = sorted(r.id for r in records)
    votes = _votes(sources=[ids[0]], sinks=[ids[1]])
    pairs = pair_all(votes, records, LlmGateway(StaticClient("NO_PAIRS"), model="m"))
    assert pairs == []


def test_pair_all_retries_malformed_chunk_once():
    records = synthetic_records(2, random.Random(61))
    ids = sorted(r.id for r in records)
    votes = _votes(sources=[ids[0]], sinks=[ids[1]])
    good = f"PAIR: ({ids[0]}, {ids[1]}) | CLASS: xss"
    client = CountingClient(
        scripted_client(
            [{"stage": "pair", "response": "hmm, unclear", "once": True}],
            default=good,
        )
    )
    pairs = pair_all(votes, records, LlmGateway(client, model="m"))
    assert client.count("pair") == 2
    assert [(p.source_id, p.sink_id) for p in pairs] == [(ids[0], ids[1])]


def test_pair_all_gives_up_after_second_malformed(caplog):
    records = synthetic_records(2, random.Random(62))
    ids = sorted(r.id for r in records)
    votes = _votes(sources=[ids[0]], sinks=[ids[1]])
    client = CountingClient(StaticClient("word salad"))
    with caplog.at_level("WARNING", logger="qlforge.pairing"):
        pairs = pair_all(votes, records, LlmGateway(client, model="m"))
    assert pairs == []
    assert client.count("pair") == 2
    assert "still malformed" in caplog.text


def test_pairs_version_guard():
    with pytest.raises(ValueError):
        PAIRS.parse(json.dumps({"version": 0, "pairs": []}))


_ANY_ID = st.sampled_from(
    ["src1", "src2", "snk1", "snk2", "san1", "s1", "s2", "k2", "z1", "s3", "ghost", ""]
)
# A pair line may be a list item and may be wrapped in a code span or emphasis.
_LINE_START = st.sampled_from(["", "- ", "* ", "1. ", "2) ", "`", "**"])
_PAIR_LINE = st.builds(
    "{}PAIR: ({}, {}) | CLASS: {} | RATIONALE: {} | CONFIDENCE: {} | SANITIZED_BY: {}{}".format,
    _LINE_START,
    _ANY_ID,
    _ANY_ID,
    st.one_of(st.sampled_from(["xss", "Path Traversal"]), st.text(max_size=8)),
    st.text(max_size=8),
    st.text(max_size=5),
    st.lists(_ANY_ID, max_size=3).map(", ".join),
    st.sampled_from(["", "`", "**"]),
)
_RESPONSE = st.one_of(
    st.text(),
    st.lists(st.one_of(_PAIR_LINE, st.just("NO_PAIRS"), st.text(max_size=20)), max_size=6).map(
        "\n".join
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=_RESPONSE)
def test_parse_pair_lines_keeps_only_known_ids_for_any_text(text):
    try:
        pairs = parse_pair_lines(text, SRC, SNK, SAN)
    except WhollyMalformed:
        return
    keys = [(p.source_id, p.sink_id) for p in pairs]
    assert len(keys) == len(set(keys))
    for p in pairs:
        assert p.source_id in SRC and p.sink_id in SNK
        assert set(p.sanitizers) <= SAN
        assert p.pair_id == make_pair_id(p.source_id, p.sink_id)


# Handle and full id of every candidate, and names that fit no list.
_NAMES = {"s1": "src1", "s2": "src2", "k1": "snk1", "k2": "snk2", "z1": "san1", "s3": "s3"}
_HANDLE = st.sampled_from(sorted(_NAMES))
_HANDLE_LINE = st.builds(
    "{}PAIR: ({}, {}) | CLASS: {} | RATIONALE: r | CONFIDENCE: high | SANITIZED_BY: {}".format,
    _LINE_START,
    _HANDLE,
    _HANDLE,
    st.sampled_from(["xss", "Path Traversal"]),
    st.lists(_HANDLE, max_size=3).map(", ".join),
)


def _pairs_or_malformed(text):
    try:
        return parse_pair_lines(text, SRC, SNK, SAN)
    except WhollyMalformed:
        return "malformed"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    lines=st.lists(st.one_of(_HANDLE_LINE, st.just("NO_PAIRS"), st.text(max_size=20)), max_size=6)
)
def test_parse_pair_lines_by_handle_equals_by_full_id(lines):
    by_handle = "\n".join(lines)
    by_id = "\n".join(
        re.sub(r"\b[skz]\d\b", lambda m: _NAMES.get(m.group(), m.group()), line)
        if "PAIR:" in line else line
        for line in lines
    )
    assert _pairs_or_malformed(by_handle) == _pairs_or_malformed(by_id)

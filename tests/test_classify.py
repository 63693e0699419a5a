import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlforge import classify, prompts
from qlforge.classify import (
    Ballot,
    ContextGroup,
    ROUNDS,
    TaintLabel,
    VoteRecord,
    build_classification_prompt,
    classify_records,
    dump_votes,
    parse_classification_response,
    parse_votes,
    plan_groups,
    tally_votes,
)
from qlforge.errors import (
    BallotCountMismatch,
    RecordTooLarge,
    TemplateError,
    UnknownApiId,
    WhollyMalformed,
)
from qlforge.gateway import LlmGateway, estimate_tokens
from qlforge.records import record_lookup
from tests.conftest import CountingClient, StaticClient, scripted_client, synthetic_records

BUDGET = 4000


def _plan_invariants(records, plan, budget):
    by_round = {i: [] for i in range(ROUNDS)}
    for group in plan:
        by_round[group.round_index].append(group)
        assert group.token_estimate <= budget
        assert group.group_id == f"r{group.round_index}g{by_round[group.round_index].index(group)}"
    ids = {r.id for r in records}
    for round_index, groups in by_round.items():
        seen = [rid for g in groups for rid in g.member_ids]
        assert sorted(seen) == sorted(ids), f"round {round_index} does not partition the records"


def test_plan_covers_each_record_once_per_round():
    records = synthetic_records(12, random.Random(3))
    plan = plan_groups(records, BUDGET, seed=1)
    _plan_invariants(records, plan, BUDGET)


def test_plan_rendered_prompt_within_budget():
    # The conservative estimate must dominate the real rendered cost.
    records = synthetic_records(9, random.Random(11))
    lookup = record_lookup(records)
    for group in plan_groups(records, 3000, seed=5):
        rendered = build_classification_prompt(group, lookup)
        assert estimate_tokens(rendered) <= group.token_estimate <= 3000


def test_plan_is_deterministic():
    records = synthetic_records(20, random.Random(7))
    first = plan_groups(records, BUDGET, seed=42)
    second = plan_groups(records, BUDGET, seed=42)
    assert first == second


def test_plan_varies_with_seed():
    records = synthetic_records(20, random.Random(7))
    a = plan_groups(records, BUDGET, seed=1)
    b = plan_groups(records, BUDGET, seed=2)
    assert [g.member_ids for g in a] != [g.member_ids for g in b]


def test_plan_reshuffles_context_between_rounds():
    # With several groups per round, a record should not keep the exact same
    # companion set in every round.
    records = synthetic_records(24, random.Random(2))
    plan = plan_groups(records, 2500, seed=9)
    co = {i: {} for i in range(ROUNDS)}
    for group in plan:
        for rid in group.member_ids:
            co[group.round_index][rid] = frozenset(group.member_ids) - {rid}
    changed = sum(1 for rid in co[0] if co[0][rid] != co[1][rid] or co[1][rid] != co[2][rid])
    assert changed > len(records) // 2


def test_plan_empty_input():
    assert plan_groups([], BUDGET, seed=0) == []


def test_plan_record_too_large():
    records = synthetic_records(3, random.Random(1))
    with pytest.raises(RecordTooLarge) as err:
        plan_groups(records, 10, seed=0)
    assert err.value.record_ids == tuple(sorted(r.id for r in records))


# The overlap penalty as first written: intersect every record's co-member
# sets. Kept as the oracle for the counting penalty in classify.py.
def _reference_co_members(groups):
    out = {}
    for group in groups:
        members = set(group.member_ids)
        for rid in group.member_ids:
            out[rid] = frozenset(members - {rid})
    return out


def _reference_penalty(groups, history, population):
    co_now = _reference_co_members(groups)
    penalty = 0
    for prev in history:
        for rid, co in co_now.items():
            penalty += len(co & prev[rid])
            if population > 1 and co == prev[rid]:
                penalty += classify._IDENTICAL_CONTEXT_PENALTY
    return penalty


def _as_groups(partition):
    return [ContextGroup(0, f"g{i}", tuple(members), 0) for i, members in enumerate(partition)]


@st.composite
def _groupings(draw):
    """A population, a candidate grouping and up to two earlier rounds."""
    ids = [f"api{i}" for i in range(draw(st.integers(1, 12)))]

    def partition():
        order = draw(st.permutations(ids))
        cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1)))) if len(ids) > 1 else []
        bounds = [0, *cuts, len(ids)]
        return [order[a:b] for a, b in zip(bounds, bounds[1:])]

    history = [partition() for _ in range(draw(st.integers(0, 2)))]
    now = partition()
    if history and draw(st.booleans()):
        now = list(history[draw(st.integers(0, len(history) - 1))])
    return now, history


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_groupings())
@example(([["a"]], [[["a"]], [["a"]]]))  # one-record population
@example(([["a"], ["b"], ["c"]], [[["a"], ["b"], ["c"]]]))  # singletons, repeated
@example(([["a", "b"], ["c"]], [[["b", "a"], ["c"]], [["a"], ["b", "c"]]]))  # repeated
def test_counting_penalty_matches_reference(case):
    now, history = case
    groups = _as_groups(now)
    population = sum(len(members) for members in now)
    counted = classify._overlap_penalty(
        groups, [classify._group_index(_as_groups(p)) for p in history], population
    )
    reference = _reference_penalty(
        groups, [_reference_co_members(_as_groups(p)) for p in history], population
    )
    assert counted == reference


@pytest.mark.parametrize("count, budget", [(50, 2500), (50, BUDGET), (300, BUDGET), (300, 6000)])
def test_plan_matches_reference_penalty_planner(monkeypatch, count, budget):
    records = synthetic_records(count, random.Random(count))
    plan = plan_groups(records, budget, seed=7)

    def reference(groups, history, population):
        co_history = []
        for index in history:
            members = {}
            for rid, group_index in index.items():
                members.setdefault(group_index, []).append(rid)
            co_history.append(_reference_co_members(_as_groups(members.values())))
        return _reference_penalty(groups, co_history, population)

    monkeypatch.setattr(classify, "_overlap_penalty", reference)
    assert plan_groups(records, budget, seed=7) == plan
    assert len({g.member_ids for g in plan}) > ROUNDS


def test_steps_text_reads_catalog_once(monkeypatch):
    loads = []
    real = classify.load_catalog
    monkeypatch.setattr(classify, "load_catalog", lambda: loads.append(1) or real())
    classify._steps_text.cache_clear()
    records = synthetic_records(4, random.Random(4))
    lookup = record_lookup(records)
    try:
        for group in plan_groups(records, BUDGET, seed=0):
            build_classification_prompt(group, lookup)
    finally:
        classify._steps_text.cache_clear()
    assert len(loads) == 1


def test_malformed_catalog_fails_every_render(monkeypatch):
    real = prompts.load_template

    def template(name):
        return '{"sink_characteristics": []}' if name == "classify_catalog.json" else real(name)

    records = synthetic_records(2, random.Random(4))
    group = ContextGroup(0, "r0g0", tuple(r.id for r in records), 0)
    monkeypatch.setattr(prompts, "load_template", template)
    classify._steps_text.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(TemplateError, match="sink_characteristics"):
                build_classification_prompt(group, record_lookup(records))
    finally:
        classify._steps_text.cache_clear()


def test_prompt_section_order():
    records = synthetic_records(2, random.Random(4))
    plan = plan_groups(records, BUDGET, seed=0)
    text = build_classification_prompt(plan[0], record_lookup(records))
    markers = [
        "Your objective",
        "Key concepts",
        "API_INFORMATION:",
        "Follow these six steps",
        "Output requirements:",
        "Label every one of these ids:",
    ]
    positions = [text.index(m) for m in markers]
    assert positions == sorted(positions)
    for record in records:
        assert record.id in text
        assert record.method in text


def test_prompt_unknown_member_id():
    group = ContextGroup(0, "r0g0", ("feedfacefeedface",), 0)
    with pytest.raises(UnknownApiId):
        build_classification_prompt(group, {})


GROUP = ContextGroup(1, "r1g0", ("aaaa000011112222", "bbbb000011112222"), 500)


def test_parse_plain_lines():
    ballots = parse_classification_response(
        "aaaa000011112222: Source\nbbbb000011112222: Sink\n", GROUP
    )
    assert [b.label for b in ballots] == [TaintLabel.SOURCE, TaintLabel.SINK]
    assert all(not b.parse_warning for b in ballots)
    assert all(b.round_index == 1 and b.group_id == "r1g0" for b in ballots)


def test_parse_tolerates_decoration_and_case():
    text = (
        "Here is my analysis.\n"
        "- `aaaa000011112222`: SOURCE because it reads request data\n"
        '* "bbbb000011112222" = none\n'
    )
    ballots = parse_classification_response(text, GROUP)
    assert [b.label for b in ballots] == [TaintLabel.SOURCE, TaintLabel.NONE]


def test_parse_first_occurrence_wins():
    text = "aaaa000011112222: Sink\naaaa000011112222: Source\nbbbb000011112222: None\n"
    ballots = parse_classification_response(text, GROUP)
    assert ballots[0].label == TaintLabel.SINK


def test_parse_missing_member_gets_warned_none(caplog):
    with caplog.at_level("WARNING"):
        ballots = parse_classification_response("aaaa000011112222: Sanitizer\n", GROUP)
    assert ballots[0].label == TaintLabel.SANITIZER
    assert ballots[1].label == TaintLabel.NONE
    assert ballots[1].parse_warning
    assert "bbbb000011112222" in caplog.text


def test_parse_nonmember_line_is_ignored_but_counts_as_labeled():
    # The response labels only a foreign id: not wholly malformed, both
    # members just fall back to warned None ballots.
    ballots = parse_classification_response("cccc000011112222: Source\n", GROUP)
    assert [b.label for b in ballots] == [TaintLabel.NONE, TaintLabel.NONE]
    assert all(b.parse_warning for b in ballots)


def test_parse_wholly_malformed():
    with pytest.raises(WhollyMalformed):
        parse_classification_response("I cannot help with that.", GROUP)


def test_parse_unknown_label_word_is_not_a_label():
    with pytest.raises(WhollyMalformed):
        parse_classification_response("aaaa000011112222: maybe-a-source\n", GROUP)


def _ballots(labels):
    return [Ballot(i, f"r{i}g0", label) for i, label in enumerate(labels)]


def test_tally_brute_force_against_independent_oracle():
    labels = list(TaintLabel)
    for triple in itertools.product(labels, repeat=3):
        votes = tally_votes({"api": _ballots(triple)})
        counts = Counter(triple)
        top, top_count = counts.most_common(1)[0]
        if top_count >= 2:
            expected, expected_tie = top, False
        else:
            expected, expected_tie = TaintLabel.NONE, True
        assert votes[0].resolved == expected, triple
        assert votes[0].tie == expected_tie, triple


def test_tally_sorts_by_api_id_and_round():
    shuffled = list(reversed(_ballots([TaintLabel.SINK] * 3)))
    votes = tally_votes({"b": _ballots([TaintLabel.SOURCE] * 3), "a": shuffled})
    assert [v.api_id for v in votes] == ["a", "b"]
    assert [b.round_index for b in votes[0].ballots] == [0, 1, 2]


def test_tally_ballot_count_mismatch():
    with pytest.raises(BallotCountMismatch):
        tally_votes({"api": _ballots([TaintLabel.SOURCE, TaintLabel.SOURCE])})


def _label_everything(records, label_by_method):
    return "\n".join(f"{r.id}: {label_by_method.get(r.method, 'None')}" for r in records)


def test_classify_records_end_to_end():
    records = synthetic_records(6, random.Random(8))
    wanted = {records[0].method: "Source", records[1].method: "Sink"}
    client = CountingClient(StaticClient(_label_everything(records, wanted)))
    votes = classify_records(records, LlmGateway(client), "m", budget=BUDGET, seed=0)
    assert len(votes) == 6
    by_id = {v.api_id: v for v in votes}
    assert by_id[records[0].id].resolved == TaintLabel.SOURCE
    assert by_id[records[1].id].resolved == TaintLabel.SINK
    assert all(len(v.ballots) == 3 for v in votes)
    assert all(not v.tie for v in votes)
    # One group per round at this budget: three classify calls, no retries.
    assert client.count("classify") == 3


def test_classify_records_retries_malformed_group_once():
    records = synthetic_records(4, random.Random(9))
    good = _label_everything(records, {records[0].method: "Sanitizer"})
    client = CountingClient(
        scripted_client(
            [{"stage": "classify", "response": "garbage, no labels", "once": True}],
            default=good,
        )
    )
    votes = classify_records(records, LlmGateway(client), "m", budget=BUDGET, seed=0)
    # 3 group calls, exactly one of which was malformed and retried.
    assert client.count("classify") == 4
    by_id = {v.api_id: v for v in votes}
    assert by_id[records[0].id].resolved == TaintLabel.SANITIZER
    refs = sorted(b.response_ref for v in votes for b in v.ballots)
    assert refs[-1] == 4  # the retry logged after the three batch calls


def test_classify_records_gives_up_after_second_malformed(caplog):
    records = synthetic_records(3, random.Random(10))
    client = CountingClient(StaticClient("no labels here at all"))
    with caplog.at_level("WARNING"):
        votes = classify_records(records, LlmGateway(client), "m", budget=BUDGET, seed=0)
    assert client.count("classify") == 6  # 3 groups + 3 retries
    assert all(v.resolved == TaintLabel.NONE for v in votes)
    assert all(b.parse_warning for v in votes for b in v.ballots)
    assert "still malformed" in caplog.text


def test_classify_records_empty_input():
    votes = classify_records([], LlmGateway(StaticClient("x")), "m", budget=BUDGET, seed=0)
    assert votes == []


def test_votes_round_trip():
    records = synthetic_records(5, random.Random(12))
    wanted = {records[0].method: "Source", records[2].method: "Sink"}
    client = StaticClient(_label_everything(records, wanted))
    votes = classify_records(records, LlmGateway(client), "m", budget=BUDGET, seed=3)
    assert parse_votes(dump_votes(votes)) == sorted(votes, key=lambda v: v.api_id)


def test_votes_version_guard():
    with pytest.raises(ValueError):
        parse_votes(json.dumps({"version": 99, "votes": []}))


def test_vote_record_dict_shape():
    vote = VoteRecord(
        "abcd",
        tuple(_ballots([TaintLabel.SOURCE, TaintLabel.SOURCE, TaintLabel.NONE])),
        TaintLabel.SOURCE,
        tie=False,
    )
    data = vote.to_dict()
    assert set(data) == {"api_id", "ballots", "resolved", "tie"}
    assert set(data["ballots"][0]) == {"round", "group_id", "label", "response_ref", "parse_warning"}
    assert VoteRecord.from_dict(data) == vote


_LABEL_RESPONSE = st.one_of(
    st.text(),
    st.lists(
        st.one_of(
            st.builds(
                "{}{}: {}".format,
                st.sampled_from(["", "- ", "* `"]),
                st.sampled_from([*GROUP.member_ids, "cccc000011112222", ""]),
                st.sampled_from(["Source", "sink", "SANITIZER", "None", "maybe", ""]),
            ),
            st.text(max_size=20),
        ),
        max_size=6,
    ).map("\n".join),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=_LABEL_RESPONSE)
def test_parse_gives_one_ballot_per_member_for_any_text(text):
    try:
        ballots = parse_classification_response(text, GROUP)
    except WhollyMalformed:
        return
    assert len(ballots) == len(GROUP.member_ids)
    assert all(b.round_index == GROUP.round_index and b.group_id == GROUP.group_id for b in ballots)
    assert all(isinstance(b.label, TaintLabel) for b in ballots)

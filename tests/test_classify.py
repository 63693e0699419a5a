import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import asdict, replace

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
    VOTES,
    build_classification_prompt,
    classify_records,
    is_decided,
    parse_classification_response,
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
from tests.conftest import (
    CountingClient,
    StaticClient,
    record_from_prompt_line,
    scripted_client,
    synthetic_records,
)

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

    # Round 3 over a third of the records, scored against the full groups of
    # rounds 1 and 2.
    first = [g for g in plan if g.round_index < 2]
    last = plan_groups(records[::3], budget, seed=7, rounds=(2,), earlier=first)

    monkeypatch.setattr(classify, "_overlap_penalty", reference)
    assert plan_groups(records, budget, seed=7) == plan
    assert plan_groups(records[::3], budget, seed=7, rounds=(2,), earlier=first) == last
    assert len({g.member_ids for g in plan}) > ROUNDS


def _plan_digest(plan):
    doc = [[g.round_index, g.group_id, list(g.member_ids), g.token_estimate] for g in plan]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


# Digests of the three-round plan as planned in one pass, with each member
# costed by its record's prompt line. Rounds 1-2 then round 3, planned as two
# batches, must rebuild it.
@pytest.mark.parametrize(
    "count, budget, seed, digest",
    [
        (50, 2500, 7, "531201414943b1f8e71301818f21190bdde968471ad179b6d4b93c8d408551de"),
        (300, 6000, 7, "76c2a3fa43757092203ffdba90c67e56bca5b591c53227501bbfbe64485c0993"),
        (120, 4000, 3, "952e37f63a0354c64caa5690c788529c3c5e9b03bc4fc64f194b7a9adae5ef39"),
    ],
    ids=["50-2500", "300-6000", "120-4000"],
)
def test_round_batches_rebuild_the_one_pass_plan(count, budget, seed, digest):
    records = synthetic_records(count, random.Random(count))
    first = plan_groups(records, budget, seed, rounds=range(2))
    last = plan_groups(records, budget, seed, rounds=(2,), earlier=first)
    assert _plan_digest(first + last) == _plan_digest(plan_groups(records, budget, seed)) == digest


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    count=st.integers(1, 60),
    budget=st.integers(2500, 6000),
    seed=st.integers(0, 10**6),
    undecided=st.sets(st.integers(0, 59)),
)
def test_round_three_plans_the_undecided_records_alone(count, budget, seed, undecided):
    records = synthetic_records(count, random.Random(count))
    full = plan_groups(records, budget, seed)
    first = plan_groups(records, budget, seed, rounds=range(2))
    # Rounds 1 and 2 are the one-pass plan's; with every record undecided,
    # so is round 3.
    assert first == [g for g in full if g.round_index < 2]
    assert plan_groups(records, budget, seed, rounds=(2,), earlier=first) == full[len(first):]

    subset = [records[i] for i in sorted(undecided) if i < count]
    last = plan_groups(subset, budget, seed, rounds=(2,), earlier=first)
    assert sorted(rid for g in last for rid in g.member_ids) == sorted(r.id for r in subset)
    assert [g.group_id for g in last] == [f"r2g{i}" for i in range(len(last))]
    assert all(g.round_index == 2 and g.token_estimate <= budget for g in last)


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
    members = plan[0].member_ids
    assert len(members) == 2
    assert text.endswith("Label every one of these ids: a1, a2\n")
    # Each member's prompt line appears whole, in group order, with only its
    # "id" value replaced by its handle; no record id is left in the prompt.
    lookup = record_lookup(records)
    lines = text.split("API_INFORMATION:\n", 1)[1].splitlines()[: len(members)]
    for number, (line, rid) in enumerate(zip(lines, members), 1):
        assert record_from_prompt_line(line) == replace(lookup[rid], id=f"a{number}")
        assert line.split(", ", 1)[1] == lookup[rid].prompt_text.split(", ", 1)[1]
        assert rid not in text


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
    assert all(b.round == 1 and b.group_id == "r1g0" for b in ballots)


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


def test_parse_names_members_by_handle_or_full_id():
    text = "a2: Sink\naaaa000011112222: Source\n"
    ballots = parse_classification_response(text, GROUP)
    assert [b.label for b in ballots] == [TaintLabel.SOURCE, TaintLabel.SINK]
    assert not any(b.parse_warning for b in ballots)


def test_parse_handle_wins_over_an_equal_full_id():
    # The first member's id is the second member's handle: "a2" names the
    # second member, and the first is still reachable by its own handle.
    group = ContextGroup(0, "r0g0", ("a2", "zz"), 0)
    ballots = parse_classification_response("a1: Sink\na2: Source\n", group)
    assert [b.label for b in ballots] == [TaintLabel.SINK, TaintLabel.SOURCE]
    assert not any(b.parse_warning for b in ballots)
    ballots = parse_classification_response("a2: Source\n", group)
    assert [(b.label, b.parse_warning) for b in ballots] == [
        (TaintLabel.NONE, True),
        (TaintLabel.SOURCE, False),
    ]


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
    assert [b.round for b in votes[0].ballots] == [0, 1, 2]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(labels=st.lists(st.sampled_from(TaintLabel), max_size=4))
@example(labels=[TaintLabel.SOURCE])
@example(labels=[TaintLabel.SOURCE, TaintLabel.SINK])
def test_tally_ballot_count_mismatch(labels):
    # Three ballots, or two that agree; any other count is a mismatch.
    accepted = len(labels) == ROUNDS or len(labels) == 2 and labels[0] == labels[1]
    if accepted:
        assert len(tally_votes({"api": _ballots(labels)})[0].ballots) == len(labels)
    else:
        with pytest.raises(BallotCountMismatch):
            tally_votes({"api": _ballots(labels)})


def test_two_agreeing_ballots_resolve_as_any_third_would():
    # Over every ballot triple: where the first two ballots decide the
    # record, tallying them alone gives the label and tie flag of all three.
    decided = 0
    for labels in itertools.product(TaintLabel, repeat=3):
        for warnings in itertools.product((False, True), repeat=3):
            triple = [
                Ballot(i, f"r{i}g0", label, parse_warning=warned)
                for i, (label, warned) in enumerate(zip(labels, warnings))
            ]
            if not is_decided(triple[:2]):
                continue
            decided += 1
            (two,) = tally_votes({"api": triple[:2]})
            (three,) = tally_votes({"api": triple})
            assert (two.resolved, two.tie) == (three.resolved, three.tie), triple
    assert decided == len(TaintLabel) ** 2 * 2  # agreeing, unwarned pairs x any third


def _label_everything(records, label_by_method):
    return "\n".join(f"{r.id}: {label_by_method.get(r.method, 'None')}" for r in records)


def test_classify_records_end_to_end():
    records = synthetic_records(6, random.Random(8))
    wanted = {records[0].method: "Source", records[1].method: "Sink"}
    client = CountingClient(StaticClient(_label_everything(records, wanted)))
    votes = classify_records(records, LlmGateway(client, model="m"), budget=BUDGET, seed=0)
    assert len(votes) == 6
    by_id = {v.api_id: v for v in votes}
    assert by_id[records[0].id].resolved == TaintLabel.SOURCE
    assert by_id[records[1].id].resolved == TaintLabel.SINK
    # Rounds 1 and 2 agree on every record, so round 3 is never sent: one
    # group per round at this budget, two classify calls, no retries.
    assert all(len(v.ballots) == 2 for v in votes)
    assert all(not v.tie for v in votes)
    assert client.count("classify") == 2


def test_classify_records_retries_malformed_group_once():
    records = synthetic_records(4, random.Random(9))
    good = _label_everything(records, {records[0].method: "Sanitizer"})
    client = CountingClient(
        scripted_client(
            [{"stage": "classify", "response": "garbage, no labels", "once": True}],
            default=good,
        )
    )
    votes = classify_records(records, LlmGateway(client, model="m"), budget=BUDGET, seed=0)
    # 2 group calls, exactly one of which was malformed and retried; the
    # retry's good ballots then agree with the other round's.
    assert client.count("classify") == 3
    by_id = {v.api_id: v for v in votes}
    assert by_id[records[0].id].resolved == TaintLabel.SANITIZER
    refs = sorted(b.response_ref for v in votes for b in v.ballots)
    assert refs[-1] == 3  # the retry logged after the two batch calls


def test_classify_records_gives_up_after_second_malformed(caplog):
    records = synthetic_records(3, random.Random(10))
    client = CountingClient(StaticClient("no labels here at all"))
    with caplog.at_level("WARNING"):
        votes = classify_records(records, LlmGateway(client, model="m"), budget=BUDGET, seed=0)
    # Every ballot is warned, so round 3 is sent: 3 groups + 3 retries.
    assert client.count("classify") == 6
    assert all(len(v.ballots) == 3 for v in votes)
    assert all(v.resolved == TaintLabel.NONE for v in votes)
    assert all(b.parse_warning for v in votes for b in v.ballots)
    assert "still malformed" in caplog.text


def test_classify_records_empty_input():
    votes = classify_records([], LlmGateway(StaticClient("x"), model="m"), budget=BUDGET, seed=0)
    assert votes == []


def test_votes_version_guard():
    with pytest.raises(ValueError):
        VOTES.parse(json.dumps({"version": 99, "votes": []}))


def test_vote_record_dict_shape():
    vote = VoteRecord(
        "abcd",
        tuple(_ballots([TaintLabel.SOURCE, TaintLabel.SOURCE, TaintLabel.NONE])),
        TaintLabel.SOURCE,
        tie=False,
    )
    data = json.loads(json.dumps(asdict(vote)))
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
                st.sampled_from([*GROUP.member_ids, "a1", "a2", "a3", "cccc000011112222", ""]),
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
    assert all(b.round == GROUP.round_index and b.group_id == GROUP.group_id for b in ballots)
    assert all(isinstance(b.label, TaintLabel) for b in ballots)


# A response line: decoration, a member's index (None: a name outside the
# group) and a label word, or free text.
_NAMED_LINE = st.one_of(
    st.tuples(
        st.sampled_from(["", "- ", "* `"]),
        st.sampled_from([0, 1, None]),
        st.sampled_from(["Source", "sink", "SANITIZER", "None", "maybe"]),
    ),
    st.text(max_size=20),
)


def _ballots_or_malformed(text):
    try:
        return parse_classification_response(text, GROUP)
    except WhollyMalformed:
        return "malformed"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=st.lists(_NAMED_LINE, max_size=6))
def test_parse_by_handle_equals_parse_by_full_id(lines):
    def render(name_of):
        return "\n".join(
            line if isinstance(line, str)
            else f"{line[0]}{'a9' if line[1] is None else name_of(line[1])}: {line[2]}"
            for line in lines
        )

    by_handle = render(lambda index: f"a{index + 1}")
    by_id = render(lambda index: GROUP.member_ids[index])
    assert _ballots_or_malformed(by_handle) == _ballots_or_malformed(by_id)

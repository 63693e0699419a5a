"""Taint-label classification by triple voting.

Each API record is evaluated in up to three distinct contextual groups, one
per round, and the final label is the majority of its ballots. Rounds 1 and 2
go out as one batch. A record whose two ballots agree, neither with a parse
warning, is decided: a third ballot could neither change its label nor make a
tie. Round 3 is a second batch over the undecided records only, and is not
sent when there are none.

Grouping is a pure function of (records, budget, seed): per round the records
are shuffled with a seeded permutation and greedily packed into groups whose
rendered prompt stays within the token budget. Rounds after the first pick,
among a fixed set of candidate permutations, the one whose co-membership
overlaps the earlier rounds least, so a record meets different neighbors in
every round whenever the population allows it. Round 3 is planned over the
undecided records alone and scored against the full groups of rounds 1 and 2.

Overlap is scored by counting. Against each earlier round, a candidate's
records fall into cells keyed by (group now, group then). A cell of n records
adds n·(n−1), which is the number of (record, neighbor) pairs that meet again.
A cell that fills both its groups, n records in a group of n now and a group
of n then, is an identical context and adds a further
``_IDENTICAL_CONTEXT_PENALTY`` per record; that includes a record that sits
alone in both rounds, unless it is the only record there is. Scoring a
candidate is therefore linear in the number of records.
"""

from __future__ import annotations

import logging
import random
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from operator import attrgetter
from typing import Iterable

from .artifacts import Document, JsonDataclass
from .errors import BallotCountMismatch, RecordTooLarge, WhollyMalformed
from .gateway import LlmGateway, estimate_tokens
from .prompts import (
    LIST_ITEM,
    handle_names,
    handles,
    load_template,
    pack_greedy,
    render_template,
    with_handle,
    without_emphasis,
)
from .records import ApiRecord, record_lookup, records_for

logger = logging.getLogger(__name__)

ROUNDS = 3  # triple voting: fixed, not configurable
_RESHUFFLE_CANDIDATES = 8
_HANDLE_PREFIX = ""  # a prompt names its members 1..N
_IDENTICAL_CONTEXT_PENALTY = 1000


class TaintLabel(str, Enum):
    SOURCE = "Source"
    SINK = "Sink"
    SANITIZER = "Sanitizer"
    NONE = "None"


@dataclass(frozen=True)
class ContextGroup:
    round_index: int
    group_id: str
    member_ids: tuple[str, ...]
    token_estimate: int


@dataclass(frozen=True)
class Ballot:
    round: int
    group_id: str
    label: TaintLabel
    response_ref: int | None = None
    parse_warning: bool = False


@dataclass(frozen=True)
class VoteRecord(JsonDataclass):
    api_id: str
    ballots: tuple[Ballot, ...]
    resolved: TaintLabel
    tie: bool


VOTES = Document(1, "votes", VoteRecord, lambda votes: sorted(votes, key=attrgetter("api_id")))
save_votes = VOTES.save  # the name the pipeline calls, so a traced run times it


# ---------------------------------------------------------------------------
# Prompt assembly
# ---------------------------------------------------------------------------


def _render_prompt(members: list[ApiRecord]) -> str:
    names = handles(_HANDLE_PREFIX, len(members))
    api_info = "".join(with_handle(r, name) + "\n" for r, name in zip(members, names))
    return render_template(
        load_template("classify_prompt.txt"),
        {"API_INFORMATION": api_info, "MEMBER_COUNT": str(len(members))},
    )


def _frame_cost() -> int:
    return estimate_tokens(_render_prompt([]))


def _member_cost(record: ApiRecord) -> int:
    # Covers the record's data block under its full id plus an entry in an
    # id list (id + ", " separator), so summed member costs plus the frame
    # cost upper-bound the rendered prompt estimate. The prompt names the
    # record by its line number instead and lists no ids, so the bound has
    # room to spare and plans do not depend on handle numbering. The list
    # term stays although no list is rendered: a cost without it packs
    # fuller groups, and the largest prompt grows.
    return estimate_tokens(record.prompt_text + "\n") + estimate_tokens(record.id + ", ")


# ---------------------------------------------------------------------------
# Group planning
# ---------------------------------------------------------------------------


def _sub_rng(seed: int, round_index: int, candidate: int) -> random.Random:
    return random.Random((seed * 1_000_003 + round_index) * 1_000_033 + candidate)


def _greedy_fill(
    order: list[str], costs: dict[str, int], frame: int, budget: int, round_index: int
) -> list[ContextGroup]:
    return [
        ContextGroup(
            round_index,
            f"r{round_index}g{index}",
            tuple(members),
            frame + sum(costs[rid] for rid in members),
        )
        for index, members in enumerate(pack_greedy(order, costs, budget - frame))
    ]


def _group_index(groups: list[ContextGroup]) -> dict[str, int]:
    return {rid: index for index, group in enumerate(groups) for rid in group.member_ids}


def _overlap_penalty(
    groups: list[ContextGroup], history: list[dict[str, int]], population: int
) -> int:
    """Score how much ``groups`` repeats the rounds in ``history``.

    Equals, summed over earlier rounds and records, the number of neighbors a
    record meets again, plus ``_IDENTICAL_CONTEXT_PENALTY`` for each record
    whose whole group repeats (see the module docstring).
    """
    penalty = 0
    for prev in history:
        prev_sizes = Counter(prev.values())
        for group in groups:
            size = len(group.member_ids)
            cells = Counter(prev[rid] for rid in group.member_ids)
            for prev_index, n in cells.items():
                penalty += n * (n - 1)
                if population > 1 and n == size == prev_sizes[prev_index]:
                    penalty += _IDENTICAL_CONTEXT_PENALTY * n
    return penalty


def plan_groups(
    records: list[ApiRecord],
    budget: int,
    seed: int,
    rounds: Iterable[int] = range(ROUNDS),
    earlier: list[ContextGroup] = (),
) -> list[ContextGroup]:
    """Plan classification groups for ``rounds`` under a token budget.

    Every record id lands in exactly one group per round; each group's
    conservative token estimate stays within ``budget``. A round is scored
    for overlap against the rounds of ``earlier`` (groups already planned,
    possibly over more records) and the rounds planned before it here.
    Deterministic for fixed (records, budget, seed, rounds, earlier).

    Raises :class:`RecordTooLarge` if any single record cannot fit a group
    even alone.
    """
    if not records:
        return []
    frame = _frame_cost()
    costs = {r.id: _member_cost(r) for r in records}
    too_large = sorted(rid for rid, cost in costs.items() if frame + cost > budget)
    if too_large:
        raise RecordTooLarge(
            f"budget {budget} cannot fit record(s) even in a singleton group: "
            + ", ".join(too_large),
            record_ids=too_large,
        )

    base_order = sorted(costs)
    history = [
        _group_index([g for g in earlier if g.round_index == r])
        for r in sorted({g.round_index for g in earlier})
    ]
    plan: list[ContextGroup] = []
    for round_index in rounds:
        candidates = 1 if round_index == 0 else _RESHUFFLE_CANDIDATES
        best: list[ContextGroup] | None = None
        best_penalty = None
        for candidate in range(candidates):
            order = list(base_order)
            _sub_rng(seed, round_index, candidate).shuffle(order)
            groups = _greedy_fill(order, costs, frame, budget, round_index)
            penalty = _overlap_penalty(groups, history, len(records))
            if best_penalty is None or penalty < best_penalty:
                best, best_penalty = groups, penalty
        assert best is not None
        history.append(_group_index(best))
        plan.extend(best)
    return plan


def build_classification_prompt(group: ContextGroup, records_by_id: dict[str, ApiRecord]) -> str:
    """Render the classification prompt for one group.

    ``classify_prompt.txt`` holds, in order: the objective, the concept
    definitions, the serialized member records, the six-step analysis
    framework, and the strict output schema with the range of handles to
    label. Only the records and their count are filled in. Members appear
    under their handles 1..N, in group order, in place of their ids.
    """
    return _render_prompt(records_for(group.member_ids, records_by_id, f"group {group.group_id}"))


# ---------------------------------------------------------------------------
# Response parsing and the vote tally
# ---------------------------------------------------------------------------

_LABEL_LINE_RE = re.compile(
    rf"""^\s*{LIST_ITEM}["'*]?([\w.\-]+)["'*]?\s*[:=]\s*["'*]?(source|sink|sanitizer|none)\b""",
    re.IGNORECASE,
)

_LABELS = {
    "source": TaintLabel.SOURCE,
    "sink": TaintLabel.SINK,
    "sanitizer": TaintLabel.SANITIZER,
    "none": TaintLabel.NONE,
}


def parse_classification_response(text: str, group: ContextGroup) -> list[Ballot]:
    """Turn a model response into one ballot per group member.

    A member is named by its prompt handle or by its full id; a handle wins
    where the two collide. A label line may be a Markdown list item with
    emphasis (see :func:`prompts.without_emphasis`). A member missing
    from the response, or labeled with something unrecognized, ballots
    ``None`` with a parse warning; names outside the group are ignored. A
    response with no labeled line at all is :class:`WhollyMalformed` (the
    gateway retries once).
    """
    names = handle_names(group.member_ids, _HANDLE_PREFIX)
    found: dict[str, TaintLabel] = {}
    any_labeled_line = False
    for line in text.splitlines():
        m = _LABEL_LINE_RE.match(without_emphasis(line))
        if not m:
            continue
        any_labeled_line = True
        rid = names.get(m.group(1))
        if rid is not None and rid not in found:
            found[rid] = _LABELS[m.group(2).lower()]
    if group.member_ids and not any_labeled_line:
        raise WhollyMalformed("no labeled line recoverable from response")
    ballots = []
    for rid in group.member_ids:
        if rid in found:
            ballots.append(Ballot(group.round_index, group.group_id, found[rid]))
        else:
            logger.warning("group %s: no label for %s in response", group.group_id, rid)
            ballots.append(Ballot(group.round_index, group.group_id, TaintLabel.NONE, parse_warning=True))
    return ballots


def is_decided(ballots: list[Ballot]) -> bool:
    """True for two ballots that agree, neither with a parse warning.

    A third ballot could then neither change the majority nor make a tie.
    """
    return (
        len(ballots) == 2
        and ballots[0].label == ballots[1].label
        and not any(b.parse_warning for b in ballots)
    )


def tally_votes(ballots_by_api: dict[str, list[Ballot]]) -> list[VoteRecord]:
    """Resolve each API's ballots by majority.

    An API holds three ballots, or two that agree when its first two rounds
    decided it; any other count is :class:`BallotCountMismatch`. A label
    held by at least two ballots wins; three distinct labels resolve
    ``None`` with the tie flag set.
    """
    votes = []
    for api_id in sorted(ballots_by_api):
        ballots = sorted(ballots_by_api[api_id], key=lambda b: b.round)
        agreeing_pair = len(ballots) == 2 and ballots[0].label == ballots[1].label
        if len(ballots) != ROUNDS and not agreeing_pair:
            raise BallotCountMismatch(
                f"{api_id}: expected {ROUNDS} ballots or 2 that agree, got {len(ballots)}"
            )
        label, count = Counter(b.label for b in ballots).most_common(1)[0]
        if count >= 2:
            votes.append(VoteRecord(api_id, tuple(ballots), label, tie=False))
        else:
            votes.append(VoteRecord(api_id, tuple(ballots), TaintLabel.NONE, tie=True))
    return votes


# ---------------------------------------------------------------------------
# Stage driver
# ---------------------------------------------------------------------------


def _cast_ballots(
    groups: list[ContextGroup],
    lookup: dict[str, ApiRecord],
    gateway: LlmGateway,
    ballots_by_api: dict[str, list[Ballot]],
) -> None:
    """Send one batch of group prompts and add each member's ballot.

    Group calls run concurrently; the transcript is written in group order,
    so the sequence ids embedded in ballots are reproducible. A group whose
    answer is still wholly malformed after the gateway's retry ballots
    ``None`` with a parse warning for every member.
    """
    results = gateway.ask_all(
        "classify",
        [build_classification_prompt(group, lookup) for group in groups],
        lambda index, text: parse_classification_response(text, groups[index]),
    )
    for group, (parsed, seq) in zip(groups, results):
        if parsed is None:
            logger.warning(
                "group %s: still malformed after retry, all members ballot None", group.group_id
            )
            parsed = [
                Ballot(group.round_index, group.group_id, TaintLabel.NONE, parse_warning=True)
                for _ in group.member_ids
            ]
        for rid, ballot in zip(group.member_ids, parsed):
            ballots_by_api[rid].append(replace(ballot, response_ref=seq))


def classify_records(
    records: list[ApiRecord],
    gateway: LlmGateway,
    budget: int,
    seed: int,
) -> list[VoteRecord]:
    """Classify every record: plan groups, call the model per group, tally.

    Rounds 1 and 2 go out as one batch, round 3 as a second batch over the
    records they left undecided (see :func:`is_decided`). Within a batch the
    merge is keyed by api id and therefore order-independent. A wholly
    malformed response is retried once, after which every member of the
    group ballots ``None`` with a parse warning.
    """
    if not records:
        return []
    lookup = record_lookup(records)
    ballots_by_api: dict[str, list[Ballot]] = defaultdict(list)
    first = plan_groups(records, budget, seed, rounds=range(ROUNDS - 1))
    _cast_ballots(first, lookup, gateway, ballots_by_api)

    undecided = [
        lookup[rid] for rid in sorted(ballots_by_api) if not is_decided(ballots_by_api[rid])
    ]
    last = plan_groups(undecided, budget, seed, rounds=(ROUNDS - 1,), earlier=first)
    logger.info(
        "classify: %d of %d records undecided after two rounds; round 3 sends %d groups",
        len(undecided),
        len(records),
        len(last),
    )
    _cast_ballots(last, lookup, gateway, ballots_by_api)
    return tally_votes(ballots_by_api)

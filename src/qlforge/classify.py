"""Taint-label classification by triple voting.

Each API record is evaluated in three distinct contextual groups, one per
round, and the final label is the majority of the three ballots. Grouping is
a pure function of (records, budget, seed): per round the records are
shuffled with a seeded permutation and greedily packed into groups whose
rendered prompt stays within the token budget. Rounds after the first pick,
among a fixed set of candidate permutations, the one whose co-membership
overlaps the previous rounds least, so a record meets different neighbors in
every round whenever the population allows it.

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
from functools import lru_cache
from pathlib import Path

from .artifacts import dump_json, parse_entries, read_text, write_text
from .errors import BallotCountMismatch, RecordTooLarge, UnknownApiId, WhollyMalformed
from .gateway import LlmGateway, estimate_tokens, simple_request
from .prompts import load_catalog, load_template, pack_greedy, render_template
from .records import ApiRecord, record_lookup

logger = logging.getLogger(__name__)

ROUNDS = 3  # triple voting: fixed, not configurable
_RESHUFFLE_CANDIDATES = 8
_IDENTICAL_CONTEXT_PENALTY = 1000

VOTES_DOC_VERSION = 1


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
    round_index: int
    group_id: str
    label: TaintLabel
    response_ref: int | None = None
    parse_warning: bool = False


@dataclass(frozen=True)
class VoteRecord:
    api_id: str
    ballots: tuple[Ballot, ...]
    resolved: TaintLabel
    tie: bool

    def to_dict(self) -> dict:
        return {
            "api_id": self.api_id,
            "ballots": [
                {
                    "round": b.round_index,
                    "group_id": b.group_id,
                    "label": b.label.value,
                    "response_ref": b.response_ref,
                    "parse_warning": b.parse_warning,
                }
                for b in self.ballots
            ],
            "resolved": self.resolved.value,
            "tie": self.tie,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VoteRecord":
        return cls(
            api_id=data["api_id"],
            ballots=tuple(
                Ballot(
                    round_index=b["round"],
                    group_id=b["group_id"],
                    label=TaintLabel(b["label"]),
                    response_ref=b["response_ref"],
                    parse_warning=b["parse_warning"],
                )
                for b in data["ballots"]
            ),
            resolved=TaintLabel(data["resolved"]),
            tie=data["tie"],
        )


# ---------------------------------------------------------------------------
# Prompt assembly
# ---------------------------------------------------------------------------

_DEFINITIONS = """\
- Source: an entry point where attacker-controllable data enters the program; the starting point of data-flow analysis.
- Sink: an operation where attacker-influenced data can trigger a vulnerability; the endpoint of data-flow analysis.
- Sanitizer: an operation that interrupts taint propagation by validating, escaping, or canonicalizing a value.
- Taint tracking chain: the path data takes from a source to a sink; a chain is dangerous when no sanitizer breaks it."""

_SCHEMA_HEADER = """\
Print exactly one line per API id, in this exact format and nothing else:
<api_id>: <Source|Sink|Sanitizer|None>
Label every one of these ids: """


@lru_cache(maxsize=None)
def _steps_text() -> str:
    catalog = load_catalog()

    def numbered(items):
        return "\n".join(f"   {i}. {item}" for i, item in enumerate(items, 1))

    return (
        "1. Parse the API data block and examine each method in turn.\n"
        "2. Identify potential sink points using these 9 characteristics:\n"
        f"{numbered(catalog['sink_characteristics'])}\n"
        "3. Identify potential source points using these 8 heuristics:\n"
        f"{numbered(catalog['source_heuristics'])}\n"
        "4. Identify sanitizer points using these 3 criteria:\n"
        f"{numbered(catalog['sanitizer_criteria'])}\n"
        "5. Trace plausible taint chains between the sources and sinks you found "
        "and revisit any label that no chain supports.\n"
        "6. Emit one label per API id in the exact output format below."
    )


def _member_block(record: ApiRecord) -> str:
    return record.json_text + "\n"


def _render_prompt(members: list[ApiRecord]) -> str:
    api_info = "".join(_member_block(r) for r in members)
    id_list = ", ".join(r.id for r in members)
    return render_template(
        load_template("classify_prompt.txt"),
        {
            "DEFINITIONS": _DEFINITIONS,
            "API_INFORMATION": api_info,
            "STEPS": _steps_text(),
            "OUTPUT_SCHEMA": _SCHEMA_HEADER + id_list,
        },
    )


def _frame_cost() -> int:
    return estimate_tokens(_render_prompt([]))


def _member_cost(record: ApiRecord) -> int:
    # Covers the record's data block plus its entry in the id list
    # (id + ", " separator), so summed member costs plus the frame cost
    # upper-bound the rendered prompt estimate.
    return estimate_tokens(_member_block(record)) + estimate_tokens(record.id + ", ")


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


def plan_groups(records: list[ApiRecord], budget: int, seed: int) -> list[ContextGroup]:
    """Plan three rounds of classification groups under a token budget.

    Every record id lands in exactly one group per round; each group's
    conservative token estimate stays within ``budget``. Deterministic for
    fixed (records, budget, seed).

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
    history: list[dict[str, int]] = []
    plan: list[ContextGroup] = []
    for round_index in range(ROUNDS):
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

    The rendered text carries, in order: the objective, the concept
    definitions, the serialized member records, the six-step analysis
    framework, and the strict output schema naming every member id.
    """
    members = []
    for rid in group.member_ids:
        if rid not in records_by_id:
            raise UnknownApiId(f"group {group.group_id} references unknown api id {rid}")
        members.append(records_by_id[rid])
    return _render_prompt(members)


# ---------------------------------------------------------------------------
# Response parsing and the vote tally
# ---------------------------------------------------------------------------

_LABEL_LINE_RE = re.compile(
    r"""^\s*[-*]*\s*["'`]?([\w.\-]+)["'`]?\s*[:=]\s*["'`]?(source|sink|sanitizer|none)\b""",
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

    A member missing from the response, or labeled with something
    unrecognized, ballots ``None`` with a parse warning; ids outside the
    group are ignored. A response with no labeled line at all is
    :class:`WhollyMalformed` (the caller retries once).
    """
    members = set(group.member_ids)
    found: dict[str, TaintLabel] = {}
    any_labeled_line = False
    for line in text.splitlines():
        m = _LABEL_LINE_RE.match(line)
        if not m:
            continue
        any_labeled_line = True
        token = m.group(1)
        if token in members and token not in found:
            found[token] = _LABELS[m.group(2).lower()]
    if members and not any_labeled_line:
        raise WhollyMalformed("no labeled line recoverable from response")
    ballots = []
    for rid in group.member_ids:
        if rid in found:
            ballots.append(Ballot(group.round_index, group.group_id, found[rid]))
        else:
            logger.warning("group %s: no label for %s in response", group.group_id, rid)
            ballots.append(Ballot(group.round_index, group.group_id, TaintLabel.NONE, parse_warning=True))
    return ballots


def tally_votes(ballots_by_api: dict[str, list[Ballot]]) -> list[VoteRecord]:
    """Resolve each API's three ballots by majority.

    A label held by at least two ballots wins; three distinct labels resolve
    ``None`` with the tie flag set.
    """
    votes = []
    for api_id in sorted(ballots_by_api):
        ballots = sorted(ballots_by_api[api_id], key=lambda b: b.round_index)
        if len(ballots) != ROUNDS:
            raise BallotCountMismatch(f"{api_id}: expected {ROUNDS} ballots, got {len(ballots)}")
        counts = Counter(b.label for b in ballots)
        label, count = counts.most_common(1)[0]
        if count >= 2:
            votes.append(VoteRecord(api_id, tuple(ballots), label, tie=False))
        else:
            votes.append(VoteRecord(api_id, tuple(ballots), TaintLabel.NONE, tie=True))
    return votes


# ---------------------------------------------------------------------------
# Stage driver
# ---------------------------------------------------------------------------


def classify_records(
    records: list[ApiRecord],
    gateway: LlmGateway,
    model: str,
    budget: int,
    seed: int,
    temperature: float | None = None,
    workers: int = 4,
) -> list[VoteRecord]:
    """Classify every record: plan groups, call the model per group, tally.

    Group calls run concurrently; the merge is keyed by api id and therefore
    order-independent. A wholly malformed response is retried once, after
    which every member of the group ballots ``None``.
    """
    if not records:
        return []
    plan = plan_groups(records, budget, seed)
    lookup = record_lookup(records)
    requests = [
        simple_request(
            "classify", model, build_classification_prompt(group, lookup), temperature=temperature
        )
        for group in plan
    ]
    # Group calls run concurrently; the transcript is written in plan order,
    # so the sequence ids embedded in ballots are reproducible. Wholly
    # malformed responses are retried one group at a time afterwards.
    results = gateway.complete_batch(requests, workers)

    def parse_or_none(group: ContextGroup, response, seq: int, retry_left: bool) -> list[Ballot] | None:
        try:
            parsed = parse_classification_response(response.text, group)
        except WhollyMalformed:
            if retry_left:
                return None
            logger.warning(
                "group %s: still malformed after retry, all members ballot None", group.group_id
            )
            return [
                Ballot(group.round_index, group.group_id, TaintLabel.NONE, seq, True)
                for _ in group.member_ids
            ]
        return [replace(b, response_ref=seq) for b in parsed]

    per_group: list[list[Ballot] | None] = []
    for group, (response, seq) in zip(plan, results):
        per_group.append(parse_or_none(group, response, seq, retry_left=True))
    for index, ballots in enumerate(per_group):
        if ballots is not None:
            continue
        group = plan[index]
        logger.warning("group %s: wholly malformed response, retrying once", group.group_id)
        response, seq = gateway.complete(requests[index])
        per_group[index] = parse_or_none(group, response, seq, retry_left=False)

    ballots_by_api: dict[str, list[Ballot]] = defaultdict(list)
    for group, ballots in zip(plan, per_group):
        assert ballots is not None
        for rid, ballot in zip(group.member_ids, ballots):
            ballots_by_api[rid].append(ballot)
    return tally_votes(ballots_by_api)


# ---------------------------------------------------------------------------
# Votes artifact
# ---------------------------------------------------------------------------


def dump_votes(votes: list[VoteRecord]) -> str:
    ordered = sorted(votes, key=lambda v: v.api_id)
    doc = {"version": VOTES_DOC_VERSION, "votes": [v.to_dict() for v in ordered]}
    return dump_json(doc)


def parse_votes(text: str, source: str | Path = "votes document") -> list[VoteRecord]:
    return parse_entries(text, source, VOTES_DOC_VERSION, "votes", VoteRecord.from_dict)


def save_votes(votes: list[VoteRecord], path: str | Path) -> None:
    write_text(path, dump_votes(votes))


def load_votes(path: str | Path) -> list[VoteRecord]:
    return parse_votes(read_text(path), path)

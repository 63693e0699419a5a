"""Pairing of classified sources with sinks into candidate exploit chains.

Sources and sinks are split into groups and the model sees one prompt per
(source group × sink group) tile, each carrying every sanitizer. The tile
plan depends only on (sources, sinks, sanitizers, budget): every
combination lands in exactly one tile, and every tile's prompt estimate
stays within the token budget.

With ``frame`` the estimate of a prompt with no candidates and
``room = budget − frame``, a plan of S source groups and K sink groups
sends about K·Σsources + S·Σsinks + S·K·frame tokens, its score. Groups
are contiguous runs of the sorted ids, and the plan is the one of least
score. For each S the sources are balanced into S groups, so the largest
is as small as it can be; the sinks get the room that group leaves, K is
the fewest sink groups that fit it, and the sinks are balanced into K
groups. Any plan with S source groups has a largest source group no
smaller than the balanced one's, so the search finds the least score of
all contiguous plans; it stops once S·Σsinks alone reaches the best score
found. A tie goes to fewer tiles, then to fewer source groups. When both
sides fit ``room`` together this is one tile, the prompt of all sources
against all sinks. Tiles run sink-group-major.

A prompt lists each candidate under a short handle in place of its id:
sources s1.., sinks k1.. and sanitizers z1.., numbered in sorted-id order.
Responses are line-oriented; chatter around recognizable pair lines is
ignored, a candidate may be named by its handle or its full id, and pairs
naming anything outside the tile's candidate lists are dropped with a
warning. A response with no recognizable structure at all is retried
once, after which that tile contributes nothing.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Collection

from .artifacts import Document, JsonDataclass
from .errors import NothingToPair, RecordTooLarge, WhollyMalformed
from .gateway import LlmGateway, estimate_tokens
from .prompts import handle_names, handles, load_template, pack_greedy, render_template, with_handle
from .records import ApiRecord, record_lookup, records_for

logger = logging.getLogger(__name__)

DEFAULT_BUDGET = 16000

_NO_PAIRS_SENTINEL = "NO_PAIRS"
# Handle prefixes of the sources (s1..), sinks (k1..) and sanitizers (z1..).
_HANDLE_PREFIXES = ("s", "k", "z")

_PAIR_LINE_RE = re.compile(
    r"""^\s*PAIR:\s*\(\s*([\w.\-]+)\s*,\s*([\w.\-]+)\s*\)
        \s*\|\s*CLASS:\s*([^|]+?)
        (?:\s*\|\s*RATIONALE:\s*([^|]*?))?
        (?:\s*\|\s*CONFIDENCE:\s*([^|]*?))?
        (?:\s*\|\s*SANITIZED_BY:\s*([^|]*?))?
        \s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class SourceSinkPair(JsonDataclass):
    pair_id: str
    source_id: str
    sink_id: str
    vuln_class: str
    rationale: str = ""
    confidence: str = ""
    sanitizers: tuple[str, ...] = field(default_factory=tuple)


PAIRS = Document(
    1, "pairs", SourceSinkPair, lambda pairs: sorted(pairs, key=attrgetter("source_id", "sink_id"))
)


def make_pair_id(source_id: str, sink_id: str) -> str:
    return f"{source_id}__{sink_id}"


# ---------------------------------------------------------------------------
# Prompt assembly
# ---------------------------------------------------------------------------

_PAIR_SCHEMA = """\
For every plausible chain print exactly one line in this format:
PAIR: (<source_id>, <sink_id>) | CLASS: <vuln-class-tag> | RATIONALE: <one sentence> | CONFIDENCE: <low|medium|high>
Append " | SANITIZED_BY: <sanitizer_id>" when one of the listed sanitizers would break the chain.
If no pairing is plausible print exactly:
NO_PAIRS"""


def _candidate_block(ids: list[str], prefix: str, records_by_id: dict[str, ApiRecord]) -> str:
    if not ids:
        return "(none)\n"
    members = records_for(ids, records_by_id, "pairing")
    return "\n".join(map(with_handle, members, handles(prefix, len(ids)))) + "\n"


def build_pairing_prompt(
    source_ids: list[str],
    sink_ids: list[str],
    sanitizer_ids: list[str],
    records_by_id: dict[str, ApiRecord],
) -> str:
    """Render the pairing prompt of one tile.

    Each list is sorted, and its records appear under handles numbered in
    that order (see :data:`_HANDLE_PREFIXES`) in place of their ids.
    """
    src, snk, san = _HANDLE_PREFIXES
    return render_template(
        load_template("pair_prompt.txt"),
        {
            "SOURCE_CANDIDATES": _candidate_block(sorted(source_ids), src, records_by_id),
            "SINK_CANDIDATES": _candidate_block(sorted(sink_ids), snk, records_by_id),
            "SANITIZER_CANDIDATES": _candidate_block(sorted(sanitizer_ids), san, records_by_id),
            "OUTPUT_SCHEMA": _PAIR_SCHEMA,
        },
    )


# ---------------------------------------------------------------------------
# Tile planning
# ---------------------------------------------------------------------------


def _balanced(ids: list[str], costs: dict[str, int], count: int) -> list[list[str]]:
    """``ids`` in at most ``count`` contiguous groups whose largest costs the least.

    That is :func:`prompts.pack_greedy` at the smallest room for which it
    makes no more than ``count`` groups, found by bisection.
    """
    total = sum(costs[rid] for rid in ids)
    low, high = max(max(costs[rid] for rid in ids), -(-total // count)), total
    while low < high:
        mid = (low + high) // 2
        if len(pack_greedy(ids, costs, mid)) <= count:
            high = mid
        else:
            low = mid + 1
    return pack_greedy(ids, costs, low)


def plan_tiles(
    source_ids: list[str],
    sink_ids: list[str],
    sanitizer_ids: list[str],
    records_by_id: dict[str, ApiRecord],
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[list[str], list[str]]]:
    """Split the (source × sink) grid into tiles of (source group, sink group).

    See the module docstring for the plan. Raises :class:`RecordTooLarge`
    when the largest source and the largest sink together cannot fit one
    prompt, and :class:`UnknownApiId` for an id missing from the lookup.
    """
    sources, sinks = sorted(source_ids), sorted(sink_ids)
    if not sources or not sinks:
        return []
    frame = estimate_tokens(build_pairing_prompt([], [], sanitizer_ids, records_by_id))
    ids = sources + sinks
    costs = {
        rid: estimate_tokens(record.prompt_text + "\n")
        for rid, record in zip(ids, records_for(ids, records_by_id, "pairing"))
    }
    room = budget - frame
    # max() returns the first largest, which is the smallest such id.
    biggest_src = max(sources, key=costs.__getitem__)
    biggest_snk = max(sinks, key=costs.__getitem__)
    if costs[biggest_src] + costs[biggest_snk] > room:
        raise RecordTooLarge(
            f"pairing budget {budget} cannot fit source {biggest_src} with sink "
            f"{biggest_snk} and the sanitizers in one prompt",
            record_ids=(biggest_src, biggest_snk),
        )

    src_total = sum(costs[rid] for rid in sources)
    snk_total = sum(costs[rid] for rid in sinks)
    # best is ((score, tiles, source groups), source groups, sink group count).
    best: tuple[tuple[int, int, int], list[list[str]], int] | None = None
    for count in range(1, len(sources) + 1):
        # The score grows with S·Σsinks, so no larger count can win.
        if best is not None and count * snk_total >= best[0][0]:
            break
        source_groups = _balanced(sources, costs, count)
        sink_room = room - max(sum(costs[rid] for rid in group) for group in source_groups)
        # Fewer source groups leave too little room for the largest sink.
        if sink_room < costs[biggest_snk]:
            continue
        s, k = len(source_groups), len(pack_greedy(sinks, costs, sink_room))
        key = (k * src_total + s * snk_total + s * k * frame, s * k, s)
        if best is None or key < best[0]:
            best = (key, source_groups, k)
    assert best is not None  # one source per group always leaves room for the largest sink
    _, source_groups, k = best
    sink_groups = _balanced(sinks, costs, k)
    return [
        (source_group, sink_group) for sink_group in sink_groups for source_group in source_groups
    ]


# ---------------------------------------------------------------------------
# Response parsing
# ---------------------------------------------------------------------------


def _normalize_class(raw: str) -> str:
    return re.sub(r"\s+", "-", raw.strip().lower())


def parse_pair_lines(
    text: str,
    valid_sources: Collection[str],
    valid_sinks: Collection[str],
    valid_sanitizers: Collection[str],
) -> list[SourceSinkPair]:
    """Extract pairs from one response; unknown ids are dropped with a warning.

    A candidate is named by its handle in the prompt of these candidate
    lists (see :func:`build_pairing_prompt`) or by its full id; a handle
    wins where the two collide. Raises :class:`WhollyMalformed` when neither
    a pair line nor the NO_PAIRS sentinel appears anywhere (the gateway
    retries once).
    """
    source_names, sink_names, sanitizer_names = (
        handle_names(sorted(ids), prefix)
        for ids, prefix in zip((valid_sources, valid_sinks, valid_sanitizers), _HANDLE_PREFIXES)
    )
    pairs: list[SourceSinkPair] = []
    seen: set[tuple[str, str]] = set()
    recognized = False
    for line in text.splitlines():
        if line.strip() == _NO_PAIRS_SENTINEL:
            recognized = True
            continue
        m = _PAIR_LINE_RE.match(line)
        if not m:
            continue
        recognized = True
        src_name, snk_name, raw_class, rationale, confidence, sanitized_by = m.groups()
        src, snk = source_names.get(src_name), sink_names.get(snk_name)
        if src is None or snk is None:
            logger.warning("dropping pair with unknown id(s): (%s, %s)", src_name, snk_name)
            continue
        if (src, snk) in seen:
            continue
        seen.add((src, snk))
        sanitizers = tuple(
            sanitizer_names[tok]
            for tok in re.split(r"[,\s]+", (sanitized_by or "").strip())
            if tok and tok in sanitizer_names
        )
        pairs.append(
            SourceSinkPair(
                pair_id=make_pair_id(src, snk),
                source_id=src,
                sink_id=snk,
                vuln_class=_normalize_class(raw_class),
                rationale=(rationale or "").strip(),
                confidence=(confidence or "").strip(),
                sanitizers=sanitizers,
            )
        )
    if not recognized:
        raise WhollyMalformed("no pair line or NO_PAIRS sentinel in response")
    return pairs


# ---------------------------------------------------------------------------
# Stage driver
# ---------------------------------------------------------------------------


def pair_all(
    votes,
    records: list[ApiRecord],
    gateway: LlmGateway,
    budget: int = DEFAULT_BUDGET,
    drop_sanitized: bool = False,
) -> list[SourceSinkPair]:
    """Pair every classified source against every classified sink.

    Raises :class:`NothingToPair` when either side is empty. By default the
    sanitizer ids the model reported are kept on the pair record; with
    ``drop_sanitized`` set, pairs the model marked as broken by a sanitizer
    are removed from the result instead. A tile whose answer is still wholly
    malformed after the gateway's retry contributes nothing.
    """
    from .classify import TaintLabel  # local import to avoid a cycle

    sources = sorted(v.api_id for v in votes if v.resolved is TaintLabel.SOURCE)
    sinks = sorted(v.api_id for v in votes if v.resolved is TaintLabel.SINK)
    sanitizers = sorted(v.api_id for v in votes if v.resolved is TaintLabel.SANITIZER)
    if not sources or not sinks:
        raise NothingToPair(
            f"cannot pair with {len(sources)} source(s) and {len(sinks)} sink(s)"
        )
    lookup = record_lookup(records)
    tiles = plan_tiles(sources, sinks, sanitizers, lookup, budget)
    results = gateway.ask_all(
        "pair",
        [build_pairing_prompt(*tile, sanitizers, lookup) for tile in tiles],
        lambda index, text: parse_pair_lines(text, *tiles[index], sanitizers),
    )
    merged: dict[tuple[str, str], SourceSinkPair] = {}
    for (tile_sources, tile_sinks), (tile_pairs, _seq) in zip(tiles, results):
        if tile_pairs is None:
            logger.warning(
                "pair tile with source %s and sink %s: still malformed after retry, dropped",
                tile_sources[0],
                tile_sinks[0],
            )
            continue
        for pair in tile_pairs:
            merged.setdefault((pair.source_id, pair.sink_id), pair)
    result = [merged[key] for key in sorted(merged)]
    if drop_sanitized:
        kept = [p for p in result if not p.sanitizers]
        dropped = len(result) - len(kept)
        if dropped:
            logger.info("dropped %d sanitized pair(s)", dropped)
        result = kept
    return result

"""Pairing of classified sources with sinks into candidate exploit chains.

Sources and sinks are split into groups and the model sees one prompt per
(source group × sink group) tile, each carrying every sanitizer. The tile
plan depends only on (sources, sinks, sanitizers, budget): every
combination lands in exactly one tile, and every tile's prompt estimate
stays within the token budget.

With ``frame`` the estimate of a prompt with no candidates and
``room = budget − frame``, the plan is the first of these that applies:

1. both sides fit ``room`` together: one tile, which is the prompt of all
   sources against all sinks;
2. otherwise each side is packed into half of ``room``, so a side that fits
   its half stays whole.

Packing is greedy in sorted-id order (see :func:`prompts.pack_greedy`) and
tiles run sink-group-major. With S source groups and K sink groups the run
sends about K·Σsources + S·Σsinks + S·K·frame tokens, which for a fixed
room is least at the even split, so no tuning constant is needed.

Responses are line-oriented; chatter around recognizable pair lines is
ignored, and pairs naming ids outside the tile's candidate lists are dropped
with a warning. A response with no recognizable structure at all is retried
once, after which that tile contributes nothing.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

from .artifacts import dump_json, parse_entries, read_text, write_text
from .errors import NothingToPair, RecordTooLarge, UnknownApiId, WhollyMalformed
from .gateway import LlmGateway, estimate_tokens, simple_request
from .prompts import load_template, pack_greedy, render_template
from .records import ApiRecord, record_lookup

logger = logging.getLogger(__name__)

PAIRS_DOC_VERSION = 1
DEFAULT_BUDGET = 16000

_NO_PAIRS_SENTINEL = "NO_PAIRS"

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
class SourceSinkPair:
    pair_id: str
    source_id: str
    sink_id: str
    vuln_class: str
    rationale: str = ""
    confidence: str = ""
    sanitizers: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "pair_id": self.pair_id,
            "source_id": self.source_id,
            "sink_id": self.sink_id,
            "vuln_class": self.vuln_class,
            "rationale": self.rationale,
            "confidence": self.confidence,
            "sanitizers": list(self.sanitizers),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SourceSinkPair":
        return cls(
            pair_id=data["pair_id"],
            source_id=data["source_id"],
            sink_id=data["sink_id"],
            vuln_class=data["vuln_class"],
            rationale=data.get("rationale", ""),
            confidence=data.get("confidence", ""),
            sanitizers=tuple(data.get("sanitizers", ())),
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


def _candidate_block(ids: list[str], records_by_id: dict[str, ApiRecord]) -> str:
    if not ids:
        return "(none)\n"
    lines = []
    for rid in ids:
        if rid not in records_by_id:
            raise UnknownApiId(f"pairing references unknown api id {rid}")
        lines.append(records_by_id[rid].json_text)
    return "\n".join(lines) + "\n"


def build_pairing_prompt(
    source_ids: list[str],
    sink_ids: list[str],
    sanitizer_ids: list[str],
    records_by_id: dict[str, ApiRecord],
) -> str:
    return render_template(
        load_template("pair_prompt.txt"),
        {
            "SOURCE_CANDIDATES": _candidate_block(sorted(source_ids), records_by_id),
            "SINK_CANDIDATES": _candidate_block(sorted(sink_ids), records_by_id),
            "SANITIZER_CANDIDATES": _candidate_block(sorted(sanitizer_ids), records_by_id),
            "OUTPUT_SCHEMA": _PAIR_SCHEMA,
        },
    )


# ---------------------------------------------------------------------------
# Tile planning
# ---------------------------------------------------------------------------


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
    costs = {}
    for rid in sources + sinks:
        if rid not in records_by_id:
            raise UnknownApiId(f"pairing references unknown api id {rid}")
        costs[rid] = estimate_tokens(records_by_id[rid].json_text + "\n")
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
    src_room = src_total if src_total + snk_total <= room else room // 2
    # A member larger than its side's share borrows room from the other side.
    src_room = max(costs[biggest_src], min(src_room, room - costs[biggest_snk]))
    source_groups = pack_greedy(sources, costs, src_room)
    sink_groups = pack_greedy(sinks, costs, room - src_room)
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
    valid_sources: set[str],
    valid_sinks: set[str],
    valid_sanitizers: set[str],
) -> list[SourceSinkPair]:
    """Extract pairs from one response; unknown ids are dropped with a warning.

    Raises :class:`WhollyMalformed` when neither a pair line nor the
    NO_PAIRS sentinel appears anywhere (the caller retries once).
    """
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
        src, snk, raw_class, rationale, confidence, sanitized_by = m.groups()
        if src not in valid_sources or snk not in valid_sinks:
            logger.warning("dropping pair with unknown id(s): (%s, %s)", src, snk)
            continue
        if (src, snk) in seen:
            continue
        seen.add((src, snk))
        sanitizers = tuple(
            tok
            for tok in re.split(r"[,\s]+", (sanitized_by or "").strip())
            if tok and tok in valid_sanitizers
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
    model: str,
    budget: int = DEFAULT_BUDGET,
    drop_sanitized: bool = False,
    temperature: float | None = None,
    workers: int = 4,
) -> list[SourceSinkPair]:
    """Pair every classified source against every classified sink.

    Raises :class:`NothingToPair` when either side is empty. By default the
    sanitizer ids the model reported are kept on the pair record; with
    ``drop_sanitized`` set, pairs the model marked as broken by a sanitizer
    are removed from the result instead.
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
    requests = [
        simple_request(
            "pair",
            model,
            build_pairing_prompt(tile_sources, tile_sinks, sanitizers, lookup),
            temperature=temperature,
        )
        for tile_sources, tile_sinks in tiles
    ]
    results = gateway.complete_batch(requests, workers)

    def parse_tile(
        tile_sources: list[str], tile_sinks: list[str], text: str
    ) -> list[SourceSinkPair]:
        return parse_pair_lines(text, set(tile_sources), set(tile_sinks), set(sanitizers))

    # Wholly malformed tiles get exactly one retry, sequentially and in
    # tile order so transcript sequence ids stay reproducible.
    per_tile: list[list[SourceSinkPair]] = []
    for (tile_sources, tile_sinks), request, (response, _seq) in zip(tiles, requests, results):
        try:
            per_tile.append(parse_tile(tile_sources, tile_sinks, response.text))
        except WhollyMalformed:
            retry_response, _ = gateway.complete(request)
            try:
                per_tile.append(parse_tile(tile_sources, tile_sinks, retry_response.text))
            except WhollyMalformed:
                logger.warning(
                    "pair tile with source %s and sink %s: still malformed after retry, dropped",
                    tile_sources[0],
                    tile_sinks[0],
                )
                per_tile.append([])

    merged: dict[tuple[str, str], SourceSinkPair] = {}
    for tile_pairs in per_tile:
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


# ---------------------------------------------------------------------------
# Pairs artifact
# ---------------------------------------------------------------------------


def dump_pairs(pairs: list[SourceSinkPair]) -> str:
    ordered = sorted(pairs, key=lambda p: (p.source_id, p.sink_id))
    doc = {"version": PAIRS_DOC_VERSION, "pairs": [p.to_dict() for p in ordered]}
    return dump_json(doc)


def parse_pairs_document(text: str, source: str | Path = "pairs document") -> list[SourceSinkPair]:
    return parse_entries(text, source, PAIRS_DOC_VERSION, "pairs", SourceSinkPair.from_dict)


def save_pairs(pairs: list[SourceSinkPair], path: str | Path) -> None:
    write_text(path, dump_pairs(pairs))


def load_pairs(path: str | Path) -> list[SourceSinkPair]:
    return parse_pairs_document(read_text(path), path)

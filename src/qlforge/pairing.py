"""Pairing of classified sources with sinks into candidate exploit chains.

Sinks are split into fixed-size chunks and every chunk is presented to the
model together with the full source list and the sanitizer list, so each
call stays bounded while no (source, sink) combination is ever out of
reach. Responses are line-oriented; chatter around recognizable pair lines
is ignored, and pairs naming ids outside the candidate lists are dropped
with a warning. A response with no recognizable structure at all is retried
once, after which that chunk contributes nothing.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

from .artifacts import parse_entries
from .errors import NothingToPair, UnknownApiId, WhollyMalformed
from .gateway import LlmGateway, simple_request
from .prompts import load_template, render_template
from .records import ApiRecord, record_lookup

logger = logging.getLogger(__name__)

PAIRS_DOC_VERSION = 1
DEFAULT_CHUNK_SIZE = 10

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


def plan_sink_chunks(sink_ids: list[str], chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[list[str]]:
    """Split the sorted sink list into consecutive chunks of at most chunk_size."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    ordered = sorted(sink_ids)
    return [ordered[i : i + chunk_size] for i in range(0, len(ordered), chunk_size)]


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
    chunk_size: int = DEFAULT_CHUNK_SIZE,
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
    chunks = plan_sink_chunks(sinks, chunk_size)
    requests = [
        simple_request(
            "pair",
            model,
            build_pairing_prompt(sources, chunk, sanitizers, lookup),
            temperature=temperature,
        )
        for chunk in chunks
    ]
    results = gateway.complete_batch(requests, workers)

    def parse_chunk(chunk: list[str], text: str) -> list[SourceSinkPair]:
        return parse_pair_lines(text, set(sources), set(chunk), set(sanitizers))

    # Wholly malformed chunks get exactly one retry, sequentially and in
    # chunk order so transcript sequence ids stay reproducible.
    per_chunk: list[list[SourceSinkPair]] = []
    for chunk, request, (response, _seq) in zip(chunks, requests, results):
        try:
            per_chunk.append(parse_chunk(chunk, response.text))
        except WhollyMalformed:
            retry_response, _ = gateway.complete(request)
            try:
                per_chunk.append(parse_chunk(chunk, retry_response.text))
            except WhollyMalformed:
                logger.warning(
                    "pair chunk with sink %s: still malformed after retry, dropped",
                    chunk[0],
                )
                per_chunk.append([])

    merged: dict[tuple[str, str], SourceSinkPair] = {}
    for chunk_pairs in per_chunk:
        for pair in chunk_pairs:
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
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def parse_pairs_document(text: str, source: str | Path = "pairs document") -> list[SourceSinkPair]:
    return parse_entries(text, source, PAIRS_DOC_VERSION, "pairs", SourceSinkPair.from_dict)


def save_pairs(pairs: list[SourceSinkPair], path: str | Path) -> None:
    Path(path).write_text(dump_pairs(pairs), encoding="utf-8")


def load_pairs(path: str | Path) -> list[SourceSinkPair]:
    return parse_pairs_document(Path(path).read_text(encoding="utf-8"), path)

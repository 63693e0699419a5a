"""Rule generation with a bounded write / compile / repair loop, plus scanning.

Three roles cooperate per pair: a writer drafts the rule file, a compiler
checks it, and on failure a repairer turns the diagnostics into advice that
is folded into the next writer prompt. The loop is bounded by ``max_iters``
attempts; a pair whose final attempt still fails is recorded as Aborted
with its last diagnostics, never silently dropped, and stays in the
denominator of the correctness rate. A missing compiler aborts the pair the
same way.

Pairs run side by side under two separate bounds, each ``workers`` wide:
the gateway lets at most ``workers`` model requests be in flight, and
generate lets at most ``workers`` compiles run at once. While one pair
compiles, another can be writing, so neither resource waits on the other.
Each pair's own steps stay strictly in order and each pair keeps its own
transcript, so a pair's prompts and outcome depend on the answers to its own
calls, not on how the pairs interleave.

A compile's outcome is its diagnostics: none when the rule compiled, at
least one when it did not (a timed-out compile says the limit was exceeded).

The compiler behind the loop is pluggable. The mock compiler replays a
scripted outcome per pair (fail the first k compiles, then succeed, then
return canned findings on execution), which makes the loop's control flow
testable without any external toolchain.
"""

from __future__ import annotations

import contextlib
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Protocol

from .artifacts import (
    Document,
    JsonDataclass,
    check_version,
    config_input,
    read_json,
    read_text,
    shape_checked,
    without_surrogates,
    write_json,
    write_text,
)
from .errors import ArtifactCorrupt, CompilerUnavailable, ExecutionFailed
from .gateway import LlmGateway, TranscriptStore
from .pairing import SourceSinkPair
from .prompts import load_template, render_template
from .records import ApiRecord, records_for

logger = logging.getLogger(__name__)

DEFAULT_MAX_ITERS = 5
RULE_INDEX_VERSION = 1
COMPILER_SCRIPT_VERSION = 1

_MAX_DIAGNOSTIC_LINES = 40
_MAX_DIAGNOSTIC_CHARS = 8192

RULE_FILENAME = "rule.ql"
TRANSCRIPT_FILENAME = "transcript.jsonl"
STATUS_FILENAME = "status.json"
INDEX_FILENAME = "index.json"


class ArtifactStatus(str, Enum):
    """Terminal state of one pair's generation loop.

    Compiled means an attempt within the cap compiled. Aborted means none
    did: every attempt failed, or the compiler was unavailable. Both count
    toward the correctness rate, whose denominator is all pairs.
    """

    COMPILED = "Compiled"
    ABORTED = "Aborted"


@dataclass(frozen=True)
class Diagnostic(JsonDataclass):
    message: str
    file: str = RULE_FILENAME
    line: int | None = None
    column: int | None = None
    severity: str = "error"

    def format(self) -> str:
        loc = self.file
        if self.line is not None:
            loc += f":{self.line}"
            if self.column is not None:
                loc += f":{self.column}"
        return f"{loc}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class Finding(JsonDataclass):
    pair_id: str
    vuln_class: str
    file: str
    start_line: int
    end_line: int
    message: str = ""


FINDINGS = Document(
    1, "findings", Finding,
    lambda findings: sorted(findings, key=attrgetter("file", "start_line", "end_line", "pair_id")),
)


@dataclass(frozen=True)
class RuleArtifact(JsonDataclass):
    pair_id: str
    vuln_class: str
    status: ArtifactStatus
    attempts: int
    rule_text: str
    diagnostics: tuple[Diagnostic, ...] = field(default_factory=tuple)


class RuleCompiler(Protocol):
    """Compiles rule text and executes compiled rules against a database."""

    def compile(self, pair_id: str, rule_text: str) -> tuple[Diagnostic, ...]:
        """Compile the rule; returns no diagnostics if it compiled, at least one if not."""
        ...

    def execute(self, rules: dict[str, str], database: str) -> dict[str, list[dict]]:
        """Run the rules (pair id -> rule text); return each pair's findings.

        A finding is a row of :class:`Finding`'s ``file``, ``start_line``,
        ``end_line`` and ``message``, with its types.

        Raises :class:`ExecutionFailed` when the run fails and
        :class:`CompilerUnavailable` when the compiler cannot run.
        """
        ...


# ---------------------------------------------------------------------------
# Mock compiler
# ---------------------------------------------------------------------------


@dataclass
class ScriptedFinding(JsonDataclass):
    file: str
    start_line: int
    end_line: int | None = None  # None: the start line
    message: str = ""

    def __post_init__(self):
        if self.end_line is None:
            self.end_line = self.start_line


@dataclass(frozen=True)
class ScriptedOutcome(JsonDataclass):
    """What the mock compiler does for one pair."""

    fail_count: int = 0
    delay_s: float = 0.0
    diagnostics: tuple[Diagnostic, ...] = ()
    findings: tuple[ScriptedFinding, ...] = ()

    def __post_init__(self):
        limit = threading.TIMEOUT_MAX  # about the longest sleep time.sleep accepts
        if not 0 <= self.delay_s <= limit:
            raise ValueError(f"delay_s must be from 0 to {limit}, not {self.delay_s}")


@dataclass(frozen=True)
class CompilerScript(JsonDataclass):
    default: ScriptedOutcome = ScriptedOutcome()
    pairs: dict[str, ScriptedOutcome] = field(default_factory=dict)


_SYNTAX_ERROR = (Diagnostic(message="syntax error in rule", line=1),)


class MockCompiler:
    """Scripted compiler: per pair, fail the first ``fail_count`` compiles.

    The script is a JSON document (a :class:`CompilerScript`) with an
    optional ``default`` outcome and a ``pairs`` map of outcomes keyed by
    pair id. A script of the wrong shape or type is a ConfigError naming
    ``source``. A compile takes ``delay_s``; one whose ``delay_s`` is above
    ``timeout_s`` stops at the limit and times out, whether it would have
    failed or not, as a real compile would. A failing compile with no
    scripted diagnostics reports a syntax error.
    """

    def __init__(
        self, script: dict, source: str | Path = "compiler script", timeout_s: float | None = None
    ):
        clean = without_surrogates(script)
        if clean != script:
            logger.warning("%s: lone surrogates in the script replaced with U+FFFD", source)
        with config_input():
            check_version(clean, source, COMPILER_SCRIPT_VERSION)
            with shape_checked(source, "compiler script"):
                self._script = CompilerScript.from_dict(clean)
        self.timeout_s = timeout_s
        self._calls: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path, timeout_s: float | None = None) -> "MockCompiler":
        with config_input():
            script = read_json(path)
        return cls(script, path, timeout_s)

    def _outcome(self, pair_id: str) -> ScriptedOutcome:
        return self._script.pairs.get(pair_id, self._script.default)

    def compile(self, pair_id: str, rule_text: str) -> tuple[Diagnostic, ...]:
        with self._lock:
            call_index = self._calls.get(pair_id, 0)
            self._calls[pair_id] = call_index + 1
        outcome = self._outcome(pair_id)
        if self.timeout_s is not None and outcome.delay_s > self.timeout_s:
            time.sleep(self.timeout_s)
            return (Diagnostic(message=f"compilation exceeded {self.timeout_s}s"),)
        time.sleep(outcome.delay_s)
        if call_index < outcome.fail_count:
            return outcome.diagnostics or _SYNTAX_ERROR
        return ()

    def execute(self, rules: dict[str, str], database: str) -> dict[str, list[dict]]:
        return {pid: [asdict(f) for f in self._outcome(pid).findings] for pid in rules}

    def compile_calls(self, pair_id: str) -> int:
        with self._lock:
            return self._calls.get(pair_id, 0)


# ---------------------------------------------------------------------------
# Roles
# ---------------------------------------------------------------------------


def _strip_fences(text: str) -> str:
    stripped = text.strip()
    if stripped.startswith("```"):
        lines = stripped.splitlines()
        lines = lines[1:]
        if lines and lines[-1].strip() == "```":
            lines = lines[:-1]
        stripped = "\n".join(lines).strip()
    return stripped


def _pair_info(pair: SourceSinkPair, records_by_id: dict[str, ApiRecord]) -> str:
    ids = (pair.source_id, pair.sink_id)
    source, sink = records_for(ids, records_by_id, f"pair {pair.pair_id}")
    return (
        f"pair: {json.dumps(asdict(pair), ensure_ascii=False)}\n"
        f"source record: {source.prompt_text}\n"
        f"sink record: {sink.prompt_text}\n"
    )


def write_rule(
    pair: SourceSinkPair,
    records_by_id: dict[str, ApiRecord],
    gateway: LlmGateway,
    revision_context: str = "",
) -> str:
    """Ask the writer role for a complete rule file; returns "" for a blank answer."""
    prompt = render_template(
        load_template("write_prompt.txt"),
        {
            "PAIR_INFO": _pair_info(pair, records_by_id),
            "RULE_SKELETON": load_template("rule_skeleton.ql"),
            "REVISION_CONTEXT": revision_context or "(first attempt)",
        },
    )
    text = _strip_fences(gateway.ask("write", prompt))
    return text + "\n" if text else ""


def format_diagnostics(diagnostics: tuple[Diagnostic, ...]) -> str:
    lines = [d.format() for d in diagnostics[:_MAX_DIAGNOSTIC_LINES]]
    text = "\n".join(lines)
    if len(diagnostics) > _MAX_DIAGNOSTIC_LINES or len(text) > _MAX_DIAGNOSTIC_CHARS:
        text = text[:_MAX_DIAGNOSTIC_CHARS] + "\n(truncated)"
    return text or "(no diagnostics)"


def repair_advice(
    rule_text: str,
    diagnostics: tuple[Diagnostic, ...],
    gateway: LlmGateway,
) -> str:
    """Ask the repairer role for advice on a failed compile. Advice only:
    the repairer never emits a replacement file, the writer does."""
    prompt = render_template(
        load_template("repair_prompt.txt"),
        {
            "RULE_TEXT": rule_text,
            "DIAGNOSTICS": format_diagnostics(diagnostics),
        },
    )
    advice = gateway.ask("repair", prompt).strip()
    if not advice:
        # The loop must always make progress, so an empty repairer answer
        # falls back to pointing the writer at the first diagnostic.
        first = diagnostics[0].format() if diagnostics else "the reported compile failure"
        advice = f"Address the first diagnostic: {first}"
    return advice


def _revision_context(
    attempt: int, rule_text: str, diagnostics: tuple[Diagnostic, ...], advice: str
) -> str:
    return (
        f"Attempt {attempt} failed to compile (Error).\n"
        "--- previous rule ---\n"
        f"{rule_text or '(empty)'}\n"
        "--- diagnostics ---\n"
        f"{format_diagnostics(diagnostics)}\n"
        "--- repair advice ---\n"
        f"{advice}\n"
    )


_EMPTY_DRAFT_ADVICE = "The previous attempt produced no output; emit the complete rule file."


def generate_rule(
    pair: SourceSinkPair,
    records_by_id: dict[str, ApiRecord],
    gateway: LlmGateway,
    compiler: RuleCompiler,
    max_iters: int = DEFAULT_MAX_ITERS,
    compile_slot: contextlib.AbstractContextManager = contextlib.nullcontext(),
) -> RuleArtifact:
    """Run the bounded generation loop for one pair.

    Each iteration is one writer attempt followed by one compile. A failed
    compile that is not the last attempt triggers one repair call whose
    advice feeds the next attempt. An empty draft counts as a failed
    attempt but skips the repair call, since there is nothing to diagnose.
    The loop stops at the first clean compile; the artifact keeps the last
    attempt's diagnostics and is Aborted exactly when there are any. Each
    compile runs inside ``compile_slot``.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    revision = ""
    for attempt in range(1, max_iters + 1):
        rule_text = write_rule(pair, records_by_id, gateway, revision)
        if not rule_text:
            logger.warning("pair %s attempt %d: empty draft", pair.pair_id, attempt)
            diagnostics = (Diagnostic(message="writer returned empty output"),)
        else:
            try:
                with compile_slot:
                    diagnostics = compiler.compile(pair.pair_id, rule_text)
            except CompilerUnavailable as exc:
                logger.error("pair %s: compiler unavailable, aborting: %s", pair.pair_id, exc)
                diagnostics = (Diagnostic(message=f"compiler unavailable: {exc}"),)
                break
            if not diagnostics:
                break
            logger.info("pair %s attempt %d/%d failed to compile", pair.pair_id, attempt, max_iters)
        if attempt < max_iters:
            advice = _EMPTY_DRAFT_ADVICE
            if rule_text:
                advice = repair_advice(rule_text, diagnostics, gateway)
            revision = _revision_context(attempt, rule_text, diagnostics, advice)
    return RuleArtifact(
        pair_id=pair.pair_id,
        vuln_class=pair.vuln_class,
        status=ArtifactStatus.ABORTED if diagnostics else ArtifactStatus.COMPILED,
        attempts=attempt,
        rule_text=rule_text,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Artifact store
# ---------------------------------------------------------------------------


def pair_dir_of(rules_dir: str | Path, pair_id: object) -> Path:
    """The pair's directory under ``rules_dir``. An id that is no plain directory name
    (not a string, empty, ``.`` or ``..``, or with ``/``, ``\\`` or NUL) is ArtifactCorrupt."""
    if not isinstance(pair_id, str) or pair_id in ("", ".", "..") or set(pair_id) & set("/\\\0"):
        raise ArtifactCorrupt(f"pair id {pair_id!r} is not a plain directory name")
    return Path(rules_dir) / pair_id


def save_rule_artifact(artifact: RuleArtifact, rules_dir: str | Path) -> Path:
    pair_dir = pair_dir_of(rules_dir, artifact.pair_id)
    pair_dir.mkdir(parents=True, exist_ok=True)
    write_text(pair_dir / RULE_FILENAME, artifact.rule_text)
    status = asdict(artifact)
    del status["rule_text"]  # rule.ql holds it
    write_json(pair_dir / STATUS_FILENAME, status)
    return pair_dir


def write_rule_index(artifacts: list[RuleArtifact], rules_dir: str | Path) -> None:
    ordered = sorted(artifacts, key=lambda a: a.pair_id)
    doc = {
        "version": RULE_INDEX_VERSION,
        "compiled": sum(1 for a in ordered if a.status is ArtifactStatus.COMPILED),
        "aborted": sum(1 for a in ordered if a.status is ArtifactStatus.ABORTED),
        # A row is the artifact's first four keys: pair_id, vuln_class, status, attempts.
        "rules": [dict(islice(asdict(a).items(), 4)) for a in ordered],
    }
    Path(rules_dir).mkdir(parents=True, exist_ok=True)
    write_json(Path(rules_dir) / INDEX_FILENAME, doc)


def load_rule_artifacts(rules_dir: str | Path) -> list[RuleArtifact]:
    rules_dir = Path(rules_dir)
    index_path = rules_dir / INDEX_FILENAME
    if not index_path.is_file():
        raise FileNotFoundError(f"no rule index at {index_path}")
    doc = read_json(index_path)
    check_version(doc, index_path, RULE_INDEX_VERSION)
    with shape_checked(index_path, "rules"):
        pair_ids = [entry["pair_id"] for entry in doc["rules"]]
    artifacts = []
    for pair_id in pair_ids:
        pair_dir = pair_dir_of(rules_dir, pair_id)
        status_path = pair_dir / STATUS_FILENAME
        status = read_json(status_path)
        rule_text = read_text(pair_dir / RULE_FILENAME)
        with shape_checked(status_path, "status"):
            artifact = RuleArtifact.from_dict({**status, "rule_text": rule_text})
        if artifact.pair_id != pair_id:
            raise ArtifactCorrupt(f"{status_path}: pair_id {artifact.pair_id!r} is not {pair_id!r}")
        artifacts.append(artifact)
    return sorted(artifacts, key=lambda a: a.pair_id)


def generate_all(
    pairs: list[SourceSinkPair],
    records_by_id: dict[str, ApiRecord],
    gateway: LlmGateway,
    compiler: RuleCompiler,
    rules_dir: str | Path,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> list[RuleArtifact]:
    """Generate one rule per pair, each with its own transcript, and index them.

    Every pair id is checked to be a plain directory name before any pair
    runs. Each pair gets a copy of ``gateway`` with its own transcript; the
    copies share the gateway's bound of ``workers`` model requests in
    flight. At most ``workers`` compiles run at once too. The pair loops run
    on twice as many threads, enough to keep both bounds full.
    """
    ordered = sorted(pairs, key=lambda p: p.pair_id)
    pair_dirs = [pair_dir_of(rules_dir, pair.pair_id) for pair in ordered]
    width = max(1, gateway.workers)
    compiles = threading.BoundedSemaphore(width)

    def run_pair(pair: SourceSinkPair, pair_dir: Path) -> RuleArtifact:
        pair_dir.mkdir(parents=True, exist_ok=True)
        transcript = TranscriptStore(pair_dir / TRANSCRIPT_FILENAME)
        pair_gateway = replace(gateway, transcripts=transcript, pair_id=pair.pair_id)
        artifact = generate_rule(pair, records_by_id, pair_gateway, compiler, max_iters, compiles)
        save_rule_artifact(artifact, rules_dir)
        return artifact

    with ThreadPoolExecutor(max_workers=2 * width) as pool:
        artifacts = list(pool.map(run_pair, ordered, pair_dirs))
    write_rule_index(artifacts, rules_dir)
    return artifacts


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


def scan(
    artifacts: list[RuleArtifact],
    database: str,
    compiler: RuleCompiler,
) -> list[Finding]:
    """Execute every compiled rule and merge findings.

    All compiled rules go to the compiler in one ``execute`` call; with
    CodeQL that is one ``database analyze``, whose results are split back by
    rule id. If that call fails (:class:`ExecutionFailed`), each rule is run
    again on its own, so a failing rule is logged and skipped while the
    remaining rules continue. A compiler that cannot run at all raises
    :class:`CompilerUnavailable`, which fails the scan. Rules that did not
    compile are skipped.

    Findings are deduplicated on (pair_id, file, start_line, end_line):
    two distinct rules hitting the same location stay distinct findings.
    """
    compiled = {
        a.pair_id: a
        for a in sorted(artifacts, key=lambda a: a.pair_id)
        if a.status is ArtifactStatus.COMPILED
    }
    rows_by_pair = _execute_isolating_failures(
        {pid: a.rule_text for pid, a in compiled.items()}, database, compiler
    )
    merged: dict[tuple, Finding] = {}
    for pair_id, artifact in compiled.items():
        for row in rows_by_pair.get(pair_id, ()):
            finding = Finding(pair_id, artifact.vuln_class, **row)
            key = (finding.pair_id, finding.file, finding.start_line, finding.end_line)
            merged.setdefault(key, finding)
    return sorted(merged.values(), key=lambda f: (f.file, f.start_line, f.end_line, f.pair_id))


def _execute_isolating_failures(
    rules: dict[str, str], database: str, compiler: RuleCompiler
) -> dict[str, list[dict]]:
    """Execute the rules in one call, or each on its own if that call fails.

    Only a failed execution falls back; a compiler that cannot run at all
    (:class:`CompilerUnavailable`) fails the scan.
    """
    try:
        return compiler.execute(rules, database)
    except ExecutionFailed as exc:
        if len(rules) == 1:
            logger.warning("pair %s: execution failed, skipping: %s", next(iter(rules)), exc)
            return {}
        logger.warning(
            "scan: executing %d rules together failed, running each alone: %s", len(rules), exc
        )
    rows: dict[str, list[dict]] = {}
    for pair_id, rule_text in rules.items():
        rows.update(_execute_isolating_failures({pair_id: rule_text}, database, compiler))
    return rows

"""Rule generation with a bounded write / compile / repair loop, plus scanning.

Three roles cooperate per pair: a writer drafts the rule file, a compiler
checks it, and on failure a repairer turns the diagnostics into advice that
is folded into the next writer prompt. The loop is bounded by ``max_iters``
attempts; a pair whose final attempt still fails is recorded as Aborted
with its last diagnostics, never silently dropped, and stays in the
denominator of the correctness rate. A missing compiler aborts the pair the
same way.

Pairs run side by side, and model calls and compiles are bounded as two
separate lanes, each ``workers`` wide: at most ``workers`` model requests in
flight and at most ``workers`` compiles running at once. While one pair
compiles, another can be writing, so neither resource waits on the other.
Each pair's own steps stay strictly in order and each pair keeps its own
transcript, so a pair's prompts and outcome depend on the answers to its own
calls, not on how the pairs interleave.

The compiler behind the loop is pluggable. The mock compiler replays a
scripted outcome per pair (fail the first k compiles, then succeed, then
return canned findings on execution), which makes the loop's control flow
testable without any external toolchain.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Protocol

from .artifacts import (
    check_version,
    config_input,
    dump_json,
    parse_entries,
    read_json,
    read_text,
    shape_checked,
    write_text,
)
from .errors import CompilerUnavailable, ConfigError, EmptyDraft, UnknownApiId
from .gateway import LlmClient, LlmGateway, TranscriptStore, simple_request
from .pairing import SourceSinkPair
from .prompts import load_template, render_template
from .records import ApiRecord

logger = logging.getLogger(__name__)

DEFAULT_MAX_ITERS = 5
FINDINGS_DOC_VERSION = 1
RULE_INDEX_VERSION = 1

_MAX_DIAGNOSTIC_LINES = 40
_MAX_DIAGNOSTIC_CHARS = 8192

RULE_FILENAME = "rule.ql"
TRANSCRIPT_FILENAME = "transcript.jsonl"
STATUS_FILENAME = "status.json"
INDEX_FILENAME = "index.json"


class CompileStatus(str, Enum):
    OK = "Ok"
    ERROR = "Error"
    TIMEOUT = "Timeout"


class ArtifactStatus(str, Enum):
    """Terminal state of one pair's generation loop.

    Compiled means an attempt within the cap compiled. Aborted means none
    did: every attempt failed, or the compiler was unavailable. Both count
    toward the correctness rate, whose denominator is all pairs.
    """

    COMPILED = "Compiled"
    ABORTED = "Aborted"


@dataclass(frozen=True)
class Diagnostic:
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

    def to_dict(self) -> dict:
        return {
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "column": self.column,
            "severity": self.severity,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Diagnostic":
        return cls(
            message=data["message"],
            file=data.get("file", RULE_FILENAME),
            line=data.get("line"),
            column=data.get("column"),
            severity=data.get("severity", "error"),
        )


@dataclass(frozen=True)
class CompileResult:
    status: CompileStatus
    diagnostics: tuple[Diagnostic, ...] = field(default_factory=tuple)
    elapsed_s: float = 0.0


@dataclass(frozen=True)
class Finding:
    pair_id: str
    vuln_class: str
    file: str
    start_line: int
    end_line: int
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "pair_id": self.pair_id,
            "vuln_class": self.vuln_class,
            "file": self.file,
            "start_line": self.start_line,
            "end_line": self.end_line,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(
            pair_id=data["pair_id"],
            vuln_class=data.get("vuln_class", ""),
            file=data["file"],
            start_line=data["start_line"],
            end_line=data["end_line"],
            message=data.get("message", ""),
        )


@dataclass(frozen=True)
class RuleArtifact:
    pair_id: str
    vuln_class: str
    status: ArtifactStatus
    attempts: int
    rule_text: str
    diagnostics: tuple[Diagnostic, ...] = field(default_factory=tuple)

    def status_dict(self) -> dict:
        return {
            "pair_id": self.pair_id,
            "vuln_class": self.vuln_class,
            "status": self.status.value,
            "attempts": self.attempts,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


class RuleCompiler(Protocol):
    """Compiles rule text and executes compiled rules against a database."""

    name: str

    def compile(self, pair_id: str, rule_text: str) -> CompileResult: ...

    def execute(self, rules: dict[str, str], database: str) -> dict[str, list[dict]]:
        """Run the rules (pair id -> rule text); return each pair's findings."""
        ...


# ---------------------------------------------------------------------------
# Mock compiler
# ---------------------------------------------------------------------------


class MockCompiler:
    """Scripted compiler: per pair, fail the first ``fail_count`` compiles.

    The script is a JSON document with an optional ``default`` entry and a
    ``pairs`` map keyed by pair id. Each entry may carry ``fail_count``,
    ``diagnostics``, ``findings`` and ``delay_s``.
    """

    name = "mock"

    def __init__(self, script: dict):
        if script.get("version") != 1:
            raise ConfigError(f"unsupported compiler script version: {script.get('version')!r}")
        self._default = script.get("default", {})
        self._pairs = script.get("pairs", {})
        self._calls: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "MockCompiler":
        with config_input():
            return cls(read_json(path))

    def _entry(self, pair_id: str) -> dict:
        return self._pairs.get(pair_id, self._default)

    def compile(self, pair_id: str, rule_text: str) -> CompileResult:
        with self._lock:
            call_index = self._calls.get(pair_id, 0)
            self._calls[pair_id] = call_index + 1
        entry = self._entry(pair_id)
        started = time.monotonic()
        delay = float(entry.get("delay_s", 0))
        if delay > 0:
            time.sleep(delay)
        elapsed = time.monotonic() - started
        if call_index < int(entry.get("fail_count", 0)):
            raw = entry.get("diagnostics") or [{"message": "syntax error in rule", "line": 1}]
            diagnostics = tuple(Diagnostic.from_dict(d) for d in raw)
            return CompileResult(CompileStatus.ERROR, diagnostics, elapsed)
        return CompileResult(CompileStatus.OK, (), elapsed)

    def execute(self, rules: dict[str, str], database: str) -> dict[str, list[dict]]:
        return {pid: list(self._entry(pid).get("findings", [])) for pid in rules}

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
    for rid in (pair.source_id, pair.sink_id):
        if rid not in records_by_id:
            raise UnknownApiId(f"pair {pair.pair_id} references unknown api id {rid}")
    return (
        f"pair: {json.dumps(pair.to_dict(), ensure_ascii=False)}\n"
        f"source record: {records_by_id[pair.source_id].json_text}\n"
        f"sink record: {records_by_id[pair.sink_id].json_text}\n"
    )


def write_rule(
    pair: SourceSinkPair,
    records_by_id: dict[str, ApiRecord],
    gateway: LlmGateway,
    model: str,
    revision_context: str = "",
    temperature: float | None = None,
) -> str:
    """Ask the writer role for a complete rule file; raises EmptyDraft if blank."""
    prompt = render_template(
        load_template("write_prompt.txt"),
        {
            "PAIR_INFO": _pair_info(pair, records_by_id),
            "RULE_SKELETON": load_template("rule_skeleton.ql"),
            "REVISION_CONTEXT": revision_context or "(first attempt)",
        },
    )
    request = simple_request("write", model, prompt, temperature=temperature)
    response, _ = gateway.complete(request)
    text = _strip_fences(response.text)
    if not text:
        raise EmptyDraft(f"writer returned empty output for pair {pair.pair_id}")
    return text + "\n"


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
    model: str,
    temperature: float | None = None,
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
    request = simple_request("repair", model, prompt, temperature=temperature)
    response, _ = gateway.complete(request)
    advice = response.text.strip()
    if not advice:
        # The loop must always make progress, so an empty repairer answer
        # falls back to pointing the writer at the first diagnostic.
        first = diagnostics[0].format() if diagnostics else "the reported compile failure"
        advice = f"Address the first diagnostic: {first}"
    return advice


def _revision_context(attempt: int, rule_text: str, result: CompileResult, advice: str) -> str:
    return (
        f"Attempt {attempt} failed to compile ({result.status.value}).\n"
        "--- previous rule ---\n"
        f"{rule_text or '(empty)'}\n"
        "--- diagnostics ---\n"
        f"{format_diagnostics(result.diagnostics)}\n"
        "--- repair advice ---\n"
        f"{advice}\n"
    )


_EMPTY_DRAFT_ADVICE = "The previous attempt produced no output; emit the complete rule file."


def generate_rule(
    pair: SourceSinkPair,
    records_by_id: dict[str, ApiRecord],
    gateway: LlmGateway,
    compiler: RuleCompiler,
    model: str,
    max_iters: int = DEFAULT_MAX_ITERS,
    temperature: float | None = None,
    timeout_s: float | None = None,
) -> RuleArtifact:
    """Run the bounded generation loop for one pair.

    Each iteration is one writer attempt followed by one compile. A failed
    compile that is not the last attempt triggers one repair call whose
    advice feeds the next attempt. An empty draft counts as a failed
    attempt but skips the repair call, since there is nothing to diagnose.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    revision = ""
    rule_text = ""
    last_result = CompileResult(CompileStatus.ERROR)
    for attempt in range(1, max_iters + 1):
        try:
            rule_text = write_rule(pair, records_by_id, gateway, model, revision, temperature)
        except EmptyDraft:
            logger.warning("pair %s attempt %d: empty draft", pair.pair_id, attempt)
            rule_text = ""
            last_result = CompileResult(
                CompileStatus.ERROR,
                (Diagnostic(message="writer returned empty output"),),
            )
            if attempt < max_iters:
                revision = _revision_context(attempt, rule_text, last_result, _EMPTY_DRAFT_ADVICE)
            continue
        try:
            result = compiler.compile(pair.pair_id, rule_text)
        except CompilerUnavailable as exc:
            logger.error("pair %s: compiler unavailable, aborting: %s", pair.pair_id, exc)
            return RuleArtifact(
                pair_id=pair.pair_id,
                vuln_class=pair.vuln_class,
                status=ArtifactStatus.ABORTED,
                attempts=attempt,
                rule_text=rule_text,
                diagnostics=(Diagnostic(message=f"compiler unavailable: {exc}"),),
            )
        if timeout_s is not None and result.elapsed_s > timeout_s and result.status is CompileStatus.OK:
            result = CompileResult(
                CompileStatus.TIMEOUT,
                (Diagnostic(message=f"compilation exceeded {timeout_s}s"),),
                result.elapsed_s,
            )
        last_result = result
        if result.status is CompileStatus.OK:
            return RuleArtifact(
                pair_id=pair.pair_id,
                vuln_class=pair.vuln_class,
                status=ArtifactStatus.COMPILED,
                attempts=attempt,
                rule_text=rule_text,
            )
        logger.info(
            "pair %s attempt %d/%d failed: %s",
            pair.pair_id,
            attempt,
            max_iters,
            result.status.value,
        )
        if attempt < max_iters:
            advice = repair_advice(rule_text, result.diagnostics, gateway, model, temperature)
            revision = _revision_context(attempt, rule_text, result, advice)
    return RuleArtifact(
        pair_id=pair.pair_id,
        vuln_class=pair.vuln_class,
        status=ArtifactStatus.ABORTED,
        attempts=max_iters,
        rule_text=rule_text,
        diagnostics=last_result.diagnostics,
    )


# ---------------------------------------------------------------------------
# Artifact store
# ---------------------------------------------------------------------------


def save_rule_artifact(artifact: RuleArtifact, rules_dir: str | Path) -> Path:
    pair_dir = Path(rules_dir) / artifact.pair_id
    pair_dir.mkdir(parents=True, exist_ok=True)
    write_text(pair_dir / RULE_FILENAME, artifact.rule_text)
    write_text(pair_dir / STATUS_FILENAME, dump_json(artifact.status_dict()))
    return pair_dir


def write_rule_index(artifacts: list[RuleArtifact], rules_dir: str | Path) -> None:
    ordered = sorted(artifacts, key=lambda a: a.pair_id)
    doc = {
        "version": RULE_INDEX_VERSION,
        "compiled": sum(1 for a in ordered if a.status is ArtifactStatus.COMPILED),
        "aborted": sum(1 for a in ordered if a.status is ArtifactStatus.ABORTED),
        "rules": [
            {
                "pair_id": a.pair_id,
                "vuln_class": a.vuln_class,
                "status": a.status.value,
                "attempts": a.attempts,
            }
            for a in ordered
        ],
    }
    Path(rules_dir).mkdir(parents=True, exist_ok=True)
    write_text(Path(rules_dir) / INDEX_FILENAME, dump_json(doc))


def load_rule_artifacts(rules_dir: str | Path) -> list[RuleArtifact]:
    rules_dir = Path(rules_dir)
    index_path = rules_dir / INDEX_FILENAME
    if not index_path.is_file():
        raise FileNotFoundError(f"no rule index at {index_path}")
    doc = read_json(index_path)
    check_version(doc, index_path, RULE_INDEX_VERSION)
    with shape_checked(index_path, "rules"):
        pair_dirs = [rules_dir / entry["pair_id"] for entry in doc["rules"]]
    artifacts = []
    for pair_dir in pair_dirs:
        status_path = pair_dir / STATUS_FILENAME
        status = read_json(status_path)
        rule_text = read_text(pair_dir / RULE_FILENAME)
        with shape_checked(status_path, "status"):
            artifacts.append(
                RuleArtifact(
                    pair_id=status["pair_id"],
                    vuln_class=status.get("vuln_class", ""),
                    status=ArtifactStatus(status["status"]),
                    attempts=status["attempts"],
                    rule_text=rule_text,
                    diagnostics=tuple(
                        Diagnostic.from_dict(d) for d in status.get("diagnostics", ())
                    ),
                )
            )
    return sorted(artifacts, key=lambda a: a.pair_id)


class _Lane:
    """Proxy for ``target`` that lets at most ``width`` calls of one method run at once.

    Every other attribute passes straight through. The slot is taken around
    the call, so time spent queueing for it is not part of the call itself.
    """

    def __init__(self, target, method: str, width: int):
        self._target = target
        self._method = method
        self._slots = threading.BoundedSemaphore(width)

    def __getattr__(self, name: str):
        attr = getattr(self._target, name)
        if name != self._method:
            return attr

        def bounded(*args, **kwargs):
            with self._slots:
                return attr(*args, **kwargs)

        return bounded


def generate_all(
    pairs: list[SourceSinkPair],
    records_by_id: dict[str, ApiRecord],
    client: LlmClient,
    compiler: RuleCompiler,
    rules_dir: str | Path,
    model: str,
    max_iters: int = DEFAULT_MAX_ITERS,
    temperature: float | None = None,
    timeout_s: float | None = None,
    workers: int = 4,
) -> list[RuleArtifact]:
    """Generate one rule per pair, each with its own transcript, and index them.

    ``workers`` is the width of two lanes: at most ``workers`` model requests
    are in flight (the client's ``send``, so a retry's backoff holds no slot)
    and at most ``workers`` compiles run at once. The pair loops run on twice
    as many threads, enough to keep both lanes full.
    """
    rules_dir = Path(rules_dir)
    rules_dir.mkdir(parents=True, exist_ok=True)
    ordered = sorted(pairs, key=lambda p: p.pair_id)
    width = max(1, workers)
    client = _Lane(client, "send", width)
    compiler = _Lane(compiler, "compile", width)

    def run_pair(pair: SourceSinkPair) -> RuleArtifact:
        pair_dir = rules_dir / pair.pair_id
        pair_dir.mkdir(parents=True, exist_ok=True)
        transcript = TranscriptStore(pair_dir / TRANSCRIPT_FILENAME)
        gateway = LlmGateway(client, transcripts=transcript)
        artifact = generate_rule(
            pair, records_by_id, gateway, compiler, model, max_iters, temperature, timeout_s
        )
        save_rule_artifact(artifact, rules_dir)
        return artifact

    with ThreadPoolExecutor(max_workers=2 * width) as pool:
        artifacts = list(pool.map(run_pair, ordered))
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
    rule id. If that call fails, each rule is run again on its own, so a
    failing rule is logged and skipped while the remaining rules continue.
    Rules that did not compile are skipped.

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
        for raw in rows_by_pair.get(pair_id, ()):
            finding = Finding(
                pair_id=pair_id,
                vuln_class=artifact.vuln_class,
                file=raw["file"],
                start_line=int(raw["start_line"]),
                end_line=int(raw.get("end_line", raw["start_line"])),
                message=raw.get("message", ""),
            )
            key = (finding.pair_id, finding.file, finding.start_line, finding.end_line)
            merged.setdefault(key, finding)
    return sorted(merged.values(), key=lambda f: (f.file, f.start_line, f.end_line, f.pair_id))


def _execute_isolating_failures(
    rules: dict[str, str], database: str, compiler: RuleCompiler
) -> dict[str, list[dict]]:
    """Execute the rules in one call, or each on its own if that call fails."""
    try:
        return compiler.execute(rules, database)
    except CompilerUnavailable as exc:
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


# ---------------------------------------------------------------------------
# Findings artifact
# ---------------------------------------------------------------------------


def dump_findings(findings: list[Finding]) -> str:
    ordered = sorted(findings, key=lambda f: (f.file, f.start_line, f.end_line, f.pair_id))
    doc = {"version": FINDINGS_DOC_VERSION, "findings": [f.to_dict() for f in ordered]}
    return dump_json(doc)


def parse_findings(text: str, source: str | Path = "findings document") -> list[Finding]:
    return parse_entries(text, source, FINDINGS_DOC_VERSION, "findings", Finding.from_dict)


def save_findings(findings: list[Finding], path: str | Path) -> None:
    write_text(path, dump_findings(findings))


def load_findings(path: str | Path) -> list[Finding]:
    return parse_findings(read_text(path), path)

"""Rule generation with a bounded write / compile / repair loop, plus scanning.

Three roles cooperate per pair: a writer fills the ``RuleConfig`` module of
``rule_skeleton.ql``, a compiler checks the rule file, and on failure a
repairer turns the diagnostics into advice that is folded into the next
writer prompt. The skeleton's QLDoc header, imports and path query never
change, so qlforge keeps them and the writer is neither shown nor asked for
them. An answer with a top-level ``import`` line is a whole rule file and is
kept as written; any other answer takes the place of the skeleton's module.
The loop is bounded by ``max_iters`` attempts; a pair whose final attempt
still fails is recorded as Aborted with its last diagnostics, never silently
dropped, and stays in the denominator of the correctness rate. A missing
compiler aborts the pair the same way.

Pairs run side by side under two separate bounds, each ``workers`` wide:
the gateway lets at most ``workers`` model requests be in flight, and
generate lets at most ``workers`` compiles run at once. While one pair
compiles, another can be writing, so neither resource waits on the other.
Each pair's own steps stay strictly in order and each pair keeps its own
transcript, so a pair's prompts and outcome depend on the answers to its own
calls, not on how the pairs interleave.

A compile's outcome is its diagnostics: none when the rule compiled, else
the compiler's lines as printed. qlforge's own notes (an empty draft, a hole
left unfilled, a missing compiler, a timeout) are such lines too.

The compiler behind the loop is pluggable. The mock compiler replays a
scripted outcome per pair (fail the first k compiles, then succeed, then
return canned findings on execution), which makes the loop's control flow
testable without any external toolchain.
"""

from __future__ import annotations

import contextlib
import json
import logging
import re
import threading
import time
from collections import Counter
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
# A file name's usual limit, less the ".ql" scan appends to a pair id.
MAX_PAIR_ID_BYTES = 255 - len(".ql")
# A separator, NUL, or a lone surrogate, which UTF-8 cannot encode: no file name holds one.
_NOT_IN_A_NAME = re.compile(r"[/\\\x00\ud800-\udfff]")


class ArtifactStatus(str, Enum):
    """Terminal state of one pair's generation loop.

    Compiled means an attempt within the cap compiled. Aborted means none
    did: every attempt failed, or the compiler was unavailable. Both count
    toward the correctness rate, whose denominator is all pairs.
    """

    COMPILED = "Compiled"
    ABORTED = "Aborted"


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
    diagnostics: tuple[str, ...] = ()


class RuleCompiler(Protocol):
    """Compiles rule text and executes compiled rules against a database."""

    def compile(self, pair_id: str, rule_text: str) -> tuple[str, ...]:
        """Compile the rule: no diagnostics if it compiled, else the compiler's lines as printed."""
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
class ScriptedFinding(JsonDataclass, rejects_unknown_keys=True):
    file: str
    start_line: int
    end_line: int | None = None  # None: the start line
    message: str = ""

    def __post_init__(self):
        if self.end_line is None:
            self.end_line = self.start_line


@dataclass(frozen=True)
class ScriptedOutcome(JsonDataclass, rejects_unknown_keys=True):
    """What the mock compiler does for one pair."""

    fail_count: int = 0
    delay_s: float = 0.0
    diagnostics: tuple[str, ...] = ()
    findings: tuple[ScriptedFinding, ...] = ()

    def __post_init__(self):
        limit = threading.TIMEOUT_MAX  # about the longest sleep time.sleep accepts
        if not 0 <= self.delay_s <= limit:
            raise ValueError(f"delay_s must be from 0 to {limit}, not {self.delay_s}")


@dataclass(frozen=True)
class CompilerScript(JsonDataclass, rejects_unknown_keys=True):
    version: int = COMPILER_SCRIPT_VERSION
    default: ScriptedOutcome = ScriptedOutcome()
    pairs: dict[str, ScriptedOutcome] = field(default_factory=dict)


_SYNTAX_ERROR = ("rule.ql:1: error: syntax error in rule",)


class MockCompiler:
    """Scripted compiler: per pair, fail the first ``fail_count`` compiles.

    The script is a JSON document (a :class:`CompilerScript`) with an
    optional ``default`` outcome and a ``pairs`` map of outcomes keyed by
    pair id. A script of the wrong shape or type, or with an unknown key, is
    a ConfigError naming ``source``. A compile takes ``delay_s``; one whose
    ``delay_s`` is above ``timeout_s`` stops at the limit and times out,
    whether it would have failed or not, as a real compile would. A failing
    compile with no scripted diagnostics reports a syntax error.
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

    def compile(self, pair_id: str, rule_text: str) -> tuple[str, ...]:
        with self._lock:
            call_index = self._calls.get(pair_id, 0)
            self._calls[pair_id] = call_index + 1
        outcome = self._outcome(pair_id)
        if self.timeout_s is not None and outcome.delay_s > self.timeout_s:
            time.sleep(self.timeout_s)
            return (f"rule.ql: error: compilation exceeded {self.timeout_s}s",)
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


# An opening fence starts a line and may name a language; its block ends at the
# next fence or, in a truncated answer, at the end of the text.
_FENCED_BLOCK_RE = re.compile(r"^[ \t]*```[^\n]*(?:\n|\Z)(.*?)(?:```|\Z)", re.DOTALL | re.MULTILINE)


def _strip_fences(text: str) -> str:
    """The body of the first fenced block in ``text``, wherever it sits, or the
    whole text when it has none; stripped either way."""
    block = _FENCED_BLOCK_RE.search(text)
    return (block.group(1) if block else text).strip()


# A sink record's snippet when it is the source record's.
_SAME_SNIPPET = "(same as the source record)"


def _pair_info(pair: SourceSinkPair, records_by_id: dict[str, ApiRecord]) -> str:
    """The pair and its source and sink records, then its sanitizers, if any, for an
    ``isBarrier`` the skeleton leaves out (``DataFlow::ConfigSig`` defaults it to ``none()``).

    The ``pair:`` line keeps only what the lines under it do not say: the
    records carry the source and sink ids, the sanitizer lines the
    sanitizers, and the writer has no use for the pairing confidence. A
    sanitizer line is its signature alone, since ``isBarrier`` matches calls
    by name and nothing reads a sanitizer id back. A sink whose snippet is
    the source's says so in place of repeating it.
    """
    ids = (pair.source_id, pair.sink_id, *pair.sanitizers)
    source, sink, *sanitizers = records_for(ids, records_by_id, f"pair {pair.pair_id}")
    if sink.snippet and sink.snippet == source.snippet:
        sink = replace(sink, snippet=_SAME_SNIPPET)
    line = {"pair_id": pair.pair_id, "vuln_class": pair.vuln_class, "rationale": pair.rationale}
    info = (
        f"pair: {json.dumps(line, ensure_ascii=False, separators=(',', ':'))}\n"
        f"source record: {source.prompt_text}\n"
        f"sink record: {sink.prompt_text}\n"
    )
    if sanitizers:
        info += "sanitizers: add predicate isBarrier(DataFlow::Node node) matching calls to these\n"
        info += "".join(f"{r.signature}\n" for r in sanitizers)
    return info


# Stands for the part of the skeleton a first-write prompt leaves out.
_MODULE_WRAPPER = (
    "(qlforge wraps it in imports of java, FlowSources and TaintTracking and a path query)\n"
)
# Stands in for the module once a draft exists: the revision context shows
# that draft whole, as compiled, so the diagnostics' line numbers hold.
_DRAFT_FILLS_SKELETON = "(output the corrected RuleConfig module of the previous rule below)\n"
# A line that starts with an import opens a whole rule file, not a module.
_TOP_LEVEL_IMPORT_RE = re.compile(r"^import\s", re.MULTILINE)


def _skeleton_parts() -> tuple[str, str, str]:
    """``rule_skeleton.ql`` split around its ``RuleConfig`` module: (head, module, tail)."""
    skeleton = load_template("rule_skeleton.ql")
    start = skeleton.index("module RuleConfig ")
    end = skeleton.index("\n}\n", start) + len("\n}\n")
    return skeleton[:start], skeleton[start:end], skeleton[end:]


def _rule_file(answer: str) -> str:
    """The rule file a writer's answer stands for; "" for a blank answer.

    An answer with a top-level ``import`` line is a whole file and is kept
    as written; any other answer is a module and replaces the skeleton's.
    """
    text = _strip_fences(answer)
    if not text:
        return ""
    if _TOP_LEVEL_IMPORT_RE.search(text):
        return text + "\n"
    head, _, tail = _skeleton_parts()
    return f"{head}{text}\n{tail}"


def write_rule(
    pair: SourceSinkPair,
    records_by_id: dict[str, ApiRecord],
    gateway: LlmGateway,
    revision_context: str = "",
    revises_draft: bool = False,
) -> str:
    """Ask the writer role for the rule's ``RuleConfig`` module; returns the rule
    file it stands for (see ``_rule_file``), or "" for a blank answer.

    A first write is shown the skeleton's module with its holes and one line
    naming what surrounds it. When ``revises_draft`` says that
    ``revision_context`` shows a previous, non-empty rule, the prompt asks
    for that rule's corrected module instead.
    """
    module = _DRAFT_FILLS_SKELETON
    if not revises_draft:
        module = _skeleton_parts()[1] + _MODULE_WRAPPER
    prompt = render_template(
        load_template("write_prompt.txt"),
        {
            "PAIR_INFO": _pair_info(pair, records_by_id),
            "RULE_MODULE": module,
            "REVISION_CONTEXT": revision_context or "(first attempt)",
        },
    )
    return _rule_file(gateway.ask("write", prompt))


def format_diagnostics(diagnostics: tuple[str, ...]) -> str:
    """The diagnostics for a prompt, one a line: the first 40, cut at 8,192 characters."""
    text = "\n".join(diagnostics[:_MAX_DIAGNOSTIC_LINES])
    if len(diagnostics) > _MAX_DIAGNOSTIC_LINES or len(text) > _MAX_DIAGNOSTIC_CHARS:
        text = text[:_MAX_DIAGNOSTIC_CHARS] + "\n(truncated)"
    return text or "(no diagnostics)"


def repair_advice(
    rule_text: str,
    diagnostics: tuple[str, ...],
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
        first = diagnostics[0] if diagnostics else "the reported compile failure"
        advice = f"Address the first diagnostic: {first}"
    return advice


def _revision_context(
    attempt: int, rule_text: str, diagnostics: tuple[str, ...], advice: str
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


_EMPTY_DRAFT_ADVICE = (
    "The previous attempt produced no output; emit the complete RuleConfig module."
)
_UNFILLED_HOLE_ADVICE = (
    "Replace none() in {} with a match for the pair's API; emit the complete RuleConfig module."
)
# An isSource or isSink predicate whose body is still the skeleton's hole:
# none(), with nothing else but blanks and // comments.
_BLANKS = r"(?:\s|//[^\n]*(?=\n|\Z))*"
_UNFILLED_HOLE_RE = re.compile(
    rf"\bpredicate\s+(isSource|isSink)\s*\([^)]*\)\s*\{{{_BLANKS}none\(\){_BLANKS}\}}"
)


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
    advice feeds the next attempt. An empty draft, or one whose ``isSource``
    or ``isSink`` is still the skeleton's ``none()``, is a failed attempt
    with no compile or repair call; the next prompt's advice names the fault.
    The loop stops at the first clean compile; the artifact keeps the last
    attempt's diagnostics and is Aborted exactly when there are any. Each
    compile runs inside ``compile_slot``.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    revision = ""
    rule_text = ""
    for attempt in range(1, max_iters + 1):
        rule_text = write_rule(pair, records_by_id, gateway, revision, revises_draft=bool(rule_text))
        advice = ""
        if not rule_text:
            logger.warning("pair %s attempt %d: empty draft", pair.pair_id, attempt)
            diagnostics = ("rule.ql: error: writer returned empty output",)
            advice = _EMPTY_DRAFT_ADVICE
        elif holes := _UNFILLED_HOLE_RE.findall(rule_text):
            names = " and ".join(holes)
            logger.warning("pair %s attempt %d: %s left as none()", pair.pair_id, attempt, names)
            diagnostics = tuple(f"{hole} still matches nothing: none()" for hole in holes)
            advice = _UNFILLED_HOLE_ADVICE.format(names)
        else:
            try:
                with compile_slot:
                    diagnostics = compiler.compile(pair.pair_id, rule_text)
            except CompilerUnavailable as exc:
                logger.error("pair %s: compiler unavailable, aborting: %s", pair.pair_id, exc)
                diagnostics = (f"rule.ql: error: compiler unavailable: {exc}",)
                break
            if not diagnostics:
                break
            logger.info("pair %s attempt %d/%d failed to compile", pair.pair_id, attempt, max_iters)
        if attempt < max_iters:
            advice = advice or repair_advice(rule_text, diagnostics, gateway)
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
    (not a string, empty, ``.`` or ``..``, with ``/``, ``\\``, NUL or a lone surrogate,
    or too long to name the ``<pair_id>.ql`` file scan writes) is ArtifactCorrupt."""
    if not isinstance(pair_id, str) or pair_id in ("", ".", "..") or _NOT_IN_A_NAME.search(pair_id):
        raise ArtifactCorrupt(f"pair id {pair_id!r} is not a plain directory name")
    if len(pair_id.encode("utf-8")) > MAX_PAIR_ID_BYTES:
        raise ArtifactCorrupt(f"pair id {pair_id!r} is longer than {MAX_PAIR_ID_BYTES} bytes")
    return Path(rules_dir) / pair_id


def pair_dirs_of(rules_dir: str | Path, pair_ids: list) -> list[Path]:
    """Each pair's directory (see ``pair_dir_of``); an id listed twice is ArtifactCorrupt."""
    pair_dirs = [pair_dir_of(rules_dir, pair_id) for pair_id in pair_ids]
    for pair_id, count in Counter(pair_ids).items():
        if count > 1:
            raise ArtifactCorrupt(f"pair id {pair_id!r} is listed {count} times")
    return pair_dirs


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
    for pair_id, pair_dir in zip(pair_ids, pair_dirs_of(rules_dir, pair_ids)):
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

    Before any pair runs, every pair id is checked to be a plain directory
    name listed once, and every record id a pair names to be known. Each
    pair gets a copy of ``gateway`` with its own transcript; the copies
    share the gateway's bound of ``workers`` model requests in flight. At
    most ``workers`` compiles run at once too. The pair loops run on twice
    as many threads, enough to keep both bounds full.
    """
    ordered = sorted(pairs, key=lambda p: p.pair_id)
    pair_dirs = pair_dirs_of(rules_dir, [pair.pair_id for pair in ordered])
    ids = (rid for p in ordered for rid in (p.source_id, p.sink_id, *p.sanitizers))
    records_for(ids, records_by_id, "a pair")
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

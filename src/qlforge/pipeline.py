"""End-to-end pipeline driver and its configuration.

A run walks the stage table :data:`STAGES` (extract, classify, pair,
generate, scan, report). Each stage has an artifact under the run directory,
a ``run`` step that computes the stage and writes the artifact, and a
``load`` step that reads it back:

    specs.json  votes.json  pairs.json  rules/index.json  findings.json  report.json

Sidecars: extract_stats.json (raw call-site count), timings.json (sub-second
stage timings) and transcript.jsonl (classify and pair model calls; each
rule keeps its own transcript). A resumed run loads every stage before the
first missing artifact and runs the rest; a completed run resumes to
nothing-to-do.
"""

from __future__ import annotations

import json
import logging
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .artifacts import config_input, dump_json, read_json, write_text
from .classify import TaintLabel, classify_records, load_votes, save_votes
from .errors import (
    ArtifactCorrupt,
    ConfigError,
    NothingToDo,
    NothingToPair,
    QlforgeError,
    StageFailure,
)
from .extract import FilterConfig, FixtureBackend, dedupe, extract_apis, filter_risky
from .gateway import LlmGateway, MockLlmClient, MockScript, LiveLlmClient, TranscriptStore
from .metrics import compute_metrics, load_manifest
from .pairing import DEFAULT_BUDGET as DEFAULT_PAIRING_BUDGET, load_pairs, pair_all, save_pairs
from .records import load_spec_document, record_lookup, save_spec_document
from .report import PipelineReport, StageSummary, dump_report
from .rulegen import (
    MockCompiler,
    generate_all,
    load_findings,
    load_rule_artifacts,
    save_findings,
    scan,
)

logger = logging.getLogger(__name__)

SPECS_FILENAME = "specs.json"
EXTRACT_STATS_FILENAME = "extract_stats.json"
VOTES_FILENAME = "votes.json"
PAIRS_FILENAME = "pairs.json"
RULES_DIRNAME = "rules"
FINDINGS_FILENAME = "findings.json"
REPORT_FILENAME = "report.json"
TIMINGS_FILENAME = "timings.json"
TRANSCRIPT_FILENAME = "transcript.jsonl"

_TOP_LEVEL_KEYS = {
    "project",
    "backend",
    "out_dir",
    "llm",
    "mock_script",
    "compiler",
    "codeql",
    "classify",
    "pairing",
    "rulegen",
    "scan",
    "filters",
    "workers",
}


def _positive_int(value, key: str) -> int:
    """Return ``value`` if it is an integer of at least 1; a boolean is not."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{key} must be a positive integer, got {value!r}")
    return value


def _table(data: dict, name: str, keys: tuple[str, ...]) -> dict:
    """Return config table ``name``; a key outside ``keys`` is rejected."""
    table = data.get(name, {})
    if not isinstance(table, dict):
        raise ConfigError(f"config key {name} must be a table, got {table!r}")
    unknown = sorted(set(table) - set(keys))
    if unknown:
        raise ConfigError(
            "unknown config key(s): " + ", ".join(f"{name}.{key}" for key in unknown)
        )
    return table


def apply_overrides(data: dict, assignments: tuple[str, ...]) -> dict:
    """Apply ``key=value`` assignments onto a raw config mapping in place.

    Keys are dotted paths into the config document; missing intermediate
    tables are created. Values parse as JSON where possible, so
    ``classify.seed=9`` yields an integer and ``pairing.drop_sanitized=true``
    a boolean, while anything unparseable stays a plain string.
    """
    for assignment in assignments:
        key, sep, raw = assignment.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {assignment!r} is not of the form key=value")
        parts = key.split(".")
        if not all(parts):
            raise ConfigError(f"override key {key!r} has an empty path segment")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        for part in parts[:-1]:
            child = node.setdefault(part, {})
            if not isinstance(child, dict):
                raise ConfigError(f"override {key!r} descends into non-table key {part!r}")
            node = child
        node[parts[-1]] = value
    return data


@dataclass(frozen=True)
class PipelineConfig:
    project: Path
    out_dir: Path
    backend: str = "fixture"
    llm_mode: str = "mock"
    model: str = "default"
    endpoint: str = ""
    temperature: float | None = None
    mock_script: Path | None = None
    compiler_kind: str = "mock"
    compiler_script: Path | None = None
    codeql_path: str | None = None
    budget: int = 4000
    seed: int = 0
    pairing_budget: int = DEFAULT_PAIRING_BUDGET
    drop_sanitized: bool = False
    max_iters: int = 5
    timeout_s: float | None = None
    database: str = ""
    manifest_path: Path | None = None
    filters: FilterConfig | None = None
    workers: int = 4

    @classmethod
    def from_file(
        cls, path: str | Path, overrides: tuple[str, ...] = ()
    ) -> "PipelineConfig":
        path = Path(path)
        with config_input():
            data = read_json(path)
        if overrides:
            apply_overrides(data, overrides)
        return cls.from_dict(data, base_dir=path.parent)

    @classmethod
    def from_dict(cls, data: dict, base_dir: str | Path = ".") -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        base = Path(base_dir)
        unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

        def resolve(value: str) -> Path:
            p = Path(value)
            return p if p.is_absolute() else (base / p)

        def input_file(table: dict, key: str, name: str) -> Path | None:
            if key not in table:
                return None
            path = resolve(table[key])
            if not path.is_file():
                raise ConfigError(f"{name} does not exist: {path}")
            return path

        if "project" not in data:
            raise ConfigError("config is missing required key: project")
        if "out_dir" not in data:
            raise ConfigError("config is missing required key: out_dir")
        project = resolve(data["project"])
        if not project.is_dir():
            raise ConfigError(f"project directory does not exist: {project}")

        backend = data.get("backend", "fixture")
        if backend not in ("fixture", "codeql"):
            raise ConfigError(f"backend must be 'fixture' or 'codeql', got {backend!r}")

        llm = _table(data, "llm", ("mode", "model", "endpoint", "temperature"))
        llm_mode = llm.get("mode", "mock")
        if llm_mode not in ("mock", "live"):
            raise ConfigError(f"llm.mode must be 'mock' or 'live', got {llm_mode!r}")
        temperature = llm.get("temperature")
        if temperature is not None:
            if not isinstance(temperature, (int, float)) or temperature < 0:
                raise ConfigError(
                    f"llm.temperature must be a non-negative number, got {temperature!r}"
                )
            temperature = float(temperature)
        endpoint = llm.get("endpoint", "")
        if llm_mode == "live" and not endpoint:
            raise ConfigError("llm.endpoint is required in live mode")

        mock_script = input_file(data, "mock_script", "mock_script")
        if llm_mode == "mock" and mock_script is None:
            raise ConfigError("mock llm mode requires mock_script")

        compiler = _table(data, "compiler", ("kind", "script"))
        compiler_kind = compiler.get("kind", "mock")
        if compiler_kind not in ("mock", "codeql"):
            raise ConfigError(f"compiler.kind must be 'mock' or 'codeql', got {compiler_kind!r}")
        compiler_script = input_file(compiler, "script", "compiler.script")
        if compiler_kind == "mock" and compiler_script is None:
            raise ConfigError("mock compiler requires compiler.script")

        classify = _table(data, "classify", ("budget", "seed"))
        budget = _positive_int(classify.get("budget", 4000), "classify.budget")
        seed = classify.get("seed", 0)
        if not isinstance(seed, int):
            raise ConfigError(f"classify.seed must be an integer, got {seed!r}")

        pairing = _table(data, "pairing", ("budget", "drop_sanitized"))
        pairing_budget = _positive_int(
            pairing.get("budget", DEFAULT_PAIRING_BUDGET), "pairing.budget"
        )
        drop_sanitized = pairing.get("drop_sanitized", False)
        if not isinstance(drop_sanitized, bool):
            raise ConfigError("pairing.drop_sanitized must be a boolean")

        rulegen_cfg = _table(data, "rulegen", ("max_iters", "timeout_s"))
        max_iters = _positive_int(rulegen_cfg.get("max_iters", 5), "rulegen.max_iters")
        timeout_s = rulegen_cfg.get("timeout_s")
        if timeout_s is not None and (not isinstance(timeout_s, (int, float)) or timeout_s <= 0):
            raise ConfigError(f"rulegen.timeout_s must be a positive number, got {timeout_s!r}")

        scan_cfg = _table(data, "scan", ("database", "manifest"))
        manifest_path = input_file(scan_cfg, "manifest", "scan.manifest")

        filters = None
        if "filters" in data:
            try:
                filters = FilterConfig.from_dict(_table(data, "filters", ("deny", "allow")))
            except QlforgeError as exc:
                raise ConfigError(f"bad filters config: {exc}") from exc

        workers = _positive_int(data.get("workers", 4), "workers")

        return cls(
            project=project,
            out_dir=resolve(data["out_dir"]),
            backend=backend,
            llm_mode=llm_mode,
            model=llm.get("model", "default"),
            endpoint=endpoint,
            temperature=temperature,
            mock_script=mock_script,
            compiler_kind=compiler_kind,
            compiler_script=compiler_script,
            codeql_path=_table(data, "codeql", ("path",)).get("path"),
            budget=budget,
            seed=seed,
            pairing_budget=pairing_budget,
            drop_sanitized=drop_sanitized,
            max_iters=max_iters,
            timeout_s=None if timeout_s is None else float(timeout_s),
            database=scan_cfg.get("database", ""),
            manifest_path=manifest_path,
            filters=filters,
            workers=workers,
        )


# ---------------------------------------------------------------------------
# Component wiring
# ---------------------------------------------------------------------------

# PipelineConfig.from_dict rejects a config without the script a builder
# needs, so only the stepwise CLI commands reach these errors: they name flags.


def build_llm_client(llm_mode: str, mock_script: Path | None, endpoint: str):
    if llm_mode == "mock":
        if mock_script is None:
            raise ConfigError("--mock-script is required with --llm mock")
        return MockLlmClient(MockScript.from_jsonl(mock_script))
    if not endpoint:
        raise ConfigError("--endpoint is required with --llm live")
    return LiveLlmClient(endpoint=endpoint)


def build_backend(backend: str, codeql_path: str | None):
    if backend == "fixture":
        return FixtureBackend()
    from .codeql import CodeQLBackend

    return CodeQLBackend(binary=codeql_path)


def build_compiler(
    compiler_kind: str,
    compiler_script: Path | None,
    codeql_path: str | None,
    timeout_s: float | None = None,
):
    if compiler_kind == "mock":
        if compiler_script is None:
            raise ConfigError("--compiler-script is required with --compiler mock")
        return MockCompiler.from_file(compiler_script)
    from .codeql import CodeQLCompiler

    return CodeQLCompiler(binary=codeql_path, timeout_s=timeout_s)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


@dataclass
class _Run:
    """One run's components and what its stages have computed or loaded so far."""

    config: PipelineConfig
    gateway: LlmGateway | None = None
    compiler: object = None
    raw_count: int = 0
    records: list = field(default_factory=list)
    votes: list = field(default_factory=list)
    pairs: list = field(default_factory=list)
    rules: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    report: PipelineReport | None = None
    seconds: dict[str, float] = field(default_factory=dict)

    def path(self, name: str) -> Path:
        return self.config.out_dir / name

    def compiler_once(self):
        """The compiler, built on first use: only generate and scan need one."""
        if self.compiler is None:
            c = self.config
            self.compiler = build_compiler(
                c.compiler_kind, c.compiler_script, c.codeql_path, c.timeout_s
            )
        return self.compiler


# The steps below call qlforge's functions through this module's globals at
# call time, so a wrapper installed on the module (as the benchmark's tracer
# does) sees every call.


def _run_extract(run: _Run) -> None:
    config = run.config
    raw = extract_apis(config.project, build_backend(config.backend, config.codeql_path))
    run.raw_count = len(raw)
    run.records = dedupe(filter_risky(raw, config.filters))
    # The spec document holds only the filtered records; keep the raw
    # call-site count next to it so a resumed run reports the same numbers
    # as an uninterrupted one. It is written first: the spec document marks
    # the stage done, so a run killed in between reruns extract.
    write_text(run.path(EXTRACT_STATS_FILENAME), json.dumps({"call_sites": len(raw)}) + "\n")
    save_spec_document(run.records, run.path(SPECS_FILENAME))


def _load_extract(run: _Run) -> None:
    run.records = load_spec_document(run.path(SPECS_FILENAME))
    stats_path = run.path(EXTRACT_STATS_FILENAME)
    run.raw_count = read_json(stats_path).get("call_sites")
    if isinstance(run.raw_count, bool) or not isinstance(run.raw_count, int):
        raise ArtifactCorrupt(
            f"{stats_path}: expected an integer 'call_sites', got {run.raw_count!r}"
        )


def _run_classify(run: _Run) -> None:
    c = run.config
    run.votes = classify_records(
        run.records, run.gateway, c.model, c.budget, c.seed, c.temperature, c.workers
    )
    save_votes(run.votes, run.path(VOTES_FILENAME))


def _load_classify(run: _Run) -> None:
    run.votes = load_votes(run.path(VOTES_FILENAME))


def _run_pair(run: _Run) -> None:
    c = run.config
    run.pairs = pair_all(
        run.votes, run.records, run.gateway, c.model,
        c.pairing_budget, c.drop_sanitized, c.temperature, c.workers,
    )
    save_pairs(run.pairs, run.path(PAIRS_FILENAME))


def _load_pair(run: _Run) -> None:
    run.pairs = load_pairs(run.path(PAIRS_FILENAME))


def _run_generate(run: _Run) -> None:
    c = run.config
    run.rules = generate_all(
        run.pairs, record_lookup(run.records), run.gateway.client, run.compiler_once(),
        run.path(RULES_DIRNAME), c.model, c.max_iters, c.temperature, c.timeout_s, c.workers,
    )


def _load_generate(run: _Run) -> None:
    run.rules = load_rule_artifacts(run.path(RULES_DIRNAME))


def _run_scan(run: _Run) -> None:
    run.findings = scan(run.rules, run.config.database, run.compiler_once())
    save_findings(run.findings, run.path(FINDINGS_FILENAME))


def _load_scan(run: _Run) -> None:
    run.findings = load_findings(run.path(FINDINGS_FILENAME))


def _run_report(run: _Run) -> None:
    c = run.config
    manifest = load_manifest(c.manifest_path) if c.manifest_path else None
    metrics = compute_metrics(run.rules, run.findings, manifest)
    labels = Counter(v.resolved for v in run.votes)
    defaulted = sum(1 for v in run.votes for b in v.ballots if b.parse_warning)
    warnings = (
        (sum(1 for v in run.votes if v.tie), "classify: {} vote(s) resolved to None by tie"),
        (defaulted, "classify: {} ballot(s) defaulted on a parse warning"),
        (metrics.aborted, "generate: {} rule(s) aborted without compiling"),
    )
    run.report = PipelineReport(
        project=c.project.name,
        backend=c.backend,
        llm_mode=c.llm_mode,
        # Whole seconds only, so identical inputs give byte-identical reports
        # even when wall time jitters below 1s. The report cannot time itself
        # before writing itself; its row is pinned to 0s.
        stages=tuple(
            StageSummary(name, "ok", int(run.seconds.get(name, 0))) for name in STAGE_ORDER
        ),
        counts={
            "apis_extracted": run.raw_count,
            "apis_kept": len(run.records),
            "votes": len(run.votes),
            "sources": labels[TaintLabel.SOURCE],
            "sinks": labels[TaintLabel.SINK],
            "sanitizers": labels[TaintLabel.SANITIZER],
            "pairs": len(run.pairs),
            "rules_compiled": metrics.compiled,
            "rules_aborted": metrics.aborted,
            "findings": len(run.findings),
        },
        metrics=metrics,
        warnings=tuple(text.format(count) for count, text in warnings if count),
    )
    write_text(run.path(REPORT_FILENAME), dump_report(run.report))
    seconds = {name: round(s, 6) for name, s in run.seconds.items()}
    write_text(run.path(TIMINGS_FILENAME), dump_json({"stage_seconds": seconds}))


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: the artifact that marks it done, and how to make or read it."""

    name: str
    artifact: str  # relative to the run directory
    run: Callable[[_Run], None]
    load: Callable[[_Run], None] | None  # None: a run with this artifact is complete
    uses_model: bool = False


STAGES = (
    Stage("extract", SPECS_FILENAME, _run_extract, _load_extract),
    Stage("classify", VOTES_FILENAME, _run_classify, _load_classify, uses_model=True),
    Stage("pair", PAIRS_FILENAME, _run_pair, _load_pair, uses_model=True),
    Stage(
        "generate", f"{RULES_DIRNAME}/index.json", _run_generate, _load_generate, uses_model=True
    ),
    Stage("scan", FINDINGS_FILENAME, _run_scan, _load_scan),
    Stage("report", REPORT_FILENAME, _run_report, None),
)
STAGE_ORDER = tuple(stage.name for stage in STAGES)
_SIDECARS = (EXTRACT_STATS_FILENAME, TIMINGS_FILENAME, TRANSCRIPT_FILENAME)


# ---------------------------------------------------------------------------
# Run driver
# ---------------------------------------------------------------------------


def _clear_run_dir(out_dir: Path) -> None:
    for name in (*(Path(stage.artifact).parts[0] for stage in STAGES), *_SIDECARS):
        path = out_dir / name
        if path.is_dir():
            shutil.rmtree(path)
        elif path.is_file():
            path.unlink()


def _first_missing_stage(out_dir: Path) -> str | None:
    return next((s.name for s in STAGES if not (out_dir / s.artifact).is_file()), None)


def run_pipeline(
    config: PipelineConfig,
    resume: bool = False,
    stop_after: str | None = None,
) -> PipelineReport | None:
    """Run the pipeline, persisting one artifact per stage under out_dir.

    Returns the report, or None when ``stop_after`` cut the run short of the
    report stage. Raises :class:`NothingToDo` when resuming a completed run
    or when classification leaves nothing to pair, and :class:`StageFailure`
    when a stage errors out.
    """
    if stop_after is not None and stop_after not in STAGE_ORDER:
        raise ValueError(f"unknown stage: {stop_after!r}")
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    if resume:
        start = _first_missing_stage(out_dir)
        if start is None:
            raise NothingToDo(f"run in {out_dir} is already complete")
    else:
        _clear_run_dir(out_dir)
        start = STAGE_ORDER[0]
    logger.info("starting pipeline at stage %r (out_dir=%s)", start, out_dir)
    first = STAGE_ORDER.index(start)
    end = STAGE_ORDER.index(stop_after) + 1 if stop_after else len(STAGES)

    run = _Run(config)
    if any(stage.uses_model for stage in STAGES[first:end]):
        # Built before the first stage runs, so a bad mock script is a
        # config error rather than a stage failure.
        client = build_llm_client(config.llm_mode, config.mock_script, config.endpoint)
        run.gateway = LlmGateway(client, transcripts=TranscriptStore(out_dir / TRANSCRIPT_FILENAME))
    for stage in STAGES[:first]:
        stage.load(run)
        run.seconds[stage.name] = 0.0
    for stage in STAGES[first:end]:
        begun = time.monotonic()
        try:
            stage.run(run)
        except NothingToPair as exc:
            raise NothingToDo(str(exc)) from exc
        except QlforgeError as exc:
            raise StageFailure(stage.name, str(exc)) from exc
        run.seconds[stage.name] = time.monotonic() - begun
    if run.report is not None:
        logger.info("pipeline complete: %s", out_dir / REPORT_FILENAME)
    return run.report

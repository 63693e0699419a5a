"""End-to-end pipeline driver and its configuration.

A run walks the stage table :data:`STAGES` (extract, classify, pair,
generate, scan, report). Each stage has an artifact under the run directory,
a ``run`` step that computes the stage and writes the artifact, and a
``load`` step that reads it back:

    specs.json  votes.json  pairs.json  rules/index.json  findings.json  report.json

Sidecars: extract_stats.json (raw call-site count), timings.json (sub-second
stage timings) and transcript.jsonl (classify and pair model calls; each
rule keeps its own transcript). A resumed run loads every stage before the
first missing artifact and runs the rest; a run with no artifact missing up
to its stop stage resumes to nothing-to-do.
"""

from __future__ import annotations

import json
import logging
import shutil
import sys
import time
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Callable

from .artifacts import config_input, read_json, write_json, write_text
from .classify import VOTES, TaintLabel, classify_records, save_votes
from .errors import (
    ArtifactCorrupt,
    ConfigError,
    NothingToDo,
    NothingToPair,
    QlforgeError,
    StageFailure,
)
from .extract import FilterConfig, FixtureBackend, dedupe, extract_apis, filter_risky
from .gateway import (
    LiveLlmClient,
    LlmGateway,
    MockLlmClient,
    TranscriptStore,
    parse_endpoint,
)
from .metrics import compute_metrics, load_manifest
from .pairing import DEFAULT_BUDGET as DEFAULT_PAIRING_BUDGET, PAIRS, pair_all
from .records import SPECS, encodable_only, record_lookup, save_spec_document
from .report import PipelineReport, StageSummary, dump_report
from .rulegen import (
    DEFAULT_MAX_ITERS,
    FINDINGS,
    INDEX_FILENAME,
    TRANSCRIPT_FILENAME,
    MockCompiler,
    generate_all,
    load_rule_artifacts,
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

# A check takes a key, its value and the config file's directory, and returns
# the value to store or raises a ConfigError naming the key.
Check = Callable[[str, object, Path], object]
# Numbers must be finite: ``<= _FLOAT_MAX`` also fails NaN and ints too big for a float.
_FLOAT_MAX = sys.float_info.max


def _kind(what: str, ok: Callable[[object], bool], convert: Callable | None = None) -> Check:
    """The check that a value is ``what``: ``ok(value)`` holds; ``convert`` then applies."""

    def check(key: str, value, base: Path):
        if not ok(value):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        return value if convert is None else convert(value)

    return check


def _one_of(*choices: str) -> Check:
    return _kind(" or ".join(map(repr, choices)), lambda value: value in choices)


def _path(noun: str = "", exists: Callable[[Path], bool] | None = None) -> Check:
    """A string naming a path, resolved against the config file's directory."""

    def check(key: str, value, base: Path) -> Path:
        path = base / STRING(key, value, base)
        if exists is not None and not exists(path):
            raise ConfigError(f"{key}{noun} does not exist: {path}")
        return path

    return check


def _filters(key: str, value, base: Path) -> FilterConfig:
    try:
        return FilterConfig.from_dict(value)
    except TypeError as exc:
        raise ConfigError(f"config key {key}.{exc}") from None


# Exact types: a boolean is no integer and no number, though bool subclasses int.
STRING = _kind("a string", lambda value: isinstance(value, str))
INTEGER = _kind("an integer", lambda value: type(value) is int)
POSITIVE_INT = _kind("a positive integer", lambda value: type(value) is int and value >= 1)
NON_NEGATIVE = _kind(
    "a non-negative number", lambda v: type(v) in (int, float) and 0 <= v <= _FLOAT_MAX, float
)
POSITIVE = _kind(
    "a positive number", lambda v: type(v) in (int, float) and 0 < v <= _FLOAT_MAX, float
)
PATH = _path()
DIRECTORY = _path(" directory", Path.is_dir)
INPUT_FILE = _path("", Path.is_file)

CONFIG_KEY = "config_key"
"""Field metadata of a :class:`PipelineConfig` field: its dotted key and its :data:`Check`."""


def _key(key: str, check: Check, default=MISSING):
    """A config field read from ``key``; a field with no default is a required key."""
    return field(default=default, metadata={CONFIG_KEY: (key, check)})


def apply_overrides(data: dict, assignments: tuple[str, ...]) -> dict:
    """Apply ``key=value`` assignments onto a raw config mapping in place.

    Keys are dotted paths into the config document; missing intermediate
    tables are created. Values parse as JSON where possible, so
    ``classify.seed=9`` yields an integer and ``llm.temperature=0.5`` a
    float, while anything unparseable stays a plain string.
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
    """A run's configuration: one field per config key, with its check and its default.

    A dotted key names a key in a table (``llm.mode`` is ``mode`` in the
    ``llm`` table); the ``filters`` table's keys are :class:`FilterConfig`'s
    fields. A ``null`` at a key whose default is ``None`` leaves it unset.
    """

    project: Path = _key("project", DIRECTORY)
    out_dir: Path = _key("out_dir", PATH)
    backend: str = _key("backend", _one_of("fixture", "codeql"), "fixture")
    llm_mode: str = _key("llm.mode", _one_of("mock", "live"), "mock")
    model: str = _key("llm.model", STRING, "default")
    endpoint: str = _key("llm.endpoint", STRING, "")
    temperature: float | None = _key("llm.temperature", NON_NEGATIVE, None)
    mock_script: Path | None = _key("mock_script", INPUT_FILE, None)
    compiler_kind: str = _key("compiler.kind", _one_of("mock", "codeql"), "mock")
    compiler_script: Path | None = _key("compiler.script", INPUT_FILE, None)
    codeql_path: str | None = _key("codeql.path", STRING, None)
    budget: int = _key("classify.budget", POSITIVE_INT, 4000)
    seed: int = _key("classify.seed", INTEGER, 0)
    pairing_budget: int = _key("pairing.budget", POSITIVE_INT, DEFAULT_PAIRING_BUDGET)
    max_iters: int = _key("rulegen.max_iters", POSITIVE_INT, DEFAULT_MAX_ITERS)
    timeout_s: float | None = _key("rulegen.timeout_s", POSITIVE, None)
    database: str = _key("scan.database", STRING, "")
    manifest_path: Path | None = _key("scan.manifest", INPUT_FILE, None)
    filters: FilterConfig | None = _key("filters", _filters, None)
    workers: int = _key("workers", POSITIVE_INT, 4)

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
        top_level, tables = _layout()
        for name in tables:
            if not isinstance(data.get(name, {}), dict):
                raise ConfigError(f"config key {name} must be a table, got {data[name]!r}")
        unknown = [key for key in data if key not in top_level] + [
            f"{name}.{key}" for name, keys in tables.items() for key in data.get(name, {})
            if key not in keys
        ]
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")

        base = Path(base_dir)
        values = {}
        for f in fields(cls):
            key, check = f.metadata[CONFIG_KEY]
            table, _, name = key.rpartition(".")
            source = data.get(table, {}) if table else data
            if name not in source:
                if f.default is MISSING:
                    raise ConfigError(f"config is missing required key: {key}")
            elif source[name] is not None or f.default is not None:
                values[f.name] = check(key, source[name], base)
        config = cls(**values)

        if config.llm_mode == "live":
            if not config.endpoint:
                raise ConfigError("llm.endpoint is required in live mode")
            parse_endpoint(config.endpoint)
        if config.llm_mode == "mock" and config.mock_script is None:
            raise ConfigError("mock llm mode requires mock_script")
        if config.compiler_kind == "mock" and config.compiler_script is None:
            raise ConfigError("mock compiler requires compiler.script")
        if config.compiler_kind == "codeql" and not config.database:
            raise ConfigError("codeql compiler requires scan.database")
        return config


def _layout() -> tuple[set[str], dict[str, set[str]]]:
    """The config's top-level keys, and each table's keys by table name."""
    keys = [f.metadata[CONFIG_KEY][0] for f in fields(PipelineConfig)]
    tables = {"filters": {f.name for f in fields(FilterConfig)}}
    for table, _, name in (key.rpartition(".") for key in keys if "." in key):
        tables.setdefault(table, set()).add(name)
    return {key.partition(".")[0] for key in keys}, tables


# ---------------------------------------------------------------------------
# Component wiring
# ---------------------------------------------------------------------------


def build_llm_client(config: PipelineConfig):
    if config.llm_mode == "mock":
        return MockLlmClient.from_jsonl(config.mock_script)
    return LiveLlmClient(endpoint=config.endpoint)


def build_backend(config: PipelineConfig):
    if config.backend == "fixture":
        return FixtureBackend()
    from .codeql import CodeQLBackend

    return CodeQLBackend(binary=config.codeql_path)


def build_compiler(config: PipelineConfig):
    if config.compiler_kind == "mock":
        return MockCompiler.from_file(config.compiler_script, config.timeout_s)
    from .codeql import CodeQLCompiler

    return CodeQLCompiler(binary=config.codeql_path, timeout_s=config.timeout_s)


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


# The steps below call qlforge's functions through this module's globals at
# call time, so a wrapper installed on the module (as the benchmark's tracer
# does) sees every call.


def _run_extract(run: _Run) -> None:
    config = run.config
    raw = extract_apis(config.project, build_backend(config))
    run.raw_count = len(raw)
    run.records = encodable_only(dedupe(filter_risky(raw, config.filters)))
    # The spec document holds only the filtered records; keep the raw
    # call-site count next to it so a resumed run reports the same numbers
    # as an uninterrupted one. It is written first: the spec document marks
    # the stage done, so a run killed in between reruns extract.
    write_text(run.path(EXTRACT_STATS_FILENAME), json.dumps({"call_sites": len(raw)}) + "\n")
    save_spec_document(run.records, run.path(SPECS_FILENAME))


def _load_extract(run: _Run) -> None:
    run.records = SPECS.load(run.path(SPECS_FILENAME))
    stats_path = run.path(EXTRACT_STATS_FILENAME)
    run.raw_count = read_json(stats_path).get("call_sites")
    if isinstance(run.raw_count, bool) or not isinstance(run.raw_count, int):
        raise ArtifactCorrupt(
            f"{stats_path}: expected an integer 'call_sites', got {run.raw_count!r}"
        )


def _run_classify(run: _Run) -> None:
    c = run.config
    run.votes = classify_records(run.records, run.gateway, c.budget, c.seed)
    save_votes(run.votes, run.path(VOTES_FILENAME))


def _load_classify(run: _Run) -> None:
    run.votes = VOTES.load(run.path(VOTES_FILENAME))


def _run_pair(run: _Run) -> None:
    c = run.config
    run.pairs = pair_all(run.votes, run.records, run.gateway, c.pairing_budget)
    PAIRS.save(run.pairs, run.path(PAIRS_FILENAME))


def _load_pair(run: _Run) -> None:
    run.pairs = PAIRS.load(run.path(PAIRS_FILENAME))


def _run_generate(run: _Run) -> None:
    run.rules = generate_all(
        run.pairs, record_lookup(run.records), run.gateway, run.compiler,
        run.path(RULES_DIRNAME), run.config.max_iters,
    )


def _load_generate(run: _Run) -> None:
    run.rules = load_rule_artifacts(run.path(RULES_DIRNAME))


def _run_scan(run: _Run) -> None:
    run.findings = scan(run.rules, run.config.database, run.compiler)
    FINDINGS.save(run.findings, run.path(FINDINGS_FILENAME))


def _load_scan(run: _Run) -> None:
    run.findings = FINDINGS.load(run.path(FINDINGS_FILENAME))


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
        # No wall times here, so identical inputs give byte-identical
        # reports; they go to the timings sidecar below.
        stages=tuple(StageSummary(name, "ok") for name in STAGE_ORDER),
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
    write_json(run.path(TIMINGS_FILENAME), {"stage_seconds": seconds})


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: the artifact that marks it done, and how to make or read it."""

    name: str
    artifact: str  # relative to the run directory
    run: Callable[[_Run], None]
    load: Callable[[_Run], None] | None  # None: a run with this artifact is complete
    uses_model: bool = False
    uses_compiler: bool = False


STAGES = (
    Stage("extract", SPECS_FILENAME, _run_extract, _load_extract),
    Stage("classify", VOTES_FILENAME, _run_classify, _load_classify, uses_model=True),
    Stage("pair", PAIRS_FILENAME, _run_pair, _load_pair, uses_model=True),
    Stage(
        "generate", f"{RULES_DIRNAME}/{INDEX_FILENAME}", _run_generate, _load_generate,
        uses_model=True, uses_compiler=True,
    ),
    Stage("scan", FINDINGS_FILENAME, _run_scan, _load_scan, uses_compiler=True),
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
    report stage. Raises :class:`NothingToDo` when a resumed run has no
    missing artifact up to ``stop_after`` (it then changes no file) or when
    classification leaves nothing to pair, and :class:`StageFailure` when a
    stage errors out.
    """
    if stop_after is not None and stop_after not in STAGE_ORDER:
        raise ValueError(f"unknown stage: {stop_after!r}")
    out_dir = config.out_dir
    end = STAGE_ORDER.index(stop_after) + 1 if stop_after else len(STAGES)
    if resume:
        start = _first_missing_stage(out_dir)
        first = len(STAGES) if start is None else STAGE_ORDER.index(start)
        if first >= end:
            raise NothingToDo(
                f"run in {out_dir} is already complete through {STAGE_ORDER[end - 1]}"
            )
    else:
        first = 0
    # Built before the run directory is cleared or any stage runs, so a bad
    # mock or compiler script is a config error that leaves the previous run
    # in place.
    uses_model = any(stage.uses_model for stage in STAGES[first:end])
    client = build_llm_client(config) if uses_model else None
    uses_compiler = any(stage.uses_compiler for stage in STAGES[first:end])
    compiler = build_compiler(config) if uses_compiler else None
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"out_dir is not a directory: {out_dir}") from None
    if not resume:
        _clear_run_dir(out_dir)
    logger.info("starting pipeline at stage %r (out_dir=%s)", STAGE_ORDER[first], out_dir)

    run = _Run(config, compiler=compiler)
    if client is not None:
        run.gateway = LlmGateway(
            client,
            TranscriptStore(out_dir / TRANSCRIPT_FILENAME),
            model=config.model,
            temperature=config.temperature,
            workers=config.workers,
        )
    try:
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
    finally:
        if isinstance(client, LiveLlmClient):
            client.close()  # its pooled keep-alive connections
    if run.report is not None:
        logger.info("pipeline complete: %s", out_dir / REPORT_FILENAME)
    return run.report

"""End-to-end pipeline driver and its configuration.

A run walks six stages (extract, classify, pair, generate, scan, report)
and persists one artifact per stage under the run directory:

    specs.json  votes.json  pairs.json  rules/  findings.json  report.json

plus transcript.jsonl for the classify and pair model calls (generation
transcripts live next to each rule) and timings.json with sub-second stage
timings. Resuming starts at the first stage whose artifact is missing and
reloads everything before it; a completed run resumes to nothing-to-do.
"""

from __future__ import annotations

import json
import logging
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from .artifacts import read_json
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
from .report import PipelineReport, StageSummary, dump_report, write_output
from .rulegen import (
    ArtifactStatus,
    MockCompiler,
    generate_all,
    load_findings,
    load_rule_artifacts,
    save_findings,
    scan,
)

logger = logging.getLogger(__name__)

STAGE_ORDER = ("extract", "classify", "pair", "generate", "scan", "report")

SPECS_FILENAME = "specs.json"
EXTRACT_STATS_FILENAME = "extract_stats.json"
VOTES_FILENAME = "votes.json"
PAIRS_FILENAME = "pairs.json"
RULES_DIRNAME = "rules"
FINDINGS_FILENAME = "findings.json"
REPORT_FILENAME = "report.json"
TIMINGS_FILENAME = "timings.json"
TRANSCRIPT_FILENAME = "transcript.jsonl"

_STAGE_ARTIFACT = {
    "extract": SPECS_FILENAME,
    "classify": VOTES_FILENAME,
    "pair": PAIRS_FILENAME,
    "generate": f"{RULES_DIRNAME}/index.json",
    "scan": FINDINGS_FILENAME,
    "report": REPORT_FILENAME,
}

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
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if overrides and isinstance(data, dict):
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

        mock_script = None
        if "mock_script" in data:
            mock_script = resolve(data["mock_script"])
            if not mock_script.is_file():
                raise ConfigError(f"mock_script does not exist: {mock_script}")
        if llm_mode == "mock" and mock_script is None:
            raise ConfigError("mock llm mode requires mock_script")

        compiler = _table(data, "compiler", ("kind", "script"))
        compiler_kind = compiler.get("kind", "mock")
        if compiler_kind not in ("mock", "codeql"):
            raise ConfigError(f"compiler.kind must be 'mock' or 'codeql', got {compiler_kind!r}")
        compiler_script = None
        if "script" in compiler:
            compiler_script = resolve(compiler["script"])
            if not compiler_script.is_file():
                raise ConfigError(f"compiler.script does not exist: {compiler_script}")
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
        manifest_path = None
        if "manifest" in scan_cfg:
            manifest_path = resolve(scan_cfg["manifest"])
            if not manifest_path.is_file():
                raise ConfigError(f"scan.manifest does not exist: {manifest_path}")

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


def build_llm_client(config: PipelineConfig):
    if config.llm_mode == "mock":
        assert config.mock_script is not None
        return MockLlmClient(MockScript.from_jsonl(config.mock_script))
    return LiveLlmClient(endpoint=config.endpoint)


def build_backend(config: PipelineConfig):
    if config.backend == "fixture":
        return FixtureBackend()
    from .codeql import CodeQLBackend

    return CodeQLBackend(binary=config.codeql_path)


def build_compiler(config: PipelineConfig):
    if config.compiler_kind == "mock":
        assert config.compiler_script is not None
        return MockCompiler.from_file(config.compiler_script)
    from .codeql import CodeQLCompiler

    return CodeQLCompiler(binary=config.codeql_path, timeout_s=config.timeout_s)


# ---------------------------------------------------------------------------
# Run driver
# ---------------------------------------------------------------------------


def _clear_run_dir(out_dir: Path) -> None:
    for name in (
        SPECS_FILENAME,
        EXTRACT_STATS_FILENAME,
        VOTES_FILENAME,
        PAIRS_FILENAME,
        FINDINGS_FILENAME,
        REPORT_FILENAME,
        TIMINGS_FILENAME,
        TRANSCRIPT_FILENAME,
    ):
        path = out_dir / name
        if path.is_file():
            path.unlink()
    rules = out_dir / RULES_DIRNAME
    if rules.is_dir():
        shutil.rmtree(rules)


def _first_missing_stage(out_dir: Path) -> str | None:
    for stage in STAGE_ORDER:
        if not (out_dir / _STAGE_ARTIFACT[stage]).is_file():
            return stage
    return None


class _Timings:
    def __init__(self):
        self.precise: dict[str, float] = {}
        self.summaries: list[StageSummary] = []

    def record(self, stage: str, elapsed: float, resumed: bool = False) -> None:
        self.precise[stage] = round(elapsed, 6)
        # Whole seconds only in the report proper, so identical inputs give
        # byte-identical reports even when wall time jitters below 1s.
        self.summaries.append(StageSummary(stage, "ok", int(elapsed)))
        if resumed:
            self.precise[stage] = 0.0


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
        start = "extract"
    start_index = STAGE_ORDER.index(start)
    logger.info("starting pipeline at stage %r (out_dir=%s)", start, out_dir)

    timings = _Timings()
    warnings: list[str] = []
    needs_llm = any(
        STAGE_ORDER.index(s) >= start_index
        for s in ("classify", "pair", "generate")
        if stop_after is None or STAGE_ORDER.index(s) <= STAGE_ORDER.index(stop_after)
    )
    client = build_llm_client(config) if needs_llm else None
    compiler = None

    records = None
    raw_count = None
    votes = None
    pairs = None
    artifacts = None
    findings = None

    def run_stage(stage: str, fn):
        nonlocal compiler
        begun = time.monotonic()
        try:
            result = fn()
        except (NothingToDo, NothingToPair):
            raise
        except QlforgeError as exc:
            raise StageFailure(stage, str(exc)) from exc
        timings.record(stage, time.monotonic() - begun)
        return result

    # --- extract ---
    if start_index <= STAGE_ORDER.index("extract"):

        def do_extract():
            nonlocal raw_count
            backend = build_backend(config)
            raw = extract_apis(config.project, backend)
            raw_count = len(raw)
            if not raw:
                warnings.append("extract: no call sites found under project")
            kept = dedupe(filter_risky(raw, config.filters))
            save_spec_document(kept, out_dir / SPECS_FILENAME)
            # The spec document holds only the filtered records; keep the
            # raw call-site count next to it so a resumed run reports the
            # same numbers as an uninterrupted one.
            write_output(
                json.dumps({"call_sites": raw_count}) + "\n",
                out_dir / EXTRACT_STATS_FILENAME,
            )
            return kept

        records = run_stage("extract", do_extract)
        if stop_after == "extract":
            return None
    else:
        records = load_spec_document(out_dir / SPECS_FILENAME)
        stats_path = out_dir / EXTRACT_STATS_FILENAME
        if stats_path.is_file():
            raw_count = read_json(stats_path).get("call_sites")
            if isinstance(raw_count, bool) or not isinstance(raw_count, int):
                raise ArtifactCorrupt(
                    f"{stats_path}: expected an integer 'call_sites', got {raw_count!r}"
                )
        else:
            raw_count = len(records)
        timings.record("extract", 0.0, resumed=True)

    shared_transcript = TranscriptStore(out_dir / TRANSCRIPT_FILENAME)
    gateway = LlmGateway(client, transcripts=shared_transcript) if client is not None else None

    # --- classify ---
    if start_index <= STAGE_ORDER.index("classify"):

        def do_classify():
            result = classify_records(
                records,
                gateway,
                config.model,
                config.budget,
                config.seed,
                config.temperature,
                config.workers,
            )
            save_votes(result, out_dir / VOTES_FILENAME)
            return result

        votes = run_stage("classify", do_classify)
        if stop_after == "classify":
            return None
    else:
        votes = load_votes(out_dir / VOTES_FILENAME)
        timings.record("classify", 0.0, resumed=True)

    ties = sum(1 for v in votes if v.tie)
    if ties:
        warnings.append(f"classify: {ties} vote(s) resolved to None by tie")
    parse_warnings = sum(1 for v in votes for b in v.ballots if b.parse_warning)
    if parse_warnings:
        warnings.append(f"classify: {parse_warnings} ballot(s) defaulted on a parse warning")

    # --- pair ---
    if start_index <= STAGE_ORDER.index("pair"):

        def do_pair():
            try:
                result = pair_all(
                    votes,
                    records,
                    gateway,
                    config.model,
                    config.pairing_budget,
                    config.drop_sanitized,
                    config.temperature,
                    config.workers,
                )
            except NothingToPair as exc:
                raise NothingToDo(str(exc)) from exc
            save_pairs(result, out_dir / PAIRS_FILENAME)
            return result

        pairs = run_stage("pair", do_pair)
        if stop_after == "pair":
            return None
    else:
        pairs = load_pairs(out_dir / PAIRS_FILENAME)
        timings.record("pair", 0.0, resumed=True)

    # --- generate ---
    if start_index <= STAGE_ORDER.index("generate"):

        def do_generate():
            nonlocal compiler
            compiler = build_compiler(config)
            return generate_all(
                pairs,
                record_lookup(records),
                client,
                compiler,
                out_dir / RULES_DIRNAME,
                config.model,
                config.max_iters,
                config.temperature,
                config.timeout_s,
                config.workers,
            )

        artifacts = run_stage("generate", do_generate)
        if stop_after == "generate":
            return None
    else:
        artifacts = load_rule_artifacts(out_dir / RULES_DIRNAME)
        timings.record("generate", 0.0, resumed=True)

    aborted = sum(1 for a in artifacts if a.status is ArtifactStatus.ABORTED)
    if aborted:
        warnings.append(f"generate: {aborted} rule(s) aborted without compiling")

    # --- scan ---
    if start_index <= STAGE_ORDER.index("scan"):

        def do_scan():
            nonlocal compiler
            if compiler is None:
                compiler = build_compiler(config)
            result = scan(artifacts, config.database, compiler)
            save_findings(result, out_dir / FINDINGS_FILENAME)
            return result

        findings = run_stage("scan", do_scan)
        if stop_after == "scan":
            return None
    else:
        findings = load_findings(out_dir / FINDINGS_FILENAME)
        timings.record("scan", 0.0, resumed=True)

    # --- report ---
    def do_report():
        manifest = load_manifest(config.manifest_path) if config.manifest_path else None
        metrics = compute_metrics(artifacts, findings, manifest)
        label_counts = {
            label: sum(1 for v in votes if v.resolved is label) for label in TaintLabel
        }
        counts = {
            "apis_extracted": raw_count,
            "apis_kept": len(records),
            "votes": len(votes),
            "sources": label_counts[TaintLabel.SOURCE],
            "sinks": label_counts[TaintLabel.SINK],
            "sanitizers": label_counts[TaintLabel.SANITIZER],
            "pairs": len(pairs),
            "rules_compiled": metrics.compiled,
            "rules_aborted": metrics.aborted,
            "findings": len(findings),
        }
        stage_rows = {s.name: s for s in timings.summaries}
        # The report cannot time itself before writing itself; its row is
        # pinned to 0s, matching every other stage under mock inputs.
        stage_rows["report"] = StageSummary("report", "ok", 0)
        summaries = tuple(stage_rows[name] for name in STAGE_ORDER if name in stage_rows)
        report = PipelineReport(
            project=config.project.name,
            backend=config.backend,
            llm_mode=config.llm_mode,
            stages=summaries,
            counts=counts,
            metrics=metrics,
            warnings=tuple(warnings),
        )
        write_output(dump_report(report), out_dir / REPORT_FILENAME)
        write_output(
            json.dumps({"stage_seconds": timings.precise}, indent=2) + "\n",
            out_dir / TIMINGS_FILENAME,
        )
        return report

    report = run_stage("report", do_report)
    logger.info("pipeline complete: %s", out_dir / REPORT_FILENAME)
    return report

"""Command line entry points.

Exit codes are uniform across subcommands: 0 on success, 2 for
configuration problems, 3 when a pipeline stage fails, 4 when there is
nothing to do (resuming a finished run, pairing with an empty side,
reporting on a run that has no report yet).
"""

from __future__ import annotations

import functools
import logging
import sys
from pathlib import Path

import click

from . import __version__
from .classify import classify_records, load_votes, save_votes
from .errors import ConfigError, NothingToDo, NothingToPair, QlforgeError, StageFailure
from .extract import FixtureBackend, dedupe, extract_apis, filter_risky
from .gateway import LiveLlmClient, LlmGateway, MockLlmClient, MockScript, TranscriptStore
from .pairing import DEFAULT_BUDGET as DEFAULT_PAIRING_BUDGET, load_pairs, pair_all, save_pairs
from .pipeline import (
    FINDINGS_FILENAME,
    REPORT_FILENAME,
    PipelineConfig,
    run_pipeline,
)
from .records import load_spec_document, record_lookup, save_spec_document
from .report import REPORT_FORMATS, emit_report, load_report, write_output
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_NOTHING = 4


def cli_errors(fn):
    """Map domain errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except (NothingToDo, NothingToPair) as exc:
            click.echo(f"nothing to do: {exc}", err=True)
            sys.exit(EXIT_NOTHING)
        except StageFailure as exc:
            click.echo(f"stage failure: {exc}", err=True)
            sys.exit(EXIT_STAGE)
        except QlforgeError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_STAGE)

    return wrapper


def llm_options(fn):
    fn = click.option(
        "--temperature",
        type=float,
        default=None,
        help="Sampling temperature (default: 0 for classify/pair, 0.7 for write/repair).",
    )(fn)
    fn = click.option("--endpoint", default="", help="Chat-completions endpoint for live mode.")(fn)
    fn = click.option("--model", default="default", show_default=True, help="Model name.")(fn)
    fn = click.option(
        "--transcript",
        type=click.Path(path_type=Path),
        default=None,
        help="Append every model call to this JSONL file.",
    )(fn)
    fn = click.option(
        "--mock-script",
        type=click.Path(exists=True, path_type=Path),
        default=None,
        help="Canned responses (JSONL) for mock mode.",
    )(fn)
    fn = click.option(
        "--llm",
        "llm_mode",
        type=click.Choice(["live", "mock"]),
        default="mock",
        show_default=True,
        help="Model transport.",
    )(fn)
    return fn


def compiler_options(fn):
    fn = click.option("--codeql-path", default=None, help="Path to the codeql binary.")(fn)
    fn = click.option(
        "--compiler-script",
        type=click.Path(exists=True, path_type=Path),
        default=None,
        help="Scripted outcomes (JSON) for the mock compiler.",
    )(fn)
    fn = click.option(
        "--compiler",
        "compiler_kind",
        type=click.Choice(["codeql", "mock"]),
        default="mock",
        show_default=True,
        help="Rule compiler.",
    )(fn)
    return fn


def _build_client(llm_mode: str, mock_script: Path | None, endpoint: str):
    if llm_mode == "mock":
        if mock_script is None:
            raise ConfigError("--mock-script is required with --llm mock")
        return MockLlmClient(MockScript.from_jsonl(mock_script))
    if not endpoint:
        raise ConfigError("--endpoint is required with --llm live")
    return LiveLlmClient(endpoint=endpoint)


def _build_compiler(compiler_kind: str, compiler_script: Path | None, codeql_path: str | None):
    if compiler_kind == "mock":
        if compiler_script is None:
            raise ConfigError("--compiler-script is required with --compiler mock")
        return MockCompiler.from_file(compiler_script)
    from .codeql import CodeQLCompiler

    return CodeQLCompiler(binary=codeql_path)


@click.group()
@click.version_option(version=__version__)
@click.option("-v", "--verbose", count=True, help="Increase log verbosity (-v, -vv).")
def main(verbose: int) -> None:
    """Mine taint specifications from a codebase and forge query rules."""
    level = logging.WARNING - 10 * min(verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


@main.command()
@click.option(
    "--project",
    required=True,
    type=click.Path(exists=True, file_okay=False, path_type=Path),
    help="Project root to extract from.",
)
@click.option(
    "--backend",
    type=click.Choice(["codeql", "fixture"]),
    default="fixture",
    show_default=True,
    help="Extraction backend.",
)
@click.option("--codeql-path", default=None, help="Path to the codeql binary.")
@click.option(
    "--out", required=True, type=click.Path(path_type=Path), help="Spec document to write."
)
@cli_errors
def extract(project: Path, backend: str, codeql_path: str | None, out: Path) -> None:
    """Enumerate API call sites and write the filtered spec document."""
    if backend == "fixture":
        backend_obj = FixtureBackend()
    else:
        from .codeql import CodeQLBackend

        backend_obj = CodeQLBackend(binary=codeql_path)
    raw = extract_apis(project, backend_obj)
    kept = dedupe(filter_risky(raw))
    save_spec_document(kept, out)
    click.echo(f"extracted {len(raw)} call site(s), kept {len(kept)} distinct API(s) -> {out}")


@main.command()
@click.option(
    "--specs",
    required=True,
    type=click.Path(exists=True, path_type=Path),
    help="Spec document from the extract step.",
)
@click.option("--budget", type=int, default=4000, show_default=True, help="Prompt token budget.")
@click.option("--seed", type=int, default=0, show_default=True, help="Grouping seed.")
@llm_options
@click.option(
    "--out", required=True, type=click.Path(path_type=Path), help="Votes document to write."
)
@cli_errors
def classify(
    specs: Path,
    budget: int,
    seed: int,
    llm_mode: str,
    mock_script: Path | None,
    transcript: Path | None,
    model: str,
    endpoint: str,
    temperature: float | None,
    out: Path,
) -> None:
    """Label each API as Source, Sink, Sanitizer or None by triple voting."""
    records = load_spec_document(specs)
    client = _build_client(llm_mode, mock_script, endpoint)
    gateway = LlmGateway(client, transcripts=TranscriptStore(transcript))
    votes = classify_records(records, gateway, model, budget, seed, temperature)
    save_votes(votes, out)
    ties = sum(1 for v in votes if v.tie)
    click.echo(f"classified {len(votes)} API(s) ({ties} tie(s)) -> {out}")


@main.command()
@click.option(
    "--votes",
    required=True,
    type=click.Path(exists=True, path_type=Path),
    help="Votes document from the classify step.",
)
@click.option(
    "--specs",
    required=True,
    type=click.Path(exists=True, path_type=Path),
    help="Spec document from the extract step.",
)
@click.option(
    "--budget",
    type=click.IntRange(min=1),
    default=DEFAULT_PAIRING_BUDGET,
    show_default=True,
    help="Prompt token budget per (source group × sink group) tile.",
)
@click.option(
    "--drop-sanitized",
    is_flag=True,
    help="Drop pairs the model marked as broken by a sanitizer.",
)
@llm_options
@click.option(
    "--out", required=True, type=click.Path(path_type=Path), help="Pairs document to write."
)
@cli_errors
def pair(
    votes: Path,
    specs: Path,
    budget: int,
    drop_sanitized: bool,
    llm_mode: str,
    mock_script: Path | None,
    transcript: Path | None,
    model: str,
    endpoint: str,
    temperature: float | None,
    out: Path,
) -> None:
    """Pair classified sources with sinks into candidate chains."""
    vote_records = load_votes(votes)
    records = load_spec_document(specs)
    client = _build_client(llm_mode, mock_script, endpoint)
    gateway = LlmGateway(client, transcripts=TranscriptStore(transcript))
    pairs = pair_all(
        vote_records,
        records,
        gateway,
        model,
        budget=budget,
        drop_sanitized=drop_sanitized,
        temperature=temperature,
    )
    save_pairs(pairs, out)
    click.echo(f"paired {len(pairs)} source/sink chain(s) -> {out}")


@main.command()
@click.option(
    "--pairs",
    required=True,
    type=click.Path(exists=True, path_type=Path),
    help="Pairs document from the pair step.",
)
@click.option(
    "--specs",
    required=True,
    type=click.Path(exists=True, path_type=Path),
    help="Spec document from the extract step.",
)
@click.option("--max-iters", type=int, default=5, show_default=True, help="Attempt bound per rule.")
@compiler_options
@llm_options
@click.option(
    "--out",
    required=True,
    type=click.Path(path_type=Path),
    help="Rules directory to populate.",
)
@cli_errors
def generate(
    pairs: Path,
    specs: Path,
    max_iters: int,
    compiler_kind: str,
    compiler_script: Path | None,
    codeql_path: str | None,
    llm_mode: str,
    mock_script: Path | None,
    transcript: Path | None,
    model: str,
    endpoint: str,
    temperature: float | None,
    out: Path,
) -> None:
    """Write, compile and repair one rule per pair."""
    pair_list = load_pairs(pairs)
    records = load_spec_document(specs)
    client = _build_client(llm_mode, mock_script, endpoint)
    compiler = _build_compiler(compiler_kind, compiler_script, codeql_path)
    artifacts = generate_all(
        pair_list,
        record_lookup(records),
        client,
        compiler,
        out,
        model,
        max_iters=max_iters,
        temperature=temperature,
    )
    compiled = sum(1 for a in artifacts if a.status is ArtifactStatus.COMPILED)
    aborted = len(artifacts) - compiled
    click.echo(
        f"generated {len(artifacts)} rule(s): {compiled} compiled, {aborted} aborted -> {out}"
    )


@main.command("scan")
@click.option(
    "--rules",
    required=True,
    type=click.Path(exists=True, file_okay=False, path_type=Path),
    help="Rules directory from the generate step.",
)
@click.option("--database", required=True, help="Analysis database to scan.")
@compiler_options
@click.option(
    "--out", required=True, type=click.Path(path_type=Path), help="Findings document to write."
)
@cli_errors
def scan_cmd(
    rules: Path,
    database: str,
    compiler_kind: str,
    compiler_script: Path | None,
    codeql_path: str | None,
    out: Path,
) -> None:
    """Execute every compiled rule against a database and merge the findings."""
    artifacts = load_rule_artifacts(rules)
    compiler = _build_compiler(compiler_kind, compiler_script, codeql_path)
    findings = scan(artifacts, database, compiler)
    save_findings(findings, out)
    click.echo(f"scan produced {len(findings)} finding(s) -> {out}")


@main.command()
@click.option(
    "--config",
    required=True,
    type=click.Path(exists=True, path_type=Path),
    help="Pipeline configuration (JSON).",
)
@click.option("--resume", is_flag=True, help="Continue from the first missing artifact.")
@click.option(
    "--set",
    "overrides",
    multiple=True,
    metavar="KEY=VALUE",
    help="Override one config key by dotted path, e.g. classify.seed=9.",
)
@cli_errors
def run(config: Path, resume: bool, overrides: tuple[str, ...]) -> None:
    """Run the full pipeline: extract, classify, pair, generate, scan, report."""
    cfg = PipelineConfig.from_file(config, overrides=overrides)
    report = run_pipeline(cfg, resume=resume)
    assert report is not None
    m = report.metrics
    click.echo(f"run complete -> {cfg.out_dir / REPORT_FILENAME}")
    if m is not None:
        from .metrics import format_rate

        click.echo(
            f"correctness_rate={format_rate(m.correctness_rate)} "
            f"detection_rate={format_rate(m.detection_rate)}"
        )


@main.command()
@click.option(
    "--run",
    "run_dir",
    required=True,
    type=click.Path(exists=True, file_okay=False, path_type=Path),
    help="Run directory containing report.json.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(list(REPORT_FORMATS)),
    default="text",
    show_default=True,
    help="Output format.",
)
@click.option(
    "--out",
    type=click.Path(path_type=Path),
    default=None,
    help="Write here instead of stdout.",
)
@cli_errors
def report(run_dir: Path, fmt: str, out: Path | None) -> None:
    """Render the report of a completed run."""
    report_path = run_dir / REPORT_FILENAME
    if not report_path.is_file():
        raise NothingToDo(f"no report in {run_dir}; run the pipeline first")
    loaded = load_report(report_path)
    findings = []
    findings_path = run_dir / FINDINGS_FILENAME
    if findings_path.is_file():
        findings = load_findings(findings_path)
    text = emit_report(loaded, fmt, findings)
    if out is None:
        click.echo(text, nl=False)
    else:
        write_output(text, out)
        click.echo(f"report written -> {out}")


if __name__ == "__main__":
    main()

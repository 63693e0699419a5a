"""Command line entry points: ``qlforge run`` and ``qlforge report``.

``run --until STAGE`` stops after that stage, and ``run --resume`` continues
from the first missing artifact, so a run can be taken one stage at a time
with the artifacts inspected or edited in between.

Exit codes are uniform across subcommands:

- 0 on success, including a run stopped by ``--until``;
- 2 for configuration problems;
- 3 when a pipeline stage fails;
- 4 when there is nothing to do: resuming a finished run, or one that is
  already past ``--until``; pairing with an empty side; reporting on a run
  that has no report yet.
"""

from __future__ import annotations

import functools
import logging
import sys
from pathlib import Path

import click

from . import __version__
from .artifacts import write_text
from .errors import ConfigError, NothingToDo, QlforgeError, StageFailure
from .metrics import format_rate
from .pipeline import (
    FINDINGS_FILENAME,
    REPORT_FILENAME,
    STAGE_ORDER,
    TIMINGS_FILENAME,
    PipelineConfig,
    run_pipeline,
)
from .report import REPORT_FORMATS, emit_report, load_report, load_stage_seconds
from .rulegen import FINDINGS

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
        except NothingToDo as exc:
            click.echo(f"nothing to do: {exc}", err=True)
            sys.exit(EXIT_NOTHING)
        except StageFailure as exc:
            click.echo(f"stage failure: {exc}", err=True)
            sys.exit(EXIT_STAGE)
        except QlforgeError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_STAGE)

    return wrapper


@click.group()
@click.version_option(version=__version__)
@click.option("-v", "--verbose", count=True, help="Increase log verbosity (-v, -vv).")
def main(verbose: int) -> None:
    """Mine taint specifications from a codebase and forge query rules."""
    level = logging.WARNING - 10 * min(verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


@main.command()
@click.option(
    "--config",
    required=True,
    type=click.Path(exists=True, path_type=Path),
    help="Pipeline configuration (JSON).",
)
@click.option("--resume", is_flag=True, help="Continue from the first missing artifact.")
@click.option(
    "--until",
    type=click.Choice(STAGE_ORDER),
    default=None,
    help="Stop after this stage (default: run through report).",
)
@click.option(
    "--set",
    "overrides",
    multiple=True,
    metavar="KEY=VALUE",
    help="Override one config key by dotted path, e.g. classify.seed=9.",
)
@cli_errors
def run(config: Path, resume: bool, until: str | None, overrides: tuple[str, ...]) -> None:
    """Run the pipeline: extract, classify, pair, generate, scan, report."""
    cfg = PipelineConfig.from_file(config, overrides=overrides)
    report = run_pipeline(cfg, resume=resume, stop_after=until)
    if report is None:
        click.echo(f"stopped after {until} -> {cfg.out_dir}")
        return
    m = report.metrics
    click.echo(f"run complete -> {cfg.out_dir / REPORT_FILENAME}")
    if m is not None:
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
    findings_path = run_dir / FINDINGS_FILENAME
    findings = FINDINGS.load(findings_path) if fmt == "sarif" and findings_path.is_file() else []
    timings_path = run_dir / TIMINGS_FILENAME
    seconds = load_stage_seconds(timings_path) if fmt == "text" and timings_path.is_file() else None
    text = emit_report(load_report(report_path), fmt, findings, seconds)
    if out is None:
        click.echo(text, nl=False)
    else:
        write_text(out, text)
        click.echo(f"report written -> {out}")


if __name__ == "__main__":
    main()

"""Outcome metrics: syntactic correctness rate and detection rate.

Rates are percentages rounded half-up with :mod:`decimal` so results do not
depend on binary float artifacts. The correctness rate (compiled rules over
all attempted pairs) carries two decimals; the detection rate (known
vulnerabilities hit by at least one finding) is resolved at one decimal and
presented with a trailing zero. A rate whose denominator is zero is None,
never 0.0, so "nothing to measure" stays distinguishable from "measured
zero".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .artifacts import Document, JsonDataclass, config_input
from .rulegen import ArtifactStatus, Finding, RuleArtifact

CORRECTNESS_DECIMALS = 2
DETECTION_DECIMALS = 1


def percent(numerator: int, denominator: int, decimals: int = 2) -> float | None:
    """Percentage of numerator over denominator, rounded half-up.

    Returns None when the denominator is zero.
    """
    if denominator == 0:
        return None
    step = Decimal(1).scaleb(-decimals)
    value = (Decimal(numerator) * 100) / Decimal(denominator)
    return float(value.quantize(step, rounding=ROUND_HALF_UP))


def format_rate(rate: float | None) -> str:
    return "n/a" if rate is None else f"{rate:.2f}"


@dataclass(frozen=True)
class ManifestEntry(JsonDataclass):
    id: str
    file: str
    start_line: int
    end_line: int
    vuln_class: str = ""


MANIFEST = Document(1, "vulns", ManifestEntry)


def load_manifest(path: str | Path) -> list[ManifestEntry]:
    with config_input():
        return MANIFEST.load(path)


def finding_hits_entry(finding: Finding, entry: ManifestEntry) -> bool:
    """A finding detects a known vulnerability when the files match and the
    line ranges intersect."""
    return (
        finding.file == entry.file
        and finding.start_line <= entry.end_line
        and finding.end_line >= entry.start_line
    )


@dataclass(frozen=True)
class Metrics(JsonDataclass):
    total_pairs: int
    compiled: int
    aborted: int
    correctness_rate: float | None
    known_vulns: int
    detected: int
    detection_rate: float | None
    detected_ids: tuple[str, ...] = field(default_factory=tuple)
    missed_ids: tuple[str, ...] = field(default_factory=tuple)


def compute_metrics(
    artifacts: list[RuleArtifact],
    findings: list[Finding],
    manifest: list[ManifestEntry] | None,
) -> Metrics:
    """Fold rule outcomes and scan findings into the two headline rates.

    The correctness rate is compiled rules over all pairs: an Aborted
    artifact stays in the denominator.
    """
    total = len(artifacts)
    compiled = sum(1 for a in artifacts if a.status is ArtifactStatus.COMPILED)
    aborted = sum(1 for a in artifacts if a.status is ArtifactStatus.ABORTED)
    entries = manifest or []
    detected = []
    missed = []
    for entry in entries:
        if any(finding_hits_entry(f, entry) for f in findings):
            detected.append(entry.id)
        else:
            missed.append(entry.id)
    return Metrics(
        total_pairs=total,
        compiled=compiled,
        aborted=aborted,
        correctness_rate=percent(compiled, total, CORRECTNESS_DECIMALS),
        known_vulns=len(entries),
        detected=len(detected),
        detection_rate=percent(len(detected), len(entries), DETECTION_DECIMALS),
        detected_ids=tuple(sorted(detected)),
        missed_ids=tuple(sorted(missed)),
    )

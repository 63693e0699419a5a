"""Consistency checks for the bundled fixture corpus.

The fixture is a small Java-style project plus a known-vulnerability
manifest and the mock scripts that drive offline runs. Those four pieces
reference each other by content-derived record ids, so editing one file can
silently break the others. ``validate_fixture`` cross-checks them all and
raises :class:`FixtureDrift` with every mismatch it found.
"""

from __future__ import annotations

import logging
import re
from pathlib import Path

from qlforge.artifacts import read_json
from qlforge.errors import QlforgeError
from qlforge.extract import FixtureBackend, dedupe, extract_apis, filter_risky
from qlforge.gateway import MockLlmClient

logger = logging.getLogger(__name__)

DEMO_DIRNAME = "demo_project"
MANIFEST_FILENAME = "manifest.json"
MOCK_LLM_FILENAME = "mock_llm.jsonl"
MOCK_COMPILER_FILENAME = "mock_compiler.json"
CONFIG_FILENAME = "pipeline_config.json"


class FixtureDrift(QlforgeError):
    """The shipped fixture corpus no longer matches its manifest or mock scripts."""


def validate_fixture(fixture_dir: str | Path) -> dict:
    """Check the fixture pieces against each other; raise FixtureDrift on any mismatch.

    Returns a small summary dict (record counts and endpoint counts) when
    everything lines up.
    """
    fixture_dir = Path(fixture_dir)
    problems: list[str] = []

    demo = fixture_dir / DEMO_DIRNAME
    if not demo.is_dir():
        raise FixtureDrift(f"missing fixture project directory: {demo}")
    for name in (MANIFEST_FILENAME, MOCK_LLM_FILENAME, MOCK_COMPILER_FILENAME):
        if not (fixture_dir / name).is_file():
            raise FixtureDrift(f"missing fixture file: {fixture_dir / name}")

    raw = extract_apis(demo, FixtureBackend())
    kept = dedupe(filter_risky(raw))
    kept_ids = {r.id for r in kept}
    kept_methods = {r.method for r in kept}
    if not kept:
        problems.append("extraction over the fixture project kept no records")

    file_lines: dict[str, int] = {}
    for java in sorted(demo.rglob("*.java")):
        rel = java.relative_to(demo).as_posix()
        file_lines[rel] = len(java.read_text(encoding="utf-8").splitlines())

    manifest_raw = read_json(fixture_dir / MANIFEST_FILENAME)
    if manifest_raw.get("version") != 1:
        problems.append(f"manifest version is {manifest_raw.get('version')!r}, expected 1")
    entries = manifest_raw.get("vulns", [])
    seen_ids: set[str] = set()
    endpoint_methods: set[str] = set()
    for entry in entries:
        eid = entry.get("id", "?")
        if eid in seen_ids:
            problems.append(f"manifest id {eid} is duplicated")
        seen_ids.add(eid)
        file = entry.get("file", "")
        if file not in file_lines:
            problems.append(f"manifest {eid}: file {file!r} not in fixture project")
        else:
            start, end = entry.get("start_line", 0), entry.get("end_line", 0)
            if not (1 <= start <= end <= file_lines[file]):
                problems.append(
                    f"manifest {eid}: line range {start}-{end} outside {file} "
                    f"({file_lines[file]} lines)"
                )
        for key in ("source_method", "sink_method"):
            method = entry.get(key)
            if method:
                endpoint_methods.add(method)
                if method not in kept_methods:
                    problems.append(
                        f"manifest {eid}: {key} {method!r} not among extracted records"
                    )
    if not entries:
        problems.append("manifest lists no known vulnerabilities")

    decoy_methods = kept_methods - endpoint_methods
    if endpoint_methods and len(decoy_methods) <= len(endpoint_methods):
        problems.append(
            f"fixture needs more decoys: {len(decoy_methods)} decoy method(s) vs "
            f"{len(endpoint_methods)} endpoint(s)"
        )

    try:
        script = MockLlmClient.from_jsonl(fixture_dir / MOCK_LLM_FILENAME)
    except QlforgeError as exc:
        problems.append(f"mock llm script does not parse: {exc}")
        script = None
    if script is not None:
        classify_text = "\n".join(
            e.response for e in script.entries if e.stage in (None, "classify")
        )
        classify_text += "\n" + script.default_response
        for record in kept:
            if not re.search(rf"^{re.escape(record.id)}:", classify_text, re.MULTILINE):
                problems.append(
                    f"mock llm script labels nothing for extracted record {record.id} "
                    f"({record.type_name}.{record.method})"
                )

    try:
        compiler_raw = read_json(fixture_dir / MOCK_COMPILER_FILENAME)
    except QlforgeError as exc:
        problems.append(f"mock compiler script does not parse: {exc}")
        compiler_raw = None
    if compiler_raw is not None:
        if compiler_raw.get("version") != 1:
            problems.append("mock compiler script version must be 1")
        for pair_id in compiler_raw.get("pairs", {}):
            parts = pair_id.split("__")
            if len(parts) != 2 or not all(p in kept_ids for p in parts):
                problems.append(
                    f"mock compiler script pair {pair_id!r} does not join two extracted ids"
                )

    if problems:
        raise FixtureDrift(
            "fixture drift detected:\n" + "\n".join(f"  - {p}" for p in problems)
        )
    summary = {
        "call_sites": len(raw),
        "kept_records": len(kept),
        "known_vulns": len(entries),
        "endpoint_methods": len(endpoint_methods),
        "decoy_methods": len(decoy_methods),
    }
    logger.info("fixture ok: %s", summary)
    return summary

"""Whole-run fuzz: any model answer or compiler text ends in a result or a QlforgeError.

Each example runs the fixture pipeline with its mock answers, compiler
diagnostics and finding messages drawn from arbitrary text (lone surrogates
included), or with the fixture's own answers spliced, cut short or
repeated. A run must complete with a readable report or raise a
:class:`QlforgeError`, which the CLI maps to a documented exit code.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import qlforge
from qlforge.cli import EXIT_CONFIG, EXIT_NOTHING, EXIT_OK, EXIT_STAGE
from qlforge.errors import QlforgeError
from qlforge.pipeline import REPORT_FILENAME, PipelineConfig, run_pipeline
from qlforge.report import load_report

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
_MOCK_SCRIPT = [
    json.loads(line)
    for line in (FIXTURES / "mock_llm.jsonl").read_text(encoding="utf-8").splitlines()
    if line.strip()
]
_COMPILER_SCRIPT = json.loads((FIXTURES / "mock_compiler.json").read_text(encoding="utf-8"))

# Any text, with lone surrogates (which hypothesis leaves out by default) common.
_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from(["\ud800", "\udfff"]))


def _answers(canned: str):
    """The canned answer, any text, or the canned answer spliced, cut short or repeated."""
    spliced = st.tuples(st.integers(0, len(canned)), _TEXT).map(
        lambda cut: canned[: cut[0]] + cut[1] + canned[cut[0] :]
    )
    cut_short = st.integers(0, len(canned)).map(lambda n: canned[:n])
    return st.one_of(st.just(canned), _TEXT, spliced, cut_short, st.just(f"{canned}\n{canned}"))


@st.composite
def _scripts(draw):
    """A mock model script and a mock compiler script, both drawn around the fixture's."""
    mock = [
        {**entry, "default": draw(_answers(entry["default"]))}
        if "default" in entry
        else {**entry, "response": draw(_answers(entry["response"]))}
        for entry in _MOCK_SCRIPT
    ]
    compiler = copy.deepcopy(_COMPILER_SCRIPT)
    for outcome in [compiler["default"], *compiler["pairs"].values()]:
        outcome["fail_count"] = draw(st.integers(0, 6))
        outcome["diagnostics"] = [
            {"file": "rule.ql", "line": 1, "message": message}
            for message in draw(st.lists(_TEXT, max_size=2))
        ]
        for finding in outcome["findings"]:
            finding["message"] = draw(_TEXT)
    return mock, compiler


def _write_config(root: Path, mock: list[dict], compiler: dict) -> Path:
    """A fixture config whose scripts are ``mock`` and ``compiler``, written under ``root``."""
    # json.dumps escapes a lone surrogate as \\udXXX, so the files are UTF-8.
    (root / "mock_llm.jsonl").write_text("".join(json.dumps(e) + "\n" for e in mock), encoding="utf-8")
    (root / "mock_compiler.json").write_text(json.dumps(compiler), encoding="utf-8")
    data = json.loads((FIXTURES / "pipeline_config.json").read_text(encoding="utf-8"))
    data["project"] = str(FIXTURES / data["project"])
    data["scan"] = {key: str(FIXTURES / value) for key, value in data["scan"].items()}
    data["out_dir"] = str(root / "run")
    data["mock_script"] = str(root / "mock_llm.jsonl")
    data["compiler"]["script"] = str(root / "mock_compiler.json")
    path = root / "pipeline_config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scripts=_scripts())
def test_any_model_or_compiler_text_completes_or_raises_a_qlforge_error(scripts):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = PipelineConfig.from_file(_write_config(root, *scripts))
        try:
            report = run_pipeline(config)
        except QlforgeError:
            return
        assert load_report(root / "run" / REPORT_FILENAME) == report


@settings(max_examples=5, deadline=None, derandomize=True)
@given(scripts=_scripts())
def test_any_model_or_compiler_text_exits_the_cli_with_a_documented_code(scripts):
    src = str(Path(qlforge.__file__).resolve().parents[1])
    with tempfile.TemporaryDirectory() as tmp:
        config = _write_config(Path(tmp), *scripts)
        result = subprocess.run(
            [sys.executable, "-m", "qlforge.cli", "run", "--config", str(config)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            errors="replace",
            timeout=120,
        )
    assert result.returncode in (EXIT_OK, EXIT_CONFIG, EXIT_STAGE, EXIT_NOTHING), result.stderr
    assert "Traceback" not in result.stderr + result.stdout

import json
import random
import string
import sys
from pathlib import Path

import pytest

from qlforge.extract import FixtureBackend, dedupe, extract_apis, filter_risky
from qlforge.gateway import LlmResponse, MockLlmClient
from qlforge.pipeline import PipelineConfig
from qlforge.records import ApiParam, ApiRecord, SourceLocation, make_record

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _transcript_entries(path: Path) -> list[dict]:
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        del entry["ts"], entry["response"]["latency_s"]
        entries.append(entry)
    return entries


def assert_same_run(a: Path, b: Path) -> list[str]:
    """Assert that two run directories hold the same files with the same content.

    ``timings.json`` holds wall-clock times and is not compared; transcripts
    are compared apart from their timestamps and latencies. Returns the
    files' paths relative to the run directory.
    """

    def files(out_dir):
        return sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file())

    names = files(a)
    assert names == files(b)
    for name in names:
        if name == "timings.json":
            continue
        if Path(name).name == "transcript.jsonl":
            assert _transcript_entries(a / name) == _transcript_entries(b / name), name
        else:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    return names


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def corpus_records():
    """The deduplicated, filtered records of the bundled demo project."""
    raw = extract_apis(FIXTURES / "demo_project", FixtureBackend())
    return dedupe(filter_risky(raw))


@pytest.fixture
def run_config(tmp_path):
    """Factory for a pipeline config rooted at the bundled fixture.

    Keyword overrides replace top-level config keys; out_dir always points
    into the test's tmp directory.
    """

    def make(out_name: str = "run", **overrides) -> PipelineConfig:
        data = json.loads((FIXTURES / "pipeline_config.json").read_text(encoding="utf-8"))
        data["out_dir"] = str(tmp_path / out_name)
        data.update(overrides)
        return PipelineConfig.from_dict(data, base_dir=FIXTURES)

    return make


def synthetic_records(count: int, rng: random.Random):
    """Plausible-looking records with varied snippet sizes, deterministic per rng."""
    records = []
    seen = set()
    while len(records) < count:
        package = "com." + "".join(rng.choices(string.ascii_lowercase, k=5))
        type_name = "".join(rng.choices(string.ascii_uppercase, k=1)) + "".join(
            rng.choices(string.ascii_lowercase, k=7)
        )
        method = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 12)))
        params = [(f"arg{i}", rng.choice(["String", "int", "Object"])) for i in range(rng.randint(0, 4))]
        key = (package, type_name, method, tuple(t for _, t in params))
        if key in seen:
            continue
        seen.add(key)
        snippet = "\n".join(
            "x = y.z(%d);" % line for line in range(rng.randint(1, 18))
        )
        records.append(
            make_record(
                package=package,
                type_name=type_name,
                method=method,
                params=params,
                return_type=rng.choice(["void", "String", "unknown"]),
                annotations=["Audited"] if rng.random() < 0.2 else [],
                snippet=snippet,
                first_seen=SourceLocation(f"src/{type_name}.java", rng.randint(1, 400)),
            )
        )
    return records


_PROMPT_KEYS = ["id", "package", "type", "method", "params", "returns", "annotations", "at", "snippet"]


def record_from_prompt_line(line: str) -> ApiRecord:
    """Read a record back from its prompt line (``ApiRecord.prompt_text``).

    Checks the key order too: ``id`` first, ``annotations`` only when there
    are any.
    """
    data = json.loads(line)
    assert list(data) == [k for k in _PROMPT_KEYS if k != "annotations" or k in data]
    assert "annotations" not in data or data["annotations"]
    file, _, lineno = data["at"].rpartition(":")
    return ApiRecord(
        id=data["id"],
        package=data["package"],
        type_name=data["type"],
        method=data["method"],
        params=tuple(
            ApiParam(name=name, type=type_) for type_, name in (p.rsplit(" ", 1) for p in data["params"])
        ),
        return_type=data["returns"],
        annotations=tuple(data.get("annotations", ())),
        snippet=data["snippet"],
        first_seen=SourceLocation(file, int(lineno)),
    )


class CountingClient:
    """Wraps a client and tallies calls per stage."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[str] = []

    def send(self, request):
        self.calls.append(request.stage)
        return self.inner.send(request)

    def count(self, stage: str) -> int:
        return sum(1 for s in self.calls if s == stage)


def scripted_client(entries, default="") -> MockLlmClient:
    """MockLlmClient from inline entry dicts (same shape as the JSONL lines)."""
    from qlforge.gateway import MockEntry

    return MockLlmClient([MockEntry.from_dict(e) for e in entries], default)


class StaticClient:
    """Always answers with the same text; counts calls."""

    def __init__(self, text: str):
        self.text = text
        self.calls = 0

    def send(self, request):
        self.calls += 1
        return LlmResponse(text=self.text, finish_reason="stop", usage={}, latency_s=0.0)


_FAKE_ANALYZE = """\
import json, re, sys
from pathlib import Path

config = json.loads(Path(__file__).with_name("codeql.json").read_text())
queries = [Path(a) for a in sys.argv[4:] if not a.startswith("--")]
texts = {q.stem: q.read_text() for q in queries}
ids = {stem: (re.findall(r"@id[ \\t]+(\\S+)", text) or [None])[0] for stem, text in texts.items()}
with open(config["calls"], "a") as log:
    log.write(json.dumps({"command": " ".join(sys.argv[1:3]), "ids": ids}) + "\\n")
if sys.argv[1:3] != ["database", "analyze"]:
    sys.exit(2)
if any(config["fail_marker"] in text for text in texts.values()):
    sys.stderr.write("analysis crashed\\n")
    sys.exit(1)
results = [
    {
        "ruleId": ids[stem],
        "message": {"text": row["message"]},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": row["file"]},
                    "region": {"startLine": row["line"]},
                }
            }
        ],
    }
    for stem in texts
    for row in config["rows"].get(stem, [])
]
output = next(a.split("=", 1)[1] for a in sys.argv if a.startswith("--output="))
Path(output).write_text(json.dumps({"version": "2.1.0", "runs": [{"results": results}]}))
"""


class FakeAnalyzeCodeql:
    """A ``codeql`` executable that only implements ``database analyze``.

    ``rows`` maps a query file's stem (the pair id in a scan workspace) to
    the locations that query reports; each reported result carries the
    first ``@id`` in the query text as its ``ruleId``. A call whose queries
    contain ``fail_marker`` exits 1. Every invocation is logged with the
    ``@id`` it saw per query, read back through :meth:`calls`.
    """

    def __init__(self, directory: Path, rows: dict, fail_marker: str = "CRASH"):
        self.binary = directory / "codeql"
        self._log = directory / "codeql-calls.jsonl"
        config = {"calls": str(self._log), "rows": rows, "fail_marker": fail_marker}
        (directory / "codeql.json").write_text(json.dumps(config))
        self.binary.write_text(f"#!{sys.executable}\n" + _FAKE_ANALYZE)
        self.binary.chmod(0o755)

    def calls(self) -> list[dict]:
        if not self._log.is_file():
            return []
        return [json.loads(line) for line in self._log.read_text().splitlines()]

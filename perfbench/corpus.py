"""Seeded synthetic Java corpora in the fixture grammar, with ground truth.

A corpus is a tree of ``.java`` files that qlforge's fixture backend can
scan, plus the ground truth the benchmark checks a run against:

* every API's taint label follows a method-name convention (see
  :func:`label_of`), so the mock provider can label any record it is shown;
* every ground-truth (source, sink) pair carries its vulnerability class and
  the number of compile failures the mock provider plants before a good rule;
* every pair has one planted vulnerability, at an exact file and line, listed
  in a manifest in qlforge's manifest format.

The ground truth names APIs by method name only; it never computes qlforge
record ids. The seed only shuffles which APIs are called where and which
pair gets which failure count: the number of APIs, call sites, pairs and
failures is fixed per workload, so token counts and rates barely move from
seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Method-name convention shared by the generator and the mock provider.
SOURCE_PREFIX = "fetchParam"
SANITIZER_PREFIX = "escapeText"
SINK_PREFIXES = {
    "execSql": "sql-injection",
    "execShell": "command-injection",
    "writePath": "path-traversal",
}
NEUTRAL_VERBS = ("compute", "combine", "render", "update", "apply", "encode", "parse", "merge")

# A rule containing this token fails the stub compiler.
FAIL_MARKER = "perfbench_fail_marker"

# rulegen.max_iters for every workload: a pair with at least this many
# planted failures never compiles.
MAX_ITERS = 3


def label_of(method: str) -> str:
    """Taint label of an API, read from its method name."""
    if method.startswith(SOURCE_PREFIX):
        return "Source"
    if method.startswith(SANITIZER_PREFIX):
        return "Sanitizer"
    if any(method.startswith(p) for p in SINK_PREFIXES):
        return "Sink"
    return "None"


def vuln_class_of(sink_method: str) -> str:
    for prefix, vuln_class in SINK_PREFIXES.items():
        if sink_method.startswith(prefix):
            return vuln_class
    raise ValueError(f"{sink_method} is not a sink")


# Latency of a hosted model and of codeql, as round real-world figures. They
# are assumptions of the benchmark, not measurements: about 0.5 s of request
# overhead, prefill at 0.2 ms per prompt token (5k tokens/s), decoding at
# 20 ms per completion token (50 tokens/s), and about 3 s for a codeql
# invocation to start its JVM. TIME_SCALE shrinks all four by the same factor
# so a run takes seconds while the split between model and toolchain time is
# kept. qlforge's own CPU work is not scaled, so against this model and
# toolchain it weighs 1 / TIME_SCALE times more than against real ones.
REAL_BASE_S = 0.5
REAL_PROMPT_TOKEN_S = 2e-4
REAL_COMPLETION_TOKEN_S = 0.02
REAL_CODEQL_START_S = 3.0
TIME_SCALE = 0.01

# The stub codeql sleeps this long on every spawn, on top of its own
# interpreter start.
CODEQL_START_S = REAL_CODEQL_START_S * TIME_SCALE


@dataclass(frozen=True)
class Workload:
    """Shape of one workload's corpus and of the model it meets."""

    name: str
    neutral_apis: int
    sources: int
    sinks: int
    sanitizers: int
    # One entry per ground-truth pair: compile failures before a good rule.
    pair_fail_counts: tuple[int, ...]
    # False: the provider answers at once. True: it takes the scaled
    # service time base + per prompt token + per completion token.
    model_latency: bool

    def provider_latency(self) -> tuple[float, float, float]:
        """(base, per prompt token, per completion token) service time in seconds."""
        if not self.model_latency:
            return 0.0, 0.0, 0.0
        return (
            REAL_BASE_S * TIME_SCALE,
            REAL_PROMPT_TOKEN_S * TIME_SCALE,
            REAL_COMPLETION_TOKEN_S * TIME_SCALE,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Thousands of kept APIs, a handful of pairs that all compile first
        # time, and a model that answers at once: run time is qlforge's own
        # CPU work in extract, grouping, rendering, parsing, HTTP and writes.
        Workload(
            name="classify-wide",
            neutral_apis=2400,
            sources=3,
            sinks=3,
            sanitizers=2,
            pair_fail_counts=(0, 0, 0),
            model_latency=False,
        ),
        # A few hundred APIs and tens of pairs whose seeded compile failures
        # include pairs that exhaust MAX_ITERS, with token-priced latency:
        # run time is waiting on the model and codeql in the repair loop and
        # in scan, so front-end CPU changes should not show here.
        Workload(
            name="generate-deep",
            neutral_apis=160,
            sources=20,
            sinks=20,
            sanitizers=4,
            pair_fail_counts=(0,) * 8 + (1,) * 6 + (2,) * 3 + (3,) * 3,
            model_latency=True,
        ),
        # Hundreds of sources and sinks of which the model pairs a few: every
        # pairing prompt carries every source, so pairing prompt size sets
        # prompt tokens and, through token-priced latency, much of run time.
        Workload(
            name="pair-dense",
            neutral_apis=60,
            sources=200,
            sinks=200,
            sanitizers=10,
            pair_fail_counts=(0, 0, 0, 0),
            model_latency=True,
        ),
    )
}


@dataclass(frozen=True)
class _Api:
    type_name: str
    package: str
    method: str
    kind: str  # neutral | source | sanitizer | sink


def _apis(workload: Workload) -> list[_Api]:
    apis: list[_Api] = []
    for i in range(workload.neutral_apis):
        verb = NEUTRAL_VERBS[i % len(NEUTRAL_VERBS)]
        apis.append(_Api(f"Lib{i // 16:03d}", "com.bench.lib", f"{verb}{i:04d}", "neutral"))
    for i in range(workload.sources):
        apis.append(_Api(f"Req{i // 8:02d}", "com.bench.io", f"{SOURCE_PREFIX}{i:04d}", "source"))
    for i in range(workload.sanitizers):
        apis.append(_Api(f"Esc{i // 8:02d}", "com.bench.io", f"{SANITIZER_PREFIX}{i:04d}", "sanitizer"))
    sink_prefixes = list(SINK_PREFIXES)
    for i in range(workload.sinks):
        prefix = sink_prefixes[i % len(sink_prefixes)]
        apis.append(_Api(f"Sink{i // 8:02d}", "com.bench.io", f"{prefix}{i:04d}", "sink"))
    return apis


def _call_line(api: _Api, n: int, arg: str) -> str:
    if api.kind == "sink":
        return f"{api.type_name}.{api.method}({arg});"
    return f"String v{n} = {api.type_name}.{api.method}({arg});"


# Every API call site sits alone in a small file, so its snippet (qlforge
# keeps up to 20 lines around a call) is the whole file: a record averages
# about 120 tokens, which puts a 200-source pairing prompt near the ~24k
# tokens ROADMAP item 5 measured. Every name has a fixed width, so record
# sizes, and with them token counts, do not depend on where the seed put
# each call. Decoy calls the risk filter drops live in files of their own,
# one per _CALLS_PER_DECOY_FILE call sites.
_DECOYS = ("int n{n} = items.size();", "int n{n} = name.length();")
_DECOYS_PER_FILE = 4
_CALLS_PER_DECOY_FILE = 32


class _FileWriter:
    """One Java file with one handler method; remembers the line of a mark."""

    def __init__(self, index: int):
        self.package = f"com.bench.m{index:04d}"
        self.cls = f"U{index:04d}"
        self.rel = f"src/com/bench/m{index:04d}/{self.cls}.java"
        self.types: dict[str, _Api] = {}
        self.body: list[tuple[str, object]] = []
        self.result = "name"

    def render(self) -> tuple[str, dict[object, int]]:
        imports = sorted({f"{a.package}.{a.type_name}" for a in self.types.values()})
        fields = []
        if not self.types:
            imports, fields = ["java.util.List"], ["    private List<String> items;", ""]
        lines = [f"package {self.package};", ""]
        lines += [f"import {name};" for name in imports]
        lines += ["", f"public class {self.cls} {{", *fields, "    public String op(String name) {"]
        marks: dict[object, int] = {}
        for text, mark in self.body:
            lines.append(f"        {text}")
            if mark is not None:
                marks[mark] = len(lines)
        lines += [f"        return {self.result};", "    }", "}", ""]
        return "\n".join(lines), marks


def generate(workload: Workload, seed: int, project: Path) -> dict:
    """Write the corpus under ``project`` and return its ground truth.

    The ground truth holds the pairs (by method name) with class, failure
    count and planted location, the manifest in qlforge's format, and the
    expected counts of kept APIs and call sites.
    """
    rng = random.Random(seed)
    apis = _apis(workload)
    sources = [a for a in apis if a.kind == "source"]
    sinks = [a for a in apis if a.kind == "sink"]
    n_pairs = len(workload.pair_fail_counts)
    if n_pairs > min(len(sources), len(sinks)):
        raise ValueError("workload needs at least as many sources and sinks as pairs")
    pair_sources = rng.sample(sources, n_pairs)
    pair_sinks = rng.sample(sinks, n_pairs)
    fail_counts = list(workload.pair_fail_counts)
    rng.shuffle(fail_counts)

    # Every API is called once; a seeded fifth of the neutral ones twice, so
    # dedupe has duplicates to fold. Decoy files give the risk filter calls
    # to drop.
    neutral = [a for a in apis if a.kind == "neutral"]
    calls = apis + rng.sample(neutral, len(neutral) // 5)
    bodies: list[tuple[list[_Api], dict | None]] = [([api], None) for api in calls]
    bodies += [([], None)] * max(1, len(calls) // _CALLS_PER_DECOY_FILE)
    # One planted flow per ground-truth pair, each in a file of its own.
    pairs = []
    for k, (src, snk, fails) in enumerate(zip(pair_sources, pair_sinks, fail_counts)):
        vuln_class = vuln_class_of(snk.method)
        pair = {
            "source": src.method,
            "sink": snk.method,
            "vuln_class": vuln_class,
            "fail_count": fails,
            "vuln_id": f"vuln-{k:03d}-{vuln_class}",
        }
        pairs.append(pair)
        bodies.append(([src, snk], pair))
    rng.shuffle(bodies)

    files: list[_FileWriter] = []
    call_sites = 0
    for chain, pair in bodies:
        writer = _FileWriter(len(files))
        for api in chain:
            writer.types[api.type_name] = api
            n = len(writer.body)
            mark = pair["vuln_id"] if pair is not None and api.kind == "sink" else None
            writer.body.append((_call_line(api, n, writer.result), mark))
            if api.kind != "sink":
                writer.result = f"v{n}"
        if not chain:
            writer.body = [
                (_DECOYS[n % len(_DECOYS)].format(n=n), None) for n in range(_DECOYS_PER_FILE)
            ]
        call_sites += len(writer.body)
        if pair is not None:
            pair["file"] = writer.rel
        files.append(writer)

    lines_of: dict[str, int] = {}
    for writer in files:
        text, marks = writer.render()
        path = project / writer.rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        lines_of.update(marks)
    for pair in pairs:
        pair["line"] = lines_of[pair["vuln_id"]]

    manifest = {
        "version": 1,
        "vulns": [
            {
                "id": p["vuln_id"],
                "file": p["file"],
                "start_line": p["line"],
                "end_line": p["line"],
                "vuln_class": p["vuln_class"],
                "source_method": p["source"],
                "sink_method": p["sink"],
            }
            for p in pairs
        ],
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "max_iters": MAX_ITERS,
        "apis_kept": len(apis),
        "call_sites": call_sites,
        "pairs": pairs,
        "manifest": manifest,
    }

"""qlforge benchmark: run the real pipeline end to end on a seeded workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload classify-wide --seed 1 --seconds 30 --trace 0

For each invocation the benchmark

1. generates the workload's Java corpus and ground truth from ``--seed``;
2. starts the loopback mock provider (``provider.py``) as one process and
   writes the stub ``codeql`` executable (``stub_codeql.py``);
3. runs ``run_pipeline`` in a fresh interpreter (``one_run.py``), one run at
   a time, with ``llm.mode=live`` against the provider and
   ``compiler.kind=codeql`` against the stub, until ``--seconds`` have passed;
4. checks every run's output against the ground truth;
5. prints a summary (median, quartiles, sample count) on stderr and, as the
   last line of stdout, one JSON object with the medians.

With ``--trace 0`` the runs are untraced and the JSON holds the end-to-end
metrics. With ``--trace 1`` traced and untraced runs alternate; the JSON
holds the per-layer metrics from the traced runs plus ``trace.overhead_s``,
and every span is written to ``.perfbench_work/<workload>/trace.json``.

Everything is written under ``.perfbench_work/`` in the checkout. The
command exits non-zero when any run fails or fails its output check, and
without a result when the checkout holds no qlforge sources.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from corpus import CODEQL_START_S, FAIL_MARKER, MAX_ITERS, WORKLOADS, Workload, generate  # noqa: E402
from spans import covered  # noqa: E402

WORKERS = 2
CLASSIFY_BUDGET = 6000
CLASSIFY_SEED = 7
MIN_RUNS = 3
# Set-up-only spawns per invocation, besides the one in every run, so the
# median set-up time rests on enough samples.
SETUP_PROBES = 12
RUN_TIMEOUT_S = 60
LLM_STAGES = ("classify", "pair", "write", "repair")

class RunFailed(Exception):
    """One pipeline run raised, exited non-zero or failed its output check."""


def save_json(data, path: Path) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Set-up: corpus, stub codeql, provider
# ---------------------------------------------------------------------------


def write_stub(work: Path, truth: dict) -> Path:
    bin_dir = work / "bin"
    bin_dir.mkdir()
    stub = bin_dir / "codeql"
    stub.write_text(f"#!{sys.executable} -IS\n" + (HERE / "stub_codeql.py").read_text())
    stub.chmod(0o755)
    vulns: dict[str, list] = {}
    for p in truth["pairs"]:
        vulns.setdefault(f"{p['source']} {p['sink']}", []).append(
            {"file": p["file"], "line": p["line"]}
        )
    save_json(
        {
            "counter": str(work / "codeql_calls.txt"),
            "fail_marker": FAIL_MARKER,
            "start_s": CODEQL_START_S,
            "vulns": vulns,
        },
        bin_dir / "codeql.json",
    )
    return stub


class Provider:
    """The mock provider process and a client for its control endpoints."""

    def __init__(self, work: Path, workload: Workload, seed: int):
        base_s, prompt_token_s, completion_token_s = workload.provider_latency()
        self._log = open(work / "provider.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "provider.py"), str(work / "truth.json"),
                "--seed", str(seed),
                "--base-s", repr(base_s),
                "--prompt-token-s", repr(prompt_token_s),
                "--completion-token-s", repr(completion_token_s),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=work,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError(f"provider did not start; see {work / 'provider.log'}")
        self.port = int(line)

    def _call(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=b"" if method == "POST" else None)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def reset(self) -> None:
        self._call("POST", "/reset")

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def write_config(work: Path, port: int, stub: Path) -> Path:
    path = work / "config.json"
    save_json(
        {
            "project": "project",
            "out_dir": "run",
            "backend": "fixture",
            "llm": {
                "mode": "live",
                "model": "perfbench",
                "endpoint": f"http://127.0.0.1:{port}/v1/chat/completions",
            },
            "compiler": {"kind": "codeql"},
            "codeql": {"path": str(stub)},
            "classify": {"budget": CLASSIFY_BUDGET, "seed": CLASSIFY_SEED},
            "rulegen": {"max_iters": MAX_ITERS},
            "scan": {"database": "db", "manifest": "manifest.json"},
            "workers": WORKERS,
        },
        path,
    )
    return path


def child_env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env.pop("QLFORGE_CODEQL", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(work / "tmp"),
        NO_PROXY="127.0.0.1,localhost",
        QLFORGE_LLM_KEY="perfbench-dummy-key",
    )
    return env


# ---------------------------------------------------------------------------
# One run and its output check
# ---------------------------------------------------------------------------


def half_up(value: Decimal, decimals: int) -> float:
    return float(value.quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP))


def check_outputs(run_dir: Path, truth: dict) -> tuple[list[str], dict[str, float]]:
    """Compare a finished run's artifacts with the ground truth.

    Checks the pair set, the compiled set, the detected manifest ids, both
    rates (recomputed here with the paper's definitions) and the extracted
    and kept API counts. Pairs are compared by method name, so the check
    does not depend on how qlforge computes record ids. Returns the problems
    found and the two rates the run reported.
    """
    try:
        method_of = {
            a["id"]: a["method"]
            for a in json.loads((run_dir / "specs.json").read_text())["apis"]
        }
        pairs = json.loads((run_dir / "pairs.json").read_text())["pairs"]
        rules = json.loads((run_dir / "rules" / "index.json").read_text())["rules"]
        report = json.loads((run_dir / "report.json").read_text())
        metrics, counts = report["metrics"], report["counts"]
        by_pair_id = {
            p["pair_id"]: (method_of[p["source_id"]], method_of[p["sink_id"]]) for p in pairs
        }
        got_compiled = {by_pair_id[r["pair_id"]] for r in rules if r["status"] == "Compiled"}
        got_detected = sorted(metrics["detected_ids"])
        got_correctness, got_detection = metrics["correctness_rate"], metrics["detection_rate"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"artifacts unreadable: {exc!r}"], {}

    problems = []
    want_pairs = {(p["source"], p["sink"]) for p in truth["pairs"]}
    good = [p for p in truth["pairs"] if p["fail_count"] < truth["max_iters"]]
    want_compiled = {(p["source"], p["sink"]) for p in good}
    want_detected = sorted(p["vuln_id"] for p in good)
    total = Decimal(len(want_pairs))
    want_correctness = half_up(Decimal(100 * len(good)) / total, 2)
    want_detection = half_up(Decimal(100 * len(good)) / total, 1)
    if set(by_pair_id.values()) != want_pairs:
        problems.append(f"pair set {sorted(by_pair_id.values())} != {sorted(want_pairs)}")
    if got_compiled != want_compiled:
        problems.append(f"compiled set {sorted(got_compiled)} != {sorted(want_compiled)}")
    if got_detected != want_detected:
        problems.append(f"detected {got_detected} != {want_detected}")
    if got_correctness != want_correctness:
        problems.append(f"correctness_rate {got_correctness} != {want_correctness}")
    if got_detection != want_detection:
        problems.append(f"detection_rate {got_detection} != {want_detection}")
    if counts.get("apis_kept") != truth["apis_kept"]:
        problems.append(f"apis_kept {counts.get('apis_kept')} != {truth['apis_kept']}")
    if counts.get("apis_extracted") != truth["call_sites"]:
        problems.append(f"apis_extracted {counts.get('apis_extracted')} != {truth['call_sites']}")
    return problems, {"correctness_rate": got_correctness, "detection_rate": got_detection}


def stub_calls(counter: Path) -> dict[str, list[float]]:
    calls: dict[str, list[float]] = {}
    if counter.is_file():
        for line in counter.read_text().splitlines():
            command, seconds = line.split()
            calls.setdefault(command, []).append(float(seconds))
    return calls


class Bench:
    """One workload's generated inputs, provider and stub, and runs against them."""

    def __init__(self, workload: Workload, seed: int):
        self.work = work = ROOT / ".perfbench_work" / workload.name
        shutil.rmtree(work, ignore_errors=True)
        (work / "tmp").mkdir(parents=True)
        self.truth = generate(workload, seed, work / "project")
        save_json(self.truth, work / "truth.json")
        save_json(self.truth["manifest"], work / "manifest.json")
        stub = write_stub(work, self.truth)
        self.env = child_env(work)
        self.provider = Provider(work, workload, seed)
        try:
            self.config = write_config(work, self.provider.port, stub)
        except OSError:
            self.provider.close()
            raise

    def close(self) -> None:
        self.provider.close()

    def _one_run(self, *extra: str) -> subprocess.CompletedProcess:
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "one_run.py"), str(self.config), str(result_path)]
        with open(self.work / "run.log", "wb") as log:
            return subprocess.run([*cmd, *extra], env=self.env, cwd=self.work,
                                  stdout=log, stderr=log, timeout=RUN_TIMEOUT_S)

    def setup_probe(self) -> float:
        """Spawn a fresh interpreter that only sets up; return its set-up time."""
        result_path = self.work / "result.json"
        spawned = time.monotonic()
        if self._one_run("--import-only").returncode != 0:
            raise RunFailed("cannot import qlforge:\n" + (self.work / "run.log").read_text()[-2000:])
        return json.loads(result_path.read_text())["setup_done"] - spawned

    def run(self, trace_id: str | None) -> dict:
        """Run the pipeline once in a fresh interpreter and check its output."""
        self.provider.reset()
        counter = self.work / "codeql_calls.txt"
        counter.unlink(missing_ok=True)
        spawned = time.monotonic()
        try:
            proc = self._one_run(*(["--trace", trace_id] if trace_id is not None else []))
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"run exceeded {RUN_TIMEOUT_S}s") from exc
        if proc.returncode != 0:
            tail = (self.work / "run.log").read_text(errors="replace")[-2000:]
            raise RunFailed(f"run exited {proc.returncode}:\n{tail}")
        result = json.loads((self.work / "result.json").read_text())
        problems, rates = check_outputs(self.work / "run", self.truth)
        if problems:
            raise RunFailed("output check failed: " + "; ".join(problems))
        result.update(rates)
        result["setup_s"] = result.pop("setup_done") - spawned
        result["provider"] = self.provider.stats()
        result["codeql"] = stub_calls(counter)
        return result


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(run: dict) -> dict[str, float]:
    stages = run["provider"]["stages"].values()
    return {
        "run_s": run["run_s"],
        "setup_s": run["setup_s"],
        "prompt_tokens": sum(s["prompt_tokens"] for s in stages),
        "completion_tokens": sum(s["completion_tokens"] for s in stages),
        "max_prompt_tokens": max((s["max_prompt_tokens"] for s in stages), default=0),
        "correctness_rate": run["correctness_rate"],
        "detection_rate": run["detection_rate"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(run: dict) -> dict[str, float | None]:
    """Per-layer metrics of one traced run; None marks an unmeasured one."""
    trace = run["trace"]
    totals, counts = trace["totals"], trace["counts"]
    unmeasured = set(trace["unmeasured"])
    stages = run["provider"]["stages"]
    codeql = run["codeql"]

    def total(*names: str) -> float | None:
        if unmeasured.intersection(names):
            return None
        return sum(totals.get(n, {}).get("total_s", 0.0) for n in names)

    def stage(name: str, key: str) -> int:
        return stages.get(name, {}).get(key, 0)

    def ratio(num, den):
        return None if num is None or not den else num / den

    gateway_spans = [
        (s["start"], s["end"]) for s in trace["spans"]
        if s["name"] in ("LlmGateway.complete", "LlmGateway.complete_batch")
    ]
    llm_calls = sum(stage(s, "calls") for s in LLM_STAGES)
    service_s = sum(stage(s, "service_s") for s in LLM_STAGES)
    send_s = total("LiveLlmClient.send")
    rule_spans = "generate_rule" not in unmeasured
    compile_calls = len(codeql.get("query_compile", []))
    frame = run.get("frame_tokens")
    return {
        "extract.enumerate_s": total("extract_apis"),
        "extract.filter_dedupe_s": total("filter_risky", "dedupe"),
        "extract.call_sites": counts.get("call_sites"),
        "extract.apis_kept": counts.get("apis_kept"),
        "records.spec_save_s": total("save_spec_document"),
        "classify.votes_save_s": total("save_votes"),
        "classify.plan_groups_s": total("plan_groups"),
        "classify.render_s": total("build_classification_prompt"),
        "classify.parse_s": total("parse_classification_response"),
        "classify.stage_s": total("classify_records"),
        "classify.calls": stage("classify", "calls"),
        "classify.prompt_tokens": stage("classify", "prompt_tokens"),
        "classify.frame_token_share": ratio(
            None if frame is None else frame * stage("classify", "calls"),
            stage("classify", "prompt_tokens"),
        ),
        "pairing.render_s": total("build_pairing_prompt"),
        "pairing.parse_s": total("parse_pair_lines"),
        "pairing.stage_s": total("pair_all"),
        "pairing.calls": stage("pair", "calls"),
        "pairing.prompt_tokens": stage("pair", "prompt_tokens"),
        "pairing.max_prompt_tokens": stage("pair", "max_prompt_tokens"),
        "gateway.busy_s": None if {"LlmGateway.complete", "LlmGateway.complete_batch"} & unmeasured
        else covered(gateway_spans),
        "gateway.provider_service_s": service_s,
        "gateway.client_overhead_ms_per_call": ratio(
            None if send_s is None else 1000 * (send_s - service_s), llm_calls
        ),
        "gateway.transcript_append_s": total("TranscriptStore.append"),
        "gateway.in_flight_mean": run["provider"]["in_flight_mean"],
        "gateway.retries": None if "LiveLlmClient.send" in unmeasured
        else totals.get("LiveLlmClient.send", {}).get("failed", 0),
        "rulegen.stage_s": total("generate_all"),
        "rulegen.write_calls": stage("write", "calls"),
        "rulegen.repair_calls": stage("repair", "calls"),
        "rulegen.attempts": counts.get("rule.attempts") if rule_spans else None,
        "rulegen.first_try_share": ratio(counts.get("rule.first_try"), counts.get("rule.pairs"))
        if rule_spans else None,
        "rulegen.compile_yield": ratio(counts.get("rule.compiled"), compile_calls)
        if rule_spans else None,
        "rulegen.exhausted": counts.get("rule.pairs", 0) - counts.get("rule.compiled", 0)
        if rule_spans else None,
        "codeql.compile_calls": compile_calls,
        "codeql.compile_s": total("CodeQLCompiler.compile"),
        "codeql.analyze_calls": len(codeql.get("database_analyze", [])),
        "codeql.analyze_s": total("CodeQLCompiler.execute"),
        "codeql.spawns": sum(len(v) for v in codeql.values()),
        "scan.stage_s": total("scan"),
        "scan.findings": counts.get("findings"),
        "report.stage_s": total("compute_metrics", "dump_report"),
    }


def metric_units(trace: int) -> dict[str, str]:
    """Names and units of the metrics to report, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summarize(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"{name:40s} unmeasured"
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{name:40s} median {q2:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="qlforge end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qlforge" / "pipeline.py").is_file():
        print(f"no qlforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so the provider is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    untraced: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    setup_probes: list[float] = []
    bench = Bench(workload, args.seed)
    try:
        bench.setup_probe()  # compiles qlforge's bytecode, as an installed package has it
        if not args.trace:
            setup_probes = [bench.setup_probe() for _ in range(SETUP_PROBES)]
        deadline = time.monotonic() + args.seconds
        while True:
            order = [None]
            if args.trace:
                # Traced and untraced runs take turns going first, so an
                # effect of position within a pair cancels out of the overhead.
                order = [None, f"{args.seed}-{len(traced)}"][:: 1 if len(traced) % 2 == 0 else -1]
            for trace_id in order:
                try:
                    run = bench.run(trace_id)
                except RunFailed as exc:
                    failures.append(str(exc))
                    print(f"run failed: {exc}", file=sys.stderr)
                    continue
                (untraced if trace_id is None else traced).append(run)
            attempted = len(untraced) + len(traced) + len(failures)
            if time.monotonic() >= deadline and attempted >= MIN_RUNS:
                break
    finally:
        bench.close()

    if args.trace:
        save_json([run["trace"] for run in traced], bench.work / "trace.json")
        samples = [per_layer(run) for run in traced]
        overhead = [t["run_s"] - u["run_s"] for t, u in zip(traced, untraced)]
        for sample, value in zip(samples, overhead):
            sample["trace.overhead_s"] = value
    else:
        samples = [end_to_end(run) for run in untraced]

    save_json({"failures": failures, "samples": samples, "setup_probes": setup_probes},
              bench.work / "samples.json")
    print(f"workload {workload.name} seed {args.seed}: {attempted} runs, "
          f"{len(failures)} failed", file=sys.stderr)
    metrics = {}
    for name, unit in metric_units(args.trace).items():
        values = [s[name] for s in samples if s.get(name) is not None]
        if name == "setup_s":
            values += setup_probes
        print(summarize(name, values, unit), file=sys.stderr)
        metrics[name] = {"value": statistics.median(values) if values else None, "unit": unit}
        if not values:
            metrics[name]["status"] = "unmeasured"
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

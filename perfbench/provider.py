"""Loopback mock of an OpenAI-style chat-completion provider.

Run as its own process: ``python3 provider.py TRUTH.json --seed N --base-s ...``.
It binds an ephemeral port on 127.0.0.1, prints the port as its first line
of output and serves until terminated.

It answers by reading the prompt, the way a model would:

* classify: one ``<id>: <label>`` line per API record in the prompt, with
  the label taken from the method-name convention;
* pair: a ``PAIR:`` line for every ground-truth pair whose source and sink
  are both in the prompt, or ``NO_PAIRS``;
* write: a rule whose ``@id`` embeds the pair id, carrying the fail marker
  while the attempt number (read from the revision context) is at most the
  pair's failure count;
* repair: a short list of advice.

Service time is base + per prompt token + per completion token, scaled by a
jitter keyed on a hash of (prompt, seed), never on arrival order. Tokens are
counted here as ceil(chars / 4), independently of qlforge. ``GET /stats``
returns calls, tokens, service time and mean in-flight requests per stage
since the last ``POST /reset``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from corpus import FAIL_MARKER, label_of

# Service time is scaled by a factor drawn from [1 - JITTER, 1 + JITTER].
JITTER = 0.2

_RECORD_START_RE = re.compile(r'\{\s*"')
_ATTEMPT_RE = re.compile(r"Attempt (\d+) failed")
_DECODER = json.JSONDecoder()


def tokens(text: str) -> int:
    return (len(text) + 3) // 4


def api_records(prompt: str) -> list[dict]:
    """Every JSON object in the prompt that describes an API or a pair."""
    records = []
    pos = 0
    while True:
        m = _RECORD_START_RE.search(prompt, pos)
        if m is None:
            return records
        try:
            obj, end = _DECODER.raw_decode(prompt, m.start())
        except ValueError:
            pos = m.start() + 1
            continue
        if isinstance(obj, dict) and ({"id", "method"} <= obj.keys() or "pair_id" in obj):
            records.append(obj)
        pos = end


class Model:
    """Deterministic answers from the ground truth."""

    def __init__(self, truth: dict):
        self.pairs = {(p["source"], p["sink"]): p for p in truth["pairs"]}

    def answer(self, prompt: str) -> tuple[str, str]:
        """Return (stage, response text) for one prompt."""
        records = api_records(prompt)
        pair_docs = [r for r in records if "pair_id" in r]
        apis = [r for r in records if "method" in r]
        if pair_docs:
            return "write", self._write(pair_docs[0], apis, prompt)
        if "NO_PAIRS" in prompt:
            return "pair", self._pair(apis)
        if apis:
            return "classify", "".join(f"{r['id']}: {label_of(r['method'])}\n" for r in apis)
        return "repair", (
            "1. Delete the line holding the stray token reported by the compiler.\n"
            "2. Keep the isSource and isSink predicates unchanged.\n"
        )

    def _pair(self, apis: list[dict]) -> str:
        sources = {r["method"]: r["id"] for r in apis if label_of(r["method"]) == "Source"}
        sinks = {r["method"]: r["id"] for r in apis if label_of(r["method"]) == "Sink"}
        lines = [
            f"PAIR: ({sources[src]}, {sinks[snk]}) | CLASS: {p['vuln_class']} | "
            f"RATIONALE: {src} output reaches {snk} unchecked | CONFIDENCE: high"
            for (src, snk), p in sorted(self.pairs.items())
            if src in sources and snk in sinks
        ]
        return "\n".join(lines) + "\n" if lines else "NO_PAIRS\n"

    def _write(self, pair_doc: dict, apis: list[dict], prompt: str) -> str:
        methods = {label_of(r["method"]): r["method"] for r in apis}
        src, snk = methods["Source"], methods["Sink"]
        truth = self.pairs[(src, snk)]
        attempt = 1 + max((int(n) for n in _ATTEMPT_RE.findall(prompt)), default=0)
        broken = f"  {FAIL_MARKER} attempt {attempt}\n" if attempt <= truth["fail_count"] else ""
        return (
            "/**\n"
            f" * @name Tainted flow from {src} to {snk}\n"
            " * @kind path-problem\n"
            " * @problem.severity error\n"
            f" * @id qlforge/{truth['vuln_class']}/{pair_doc['pair_id']}\n"
            " */\n\n"
            "import java\n"
            "import semmle.code.java.dataflow.FlowSources\n"
            "import semmle.code.java.dataflow.TaintTracking\n\n"
            "module RuleConfig implements DataFlow::ConfigSig {\n"
            f"{broken}"
            "  predicate isSource(DataFlow::Node source) {\n"
            f'    exists(MethodCall call | call.getMethod().hasName("{src}") and source.asExpr() = call)\n'
            "  }\n\n"
            "  predicate isSink(DataFlow::Node sink) {\n"
            f'    exists(MethodCall call | call.getMethod().hasName("{snk}") and sink.asExpr() = call.getAnArgument())\n'
            "  }\n"
            "}\n\n"
            "module RuleFlow = TaintTracking::Global<RuleConfig>;\n\n"
            "import RuleFlow::PathGraph\n\n"
            "from RuleFlow::PathNode source, RuleFlow::PathNode sink\n"
            "where RuleFlow::flowPath(source, sink)\n"
            'select sink.getNode(), source, sink, "Tainted value flows from $@ to a dangerous sink.", '
            'source.getNode(), "user input"\n'
        )


class Stats:
    """Per-stage counters and the in-flight integral, guarded by one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.stages: dict[str, dict] = {}
            self.in_flight = 0
            self.busy_s = 0.0  # wall time with at least one request in flight
            self.in_flight_area = 0.0  # integral of in-flight count over time
            self.last_change = time.monotonic()

    def _advance(self, now: float) -> None:
        if self.in_flight:
            self.busy_s += now - self.last_change
            self.in_flight_area += self.in_flight * (now - self.last_change)
        self.last_change = now

    def begin(self) -> None:
        with self._lock:
            self._advance(time.monotonic())
            self.in_flight += 1

    def end(self, stage: str, prompt_tokens: int, completion_tokens: int, service_s: float) -> None:
        with self._lock:
            self._advance(time.monotonic())
            self.in_flight -= 1
            s = self.stages.setdefault(
                stage,
                {"calls": 0, "prompt_tokens": 0, "completion_tokens": 0,
                 "max_prompt_tokens": 0, "service_s": 0.0},
            )
            s["calls"] += 1
            s["prompt_tokens"] += prompt_tokens
            s["completion_tokens"] += completion_tokens
            s["max_prompt_tokens"] = max(s["max_prompt_tokens"], prompt_tokens)
            s["service_s"] += service_s

    def snapshot(self) -> dict:
        with self._lock:
            self._advance(time.monotonic())
            return {
                "stages": {name: dict(s) for name, s in self.stages.items()},
                "in_flight_mean": self.in_flight_area / self.busy_s if self.busy_s else 0.0,
            }


def make_handler(model: Model, stats: Stats, args: argparse.Namespace):
    seed_bytes = str(args.seed).encode()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            # Without this, each keep-alive reply stalls on Nagle's algorithm
            # meeting the client's delayed ACK.
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _reply(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, stats.snapshot())
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                stats.reset()
                self._reply(200, {})
                return
            started = time.monotonic()
            stats.begin()
            stage, prompt_tokens, completion_tokens = "error", 0, 0
            try:
                if not self.headers.get("Authorization", "").startswith("Bearer "):
                    self._reply(401, {"error": "missing key"})
                    return
                request = json.loads(body)
                prompt = "".join(m["content"] for m in request["messages"])
                stage, text = model.answer(prompt)
                prompt_tokens, completion_tokens = tokens(prompt), tokens(text)
                digest = hashlib.sha256(seed_bytes + b"\0" + prompt.encode()).digest()
                unit = int.from_bytes(digest[:8], "big") / 2**64
                target = (
                    args.base_s
                    + args.prompt_token_s * prompt_tokens
                    + args.completion_token_s * completion_tokens
                ) * (1 + JITTER * (2 * unit - 1))
                remaining = target - (time.monotonic() - started)
                if remaining > 0:
                    time.sleep(remaining)
                self._reply(
                    200,
                    {
                        "id": "chatcmpl-" + digest[:6].hex(),
                        "object": "chat.completion",
                        "model": request.get("model", ""),
                        "choices": [
                            {"index": 0, "finish_reason": "stop",
                             "message": {"role": "assistant", "content": text}}
                        ],
                        "usage": {
                            "prompt_tokens": prompt_tokens,
                            "completion_tokens": completion_tokens,
                            "total_tokens": prompt_tokens + completion_tokens,
                        },
                    },
                )
            finally:
                stats.end(stage, prompt_tokens, completion_tokens, time.monotonic() - started)

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("truth", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--base-s", type=float, default=0.0)
    parser.add_argument("--prompt-token-s", type=float, default=0.0)
    parser.add_argument("--completion-token-s", type=float, default=0.0)
    args = parser.parse_args()
    model = Model(json.loads(args.truth.read_text(encoding="utf-8")))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(model, Stats(), args))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

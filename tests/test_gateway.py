import gc
import json
import os
import random
import re
import socket
import string
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qlforge

from qlforge.errors import (
    AuthFailure,
    ConfigError,
    ProviderError,
    RateLimited,
    StageFailure,
    WhollyMalformed,
)
from qlforge.gateway import (
    LlmGateway,
    LlmRequest,
    LlmResponse,
    MockLlmClient,
    TranscriptStore,
    _RetryableTransport,
    estimate_tokens,
)
from qlforge.pipeline import run_pipeline
from tests.conftest import scripted_client


def test_estimate_tokens_reference_values():
    # Oracle: ceil(len / 4), computed by hand.
    assert estimate_tokens("") == 0
    assert estimate_tokens("a") == 1
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("x" * 4000) == 1000
    assert estimate_tokens("x" * 4001) == 1001


def test_estimate_tokens_subadditive():
    rng = random.Random(5)
    for _ in range(300):
        a = "".join(rng.choices(string.printable, k=rng.randint(0, 50)))
        b = "".join(rng.choices(string.printable, k=rng.randint(0, 50)))
        assert estimate_tokens(a + b) <= estimate_tokens(a) + estimate_tokens(b)


def test_gateway_request_temperature_defaults_and_override():
    gateway = LlmGateway(MockLlmClient([]), model="m")
    assert gateway._request("classify", "p").temperature == 0.0
    assert gateway._request("pair", "p").temperature == 0.0
    assert gateway._request("write", "p").temperature == 0.7
    assert gateway._request("repair", "p").temperature == 0.7
    assert gateway._request("write", "p") == LlmRequest("write", "m", "p", 0.7)
    override = LlmGateway(MockLlmClient([]), model="m", temperature=0.2)
    assert override._request("write", "p").temperature == 0.2
    assert override._request("classify", "p").temperature == 0.2
    assert LlmGateway(MockLlmClient([]), temperature=0.0)._request("write", "p").temperature == 0.0


def test_mock_script_first_match_wins():
    client = scripted_client(
        [
            {"stage": "classify", "contains": "alpha", "response": "A"},
            {"stage": "classify", "response": "B"},
        ],
        default="D",
    )
    assert client.send(LlmRequest("classify", "m", "has alpha inside")).text == "A"
    assert client.send(LlmRequest("classify", "m", "nothing")).text == "B"
    assert client.send(LlmRequest("pair", "m", "other stage")).text == "D"


def test_mock_script_consume_once():
    client = scripted_client(
        [
            {"stage": "write", "response": "first", "once": True},
            {"stage": "write", "response": "after"},
        ]
    )
    req = LlmRequest("write", "m", "go")
    assert client.send(req).text == "first"
    assert client.send(req).text == "after"
    assert client.send(req).text == "after"


def test_mock_once_entries_answer_a_batch_in_request_order(monkeypatch):
    # The first request is held back until another has been answered (or
    # for 0.5 s), so threads reach the script out of request order; the
    # once entries still go to the first requests, at any ``workers``.
    client = scripted_client(
        [
            {"stage": "pair", "response": "first", "once": True},
            {"stage": "pair", "response": "second", "once": True},
        ],
        default="rest",
    )
    respond = client._respond
    released = threading.Event()

    def slow_for_the_first(request):
        if request.prompt == "p0":
            released.wait(timeout=0.5)
            return respond(request)
        text = respond(request)
        released.set()
        return text

    monkeypatch.setattr(client, "_respond", slow_for_the_first)
    requests = [LlmRequest("pair", "m", f"p{i}") for i in range(4)]
    for workers in (4, 1):
        client.used.clear()
        results = LlmGateway(client, workers=workers).complete_batch(requests)
        assert [response.text for response, _ in results] == ["first", "second", "rest", "rest"]


def test_mock_script_from_jsonl(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text(
        '{"stage": "pair", "response": "NO_PAIRS"}\n'
        '{"default": "fallback"}\n',
        encoding="utf-8",
    )
    client = MockLlmClient.from_jsonl(path)
    assert client.send(LlmRequest("pair", "m", "x")).text == "NO_PAIRS"
    assert client.send(LlmRequest("classify", "m", "x")).text == "fallback"


@pytest.mark.parametrize(
    "line, key",
    [
        # A misspelt "contains" would answer every pair's write request.
        ('{"stage": "write", "contians": "pairX", "response": "R1"}', "contians"),
        ('{"default": "fallback", "stage": "write"}', "stage"),
    ],
)
def test_a_mock_script_line_with_an_unknown_key_is_config_error_naming_it(tmp_path, line, key):
    path = tmp_path / "script.jsonl"
    path.write_text('{"stage": "pair", "response": "NO_PAIRS"}\n' + line + "\n", encoding="utf-8")
    message = f"{path}:2: bad mock script line: unknown key(s): {key}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        MockLlmClient.from_jsonl(path)


class FlakyClient:
    """Fails with retryable transport errors n times, then succeeds."""

    def __init__(self, failures: int, status: int = 503):
        self.failures = failures
        self.status = status
        self.calls = 0

    def send(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise _RetryableTransport(f"HTTP {self.status}", status=self.status)
        return LlmResponse(text="ok")


def test_gateway_retries_then_succeeds(caplog):
    sleeps = []
    client = FlakyClient(2)
    gateway = LlmGateway(client, retries=3, backoff_s=1.0, sleep=sleeps.append)
    with caplog.at_level("WARNING", logger="qlforge.gateway"):
        response, seq = gateway.complete(LlmRequest("classify", "m", "x"))
    assert response.text == "ok"
    assert client.calls == 3
    assert sleeps == [1.0, 2.0]  # exponential: 1, 2
    assert seq == 1
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "classify: attempt 1/3 failed, retrying: HTTP 503"),
        ("WARNING", "classify: attempt 2/3 failed, retrying: HTTP 503"),
    ]


def test_gateway_exhausted_429_raises_rate_limited():
    client = FlakyClient(99, status=429)
    gateway = LlmGateway(client, retries=3, sleep=lambda s: None)
    with pytest.raises(RateLimited):
        gateway.complete(LlmRequest("classify", "m", "x"))
    assert client.calls == 3


def test_gateway_exhausted_5xx_raises_provider_error():
    client = FlakyClient(99, status=503)
    gateway = LlmGateway(client, retries=3, sleep=lambda s: None)
    with pytest.raises(ProviderError):
        gateway.complete(LlmRequest("classify", "m", "x"))


def test_transcript_records_successful_calls_only(tmp_path):
    path = tmp_path / "t.jsonl"
    store = TranscriptStore(path)
    client = FlakyClient(1)
    gateway = LlmGateway(client, transcripts=store, retries=3, sleep=lambda s: None)
    gateway.complete(LlmRequest("classify", "m", "first"))
    gateway.complete(LlmRequest("pair", "m", "second"))
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [e["seq"] for e in lines] == [1, 2]
    assert [e["stage"] for e in lines] == ["classify", "pair"]
    assert lines[0]["response"]["text"] == "ok"
    assert "ts" in lines[0]


def test_a_transcript_entry_logs_the_request_as_stage_and_prompt(tmp_path):
    path = tmp_path / "t.jsonl"
    gateway = LlmGateway(MockLlmClient([], "ok"), transcripts=TranscriptStore(path), model="m")
    gateway.ask("pair", "which sources reach which sinks?")
    (line,) = path.read_text(encoding="utf-8").splitlines()
    request = json.loads(line)["request"]
    assert list(request) == ["stage", "model", "prompt", "temperature", "max_tokens"]
    assert request["prompt"] == "which sources reach which sinks?"


def test_transcript_seq_continues_across_instances(tmp_path):
    path = tmp_path / "t.jsonl"
    first = TranscriptStore(path)
    gw = LlmGateway(MockLlmClient([], "hi"), transcripts=first)
    gw.complete(LlmRequest("classify", "m", "a"))
    second = TranscriptStore(path)
    gw2 = LlmGateway(MockLlmClient([], "hi"), transcripts=second)
    gw2.complete(LlmRequest("classify", "m", "b"))
    seqs = [json.loads(l)["seq"] for l in path.read_text().splitlines()]
    assert seqs == [1, 2]


def test_complete_batch_sequences_follow_request_order(tmp_path):
    # Responses arrive from a pool in arbitrary order; sequence ids must not.
    store = TranscriptStore(tmp_path / "t.jsonl")
    gateway = LlmGateway(MockLlmClient([], "r"), transcripts=store, workers=4)
    requests = [LlmRequest("classify", "m", f"prompt {i}") for i in range(8)]
    results = gateway.complete_batch(requests)
    assert [seq for _, seq in results] == list(range(1, 9))
    logged = [json.loads(l) for l in (tmp_path / "t.jsonl").read_text().splitlines()]
    assert [e["request"]["prompt"] for e in logged] == [
        f"prompt {i}" for i in range(8)
    ]


class _GaugedClient:
    """Counts sends in flight and keeps the peak. Each send waits until
    ``width`` are in flight or a few seconds pass, then lingers long enough
    for a send past the width, if one is let through, to be seen."""

    def __init__(self, width):
        self.width = width
        self.now = self.peak = 0
        self.full = threading.Event()
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
            if self.now >= self.width:
                self.full.set()
        self.full.wait(5.0)
        time.sleep(0.1)
        with self._lock:
            self.now -= 1
        return LlmResponse(text="ok")


def test_gateway_copies_share_its_bound_on_sends_in_flight():
    client = _GaugedClient(2)
    gateway = LlmGateway(client, workers=2)
    copies = [replace(gateway, pair_id=f"p{i}") for i in range(6)]
    threads = [threading.Thread(target=copy.ask, args=("write", "prompt")) for copy in copies]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert client.peak == 2
    assert len(gateway.transcripts.entries) == 6


def test_ask_all_retries_each_wholly_malformed_answer_once_in_prompt_order():
    client = scripted_client(
        [
            {"stage": "pair", "contains": "p0", "response": "bad", "once": True},
            {"stage": "pair", "contains": "p2", "response": "bad", "once": True},
            {"stage": "pair", "contains": "p2", "response": "bad", "once": True},
        ],
        default="good",
    )
    gateway = LlmGateway(client, model="m", workers=3)

    def parse(index, text):
        if text == "bad":
            raise WhollyMalformed("no structure")
        return f"v{index}"

    results = gateway.ask_all("pair", ["p0", "p1", "p2"], parse)
    assert results == [("v0", 4), ("v1", 2), (None, 5)]
    sent = [(e["seq"], e["request"]["prompt"]) for e in gateway.transcripts.entries]
    assert sent == [(1, "p0"), (2, "p1"), (3, "p2"), (4, "p0"), (5, "p2")]


class TruncatingClient:
    """Reports ``finish_reason="length"`` for prompts that contain "long"."""

    def send(self, request):
        cut = "long" in request.prompt
        return LlmResponse(text="PAIR: (a", finish_reason="length" if cut else "stop")


def test_gateway_warns_once_per_truncated_response(caplog):
    gateway = LlmGateway(TruncatingClient(), workers=2)
    requests = [LlmRequest("pair", "m", p) for p in ("short", "long one", "long two")]
    with caplog.at_level("WARNING", logger="qlforge.gateway"):
        results = gateway.complete_batch(requests)
        gateway.complete(LlmRequest("write", "m", "long three", max_tokens=64))
    warnings = [r.getMessage() for r in caplog.records]
    assert warnings == [
        "pair response (transcript seq 2) stopped at max_tokens=2048; its text is cut short",
        "pair response (transcript seq 3) stopped at max_tokens=2048; its text is cut short",
        "write response (transcript seq 4) stopped at max_tokens=64; its text is cut short",
    ]
    # The responses and the transcript are passed on unchanged.
    assert [response.text for response, _ in results] == ["PAIR: (a"] * 3
    assert [e["response"]["finish_reason"] for e in gateway.transcripts.entries] == [
        "stop", "length", "length", "length",
    ]


def test_live_client_requires_key(monkeypatch):
    from qlforge.gateway import LiveLlmClient

    monkeypatch.delenv("QLFORGE_LLM_KEY", raising=False)
    with pytest.raises(AuthFailure):
        LiveLlmClient(endpoint="https://example.invalid/v1/chat")


class _LoopbackProvider:
    """A chat-completion server on 127.0.0.1 that records what it is sent.

    Each POST takes the next scripted reply ``(status, body, headers)``, or
    ``default`` when the script is empty. A body is bytes or a JSON value.
    """

    def __init__(self):
        self.replies: list[tuple[int, object, dict]] = []
        self.default = (200, _completion("hello"), {})
        self.requests: list[dict] = []
        self.connects: list[dict] = []
        self.connections = 0
        self.delay_s = 0.0
        self.close_after_reply = False
        self.released = threading.Event()
        self._lock = threading.Lock()
        provider = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                # Headers and body go out in two writes; without this the
                # body waits for the client's delayed ACK.
                self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with provider._lock:
                    provider.connections += 1

            def log_message(self, format, *args):  # noqa: A002 - stdlib signature
                pass

            def do_CONNECT(self):
                provider.connects.append({"target": self.path, "headers": dict(self.headers)})
                self.send_response(403)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                with provider._lock:
                    provider.requests.append(
                        {"path": self.path, "headers": dict(self.headers), "json": json.loads(body)}
                    )
                    status, payload, headers = (
                        provider.replies.pop(0) if provider.replies else provider.default
                    )
                if provider.delay_s:
                    provider.released.wait(provider.delay_s)
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Length", str(len(data)))
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)
                if provider.close_after_reply:
                    self.close_connection = True

        class Server(ThreadingHTTPServer):
            daemon_threads = True

            def handle_error(self, request, client_address):
                pass  # a client that gave up on a slow reply

        self.server = Server(("127.0.0.1", 0), Handler)
        self.origin = f"127.0.0.1:{self.server.server_address[1]}"
        self.url = f"http://{self.origin}/v1/chat"
        self._thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        self._thread.start()

    def stop(self):
        self.released.set()
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


def _completion(text, **extra):
    return {"choices": [{"message": {"content": text}, "finish_reason": "stop"}], **extra}


_PROXY_VARIABLES = ("http_proxy", "https_proxy", "no_proxy", "all_proxy")


@pytest.fixture
def no_proxy_env(monkeypatch):
    """Connect directly, whatever proxy the environment running the tests names."""
    for name in _PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


@pytest.fixture
def provider(no_proxy_env):
    provider = _LoopbackProvider()
    yield provider
    provider.stop()


@pytest.fixture
def live_client(provider):
    from qlforge.gateway import LiveLlmClient

    client = LiveLlmClient(provider.url, api_key="k", timeout_s=5.0)
    yield client
    client.close()


def test_live_client_parses_chat_completion(provider, live_client):
    provider.replies.append((200, _completion("hello", usage={"total_tokens": 5}), {}))
    response = live_client.send(LlmRequest("classify", "model-x", "prompt"))
    assert response.text == "hello"
    assert response.usage == {"total_tokens": 5}
    sent = provider.requests[0]
    assert sent["path"] == "/v1/chat"
    assert sent["headers"]["Authorization"] == "Bearer k"
    assert sent["headers"]["User-Agent"] == f"qlforge/{qlforge.__version__}"
    assert sent["json"]["model"] == "model-x"


def test_live_client_posts_one_user_message(provider, live_client):
    prompt = "label these ✓\n{\"id\": \"a1\"}"
    gateway = LlmGateway(live_client, model="model-x")
    gateway.ask("write", prompt)
    body = provider.requests[0]["json"]
    assert list(body) == ["model", "messages", "temperature", "max_tokens"]
    assert body == {
        "model": "model-x",
        "messages": [{"role": "user", "content": prompt}],
        "temperature": 0.7,
        "max_tokens": 2048,
    }


def test_live_client_auth_failure_is_not_retried(provider, live_client):
    provider.replies.append((401, b"denied", {}))
    gateway = LlmGateway(live_client, sleep=lambda s: None)
    with pytest.raises(AuthFailure):
        gateway.complete(LlmRequest("classify", "m", "x"))
    assert len(provider.requests) == 1


def test_live_client_retryable_status_then_ok(provider, live_client):
    provider.replies.append((503, b"busy", {}))
    provider.replies.append((200, _completion("fine"), {}))
    gateway = LlmGateway(live_client, sleep=lambda s: None)
    response, _ = gateway.complete(LlmRequest("classify", "m", "x"))
    assert response.text == "fine"
    assert len(provider.requests) == 2


def test_live_client_other_status_is_provider_error(provider, live_client):
    provider.replies.append((400, b"bad request body", {}))
    with pytest.raises(ProviderError, match="HTTP 400: bad request body"):
        live_client.send(LlmRequest("classify", "m", "x"))


def test_live_client_request_that_is_not_json_is_provider_error(provider, live_client):
    with pytest.raises(ProviderError, match="cannot be sent as JSON"):
        live_client.send(LlmRequest("classify", "m", "x", temperature=float("nan")))
    assert provider.requests == []


def test_live_client_reuses_one_connection_for_serial_sends(provider, live_client):
    for i in range(5):
        assert live_client.send(LlmRequest("classify", "m", f"p{i}")).text == "hello"
    assert len(provider.requests) == 5
    assert provider.connections == 1


def test_live_client_pool_follows_batch_width(provider, live_client):
    provider.delay_s = 0.01
    gateway = LlmGateway(live_client, workers=4)
    for batch in range(2):
        requests = [LlmRequest("classify", "m", f"{batch}:{i}") for i in range(12)]
        assert len(gateway.complete_batch(requests)) == 12
    assert len(provider.requests) == 24
    assert 1 <= provider.connections <= 4


def test_live_client_resends_on_a_connection_the_server_closed(provider, live_client):
    provider.close_after_reply = True
    sleeps = []
    gateway = LlmGateway(live_client, sleep=sleeps.append)
    for prompt in ("first", "second"):
        response, _ = gateway.complete(LlmRequest("classify", "m", prompt))
        assert response.text == "hello"
    assert sleeps == []
    assert provider.connections == 2
    assert [r["json"]["messages"][0]["content"] for r in provider.requests] == ["first", "second"]


def test_live_client_honours_connection_close(provider, live_client):
    provider.default = (200, _completion("bye"), {"Connection": "close"})
    for i in range(3):
        assert live_client.send(LlmRequest("classify", "m", f"p{i}")).text == "bye"
        assert live_client._idle == []  # a closed connection is not pooled
    assert provider.connections == 3


def test_live_client_read_timeout_is_provider_error_after_retries(provider):
    from qlforge.gateway import LiveLlmClient

    provider.delay_s = 5.0
    client = LiveLlmClient(provider.url, api_key="k", timeout_s=0.1)
    sleeps = []
    gateway = LlmGateway(client, retries=3, sleep=sleeps.append)
    with pytest.raises(ProviderError, match="transport failed after 3 attempts"):
        gateway.complete(LlmRequest("classify", "m", "x"))
    assert len(provider.requests) == 3
    assert len(sleeps) == 2
    client.close()


@pytest.mark.parametrize("status", [200, 400], ids=["ok", "failed"])
def test_a_live_run_closes_its_connections(provider, run_config, monkeypatch, status):
    monkeypatch.setenv("QLFORGE_LLM_KEY", "k")
    provider.default = (status, _completion("hello") if status == 200 else b"refused", {})
    config = run_config(llm={"mode": "live", "endpoint": provider.url}, workers=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            run_pipeline(config, stop_after="classify")
        except StageFailure:
            assert status == 400
        else:
            assert status == 200
        gc.collect()
    assert provider.requests
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.fixture
def two_providers(provider):
    second = _LoopbackProvider()
    yield provider, second
    second.stop()


def test_live_client_sends_absolute_uri_to_http_proxy(two_providers, no_proxy_env):
    from qlforge.gateway import LiveLlmClient

    proxy, _ = two_providers
    no_proxy_env.setenv("http_proxy", f"http://{proxy.origin}")
    client = LiveLlmClient("http://qlforge.invalid:8080/v1/chat?x=1", api_key="k")
    assert client.send(LlmRequest("classify", "m", "x")).text == "hello"
    client.close()
    assert proxy.requests[0]["path"] == "http://qlforge.invalid:8080/v1/chat?x=1"
    assert proxy.requests[0]["headers"]["Host"] == "qlforge.invalid:8080"


def test_live_client_no_proxy_bypasses_the_proxy(two_providers, no_proxy_env):
    from qlforge.gateway import LiveLlmClient

    proxy, target = two_providers
    no_proxy_env.setenv("http_proxy", f"http://{proxy.origin}")
    no_proxy_env.setenv("no_proxy", "127.0.0.1")
    client = LiveLlmClient(target.url, api_key="k")
    assert client.send(LlmRequest("classify", "m", "x")).text == "hello"
    client.close()
    assert proxy.requests == []
    assert target.requests[0]["path"] == "/v1/chat"


def test_live_client_tunnels_https_through_the_proxy(provider, no_proxy_env):
    from qlforge.gateway import LiveLlmClient

    no_proxy_env.setenv("https_proxy", f"http://u:p@{provider.origin}")
    client = LiveLlmClient("https://qlforge.invalid/v1/chat", api_key="k")
    gateway = LlmGateway(client, retries=1)
    with pytest.raises(ProviderError, match="Tunnel connection failed: 403"):
        gateway.complete(LlmRequest("classify", "m", "x"))
    assert provider.connects[0]["target"] == "qlforge.invalid:443"
    assert provider.connects[0]["headers"]["Proxy-Authorization"] == "Basic dTpw"
    assert provider.requests == []


def test_live_client_refuses_an_https_proxy(no_proxy_env):
    from qlforge.gateway import LiveLlmClient

    no_proxy_env.setenv("https_proxy", "https://proxy.invalid:3128")
    with pytest.raises(ConfigError, match="only http:// proxies are supported"):
        LiveLlmClient("https://qlforge.invalid/v1/chat", api_key="k")


def test_live_client_reads_null_content_as_empty_text(provider, live_client):
    provider.replies.append((200, _completion(None), {}))
    assert live_client.send(LlmRequest("classify", "m", "x")).text == ""


@pytest.mark.parametrize(
    "body",
    [
        b"[]",
        b'{"choices": "x"}',
        b'{"choices": [null]}',
        b'{"choices": [{"message": null}]}',
        b'{"choices": [{"message": {"content": 5}}]}',
        b'{"choices": []}',
        b"not json",
        pytest.param(b"[" * 100_000, id="nested-too-deep"),
    ],
)
def test_live_client_malformed_body_is_provider_error(provider, live_client, body):
    provider.replies.append((200, body, {}))
    with pytest.raises(ProviderError, match="malformed provider response"):
        live_client.send(LlmRequest("classify", "m", "x"))


_BODY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(
        st.sampled_from(["choices", "message", "content", "finish_reason", "usage"]),
        inner,
        max_size=3,
    ),
    max_leaves=8,
)


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(value=_BODY_VALUE)
def test_live_client_any_json_body_is_text_or_provider_error(provider, live_client, value):
    provider.replies.append((200, value, {}))
    try:
        response = live_client.send(LlmRequest("classify", "m", "x"))
    except ProviderError:
        return
    assert isinstance(response.text, str)


def test_file_backed_transcript_keeps_no_entries(tmp_path):
    store = TranscriptStore(tmp_path / "t.jsonl")
    gateway = LlmGateway(MockLlmClient([], "hi"), transcripts=store)
    gateway.complete_batch([LlmRequest("classify", "m", f"p{i}") for i in range(3)])
    assert store.entries == []
    assert len((tmp_path / "t.jsonl").read_text().splitlines()) == 3


def test_an_answer_with_a_lone_surrogate_is_logged_with_a_replacement(tmp_path, caplog):
    path = tmp_path / "t.jsonl"
    gateway = LlmGateway(
        MockLlmClient([], "a1: Source \ud800"), transcripts=TranscriptStore(path)
    )
    with caplog.at_level("WARNING"):
        assert gateway.ask("classify", "p") == "a1: Source \ufffd"
    assert caplog.messages == [
        "classify response (transcript seq 1) held lone surrogates, replaced with U+FFFD"
    ]
    (line,) = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(line)["response"]["text"] == "a1: Source \ufffd"


def test_lone_surrogates_anywhere_in_a_provider_answer_are_logged_replaced(
    provider, live_client, tmp_path, caplog
):
    body = (
        b'{"choices": [{"message": {"content": "a1: Source"}, "finish_reason": "\\ud800"}],'
        b' "usage": {"total\\udfff": ["\\ud800"]}}'
    )
    provider.replies.append((200, body, {}))
    path = tmp_path / "t.jsonl"
    gateway = LlmGateway(live_client, transcripts=TranscriptStore(path))
    with caplog.at_level("WARNING"):
        response, seq = gateway.complete(LlmRequest("classify", "m", "p"))
    assert (response.finish_reason, response.usage) == ("\ufffd", {"total\ufffd": ["\ufffd"]})
    assert caplog.messages == [
        "classify response (transcript seq 1) held lone surrogates, replaced with U+FFFD"
    ]
    (line,) = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(line)["response"]["finish_reason"] == "\ufffd"


def test_importing_the_pipeline_leaves_requests_unloaded():
    code = "import sys, qlforge.pipeline; print('requests' in sys.modules)"
    src = str(Path(qlforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["stage", "contains", "response", "default", "once"]), inner, max_size=4
    ),
    max_leaves=6,
)
_SCRIPT_LINE = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=30),
    _JSON_VALUE.map(json.dumps),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=st.lists(_SCRIPT_LINE, max_size=5))
@example(lines=["[" * 100_000])
def test_mock_script_loads_or_is_config_error_for_any_lines(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "any_script.jsonl"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        client = MockLlmClient.from_jsonl(path)
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}")
        return
    for stage in ("classify", "write"):
        assert isinstance(client.send(LlmRequest(stage, "m", "prompt")).text, str)

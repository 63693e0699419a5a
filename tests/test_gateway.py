import json
import random
import string

import pytest

from qlforge.errors import AuthFailure, ProviderError, RateLimited
from qlforge.gateway import (
    LlmGateway,
    LlmRequest,
    LlmResponse,
    MockLlmClient,
    MockScript,
    TranscriptStore,
    _RetryableTransport,
    estimate_tokens,
    simple_request,
    stage_temperature,
)
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


def test_request_validation():
    with pytest.raises(ValueError):
        LlmRequest(stage="classify", model="m", messages=())
    with pytest.raises(ValueError):
        simple_request("classify", "m", "hi", temperature=-0.1)
    with pytest.raises(ValueError):
        simple_request("unheard-of", "m", "hi")


def test_stage_temperature_defaults_and_override():
    assert stage_temperature("classify") == 0.0
    assert stage_temperature("pair") == 0.0
    assert stage_temperature("write") == 0.7
    assert stage_temperature("repair") == 0.7
    assert stage_temperature("write", 0.0) == 0.0
    assert stage_temperature("classify", 1.5) == 1.5
    assert simple_request("write", "m", "p").temperature == 0.7
    assert simple_request("write", "m", "p", temperature=0.2).temperature == 0.2


def test_mock_script_first_match_wins():
    client = scripted_client(
        [
            {"stage": "classify", "contains": "alpha", "response": "A"},
            {"stage": "classify", "response": "B"},
        ],
        default="D",
    )
    assert client.send(simple_request("classify", "m", "has alpha inside")).text == "A"
    assert client.send(simple_request("classify", "m", "nothing")).text == "B"
    assert client.send(simple_request("pair", "m", "other stage")).text == "D"


def test_mock_script_consume_once():
    client = scripted_client(
        [
            {"stage": "write", "response": "first", "once": True},
            {"stage": "write", "response": "after"},
        ]
    )
    req = simple_request("write", "m", "go")
    assert client.send(req).text == "first"
    assert client.send(req).text == "after"
    assert client.send(req).text == "after"


def test_mock_script_from_jsonl(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text(
        '{"stage": "pair", "response": "NO_PAIRS"}\n'
        '{"default": "fallback"}\n',
        encoding="utf-8",
    )
    script = MockScript.from_jsonl(path)
    client = MockLlmClient(script)
    assert client.send(simple_request("pair", "m", "x")).text == "NO_PAIRS"
    assert client.send(simple_request("classify", "m", "x")).text == "fallback"


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


def test_gateway_retries_then_succeeds():
    sleeps = []
    client = FlakyClient(2)
    gateway = LlmGateway(client, retries=3, backoff_s=1.0, sleep=sleeps.append)
    response, seq = gateway.complete(simple_request("classify", "m", "x"))
    assert response.text == "ok"
    assert client.calls == 3
    assert sleeps == [1.0, 2.0]  # exponential: 1, 2
    assert seq == 1


def test_gateway_exhausted_429_raises_rate_limited():
    client = FlakyClient(99, status=429)
    gateway = LlmGateway(client, retries=3, sleep=lambda s: None)
    with pytest.raises(RateLimited):
        gateway.complete(simple_request("classify", "m", "x"))
    assert client.calls == 3


def test_gateway_exhausted_5xx_raises_provider_error():
    client = FlakyClient(99, status=503)
    gateway = LlmGateway(client, retries=3, sleep=lambda s: None)
    with pytest.raises(ProviderError):
        gateway.complete(simple_request("classify", "m", "x"))


def test_transcript_records_successful_calls_only(tmp_path):
    path = tmp_path / "t.jsonl"
    store = TranscriptStore(path)
    client = FlakyClient(1)
    gateway = LlmGateway(client, transcripts=store, retries=3, sleep=lambda s: None)
    gateway.complete(simple_request("classify", "m", "first"))
    gateway.complete(simple_request("pair", "m", "second"))
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [e["seq"] for e in lines] == [1, 2]
    assert [e["stage"] for e in lines] == ["classify", "pair"]
    assert lines[0]["response"]["text"] == "ok"
    assert "ts" in lines[0]


def test_transcript_seq_continues_across_instances(tmp_path):
    path = tmp_path / "t.jsonl"
    first = TranscriptStore(path)
    gw = LlmGateway(MockLlmClient(MockScript([], "hi")), transcripts=first)
    gw.complete(simple_request("classify", "m", "a"))
    second = TranscriptStore(path)
    gw2 = LlmGateway(MockLlmClient(MockScript([], "hi")), transcripts=second)
    gw2.complete(simple_request("classify", "m", "b"))
    seqs = [json.loads(l)["seq"] for l in path.read_text().splitlines()]
    assert seqs == [1, 2]


def test_complete_batch_sequences_follow_request_order(tmp_path):
    # Responses arrive from a pool in arbitrary order; sequence ids must not.
    store = TranscriptStore(tmp_path / "t.jsonl")
    gateway = LlmGateway(MockLlmClient(MockScript([], "r")), transcripts=store)
    requests = [simple_request("classify", "m", f"prompt {i}") for i in range(8)]
    results = gateway.complete_batch(requests, workers=4)
    assert [seq for _, seq in results] == list(range(1, 9))
    logged = [json.loads(l) for l in (tmp_path / "t.jsonl").read_text().splitlines()]
    assert [e["request"]["messages"][-1]["content"] for e in logged] == [
        f"prompt {i}" for i in range(8)
    ]


class TruncatingClient:
    """Reports ``finish_reason="length"`` for prompts that contain "long"."""

    def send(self, request):
        cut = "long" in request.joined_content()
        return LlmResponse(text="PAIR: (a", finish_reason="length" if cut else "stop")


def test_gateway_warns_once_per_truncated_response(caplog):
    gateway = LlmGateway(TruncatingClient())
    requests = [simple_request("pair", "m", p) for p in ("short", "long one", "long two")]
    with caplog.at_level("WARNING", logger="qlforge.gateway"):
        results = gateway.complete_batch(requests, workers=2)
        gateway.complete(simple_request("write", "m", "long three", max_tokens=64))
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


class _FakeHttpResponse:
    def __init__(self, status_code, body=None, text=""):
        self.status_code = status_code
        self._body = body
        self.text = text

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "json": json, "headers": headers})
        return self.responses.pop(0)


def test_live_client_parses_chat_completion(monkeypatch):
    from qlforge.gateway import LiveLlmClient

    session = _FakeSession(
        [
            _FakeHttpResponse(
                200,
                body={
                    "choices": [{"message": {"content": "hello"}, "finish_reason": "stop"}],
                    "usage": {"total_tokens": 5},
                },
            )
        ]
    )
    client = LiveLlmClient("https://example.invalid/v1", api_key="k", session=session)
    response = client.send(simple_request("classify", "model-x", "prompt"))
    assert response.text == "hello"
    assert response.usage == {"total_tokens": 5}
    assert session.posts[0]["headers"]["Authorization"] == "Bearer k"
    assert session.posts[0]["json"]["model"] == "model-x"


def test_live_client_auth_failure_is_not_retried():
    from qlforge.gateway import LiveLlmClient

    session = _FakeSession([_FakeHttpResponse(401, text="denied")])
    client = LiveLlmClient("https://example.invalid/v1", api_key="k", session=session)
    gateway = LlmGateway(client, sleep=lambda s: None)
    with pytest.raises(AuthFailure):
        gateway.complete(simple_request("classify", "m", "x"))
    assert len(session.posts) == 1


def test_live_client_retryable_status_then_ok():
    from qlforge.gateway import LiveLlmClient

    session = _FakeSession(
        [
            _FakeHttpResponse(503, text="busy"),
            _FakeHttpResponse(
                200, body={"choices": [{"message": {"content": "fine"}}]}
            ),
        ]
    )
    client = LiveLlmClient("https://example.invalid/v1", api_key="k", session=session)
    gateway = LlmGateway(client, sleep=lambda s: None)
    response, _ = gateway.complete(simple_request("classify", "m", "x"))
    assert response.text == "fine"
    assert len(session.posts) == 2

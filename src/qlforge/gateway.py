"""Uniform access to chat-completion providers, plus a deterministic mock.

Every ``complete()`` call goes through an :class:`LlmGateway`, which retries
transient transport failures, and appends the (request, response) pair to an
append-only transcript so any run can be replayed against the mock.

The live client speaks plain OpenAI-style chat completion over HTTP. The
credential comes from the ``QLFORGE_LLM_KEY`` environment variable only,
never from config files.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

import requests

from .artifacts import config_input, read_text
from .errors import ArtifactCorrupt, AuthFailure, ConfigError, ProviderError, RateLimited

logger = logging.getLogger(__name__)

STAGES = ("classify", "pair", "write", "repair")

DEFAULT_TEMPERATURES = {"classify": 0.0, "pair": 0.0, "write": 0.7, "repair": 0.7}

ENV_API_KEY = "QLFORGE_LLM_KEY"

RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = 1.0
_RETRYABLE_STATUS = frozenset({429, 502, 503, 504})


def stage_temperature(stage: str, override: float | None = None) -> float:
    """Sampling temperature for a stage.

    An explicit override applies to every stage; otherwise labeling stages
    run deterministically at 0 and rule writing and repair at 0.7. Stage
    validity is LlmRequest's job, so unknown names just get 0.
    """
    if override is not None:
        return override
    return DEFAULT_TEMPERATURES.get(stage, 0.0)


def estimate_tokens(text: str) -> int:
    """Upper-bound token estimate: characters / 4, rounded up.

    Deliberately provider-agnostic; erring toward smaller groups only costs
    extra calls. Monotone non-decreasing in text length, and subadditive
    under concatenation (``estimate(a+b) <= estimate(a) + estimate(b)``).
    """
    return (len(text) + 3) // 4


@dataclass(frozen=True)
class LlmMessage:
    role: str  # "system" | "user"
    content: str


@dataclass(frozen=True)
class LlmRequest:
    stage: str
    model: str
    messages: tuple[LlmMessage, ...]
    temperature: float = 0.0
    max_tokens: int = 2048

    def __post_init__(self):
        if not self.messages:
            raise ValueError("message list must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")

    def joined_content(self) -> str:
        return "\n".join(m.content for m in self.messages)

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "model": self.model,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "messages": [{"role": m.role, "content": m.content} for m in self.messages],
        }


@dataclass
class LlmResponse:
    text: str
    finish_reason: str = "stop"
    usage: dict | None = None
    latency_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "finish_reason": self.finish_reason,
            "usage": self.usage,
            "latency_s": self.latency_s,
        }


def simple_request(stage: str, model: str, prompt: str, *, system: str | None = None,
                   temperature: float | None = None, max_tokens: int = 2048) -> LlmRequest:
    messages = []
    if system:
        messages.append(LlmMessage("system", system))
    messages.append(LlmMessage("user", prompt))
    return LlmRequest(stage=stage, model=model, messages=tuple(messages),
                      temperature=stage_temperature(stage, temperature),
                      max_tokens=max_tokens)


class _RetryableTransport(Exception):
    """Internal marker for transport / 429-class failures worth retrying."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


@dataclass
class MockEntry:
    stage: str | None
    contains: str | None
    response: str
    once: bool = False
    used: bool = False

    def matches(self, request: LlmRequest) -> bool:
        if self.once and self.used:
            return False
        if self.stage is not None and self.stage != request.stage:
            return False
        if self.contains is not None and self.contains not in request.joined_content():
            return False
        return True


_MOCK_TEXT_KEYS = ("default", "stage", "contains", "response")


class MockScript:
    """Ordered canned responses: first matching entry wins.

    Entries match on stage tag and/or a substring of the request content.
    A consume-once entry answers a single time, then matching falls through
    to later entries or the default response.
    """

    def __init__(self, entries: list[MockEntry], default_response: str = ""):
        self.entries = entries
        self.default_response = default_response
        self._lock = threading.Lock()

    def respond(self, request: LlmRequest) -> str:
        with self._lock:
            for entry in self.entries:
                if entry.matches(request):
                    if entry.once:
                        entry.used = True
                    return entry.response
            return self.default_response

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "MockScript":
        """Load a script; an unreadable file or line is a ConfigError naming it."""
        with config_input():
            text = read_text(path)
        entries: list[MockEntry] = []
        default = ""
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict) or not all(
                    isinstance(data.get(key, ""), str) for key in _MOCK_TEXT_KEYS
                ):
                    raise ValueError("not an object of strings")
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad mock script line: {exc}") from None
            if "default" in data:
                default = data["default"]
                continue
            entries.append(
                MockEntry(
                    stage=data.get("stage"),
                    contains=data.get("contains"),
                    response=data.get("response", ""),
                    once=bool(data.get("once", False)),
                )
            )
        return cls(entries, default)


class LlmClient(Protocol):
    """Single-attempt transport to one provider."""

    def send(self, request: LlmRequest) -> LlmResponse: ...


class MockLlmClient:
    def __init__(self, script: MockScript):
        self.script = script

    def send(self, request: LlmRequest) -> LlmResponse:
        return LlmResponse(text=self.script.respond(request), latency_s=0.0)


class LiveLlmClient:
    """OpenAI-style chat-completion client over HTTP."""

    def __init__(self, endpoint: str, api_key: str | None = None,
                 session: requests.Session | None = None, timeout_s: float = 120.0):
        if api_key is None:
            api_key = os.environ.get(ENV_API_KEY, "")
        if not api_key:
            raise AuthFailure(f"no API key: set {ENV_API_KEY}")
        self.endpoint = endpoint
        self.api_key = api_key
        self.session = session or requests.Session()
        self.timeout_s = timeout_s

    def send(self, request: LlmRequest) -> LlmResponse:
        payload = {
            "model": request.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        started = time.monotonic()
        try:
            resp = self.session.post(
                self.endpoint,
                json=payload,
                headers={"Authorization": f"Bearer {self.api_key}"},
                timeout=self.timeout_s,
            )
        except requests.RequestException as exc:
            raise _RetryableTransport(f"transport failure: {exc}") from exc
        latency = time.monotonic() - started
        if resp.status_code in (401, 403):
            raise AuthFailure(f"provider rejected credentials (HTTP {resp.status_code})")
        if resp.status_code in _RETRYABLE_STATUS:
            raise _RetryableTransport(f"HTTP {resp.status_code}", status=resp.status_code)
        if resp.status_code != 200:
            raise ProviderError(f"HTTP {resp.status_code}: {resp.text[:500]}")
        try:
            body = resp.json()
            choice = body["choices"][0]
            text = choice["message"]["content"] or ""
            finish = choice.get("finish_reason", "stop")
            usage = body.get("usage")
        except (KeyError, IndexError, ValueError) as exc:
            raise ProviderError(f"malformed provider response: {exc}") from exc
        return LlmResponse(text=text, finish_reason=finish, usage=usage, latency_s=latency)


class TranscriptStore:
    """Append-only transcript with globally unique sequence ids.

    When constructed with a path, each append writes one JSON line
    ``{seq, stage, request, response, ts}``. Appends are serialized
    internally, so many workers may log concurrently.

    An existing file is continued: numbering resumes after its highest
    ``seq``. A final line with no newline is an append cut short by a killed
    run; it is dropped from the file with a warning. Any other line that is
    not a transcript entry raises :class:`ArtifactCorrupt`.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.entries: list[dict] = []
        self._lock = threading.Lock()
        self._seq = 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.is_file():
                # Continue numbering after a resumed run instead of
                # restarting at 1 and clashing with recorded entries.
                self._seq = self._last_seq()

    def _last_seq(self) -> int:
        data = self.path.read_bytes()
        torn = data.rpartition(b"\n")[2]
        if torn:
            logger.warning("%s: dropping torn final line (%d bytes)", self.path, len(torn))
            data = data[: len(data) - len(torn)]
            with self.path.open("r+b") as fh:
                fh.truncate(len(data))
        seq = 0
        for number, line in enumerate(data.splitlines(), 1):
            if not line.strip():
                continue
            try:
                seq = max(seq, json.loads(line).get("seq", 0))
            except (ValueError, AttributeError, TypeError):
                raise ArtifactCorrupt(
                    f"{self.path}: line {number} is not a transcript entry"
                ) from None
        return seq

    def append(self, request: LlmRequest, response: LlmResponse) -> int:
        with self._lock:
            self._seq += 1
            entry = {
                "seq": self._seq,
                "stage": request.stage,
                "request": request.to_dict(),
                "response": response.to_dict(),
                "ts": time.time(),
            }
            self.entries.append(entry)
            if self.path is not None:
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
            return self._seq


class LlmGateway:
    """Retrying front door for all model calls.

    Transient transport failures (connection errors, HTTP 429/5xx) retry up
    to ``retries`` attempts with exponential backoff starting at
    ``backoff_s``; auth and other provider errors raise immediately.
    """

    def __init__(
        self,
        client: LlmClient,
        transcripts: TranscriptStore | None = None,
        retries: int = RETRY_ATTEMPTS,
        backoff_s: float = RETRY_BACKOFF_S,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.client = client
        self.transcripts = transcripts if transcripts is not None else TranscriptStore()
        self.retries = retries
        self.backoff_s = backoff_s
        self._sleep = sleep

    def complete(self, request: LlmRequest) -> tuple[LlmResponse, int]:
        """Send a request; returns (response, transcript sequence id)."""
        response = self._complete_raw(request)
        return response, self._record(request, response)

    def complete_batch(
        self, requests: list[LlmRequest], workers: int = 4
    ) -> list[tuple[LlmResponse, int]]:
        """Send many requests concurrently but log them in request order.

        Sequence ids therefore depend only on the request list, not on
        thread completion order, which keeps artifacts that embed them
        reproducible across runs.
        """
        if not requests:
            return []
        with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
            responses = list(pool.map(self._complete_raw, requests))
        return [
            (response, self._record(request, response))
            for request, response in zip(requests, responses)
        ]

    def _record(self, request: LlmRequest, response: LlmResponse) -> int:
        """Log the call to the transcript; warn when the reply hit ``max_tokens``."""
        seq = self.transcripts.append(request, response)
        if response.finish_reason == "length":
            logger.warning(
                "%s response (transcript seq %d) stopped at max_tokens=%d; its text is cut short",
                request.stage,
                seq,
                request.max_tokens,
            )
        return seq

    def _complete_raw(self, request: LlmRequest) -> LlmResponse:
        last: _RetryableTransport | None = None
        for attempt in range(self.retries):
            try:
                return self.client.send(request)
            except _RetryableTransport as exc:
                last = exc
                if attempt + 1 < self.retries:
                    self._sleep(self.backoff_s * (2**attempt))
        assert last is not None
        if last.status == 429:
            raise RateLimited(str(last))
        raise ProviderError(f"transport failed after {self.retries} attempts: {last}")

"""Uniform access to chat-completion providers, plus a deterministic mock.

Every model call goes through an :class:`LlmGateway`. Stages hand it a stage
name and a prompt; it builds the request from its model and temperature,
retries transient transport failures and wholly malformed answers, and
appends each (request, response) pair to an append-only transcript.

The live client speaks plain OpenAI-style chat completion over HTTP. The
credential comes from the ``QLFORGE_LLM_KEY`` environment variable only,
never from config files.
"""

from __future__ import annotations

import base64
import http.client
import json
import logging
import os
import ssl
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Protocol, TypeVar
from urllib.parse import SplitResult, unquote, urlsplit, urlunsplit

from . import __version__
from .artifacts import (
    JsonDataclass,
    config_input,
    known_keys_only,
    last_transcript_seq,
    read_text,
    typed,
    without_surrogates,
)
from .errors import (
    AuthFailure,
    ConfigError,
    ProviderError,
    RateLimited,
    WhollyMalformed,
)

logger = logging.getLogger(__name__)

DEFAULT_TEMPERATURES = {"classify": 0.0, "pair": 0.0, "write": 0.7, "repair": 0.7}

ENV_API_KEY = "QLFORGE_LLM_KEY"

RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = 1.0
_RETRYABLE_STATUS = frozenset({429, 502, 503, 504})

T = TypeVar("T")


def estimate_tokens(text: str) -> int:
    """Upper-bound token estimate: characters / 4, rounded up.

    Deliberately provider-agnostic; erring toward smaller groups only costs
    extra calls. Monotone non-decreasing in text length, and subadditive
    under concatenation (``estimate(a+b) <= estimate(a) + estimate(b)``).
    """
    return (len(text) + 3) // 4


@dataclass(frozen=True)
class LlmRequest(JsonDataclass):
    """One model call: a single user prompt for a stage."""

    stage: str
    model: str
    prompt: str
    temperature: float = 0.0
    max_tokens: int = 2048


@dataclass
class LlmResponse(JsonDataclass):
    text: str
    finish_reason: str = "stop"
    usage: dict | None = None
    latency_s: float = 0.0


class _RetryableTransport(Exception):
    """Internal marker for transport / 429-class failures worth retrying."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class MockEntry(JsonDataclass, rejects_unknown_keys=True):
    """One line of a mock script: answer ``response`` to requests it matches."""

    stage: str | None = None
    contains: str | None = None
    response: str = ""
    once: bool = False

    def matches(self, request: LlmRequest) -> bool:
        if self.stage is not None and self.stage != request.stage:
            return False
        if self.contains is not None and self.contains not in request.prompt:
            return False
        return True


# Stages whose requests are sent one by one from per-pair threads, not in a
# reserved batch; None is an entry that matches every stage.
_PER_PAIR_STAGES = ("write", "repair", None)


class LlmClient(Protocol):
    """Single-attempt transport to one provider."""

    def send(self, request: LlmRequest) -> LlmResponse: ...


class MockLlmClient:
    """Answers from ordered canned responses: the first matching entry wins.

    Entries match on stage tag and/or a substring of the prompt. A
    consume-once entry answers a single time, then matching falls through
    to later entries or the default response.

    :meth:`reserve` answers a batch up front, in request order, so that a
    consume-once entry goes to the earliest request it matches however the
    batch's threads are scheduled; the ``send`` of a reserved request then
    returns its reserved answer.
    """

    def __init__(self, entries: list[MockEntry], default_response: str = ""):
        self.entries = entries
        self.default_response = default_response
        self.used: set[int] = set()  # indexes of the once entries that have answered
        self._reserved: dict[int, str] = {}
        self._lock = threading.Lock()

    def reserve(self, requests: list[LlmRequest]) -> None:
        with self._lock:
            for request in requests:
                self._reserved[id(request)] = self._respond(request)

    def send(self, request: LlmRequest) -> LlmResponse:
        with self._lock:
            text = self._reserved.pop(id(request), None)
            if text is None:
                text = self._respond(request)
        return LlmResponse(text=text, latency_s=0.0)

    def _respond(self, request: LlmRequest) -> str:
        """The answer to ``request``; the caller holds ``_lock``."""
        for index, entry in enumerate(self.entries):
            if index not in self.used and entry.matches(request):
                if entry.once:
                    self.used.add(index)
                return entry.response
        return self.default_response

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "MockLlmClient":
        """Load a script; an unreadable file, or a line that is unreadable or
        has an unknown key, is a ConfigError naming it."""
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
                if isinstance(data, dict) and "default" in data:
                    known_keys_only(data, {"default"})
                    default = typed(data["default"], str, "default")
                    continue
                entry = MockEntry.from_dict(data)
            except (ValueError, TypeError, RecursionError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad mock script line: {exc}") from None
            if entry.once and entry.contains is None and entry.stage in _PER_PAIR_STAGES:
                raise ConfigError(
                    f"{path}:{lineno}: a once entry for {entry.stage or 'any'} stage needs "
                    '"contains": write and repair requests come from concurrent per-pair '
                    "threads, so it would answer whichever pair asks first"
                )
            entries.append(entry)
        return cls(entries, default)


# Errors of a pooled connection that the server closed while it sat idle.
_STALE_CONNECTION = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


def parse_endpoint(endpoint: str, what: str = "llm.endpoint") -> SplitResult:
    """The parts of an ``http://`` or ``https://`` URL with a host; else a ConfigError."""
    try:
        url = urlsplit(endpoint)
        url.port  # raises ValueError for a port that is not a number in range
    except ValueError as exc:
        raise ConfigError(f"{what} {endpoint!r}: {exc}") from None
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ConfigError(
            f"{what} must be an http:// or https:// URL with a host, got {endpoint!r}"
        )
    return url


def _proxy_for(url: SplitResult) -> SplitResult | None:
    """The proxy the environment names for ``url``, or None to connect directly."""
    proxies = urllib.request.getproxies()
    proxy = proxies.get(url.scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(url.netloc.rpartition("@")[2]):
        return None
    parsed = parse_endpoint(proxy if "://" in proxy else f"http://{proxy}", "proxy")
    if parsed.scheme != "http":
        raise ConfigError(f"proxy {proxy!r}: only http:// proxies are supported")
    return parsed


def _proxy_authorization(proxy: SplitResult) -> dict[str, str]:
    if proxy.username is None:
        return {}
    credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
    return {"Proxy-Authorization": "Basic " + base64.b64encode(credentials.encode()).decode()}


class LiveLlmClient:
    """OpenAI-style chat-completion client over keep-alive HTTP/1.1 connections.

    Idle connections wait in a pool. A send takes one or opens one, and puts
    it back once the response body is read, unless the server said
    ``Connection: close``. The pool never holds more connections than sends
    ran at once, so its size follows the gateway's ``workers``.

    The ``https_proxy``, ``http_proxy`` and ``no_proxy`` environment
    variables choose a proxy. HTTPS verifies against the system trust store,
    or the bundle ``SSL_CERT_FILE`` names.
    """

    def __init__(self, endpoint: str, api_key: str | None = None, timeout_s: float = 120.0):
        if api_key is None:
            api_key = os.environ.get(ENV_API_KEY, "")
        if not api_key:
            raise AuthFailure(f"no API key: set {ENV_API_KEY}")
        url = parse_endpoint(endpoint)
        self.api_key = api_key
        self.timeout_s = timeout_s
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._address = (url.hostname, url.port)
        self._target = urlunsplit(("", "", url.path or "/", url.query, ""))
        self._headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
            "User-Agent": f"qlforge/{__version__}",
        }
        self._proxy = _proxy_for(url)
        self._tunnel_headers: dict[str, str] = {}
        if self._proxy is not None:
            auth = _proxy_authorization(self._proxy)
            if self._tls is not None:
                self._tunnel_headers = auth
            else:
                # A plain-HTTP proxy is sent the absolute URI of the target.
                self._target = urlunsplit(url._replace(fragment=""))
                self._headers.update(auth)
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def send(self, request: LlmRequest) -> LlmResponse:
        payload = {
            "model": request.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        try:
            encoded = json.dumps(payload, allow_nan=False).encode("utf-8")
        except ValueError as exc:  # a NaN or infinite temperature
            raise ProviderError(f"request cannot be sent as JSON: {exc}") from exc
        started = time.monotonic()
        status, data = self._post(encoded)
        latency = time.monotonic() - started
        if status in (401, 403):
            raise AuthFailure(f"provider rejected credentials (HTTP {status})")
        if status in _RETRYABLE_STATUS:
            raise _RetryableTransport(f"HTTP {status}", status=status)
        if status != 200:
            raise ProviderError(f"HTTP {status}: {data.decode('utf-8', 'replace')[:500]}")
        try:
            body = json.loads(data)
            choice = body["choices"][0]
            text = choice["message"]["content"]
            finish = choice.get("finish_reason", "stop")
            usage = body.get("usage")
        except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
            raise ProviderError(f"malformed provider response: {exc!r}") from exc
        if text is None:
            text = ""
        elif not isinstance(text, str):
            raise ProviderError(f"malformed provider response: content is {type(text).__name__}")
        return LlmResponse(text=text, finish_reason=finish, usage=usage, latency_s=latency)

    def close(self) -> None:
        """Close the idle connections."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """POST ``body`` to the endpoint; returns the status and the response body."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        try:
            if conn is not None:
                try:
                    return self._exchange(conn, body)
                except _STALE_CONNECTION:
                    # The server closed the connection while it sat idle (say,
                    # at its keep-alive timeout): resend once, on a fresh one.
                    pass
            return self._exchange(self._connect(), body)
        except (OSError, http.client.HTTPException) as exc:
            raise _RetryableTransport(f"transport failure: {exc!r}") from exc

    def _exchange(self, conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
        try:
            conn.request("POST", self._target, body, self._headers)
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return response.status, data

    def _connect(self) -> http.client.HTTPConnection:
        host, port = self._address
        if self._proxy is not None:
            host, port = self._proxy.hostname, self._proxy.port
        if self._tls is None:
            return http.client.HTTPConnection(host, port, timeout=self.timeout_s)
        conn = http.client.HTTPSConnection(host, port, timeout=self.timeout_s, context=self._tls)
        if self._proxy is not None:
            conn.set_tunnel(*self._address, headers=self._tunnel_headers)
        return conn


class TranscriptStore:
    """Append-only transcript with globally unique sequence ids.

    When constructed with a path, each append writes one JSON line
    ``{seq, stage, request, response, ts}`` and keeps nothing in memory.
    Without a path, the entries are kept in :attr:`entries`. Appends are
    serialized internally, so many workers may log concurrently.

    An existing file is continued: numbering resumes after its highest
    ``seq``, as read by :func:`~qlforge.artifacts.last_transcript_seq`.
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
                self._seq = last_transcript_seq(self.path)

    def append(self, request: LlmRequest, response: LlmResponse) -> int:
        with self._lock:
            self._seq += 1
            entry = {
                "seq": self._seq,
                "stage": request.stage,
                "request": asdict(request),
                "response": asdict(response),
                "ts": time.time(),
            }
            if self.path is None:
                self.entries.append(entry)
            else:
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
            return self._seq


@dataclass(eq=False)
class LlmGateway:
    """Front door for all model calls, and the one holder of the request policy.

    Every request goes to ``model`` at the stage's temperature: 0 for the
    labeling stages and 0.7 for rule writing and repair, unless
    ``temperature`` overrides it for every stage. At most ``workers`` sends
    are in flight through the gateway and the copies ``dataclasses.replace``
    makes of it, which share its ``slots``.

    Transient transport failures (connection errors, HTTP 429/5xx) retry up
    to ``retries`` attempts with exponential backoff starting at
    ``backoff_s``, each retry logged at WARNING with the stage, and with
    ``pair_id`` when the gateway serves one pair's rule generation; auth and
    other provider errors raise immediately.
    """

    client: LlmClient
    transcripts: TranscriptStore = field(default_factory=TranscriptStore)
    retries: int = RETRY_ATTEMPTS
    backoff_s: float = RETRY_BACKOFF_S
    sleep: Callable[[float], None] = time.sleep
    pair_id: str | None = None
    model: str = "default"
    temperature: float | None = None
    workers: int = 4
    slots: threading.BoundedSemaphore | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.slots is None:
            self.slots = threading.BoundedSemaphore(max(1, self.workers))

    def _request(self, stage: str, prompt: str) -> LlmRequest:
        temperature = DEFAULT_TEMPERATURES[stage] if self.temperature is None else self.temperature
        return LlmRequest(stage, self.model, prompt, temperature)

    def ask(self, stage: str, prompt: str) -> str:
        """Send one prompt for ``stage``; returns the answer's text."""
        response, _ = self.complete(self._request(stage, prompt))
        return response.text

    def ask_all(
        self, stage: str, prompts: list[str], parse: Callable[[int, str], T]
    ) -> list[tuple[T | None, int]]:
        """Send ``prompts`` as one batch; returns each parsed answer and its transcript seq.

        ``parse(index, text)`` reads the answer to ``prompts[index]``. An
        answer it finds :class:`WhollyMalformed` is sent again once, after
        the batch, one prompt at a time in prompt order, so sequence ids stay
        reproducible. The value is None when the retry is malformed too; the
        seq is always that of the answer last parsed.
        """
        requests = [self._request(stage, prompt) for prompt in prompts]
        results: list[tuple[T | None, int]] = []
        malformed = []
        for index, (response, seq) in enumerate(self.complete_batch(requests)):
            try:
                results.append((parse(index, response.text), seq))
            except WhollyMalformed:
                results.append((None, seq))
                malformed.append(index)
        for index in malformed:
            logger.warning(
                "%s response (transcript seq %d) wholly malformed, retrying once",
                stage,
                results[index][1],
            )
            response, seq = self.complete(requests[index])
            try:
                results[index] = (parse(index, response.text), seq)
            except WhollyMalformed:
                results[index] = (None, seq)
        return results

    def complete(self, request: LlmRequest) -> tuple[LlmResponse, int]:
        """Send a request; returns (response, transcript sequence id)."""
        return self._record(request, self._complete_raw(request))

    def complete_batch(self, requests: list[LlmRequest]) -> list[tuple[LlmResponse, int]]:
        """Send many requests, ``workers`` at a time, but log them in request order.

        Sequence ids therefore depend only on the request list, not on
        thread completion order, which keeps artifacts that embed them
        reproducible across runs. A client with a ``reserve`` method (the
        mock) is handed the whole batch first, so its answers do not depend
        on thread timing either.
        """
        if not requests:
            return []
        reserve = getattr(self.client, "reserve", None)
        if reserve is not None:
            reserve(requests)
        with ThreadPoolExecutor(max_workers=max(1, self.workers)) as pool:
            responses = list(pool.map(self._complete_raw, requests))
        return [self._record(request, response) for request, response in zip(requests, responses)]

    def _record(self, request: LlmRequest, response: LlmResponse) -> tuple[LlmResponse, int]:
        """Log the call to the transcript; returns the response as logged and its seq.

        An answer holding a lone surrogate (say, from a ``\\ud800`` JSON
        escape) in its text, ``finish_reason`` or ``usage``, which UTF-8
        cannot encode, is logged and returned with each one replaced by
        U+FFFD, with a warning. A warning also marks a reply that hit
        ``max_tokens``.
        """
        answer = [response.text, response.finish_reason, response.usage]
        clean = without_surrogates(answer)
        replaced = clean != answer
        if replaced:
            text, finish_reason, usage = clean
            response = replace(response, text=text, finish_reason=finish_reason, usage=usage)
        seq = self.transcripts.append(request, response)
        if replaced:
            logger.warning(
                "%s response (transcript seq %d) held lone surrogates, replaced with U+FFFD",
                request.stage,
                seq,
            )
        if response.finish_reason == "length":
            logger.warning(
                "%s response (transcript seq %d) stopped at max_tokens=%d; its text is cut short",
                request.stage,
                seq,
                request.max_tokens,
            )
        return response, seq

    def _complete_raw(self, request: LlmRequest) -> LlmResponse:
        last: _RetryableTransport | None = None
        for attempt in range(self.retries):
            try:
                with self.slots:
                    return self.client.send(request)
            except _RetryableTransport as exc:
                last = exc
                if attempt + 1 < self.retries:
                    logger.warning(
                        "%s: attempt %d/%d failed, retrying: %s",
                        request.stage if self.pair_id is None
                        else f"{request.stage} pair {self.pair_id}",
                        attempt + 1,
                        self.retries,
                        exc,
                    )
                    self.sleep(self.backoff_s * (2**attempt))
        assert last is not None
        if last.status == 429:
            raise RateLimited(str(last))
        raise ProviderError(f"transport failed after {self.retries} attempts: {last}")

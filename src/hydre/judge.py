"""LLM dispatch with response caching, retries, and a replay mode.

Replay mode serves every response from the cache and never touches the
network, which makes batch runs deterministic and offline-testable. Live
responses are appended to the cache so any run can be replayed later.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from json import dumps as json_dumps  # HttpSession.post's ``json`` shadows the module
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .corpus import RelationOntology
from .prompting import ParsedPrediction, parse_response

logger = logging.getLogger(__name__)

LLM_API_KEY_ENV = "HYDRE_LLM_API_KEY"
RETRY_BACKOFF_SECONDS = (1.0, 4.0, 16.0)
# fallback when the backend cannot count tokens: whitespace words x 1.3, or
# UTF-8 bytes for a word outside ASCII (count_input_tokens)
TOKEN_ESTIMATE_FACTOR = 1.3


class PromptTooLong(ValueError):
    def __init__(self, token_count: int, limit: int) -> None:
        super().__init__(
            f"prompt counts {token_count} tokens, over the {limit}-token input limit"
        )
        self.token_count = token_count
        self.limit = limit


class ReplayMiss(LookupError):
    """A prompt has no cached response in replay-only mode (fixture gap)."""

    def __init__(self, detail: str) -> None:
        super().__init__(f"replay cache miss: {detail}")


class TransportError(RuntimeError):
    """The backend could not produce a response."""


class CacheCorruption(RuntimeError):
    """Two different payloads claim the same cache key, or a cache line is
    not a record."""


@dataclass(frozen=True)
class GenerationParams:
    model_name: str = "gpt-4o"
    temperature: float = 0.0
    max_input_tokens: int = 2048
    max_output_tokens: int = 256

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_input_tokens <= 0 or self.max_output_tokens <= 0:
            raise ValueError("token limits must be positive")


def prompt_sha(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def cache_key(prompt: str, params: GenerationParams) -> str:
    payload = b"\x00".join(
        [
            prompt.encode("utf-8"),
            params.model_name.encode("utf-8"),
            repr(float(params.temperature)).encode("ascii"),
            str(params.max_output_tokens).encode("ascii"),
        ]
    )
    return hashlib.sha256(payload).hexdigest()


@dataclass
class ReplayCache:
    """Append-only response cache keyed by (prompt, model, params) hash.

    ``append`` writes a record and its newline with one unbuffered write,
    through one append handle that the first append opens and ``close``
    closes. An unterminated final line that is not valid JSON is a write
    that was cut short: ``load`` drops it with a warning, and the next
    ``append`` cuts it off the file. One that parses is a complete record
    and is kept; the next ``append`` writes the missing newline first.
    Either way no record is glued onto another.
    """

    path: Path | None = None
    entries: dict[str, str] = field(default_factory=dict)
    _shas: dict[str, str] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _torn_at: int | None = field(default=None, repr=False)
    _unterminated: bool = field(default=False, repr=False)
    _file: io.FileIO | None = field(default=None, repr=False, compare=False)

    @classmethod
    def load(cls, path: str | Path) -> "ReplayCache":
        path = Path(path)
        cache = cls(path=path)
        if not path.exists():
            return cache
        lines = path.read_bytes().split(b"\n")
        offset = 0
        for lineno, line in enumerate(lines, start=1):
            start, offset = offset, offset + len(line) + 1
            if not line.strip():
                continue
            final = lineno == len(lines)
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if final:
                    logger.warning("%s:%d: dropping torn final line", path, lineno)
                    cache._torn_at = start
                    break
                raise CacheCorruption(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not (
                isinstance(record, dict)
                and all(isinstance(record.get(f), str) for f in ("key", "prompt_sha", "response"))
            ):
                raise CacheCorruption(
                    f"{path}:{lineno}: not a record with string key, prompt_sha and response"
                )
            cache._unterminated = final
            key, sha, response = record["key"], record["prompt_sha"], record["response"]
            if key in cache.entries and (
                cache.entries[key] != response or cache._shas[key] != sha
            ):
                raise CacheCorruption(f"{path}:{lineno}: conflicting entry for key {key}")
            cache.entries[key] = response
            cache._shas[key] = sha
        return cache

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def get(self, key: str) -> str:
        return self.entries[key]

    def append(self, key: str, sha: str, response: str) -> None:
        with self._lock:
            if key in self.entries:
                if self.entries[key] != response or self._shas[key] != sha:
                    raise CacheCorruption(f"conflicting entry for key {key}")
                return
            self.entries[key] = response
            self._shas[key] = sha
            if self.path is not None:
                line = json.dumps(
                    {"key": key, "prompt_sha": sha, "response": response},
                    sort_keys=True,
                    ensure_ascii=False,
                )
                if self._file is None:
                    self._file = io.FileIO(self.path, "a")
                if self._torn_at is not None:
                    self._file.truncate(self._torn_at)
                    self._torn_at = None
                elif self._unterminated:
                    line = "\n" + line
                    self._unterminated = False
                data = memoryview((line + "\n").encode("utf-8"))
                while data:  # one write, unless the system takes part of it
                    data = data[self._file.write(data) :]

    def close(self) -> None:
        """Close the append handle; a later append opens a new one."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class MockBackend:
    """Test backend returning canned text and counting calls."""

    def __init__(
        self,
        response: str | Callable[[str], str] = "NA",
        token_counter: Callable[[str], int] | None = None,
    ) -> None:
        self.response = response
        self.calls: list[str] = []
        self._token_counter = token_counter
        if token_counter is not None:
            self.count_tokens = token_counter  # type: ignore[assignment]

    def close(self) -> None:
        """Nothing to release (``HttpChatBackend.close``)."""

    def complete(self, prompt: str, params: GenerationParams) -> str:
        self.calls.append(prompt)
        if callable(self.response):
            return self.response(prompt)
        return self.response


class FailOnDispatchBackend:
    """Asserts that no real dispatch happens (replay-only runs)."""

    def complete(self, prompt: str, params: GenerationParams) -> str:
        raise AssertionError("backend dispatch attempted in replay-only mode")


class RequestRejected(RuntimeError):
    """The endpoint refused the request itself (a 3xx, or a 4xx other than
    408 and 429). Sending it again cannot succeed, so it is not retried."""


@dataclass(frozen=True)
class HttpResponse:
    status_code: int
    content: bytes

    def raise_for_status(self) -> None:
        """TransportError for a status that may pass when tried again (5xx,
        408, 429), RequestRejected for any other status from 300 on."""
        if self.status_code < 300:
            return
        body = self.content.decode("utf-8", "replace")[:200]
        detail = f"HTTP {self.status_code}: {body}"
        if self.status_code >= 500 or self.status_code in (408, 429):
            raise TransportError(detail)
        raise RequestRejected(detail)

    def json(self):
        return json.loads(self.content)


@dataclass(frozen=True)
class _Route:
    """How posts to one (scheme, host, port) travel."""

    host: str  # where the TCP connection goes: the target or its proxy
    port: int
    tunnel: tuple[str, int] | None  # https through a proxy: CONNECT target
    absolute: bool  # http through a proxy: the request target is the whole URL
    proxy_headers: dict[str, str]


class HttpSession:
    """JSON POSTs over kept-alive stdlib connections.

    Idle connections are pooled per (scheme, host, port). A caller takes an
    idle one or opens a new one and puts it back once the whole response is
    read, so there are never more connections than concurrent callers;
    ``close`` closes the idle ones. A
    reused connection that the server has closed meanwhile fails before any
    response byte arrives; that request is sent again at once on a new
    connection. Proxies come from the environment, read once per session:
    an http request goes to its proxy in absolute form, an https one
    through a CONNECT tunnel. Certificates are checked against the system
    CA store. Redirects are not followed.
    """

    def __init__(self) -> None:
        # the HTTP stack is imported by live runs only; replay never loads it
        import urllib.request

        self._proxies = urllib.request.getproxies()
        self._routes: dict[tuple[str, str, int], _Route] = {}
        self._idle: dict[tuple[str, str, int], list] = {}
        self._lock = threading.Lock()
        self._tls = None

    def close(self) -> None:
        """Close every idle connection; a later post opens new ones."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()

    def post(self, url: str, json, headers: dict[str, str], timeout: float) -> HttpResponse:
        import http.client
        import urllib.parse

        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http(s) URL: {url!r}")
        https = parts.scheme == "https"
        key = (parts.scheme, parts.hostname, parts.port or (443 if https else 80))
        route = self._routes.get(key) or self._route(key)
        if route.absolute:
            target, headers = url, {**route.proxy_headers, **headers}
        else:
            target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        headers = {"Content-Type": "application/json", "User-Agent": "hydre", **headers}
        body = json_dumps(json).encode("utf-8")
        with self._lock:
            idle = self._idle.get(key)
            conn = idle.pop() if idle else None
        reused = conn is not None
        if conn is None:
            conn = self._connect(key, route, timeout)
        else:
            conn.timeout = timeout
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
        try:
            try:
                conn.request("POST", target, body, headers)
                response = conn.getresponse()
            except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                # a kept-alive connection closed by the server while idle
                if not reused:
                    raise
                conn.close()
                conn.request("POST", target, body, headers)
                response = conn.getresponse()
            content = response.read()
        except BaseException:
            conn.close()
            raise
        with self._lock:
            self._idle.setdefault(key, []).append(conn)
        return HttpResponse(response.status, content)

    def _route(self, key: tuple[str, str, int]) -> _Route:
        import base64
        import urllib.parse
        import urllib.request

        scheme, host, port = key
        proxy = self._proxies.get(scheme) or self._proxies.get("all")
        if not proxy or urllib.request.proxy_bypass(host):
            route = _Route(host, port, None, False, {})
        else:
            p = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            auth = {}
            if p.username is not None:
                user = urllib.parse.unquote(p.username)
                password = urllib.parse.unquote(p.password or "")
                token = base64.b64encode(f"{user}:{password}".encode()).decode()
                auth["Proxy-Authorization"] = f"Basic {token}"
            https = scheme == "https"
            route = _Route(
                p.hostname, p.port or 80, (host, port) if https else None, not https, auth
            )
        self._routes[key] = route
        return route

    def _connect(self, key: tuple[str, str, int], route: _Route, timeout: float):
        import http.client

        if key[0] == "https":
            if self._tls is None:
                import ssl

                self._tls = ssl.create_default_context()
            conn = http.client.HTTPSConnection(
                route.host, route.port, timeout=timeout, context=self._tls
            )
        else:
            conn = http.client.HTTPConnection(route.host, route.port, timeout=timeout)
        if route.tunnel is not None:
            conn.set_tunnel(*route.tunnel, headers=route.proxy_headers)
        return conn


class HttpChatBackend:
    """Chat-completion HTTP backend.

    Posts {"model", "messages", "temperature", "max_tokens"} and reads
    choices[0].message.content. The bearer token comes from the
    HYDRE_LLM_API_KEY environment variable. A rejected request
    (``HttpResponse.raise_for_status``) raises RequestRejected, which is
    not retried; every other failure is a TransportError.
    """

    def __init__(self, endpoint: str, session=None, timeout: float = 120.0) -> None:
        if session is None:
            session = HttpSession()
        self.endpoint = endpoint
        self.session = session
        self.timeout = timeout

    def close(self) -> None:
        """Close the session's idle connections (``HttpSession.close``)."""
        self.session.close()

    def complete(self, prompt: str, params: GenerationParams) -> str:
        headers = {}
        token = os.environ.get(LLM_API_KEY_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = {
            "model": params.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": params.temperature,
            "max_tokens": params.max_output_tokens,
        }
        try:
            response = self.session.post(
                self.endpoint, json=body, headers=headers, timeout=self.timeout
            )
            response.raise_for_status()
            payload = response.json()
            return payload["choices"][0]["message"]["content"]
        except RequestRejected:
            raise
        except Exception as exc:
            raise TransportError(str(exc)) from exc


def count_input_tokens(prompt: str, backend=None) -> int:
    """Backend-reported token count when available, else a conservative
    estimate: 1.3 tokens per whitespace word, except that a word outside
    ASCII counts its UTF-8 bytes. A byte-level BPE spends several tokens
    per word in scripts such as Odia or Kannada, but never more tokens than
    bytes, so the estimate of such a prompt never falls short."""
    if backend is not None and hasattr(backend, "count_tokens"):
        return int(backend.count_tokens(prompt))
    words = prompt.split()
    if prompt.isascii():
        return math.ceil(len(words) * TOKEN_ESTIMATE_FACTOR)
    wide = [w for w in words if not w.isascii()]
    return math.ceil((len(words) - len(wide)) * TOKEN_ESTIMATE_FACTOR) + sum(
        len(w.encode("utf-8", "surrogatepass")) for w in wide
    )


def generate(
    prompt: str,
    params: GenerationParams,
    backend=None,
    *,
    cache: ReplayCache | None = None,
    mode: str = "live",
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """Produce a response for one prompt.

    The cache is consulted first in every mode. Replay mode raises
    ReplayMiss on an uncached prompt instead of dispatching. Live dispatch
    retries transient transport failures with 1s/4s/16s backoff (a
    RequestRejected fails at once) and appends successful responses to the
    cache.
    """
    if not prompt:
        raise ValueError("empty prompt")
    if mode not in ("live", "replay"):
        raise ValueError(f"unknown mode {mode!r}")
    tokens = count_input_tokens(prompt, backend)
    if tokens > params.max_input_tokens:
        raise PromptTooLong(tokens, params.max_input_tokens)
    key = cache_key(prompt, params)
    if cache is not None and key in cache:
        return cache.get(key)
    if mode == "replay":
        raise ReplayMiss(f"key {key} (prompt sha {prompt_sha(prompt)})")
    if backend is None:
        raise ValueError("live mode requires a backend")
    for backoff in RETRY_BACKOFF_SECONDS + (None,):
        try:
            response = backend.complete(prompt, params)
            break
        except TransportError as exc:
            if backoff is None:
                raise TransportError(f"dispatch failed after retries: {exc}") from None
            logger.warning("dispatch failed (%s); retrying in %ss", exc, backoff)
            sleep(backoff)
    if cache is not None:
        cache.append(key, prompt_sha(prompt), response)
    return response


@dataclass(frozen=True)
class BatchResult:
    query_id: str
    prediction: ParsedPrediction
    response: str | None
    error: str | None = None


def _answered(fn: Callable, *args) -> Future:
    """``fn(*args)``, called now on this thread, as a finished future."""
    future: Future = Future()
    future.set_result(fn(*args))
    return future


def run_passes(
    passes: Iterable[Sequence[tuple[str, str]]],
    ontology: RelationOntology,
    params: GenerationParams,
    backend=None,
    *,
    cache: ReplayCache | None = None,
    mode: str = "live",
    parallelism: int = 1,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[list[BatchResult]]:
    """Generate and parse every (query_id, prompt) of each pass; yield each
    pass's results, in input order, once all of its prompts are answered.

    ``generate`` runs once per distinct cache key per call, and every query
    whose prompt has that key shares its outcome, error included. A query
    that fails permanently gets an NA prediction carrying the error
    message; the passes never abort for it. At ``parallelism`` 1 each pass
    is answered on the calling thread before the next is taken. Above it,
    one pool of ``parallelism`` threads answers every pass, and the next
    pass is taken from ``passes`` while the earlier ones are in flight, so
    a lazy ``passes`` renders it meanwhile. An exception ``passes`` raises
    is raised once every earlier pass has been yielded. A BaseException
    from a call (KeyboardInterrupt) starts no further call and is raised;
    closing the iterator cancels every call not yet started.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    interrupt: list[BaseException] = []

    def answer(prompt: str) -> tuple[ParsedPrediction, str | None, str | None]:
        # the caller reads an interrupted call's result only when its pass
        # is due, so the calls queued meanwhile stop here instead
        if interrupt:
            raise interrupt[0]
        try:
            response = generate(
                prompt, params, backend, cache=cache, mode=mode, sleep=sleep
            )
        except Exception as exc:
            return ParsedPrediction(frozenset()), None, f"{type(exc).__name__}: {exc}"
        except BaseException as exc:
            interrupt.append(exc)
            raise
        return parse_response(response, ontology), response, None

    def results(queued: list[tuple[str, Future]]) -> list[BatchResult]:
        return [BatchResult(query_id, *flight.result()) for query_id, flight in queued]

    pool = ThreadPoolExecutor(parallelism) if parallelism > 1 else None
    submit = pool.submit if pool is not None else _answered
    flights: dict[str, Future] = {}
    pending: deque[list[tuple[str, Future]]] = deque()
    fault: Exception | None = None
    passes = iter(passes)
    try:
        while True:
            try:
                prompts = next(passes, None)
            except Exception as exc:
                prompts, fault = None, exc
            if prompts is None:
                break
            queued = []
            for query_id, prompt in prompts:
                key = cache_key(prompt, params)
                if key not in flights:
                    flights[key] = submit(answer, prompt)
                queued.append((query_id, flights[key]))
            pending.append(queued)
            while pending and all(flight.done() for _, flight in pending[0]):
                yield results(pending.popleft())
        while pending:
            yield results(pending.popleft())
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if fault is not None:
        raise fault


def run_batch(
    prompts: Sequence[tuple[str, str]],
    ontology: RelationOntology,
    params: GenerationParams,
    backend=None,
    **options,
) -> list[BatchResult]:
    """Generate and parse every (query_id, prompt), preserving input order:
    ``run_passes`` (which takes the same keyword ``options``) of one pass,
    so a prompt repeated in the batch is sent once and its queries share
    the outcome."""
    [batch] = run_passes([prompts], ontology, params, backend, **options)
    return batch

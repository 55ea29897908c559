from __future__ import annotations

import json
import re
import sys
import threading
import time

import pytest

from hydre.judge import (
    CacheCorruption,
    FailOnDispatchBackend,
    GenerationParams,
    HttpChatBackend,
    HttpResponse,
    MockBackend,
    PromptTooLong,
    ReplayCache,
    ReplayMiss,
    RequestRejected,
    TransportError,
    cache_key,
    count_input_tokens,
    generate,
    prompt_sha,
    run_batch,
    run_passes,
)

from conftest import ontology_from_names

PARAMS = GenerationParams(model_name="test-model")


def no_sleep(_):
    pass


# ------------------------------------------------------------------- params


def test_generation_params_defaults():
    params = GenerationParams()
    assert params.temperature == 0.0
    assert params.max_input_tokens == 2048
    assert params.max_output_tokens == 256


def test_generation_params_validation():
    with pytest.raises(ValueError):
        GenerationParams(temperature=-0.1)
    with pytest.raises(ValueError):
        GenerationParams(max_input_tokens=0)
    with pytest.raises(ValueError):
        GenerationParams(max_output_tokens=0)


# ------------------------------------------------------------------ caching


def test_cache_key_depends_on_params():
    base = cache_key("prompt", PARAMS)
    assert base == cache_key("prompt", PARAMS)
    assert base != cache_key("prompt2", PARAMS)
    assert base != cache_key("prompt", GenerationParams(model_name="other"))
    assert base != cache_key(
        "prompt", GenerationParams(model_name="test-model", temperature=0.5)
    )
    assert base != cache_key(
        "prompt", GenerationParams(model_name="test-model", max_output_tokens=99)
    )
    # input cap is not part of the generation identity
    assert base == cache_key(
        "prompt", GenerationParams(model_name="test-model", max_input_tokens=512)
    )


def test_cache_round_trip_single_backend_call(tmp_path):
    backend = MockBackend("the answer")
    cache = ReplayCache(path=tmp_path / "cache.jsonl")
    first = generate("a prompt", PARAMS, backend, cache=cache, sleep=no_sleep)
    second = generate("a prompt", PARAMS, backend, cache=cache, sleep=no_sleep)
    assert first == second == "the answer"
    assert len(backend.calls) == 1
    reloaded = ReplayCache.load(tmp_path / "cache.jsonl")
    assert reloaded.get(cache_key("a prompt", PARAMS)) == "the answer"


def test_cached_prompt_needs_no_network():
    cache = ReplayCache()
    cache.append(cache_key("p", PARAMS), prompt_sha("p"), "cached!")
    got = generate("p", PARAMS, FailOnDispatchBackend(), cache=cache, sleep=no_sleep)
    assert got == "cached!"


def test_replay_miss_on_uncached_prompt():
    with pytest.raises(ReplayMiss):
        generate("p", PARAMS, None, cache=ReplayCache(), mode="replay", sleep=no_sleep)


def test_mock_backend_appends_cache_entry(tmp_path):
    backend = MockBackend("fixed text")
    cache = ReplayCache(path=tmp_path / "cache.jsonl")
    got = generate("p", PARAMS, backend, cache=cache, sleep=no_sleep)
    assert got == "fixed text"
    assert backend.calls == ["p"]
    lines = (tmp_path / "cache.jsonl").read_text().strip().splitlines()
    record = json.loads(lines[0])
    assert record["key"] == cache_key("p", PARAMS)
    assert record["prompt_sha"] == prompt_sha("p")
    assert record["response"] == "fixed text"


def test_cache_collision_is_fatal():
    cache = ReplayCache()
    key = cache_key("p", PARAMS)
    cache.append(key, prompt_sha("p"), "one")
    cache.append(key, prompt_sha("p"), "one")  # identical re-append is a no-op
    with pytest.raises(CacheCorruption):
        cache.append(key, prompt_sha("p"), "two")


def test_cache_load_detects_conflicts(tmp_path):
    path = tmp_path / "cache.jsonl"
    entry = {"key": "k1", "prompt_sha": "s1", "response": "a"}
    conflict = {"key": "k1", "prompt_sha": "s1", "response": "b"}
    path.write_text(json.dumps(entry) + "\n" + json.dumps(conflict) + "\n")
    with pytest.raises(CacheCorruption):
        ReplayCache.load(path)


def test_cache_torn_final_line_dropped_then_append_repairs(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    cache = ReplayCache(path=path)
    cache.append("k1", "s1", "first")
    cache.append("k2", "s2", "second")
    data = path.read_bytes()
    path.write_bytes(data[:-10])  # a write cut short mid-record
    with caplog.at_level("WARNING"):
        torn = ReplayCache.load(path)
    assert "torn final line" in caplog.text
    assert torn.entries == {"k1": "first"}
    torn.append("k3", "s3", "third")
    reloaded = ReplayCache.load(path)
    assert reloaded.entries == {"k1": "first", "k3": "third"}
    assert path.read_text().endswith("\n")


def test_cache_valid_final_line_without_newline_kept(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    first = {"key": "k1", "prompt_sha": "s1", "response": "first"}
    last = {"key": "k2", "prompt_sha": "s2", "response": "second"}
    path.write_text(json.dumps(first) + "\n" + json.dumps(last))
    with caplog.at_level("WARNING"):
        cache = ReplayCache.load(path)
    assert "torn" not in caplog.text
    assert cache.entries == {"k1": "first", "k2": "second"}
    cache.append("k3", "s3", "third")
    reloaded = ReplayCache.load(path)
    assert reloaded.entries == {"k1": "first", "k2": "second", "k3": "third"}
    assert path.read_text().endswith("\n")


def test_cache_bad_line_mid_file_still_raises(tmp_path):
    path = tmp_path / "cache.jsonl"
    entry = {"key": "k1", "prompt_sha": "s1", "response": "a"}
    path.write_text('{"key": "k0", "prom\n' + json.dumps(entry) + "\n")
    with pytest.raises(CacheCorruption, match=":1:"):
        ReplayCache.load(path)


def test_cache_final_line_torn_inside_a_character_dropped_then_append_repairs(
    tmp_path, caplog
):
    """A write cut after the first byte of an Ol Chiki letter leaves a final
    line that is not UTF-8; it is a torn line like any other."""
    path = tmp_path / "cache.jsonl"
    cache = ReplayCache(path=path)
    cache.append("k1", "s1", "first")
    cache.append("k2", "s2", "\u1c5a\u1c5f")
    cache.close()
    data = path.read_bytes()
    cut = data.index("\u1c5a".encode("utf-8")) + 1
    path.write_bytes(data[:cut])
    with caplog.at_level("WARNING"):
        torn = ReplayCache.load(path)
    assert "torn final line" in caplog.text
    assert torn.entries == {"k1": "first"}
    torn.append("k3", "s3", "third")
    torn.close()
    assert ReplayCache.load(path).entries == {"k1": "first", "k3": "third"}
    repaired = path.read_bytes()
    assert repaired.startswith(data[: data.index(b"\n") + 1])
    assert repaired.count(b"\n") == 2
    assert b"\xe1" not in repaired  # the torn byte is cut off


def test_cache_line_with_an_invalid_byte_mid_file_raises_naming_its_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    entry = json.dumps({"key": "k1", "prompt_sha": "s1", "response": "a"})
    bad = b'{"key": "k2", "prompt_sha": "s2", "response": "caf\xe9"}'
    path.write_bytes(entry.encode() + b"\n" + bad + b"\n" + entry.encode() + b"\n")
    with pytest.raises(CacheCorruption, match=re.escape(f"{path}:2: invalid JSON")):
        ReplayCache.load(path)


@pytest.mark.parametrize(
    "line",
    ["[1, 2]", '{"key": "a"}', '{"key": "a", "prompt_sha": "s", "response": 5}'],
)
@pytest.mark.parametrize("final", [False, True])
def test_cache_line_that_is_not_a_record_raises_naming_its_line(tmp_path, line, final):
    """A line that parses but is not an object with string ``key``,
    ``prompt_sha`` and ``response`` is corruption, mid-file or final (an
    unterminated final line that parses is a complete line, not a torn one)."""
    path = tmp_path / "cache.jsonl"
    entry = {"key": "k1", "prompt_sha": "s1", "response": "a"}
    path.write_text(json.dumps(entry) + "\n" + line + ("" if final else "\n" + json.dumps(entry)))
    with pytest.raises(CacheCorruption, match=re.escape(f"{path}:2: not a record")):
        ReplayCache.load(path)


# ------------------------------------------------------------- token limits


def test_prompt_too_long_via_estimate():
    prompt = " ".join(["word"] * 100)  # estimate: ceil(100 * 1.3) = 130
    params = GenerationParams(model_name="m", max_input_tokens=129)
    with pytest.raises(PromptTooLong) as err:
        generate(prompt, params, MockBackend(), sleep=no_sleep)
    assert err.value.token_count == 130
    assert err.value.limit == 129
    # just under the cap goes through
    ok = GenerationParams(model_name="m", max_input_tokens=130)
    assert generate(prompt, ok, MockBackend("fine"), sleep=no_sleep) == "fine"


def test_backend_token_count_preferred():
    backend = MockBackend("fine", token_counter=lambda p: 5000)
    with pytest.raises(PromptTooLong) as err:
        generate("tiny prompt", PARAMS, backend, sleep=no_sleep)
    assert err.value.token_count == 5000
    assert backend.calls == []  # rejected before dispatch


def test_count_input_tokens_fallback():
    assert count_input_tokens("one two three") == 4  # ceil(3 * 1.3)


# "Odia" in Odia script: five code points, 15 UTF-8 bytes
ODIA_WORD = "\u0b13\u0b21\u0b3c\u0b3f\u0b06"


def test_count_input_tokens_counts_the_bytes_of_words_outside_ascii():
    assert len(ODIA_WORD.encode("utf-8")) == 15
    assert count_input_tokens(f"{ODIA_WORD} {ODIA_WORD}") == 30
    # ASCII words beside them keep 1.3 tokens each
    assert count_input_tokens(f"one two three {ODIA_WORD}") == 4 + 15


def test_an_odia_prompt_the_word_estimate_passed_is_too_long():
    """100 Odia words: 130 tokens by the word estimate, which a 130-token
    limit passed; byte-level BPE may spend up to 1,500 on them."""
    prompt = " ".join([ODIA_WORD] * 100)
    params = GenerationParams(model_name="m", max_input_tokens=130)
    with pytest.raises(PromptTooLong) as err:
        generate(prompt, params, MockBackend("fine"), sleep=no_sleep)
    assert err.value.token_count == 1500


def test_empty_prompt_rejected():
    with pytest.raises(ValueError, match="empty"):
        generate("", PARAMS, MockBackend(), sleep=no_sleep)


# ------------------------------------------------------------------ retries


class FlakyBackend:
    def __init__(self, fail_times, response="ok"):
        self.fail_times = fail_times
        self.response = response
        self.calls = 0

    def complete(self, prompt, params):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise TransportError("transient")
        return self.response


def test_retry_then_success():
    backend = FlakyBackend(fail_times=2)
    sleeps = []
    got = generate("p", PARAMS, backend, sleep=sleeps.append)
    assert got == "ok"
    assert backend.calls == 3
    assert sleeps == [1.0, 4.0]


def test_retry_exhaustion_surfaces():
    backend = FlakyBackend(fail_times=99)
    sleeps = []
    with pytest.raises(TransportError, match="after retries"):
        generate("p", PARAMS, backend, sleep=sleeps.append)
    assert backend.calls == 4  # initial try + three retries
    assert sleeps == [1.0, 4.0, 16.0]


# --------------------------------------------------------------- run_batch


def ontology():
    return ontology_from_names(["rel_a", "rel_b"])


def test_run_batch_preserves_order_and_cardinality():
    backend = MockBackend(lambda prompt: prompt.split("|")[-1])
    prompts = [(f"q{i:02d}", f"prompt|rel_a") for i in range(10)]
    results = run_batch(
        prompts, ontology(), PARAMS, backend, parallelism=4, sleep=no_sleep
    )
    assert [r.query_id for r in results] == [q for q, _ in prompts]
    assert all(r.prediction.relations == {"rel_a"} for r in results)
    assert len(results) == 10


def test_run_batch_failure_becomes_na_with_note():
    def explode(prompt):
        if "q03" in prompt:
            raise TransportError("permanently down")
        return "rel_b"

    class Exploding:
        def complete(self, prompt, params):
            return explode(prompt)

    prompts = [(f"q{i:02d}", f"prompt for q{i:02d}") for i in range(5)]
    results = run_batch(
        prompts, ontology(), PARAMS, Exploding(), parallelism=2, sleep=no_sleep
    )
    failed = results[3]
    assert failed.query_id == "q03"
    assert failed.prediction.relations == frozenset()
    assert failed.error is not None and "TransportError" in failed.error
    others = [r for i, r in enumerate(results) if i != 3]
    assert all(r.error is None for r in others)
    assert all(r.prediction.relations == {"rel_b"} for r in others)


class SlowAlternating:
    """Sleeps 50 ms per call, then answers rel_a and rel_b in turn."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt, params):
        with self._lock:
            self.calls += 1
            answer = ("rel_a", "rel_b")[(self.calls - 1) % 2]
        time.sleep(0.05)
        return answer


@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_run_batch_sends_a_repeated_prompt_once(tmp_path, parallelism):
    """Two queries with one prompt: one backend call, one shared outcome.
    Two concurrent calls would cache two answers for one key, and the
    second would come back as a CacheCorruption NA."""
    backend = SlowAlternating()
    results = run_batch(
        [("q1", "same prompt"), ("q2", "same prompt")],
        ontology(),
        PARAMS,
        backend,
        cache=ReplayCache(path=tmp_path / "cache.jsonl"),
        parallelism=parallelism,
        sleep=no_sleep,
    )
    assert backend.calls == 1
    assert [r.query_id for r in results] == ["q1", "q2"]
    assert [r.response for r in results] == ["rel_a", "rel_a"]
    assert [r.error for r in results] == [None, None]
    assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 1


def test_run_passes_shares_a_failure_across_passes():
    backend = FlakyBackend(fail_times=99)
    passes = [[("q1", "p"), ("q2", "other")], [("q1", "p")]]
    first, second = run_passes(
        passes, ontology(), PARAMS, backend, parallelism=2, sleep=no_sleep
    )
    assert backend.calls == 8  # two prompts, each tried four times
    assert second[0] == first[0]
    assert "TransportError" in second[0].error


def test_run_passes_takes_the_next_pass_while_one_is_in_flight():
    """At parallelism 2 the second pass is taken before the first pass's
    calls return; each pass still comes back whole and in query order."""
    second_taken = threading.Event()
    returned_before_second_taken = []

    def respond(prompt):
        if not second_taken.wait(timeout=5):
            returned_before_second_taken.append(prompt)
        return "rel_a" if prompt.endswith("a") else "rel_b"

    def passes():
        yield [("q1", "one a"), ("q2", "one b")]
        second_taken.set()
        yield [("q1", "two b"), ("q2", "one b")]

    backend = MockBackend(respond)
    answered = list(
        run_passes(passes(), ontology(), PARAMS, backend, parallelism=2, sleep=no_sleep)
    )
    assert returned_before_second_taken == []
    assert [[(r.query_id, r.response) for r in batch] for batch in answered] == [
        [("q1", "rel_a"), ("q2", "rel_b")],
        [("q1", "rel_b"), ("q2", "rel_b")],
    ]
    assert sorted(backend.calls) == ["one a", "one b", "two b"]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_passes_raises_a_pass_fault_after_the_earlier_passes(parallelism):
    def passes():
        yield [("q1", "one")]
        yield [("q1", "two")]
        raise LookupError("pass 3 cannot be made")

    answered = run_passes(
        passes(), ontology(), PARAMS, MockBackend("rel_a"), parallelism=parallelism
    )
    assert [batch[0].query_id for batch in (next(answered), next(answered))] == ["q1"] * 2
    with pytest.raises(LookupError, match="pass 3"):
        next(answered)


@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_run_passes_interrupt_starts_no_queued_call(parallelism):
    class Interrupting:
        def __init__(self):
            self.calls = 0
            self._lock = threading.Lock()

        def complete(self, prompt, params):
            with self._lock:
                self.calls += 1
                call = self.calls
            time.sleep(0.005)
            if call == 3:
                raise KeyboardInterrupt
            return "rel_a"

    backend = Interrupting()
    passes = [[(f"q{i}", f"pass {k} prompt {i}") for i in range(8)] for k in range(4)]
    with pytest.raises(KeyboardInterrupt):
        for _ in run_passes(
            passes, ontology(), PARAMS, backend, parallelism=parallelism, sleep=no_sleep
        ):
            pass
    assert backend.calls <= 3 + parallelism


def test_run_passes_closed_early_cancels_queued_prompts():
    backend = MockBackend(lambda prompt: time.sleep(0.005) or "rel_a")
    passes = [[(f"q{i}", f"pass {k} prompt {i}") for i in range(8)] for k in range(4)]
    answered = run_passes(passes, ontology(), PARAMS, backend, parallelism=2)
    assert len(next(answered)) == 8
    answered.close()
    assert len(backend.calls) <= 8 + 2 * 2


def test_run_passes_stress_one_call_per_distinct_prompt(tmp_path):
    """Eight workers on two cores with a short switch interval: every
    distinct prompt is sent once and cached once, and every query of every
    pass gets its prompt's answer."""
    backend = MockBackend(lambda prompt: prompt.split("|")[-1])
    passes = [
        [(f"q{i}", f"prompt {(i * k) % 17}|rel_{'ab'[i % 2]}") for i in range(40)]
        for k in range(1, 9)
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        answered = list(
            run_passes(
                passes,
                ontology(),
                PARAMS,
                backend,
                cache=ReplayCache(path=tmp_path / "cache.jsonl"),
                parallelism=8,
            )
        )
    finally:
        sys.setswitchinterval(switch)
    distinct = {prompt for batch in passes for _, prompt in batch}
    assert sorted(backend.calls) == sorted(distinct)
    assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == len(distinct)
    for batch, results in zip(passes, answered):
        assert [r.query_id for r in results] == [q for q, _ in batch]
        assert [r.error for r in results] == [None] * len(batch)
        assert [r.response for r in results] == [p.split("|")[-1] for _, p in batch]


def test_run_batch_replay_deterministic(tmp_path):
    params = PARAMS
    prompts = [(f"q{i}", f"prompt {i}") for i in range(6)]
    cache = ReplayCache(path=tmp_path / "cache.jsonl")
    for _, prompt in prompts:
        cache.append(cache_key(prompt, params), prompt_sha(prompt), "rel_a")

    def run_once():
        results = run_batch(
            prompts,
            ontology(),
            params,
            FailOnDispatchBackend(),
            cache=ReplayCache.load(tmp_path / "cache.jsonl"),
            mode="replay",
            parallelism=3,
            sleep=no_sleep,
        )
        return json.dumps(
            [[r.query_id, sorted(r.prediction.relations), r.response] for r in results]
        )

    assert run_once() == run_once()


def test_http_backend_request_shape():
    class FakeResponse:
        status_code = 200

        def raise_for_status(self):
            pass

        def json(self):
            return {"choices": [{"message": {"content": "rel_a"}}]}

    class FakeSession:
        def __init__(self):
            self.posts = []

        def post(self, url, json=None, headers=None, timeout=None):
            self.posts.append((url, json, headers))
            return FakeResponse()

    session = FakeSession()
    backend = HttpChatBackend("http://example.invalid/v1/chat", session=session)
    got = backend.complete("the prompt", PARAMS)
    assert got == "rel_a"
    url, body, headers = session.posts[0]
    assert url == "http://example.invalid/v1/chat"
    assert body == {
        "model": "test-model",
        "messages": [{"role": "user", "content": "the prompt"}],
        "temperature": 0.0,
        "max_tokens": 256,
    }
    assert "Authorization" not in headers  # no env token set


def test_http_backend_bearer_token(monkeypatch):
    monkeypatch.setenv("HYDRE_LLM_API_KEY", "llm-token")

    class FakeResponse:
        def raise_for_status(self):
            pass

        def json(self):
            return {"choices": [{"message": {"content": "NA"}}]}

    class FakeSession:
        def __init__(self):
            self.headers_seen = None

        def post(self, url, json=None, headers=None, timeout=None):
            self.headers_seen = headers
            return FakeResponse()

    session = FakeSession()
    backend = HttpChatBackend("http://example.invalid/v1/chat", session=session)
    backend.complete("p", PARAMS)
    assert session.headers_seen["Authorization"] == "Bearer llm-token"


def test_http_backend_wraps_failures():
    class BrokenSession:
        def post(self, *args, **kwargs):
            raise OSError("connection refused")

    backend = HttpChatBackend("http://example.invalid", session=BrokenSession())
    with pytest.raises(TransportError):
        backend.complete("p", PARAMS)


class StatusSession:
    """Answers every post with one status and body, counting the posts."""

    def __init__(self, status, body):
        self.response = HttpResponse(status, body.encode("utf-8"))
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        return self.response


def dispatch_once(session):
    """One live prompt through run_batch; the result and the backoff slept."""
    sleeps = []
    backend = HttpChatBackend("http://example.invalid/v1/chat", session=session)
    [result] = run_batch(
        [("q01", "prompt")], ontology(), PARAMS, backend, sleep=sleeps.append
    )
    return result, sleeps


@pytest.mark.parametrize("status", [301, 400, 401, 403, 404, 422])
def test_rejected_request_fails_at_once_naming_status_and_body(status):
    body = '{"error": "' + "x" * 300 + '"}'
    session = StatusSession(status, body)
    result, sleeps = dispatch_once(session)
    assert session.posts == 1
    assert sleeps == []
    assert result.response is None
    assert result.prediction.relations == frozenset()
    assert result.error == f"RequestRejected: HTTP {status}: {body[:200]}"


@pytest.mark.parametrize("status", [408, 429, 500, 502, 503])
def test_transient_status_keeps_the_backoff(status):
    session = StatusSession(status, "try later")
    result, sleeps = dispatch_once(session)
    assert session.posts == 4
    assert sleeps == [1.0, 4.0, 16.0]
    assert result.error == (
        f"TransportError: dispatch failed after retries: HTTP {status}: try later"
    )


def test_socket_error_keeps_the_backoff():
    class RefusingSession:
        posts = 0

        def post(self, *args, **kwargs):
            self.posts += 1
            raise ConnectionRefusedError("connection refused")

    session = RefusingSession()
    result, sleeps = dispatch_once(session)
    assert session.posts == 4
    assert sleeps == [1.0, 4.0, 16.0]
    assert result.error.startswith("TransportError: dispatch failed after retries")


@pytest.mark.parametrize("content", [None, [{"type": "text", "text": "rel_a"}]])
def test_reply_without_text_content_is_retried_and_never_cached(tmp_path, content):
    """A chat reply whose message content is not a string (null for a
    refusal or a tool call) is a transport error: retried, never cached, and
    the query's error prediction once the retries run out."""
    path = tmp_path / "cache.jsonl"
    cache = ReplayCache.load(path)
    session = StatusSession(200, json.dumps({"choices": [{"message": {"content": content}}]}))
    backend = HttpChatBackend("http://example.invalid/v1/chat", session=session)
    sleeps = []
    [result] = run_batch(
        [("q01", "prompt")], ontology(), PARAMS, backend, cache=cache, sleep=sleeps.append
    )
    cache.close()
    assert session.posts == 4
    assert sleeps == [1.0, 4.0, 16.0]
    assert result.response is None
    assert result.prediction.relations == frozenset()
    assert result.error == (
        "TransportError: dispatch failed after retries: "
        f"message content is {content!r}, not text"
    )
    assert not path.exists() or path.read_bytes() == b""
    assert ReplayCache.load(path).entries == {}


def test_rejected_request_is_not_cached(tmp_path):
    cache = ReplayCache.load(tmp_path / "cache.jsonl")
    backend = HttpChatBackend(
        "http://example.invalid/v1/chat", session=StatusSession(400, "bad model")
    )
    with pytest.raises(RequestRejected, match="HTTP 400: bad model"):
        generate("p", PARAMS, backend, cache=cache, sleep=no_sleep)
    assert not (tmp_path / "cache.jsonl").exists()

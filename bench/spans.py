"""Spans recorded from outside the program, by wrapping its public functions.

Each wrapper is installed in the namespace where the caller looks the
function up: ``cli`` imports ``build_exemplar_set`` by name, so the wrapper
replaces ``hydre.cli.build_exemplar_set``; ``select_bag`` is called from
inside ``selection``, so the wrapper replaces ``hydre.selection.select_bag``.
Class methods are wrapped on the class. Nothing finer than once per
candidate is wrapped: per-bag helpers such as ``combined_bag_score`` run
about a thousand times per query and would swamp the trace.

A span is (layer, start, end, parent, query_id, count, error). Spans stay in
memory and are written out once, when the repetition ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path


class Tracer:
    """Collects spans; a per-thread stack gives each span its parent.

    A thread with an empty stack (a judge worker thread) parents its spans
    to the command span open on the main thread.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.command_span: int | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current_layer(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]]["layer"] if stack else None

    def open(self, layer: str, query_id: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.command_span
        if query_id is None and parent is not None:
            query_id = self.spans[parent]["query_id"]
        span = {"layer": layer, "start": time.perf_counter(), "end": None,
                "parent": parent, "query_id": query_id, "count": None, "error": None}
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, count: float | None = None, error: str | None = None) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["count"] = count
        span["error"] = error
        self._stack().pop()

    def wrap(self, owner, name: str, layer: str, query_id=None, count=None, classmethod_=False) -> None:
        """Replace ``owner.name`` with a span-recording wrapper.

        ``query_id(args)`` names the query; ``count(args, result)`` stores a
        number on the span (work done, or a value such as a token count).
        """
        original = getattr(owner, name)
        func = original.__func__ if classmethod_ else original
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = tracer.open(layer, query_id(args) if query_id else None)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, error=type(exc).__name__)
                raise
            tracer.close(index, count(args, result) if count else None)
            return result

        setattr(owner, name, classmethod(wrapper) if classmethod_ else wrapper)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from hydre import cli, judge, selection
    from hydre.corpus import Corpus
    from hydre.judge import HttpChatBackend, ReplayCache
    from hydre.providers import EmbeddingIndex, ScoreMatrix

    first = lambda args: args[0]  # noqa: E731 (q_id is the first argument)
    tracer.wrap(Corpus, "load", "corpus.load", classmethod_=True)
    tracer.wrap(ScoreMatrix, "load", "providers.scores_load", classmethod_=True)
    tracer.wrap(EmbeddingIndex, "load", "providers.embeddings_load", classmethod_=True)
    tracer.wrap(ReplayCache, "load", "judge.cache_load", classmethod_=True)
    tracer.wrap(ReplayCache, "append", "judge.cache_append")
    tracer.wrap(HttpChatBackend, "complete", "judge.dispatch")

    tracer.wrap(cli, "build_exemplar_set", "selection.query", query_id=first)
    tracer.wrap(selection, "select_candidates", "selection.stage1", query_id=first)
    # select_bag(q_id, relation, corpus, ...): bags scored = bags carrying the relation
    tracer.wrap(selection, "select_bag", "selection.stage2", query_id=first,
                count=lambda args, _: len(args[2].bags_by_relation.get(args[1], ())))
    tracer.wrap(selection, "select_sentence", "selection.stage3")

    tracer.wrap(cli, "flatten", "baselines.flatten")
    tracer.wrap(cli, "topk_sim", "baselines.topk_sim", query_id=first)
    tracer.wrap(cli, "mmr_select", "baselines.mmr", query_id=first)

    tracer.wrap(cli, "render_prompt", "prompting.render", query_id=lambda args: args[0].query_id)
    tracer.wrap(judge, "parse_response", "prompting.parse")
    tracer.wrap(judge, "count_input_tokens", "prompting.prompt_tokens",
                count=lambda _, result: result)
    tracer.wrap(judge, "generate", "judge.generate")

    tracer.wrap(cli, "score", "evaluation.score")
    tracer.wrap(cli, "recall_at_k", "evaluation.recall_at_k")
    tracer.wrap(cli, "confusion_pairs", "evaluation.confusion_pairs")


# ---------------------------------------------------------------- analysis


def load_spans(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> list[float]:
    """Duration minus the part of the interval its child spans cover.

    Children on judge worker threads overlap each other, so the covered part
    is the length of the union of the child intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        result.append(span["end"] - span["start"] - covered)
    return result

"""Configuration-driven experiment driver.

Commands: validate, select, run, eval. Configuration lives in a JSON file;
command-line flags override file values, which override built-in defaults.
Every output directory gets a metadata record sufficient to reproduce the
run; replay-mode pipelines are fully deterministic and offline.

Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import json
import math
import os
import sys
import urllib.parse
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .baselines import (
    DEFAULT_MMR_ALPHA,
    DEFAULT_MMR_POOL_SIZE,
    flat_retrieval,
    flatten,
    mmr_select,
    random_bag_sentence,
    random_k,
    topk_sim,
)
from .corpus import (
    Corpus,
    CorpusError,
    QueryInstance,
    _field,
    _is_names,
    _is_str,
    atomic_write,
    file_sha256,
    iter_jsonl,
    jsonl_line,
    write_jsonl,
)
from .evaluation import (
    FactSet,
    confusion_pairs,
    mcnemar,
    pair_reports,
    recall_at_k,  # noqa: F401 (bench/spans.py wraps cli.recall_at_k by name)
    recall_curve,
    score,
)
from .judge import (
    BatchResult,
    FailOnDispatchBackend,
    GenerationParams,
    HttpChatBackend,
    LLM_API_KEY_ENV,
    ReplayCache,
    ReplayMiss,
    cache_key,
    run_passes,
)
from .prompting import PromptTemplate, render_prompt
from .providers import EmbeddingIndex, ProviderError, ScoreMatrix, ScoringConfig
from .selection import (
    CorpusView,
    ExemplarSet,
    build_exemplar_set,
    deserialize_exemplar_set,
    select_candidates,
    serialize_exemplar_set,
)


class ConfigError(ValueError):
    """Bad configuration or unmet run precondition."""


DEFAULT_CONFIG: dict = {
    "paths": {
        "ontology": None,
        "bags": None,
        "queries": None,
        "scores": None,
        "embeddings": None,
        "cache": None,
        "output": "out",
    },
    "strategy": "hydre",
    "scoring": {
        "w_sim": 1.0,
        "w_conf": 1.0,
        "threshold": 0.5,
        "k": 5,
        "bag_sim_pooling": "max",
    },
    "generation": {
        "model_name": "gpt-4o",
        "temperature": 0.0,
        "max_input_tokens": 2048,
        "max_output_tokens": 256,
    },
    "template": {"include_definitions": True},
    "mmr": {"alpha": DEFAULT_MMR_ALPHA, "pool_size": DEFAULT_MMR_POOL_SIZE},
    "seed": 0,
    "parallelism": 1,
    "mode": "replay",
    "llm_endpoint": None,
}


def _deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


@dataclass
class RunConfig:
    """The merged raw config plus the dataclasses built from its blocks."""

    raw: dict
    base_dir: Path
    _scoring: ScoringConfig
    _generation: GenerationParams
    _template: PromptTemplate

    @property
    def strategy(self) -> str:
        return self.raw["strategy"]

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def mode(self) -> str:
        return self.raw["mode"]

    @property
    def parallelism(self) -> int:
        return self.raw["parallelism"]

    def path(self, name: str) -> Path | None:
        value = self.raw["paths"].get(name)
        if value is None:
            return None
        p = Path(value)
        return p if p.is_absolute() else self.base_dir / p

    @property
    def output_dir(self) -> Path:
        out = self.path("output")
        assert out is not None
        return out

    def scoring(self) -> ScoringConfig:
        return self._scoring

    def generation(self) -> GenerationParams:
        return self._generation

    def template(self) -> PromptTemplate:
        return self._template


def _real(value) -> bool:
    # type(), not isinstance: a JSON true is a bool, and bools are ints
    return type(value) in (int, float) and math.isfinite(value)


def _positive_int(value) -> bool:
    return type(value) is int and value >= 1


_NONNEGATIVE = (lambda v: _real(v) and v >= 0, "a nonnegative real number")
_COUNT = (_positive_int, "a positive integer")
_STRING = (lambda v: isinstance(v, str), "a string")
_TAG = (lambda v: isinstance(v, str) and v != "", "a nonempty string")
_PATH = (lambda v: v is None or _TAG[0](v), "a nonempty string or null")

# Every key a config block may set: a test of its value and what the test
# asks for.
BLOCK_KEYS: dict[str, dict[str, tuple[Callable[[object], bool], str]]] = {
    "paths": {
        **dict.fromkeys(("ontology", "bags", "queries", "scores", "embeddings", "cache"), _PATH),
        "output": _TAG,
    },
    "scoring": {
        "w_sim": _NONNEGATIVE,
        "w_conf": _NONNEGATIVE,
        "threshold": (lambda v: _real(v) and 0 < v < 1, "a real number in (0, 1)"),
        "k": _COUNT,
        "bag_sim_pooling": (lambda v: v in ("max", "mean"), "'max' or 'mean'"),
    },
    "generation": {
        "model_name": _TAG,
        "temperature": _NONNEGATIVE,
        "max_input_tokens": _COUNT,
        "max_output_tokens": _COUNT,
    },
    "template": {
        "task_instruction": _STRING,
        "include_definitions": (lambda v: type(v) is bool, "true or false"),
        "head_open": _TAG,
        "head_close": _TAG,
        "tail_open": _TAG,
        "tail_close": _TAG,
        "na_definition": _STRING,
    },
    "mmr": {
        "alpha": (lambda v: _real(v) and 0 <= v <= 1, "a real number in [0, 1]"),
        "pool_size": (lambda v: v is None or _positive_int(v), "a positive integer or null"),
    },
}


def _build(block: str, make: Callable, **values):
    """``make(**values)``; a rule across the block's keys that fails (such
    as w_sim + w_conf > 0) fails as a ConfigError naming the block."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ConfigError(f"{block}: {exc}") from None


def load_config(config_path: str | None, overrides: dict) -> RunConfig:
    """The merged config, with every value checked and every block's
    dataclass built before any input is read."""
    file_values: dict = {}
    base_dir = Path.cwd()
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        with path.open("r", encoding="utf-8") as fh:
            try:
                file_values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise ConfigError(f"{path}: a config file must hold a JSON object")
        base_dir = path.resolve().parent
    unknown = [key for key in file_values if key not in DEFAULT_CONFIG]
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]}; expected one of {', '.join(DEFAULT_CONFIG)}"
        )
    raw = _deep_merge(DEFAULT_CONFIG, file_values)
    for key, value in overrides.items():
        if value is None:
            continue
        if key == "k":
            raw["scoring"]["k"] = value
        elif key == "output":
            # flag-supplied outputs are relative to the caller, not the config
            out = Path(value)
            raw["paths"]["output"] = str(out if out.is_absolute() else Path.cwd() / out)
        else:
            raw[key] = value
    for key, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict) and not isinstance(raw[key], dict):
            raise ConfigError(f"{key} must be a JSON object, got {raw[key]!r}")
    for key in ("strategy", "mode"):
        if not isinstance(raw[key], str):
            raise ConfigError(f"{key} must be a string, got {raw[key]!r}")
    if raw["strategy"] not in STRATEGIES:
        raise ConfigError(
            f"unknown strategy {raw['strategy']!r}; expected one of "
            f"{', '.join(STRATEGIES)}"
        )
    if raw["mode"] not in ("live", "replay"):
        raise ConfigError(f"unknown mode {raw['mode']!r}")
    if not _positive_int(raw["parallelism"]):
        raise ConfigError(
            f"parallelism must be a positive integer, got {raw['parallelism']!r}"
        )
    if type(raw["seed"]) is not int:
        raise ConfigError(f"seed must be an integer, got {raw['seed']!r}")
    for block, keys in BLOCK_KEYS.items():
        for key, value in raw[block].items():
            if key not in keys:
                raise ConfigError(
                    f"unknown key {block}.{key}; expected one of {', '.join(keys)}"
                )
            test, wanted = keys[key]
            if not test(value):
                raise ConfigError(f"{block}.{key} must be {wanted}, got {value!r}")
    endpoint = raw["llm_endpoint"]
    if endpoint is not None and not _is_http_url(endpoint):
        raise ConfigError(
            f"llm_endpoint must be an http(s) URL with a host, got {endpoint!r}"
        )
    return RunConfig(
        raw,
        base_dir,
        _build("scoring", ScoringConfig, seed=raw["seed"], **raw["scoring"]),
        _build("generation", GenerationParams, **raw["generation"]),
        _build("template", PromptTemplate, **raw["template"]),
    )


def _is_http_url(value) -> bool:
    """Whether a value is a URL the judge's HTTP session can post to."""
    if not isinstance(value, str):
        return False
    parts = urllib.parse.urlsplit(value)
    try:
        parts.port  # raises on a port that is not a number in range
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def _write_metadata(config: RunConfig, command: str, inputs: dict[str, str]) -> None:
    """metadata.json: the command, the config and ``inputs``, the sha256 of
    each input file the command read."""
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "command": command,
        "version": __version__,
        "seed": config.seed,
        "strategy": config.strategy,
        "mode": config.mode,
        "config": config.raw,
        "inputs": inputs,
    }
    with atomic_write(out / "metadata.json") as fh:
        fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False, indent=2) + "\n")


@dataclass
class LoadedRun:
    corpus: Corpus
    scores: ScoreMatrix | None
    embeddings: EmbeddingIndex | None
    inputs: dict[str, str]  # the sha256 of each input file read, by paths key


def _needs(config: RunConfig) -> Reads:
    """The provider rows the configured strategy reads."""
    scoring = config.scoring()
    return STRATEGIES[config.strategy].needs(scoring.w_conf > 0, scoring.w_sim > 0)


def _load_run(
    config: RunConfig, scores: bool = True, embeddings: bool = True, bags: bool = True
) -> LoadedRun:
    """Load the corpus and the providers whose files exist; the bag, score
    and embedding files only when ``bags``, ``scores`` and ``embeddings``
    are set. Their digests come from their sidecars, so a warm load reads
    none of them; the small ontology and query files are hashed."""
    for name in ("ontology", "bags", "queries"):
        if config.path(name) is None and (bags or name != "bags"):
            raise ConfigError(f"paths.{name} is required")
    corpus = Corpus.load(
        config.path("ontology"),
        config.path("bags") if bags else None,
        config.path("queries"),
    )
    matrix = None
    path = config.path("scores")
    if scores and path is not None and path.exists():
        matrix = ScoreMatrix.load(path, corpus.ontology)
    index = None
    path = config.path("embeddings")
    if embeddings and path is not None and path.exists():
        index = EmbeddingIndex.load(path)
    inputs = {name: file_sha256(config.path(name)) for name in ("ontology", "queries")}
    loaded = {"bags": corpus if bags else None, "scores": matrix, "embeddings": index}
    inputs |= {name: item.sha256 for name, item in loaded.items() if item is not None}
    return LoadedRun(corpus, matrix, index, inputs)


def _check_providers(config: RunConfig, run: LoadedRun) -> None:
    """Cross-check that every item the strategy touches is scored/embedded."""
    corpus = run.corpus
    reads = _needs(config)
    if (reads.query_scores or reads.sentence_scores) and run.scores is None:
        raise ConfigError(
            f"strategy {config.strategy!r} needs confidence scores but "
            "paths.scores is missing"
        )
    if reads.embeddings and run.embeddings is None:
        raise ConfigError(
            f"strategy {config.strategy!r} needs embeddings but "
            "paths.embeddings is missing"
        )
    query_ids = [q.query_id for q in corpus.queries]
    for needed, ids, provider, message in (
        (reads.query_scores, query_ids, run.scores, "query {!r} has no score row"),
        (reads.sentence_scores, corpus.sentence_ids, run.scores, "sentence {!r} has no score row"),
        (reads.embeddings, query_ids, run.embeddings, "query {!r} has no embedding"),
        (reads.embeddings, corpus.sentence_ids, run.embeddings, "sentence {!r} has no embedding"),
    ):
        if needed:
            row_of = provider.row_of
            if not all(map(row_of.__contains__, ids)):
                missing = next(i for i in ids if i not in row_of)
                raise ProviderError(message.format(missing))


def _check_k(config: RunConfig, corpus: Corpus, k_values: Sequence[int | None]) -> None:
    """Refuse a pass whose largest k (None is the config's k) exceeds what
    its strategy can pick: ``mmr.pool_size``, or the corpus's sentence
    count for ``mmr`` and ``random_k``, which pick k distinct sentences. A
    larger k gives ``topk_sim`` every sentence."""
    if config.strategy not in ("mmr", "random_k"):
        return
    k = max(config.scoring().k if k is None else k for k in k_values)
    pool_size = config.raw["mmr"]["pool_size"]
    if config.strategy == "mmr" and pool_size is not None and k > pool_size:
        raise ConfigError(f"k={k} exceeds mmr.pool_size {pool_size}")
    n = len(corpus.sentence_ids)
    if k > n:
        raise ConfigError(f"k={k} exceeds the corpus's {n} sentences")


def cmd_validate(config: RunConfig) -> int:
    """Load everything the strategy needs and cross-check references."""
    run = _load_run(config)
    corpus = run.corpus
    _check_providers(config, run)
    _check_k(config, corpus, (None,))
    print(f"ontology: {len(corpus.ontology)} relations (NA symbol {corpus.ontology.na_symbol!r})")
    n_bags = len(corpus.bag_ids)
    na = np.count_nonzero(corpus.bag_na) / n_bags if n_bags else 0.0
    print(f"bags: {n_bags} (NA fraction {na:.1%})")
    print(f"sentences: {len(corpus.sentence_ids)}")
    print(f"queries: {len(corpus.queries)}")
    if run.scores is not None:
        print(f"scores: {len(run.scores.row_of)} rows")
    if run.embeddings is not None:
        print(f"embeddings: {len(run.embeddings.row_of)} vectors")
    print(f"strategy {config.strategy}: OK")
    return 0


@dataclass(frozen=True)
class SelectionInputs:
    """What a strategy's selector reads besides the query id: the
    command's corpus view, which holds the corpus and its providers, and
    the config values of one k."""

    view: CorpusView
    scoring: ScoringConfig
    mmr_alpha: float = DEFAULT_MMR_ALPHA
    mmr_pool_size: int | None = DEFAULT_MMR_POOL_SIZE


class Reads(NamedTuple):
    """Which provider rows a strategy reads: the queries' and the corpus
    sentences' score rows, and the embeddings of both."""

    query_scores: bool
    sentence_scores: bool
    embeddings: bool


class Strategy(NamedTuple):
    """A selector, the provider rows it reads and whether it selects from
    the flattened corpus.

    ``needs(conf, sim)``, with conf = w_conf > 0 and sim = w_sim > 0, gives
    its ``Reads``.
    """

    select: Callable[[str, SelectionInputs], ExemplarSet]
    needs: Callable[[bool, bool], Reads]
    flat: bool = False


def _pipeline(
    q_id: str, inputs: SelectionInputs, style: str = "sentence", **scoring_changes
) -> ExemplarSet:
    """The three-stage pipeline in an exemplar style, with changed scoring."""
    scoring = inputs.scoring
    if scoring_changes:
        scoring = dataclasses.replace(scoring, **scoring_changes)
    return build_exemplar_set(q_id, inputs.view, scoring, style=style)


def _topk_sim(q_id: str, i: SelectionInputs) -> ExemplarSet:
    picked = topk_sim(q_id, flatten(i.view.corpus), i.view, i.scoring.k)
    return ExemplarSet(q_id, tuple(picked))


def _mmr(q_id: str, i: SelectionInputs) -> ExemplarSet:
    picked = mmr_select(
        q_id, flatten(i.view.corpus), i.view, i.scoring.k, i.mmr_alpha, i.mmr_pool_size
    )
    return ExemplarSet(q_id, tuple(picked))


# Every strategy the CLI accepts. Selectors look the selection functions up
# as module globals when they run, so a wrapper installed on this module
# sees every call.
STRATEGIES: dict[str, Strategy] = {
    "hydre": Strategy(_pipeline, lambda conf, sim: Reads(conf, conf, sim)),
    "reduced_bag": Strategy(
        lambda q_id, i: _pipeline(q_id, i, "reduced_bag"),
        lambda conf, sim: Reads(conf, True, sim),
    ),
    "random_k": Strategy(
        lambda q_id, i: ExemplarSet(
            q_id,
            tuple(random_k(flatten(i.view.corpus), i.scoring.k, f"{i.scoring.seed}|{q_id}")),
        ),
        lambda conf, sim: Reads(False, False, False),
        flat=True,
    ),
    "topk_sim": Strategy(
        _topk_sim, lambda conf, sim: Reads(False, False, True), flat=True
    ),
    "mmr": Strategy(_mmr, lambda conf, sim: Reads(False, False, True), flat=True),
    "zero_shot": Strategy(
        lambda q_id, i: ExemplarSet(q_id, style="zero_shot"),
        lambda conf, sim: Reads(False, False, False),
    ),
    "ablation:all_relations": Strategy(
        lambda q_id, i: _pipeline(q_id, i, k=len(i.view.corpus.ontology)),
        lambda conf, sim: Reads(conf, conf, sim),
    ),
    "ablation:flat_retrieval": Strategy(
        lambda q_id, i: flat_retrieval(q_id, i.view, i.scoring),
        lambda conf, sim: Reads(True, True, sim),
    ),
    "ablation:full_bag": Strategy(
        lambda q_id, i: _pipeline(q_id, i, "full_bag"),
        lambda conf, sim: Reads(conf, conf, sim),
    ),
    "ablation:no_sim": Strategy(
        lambda q_id, i: _pipeline(q_id, i, w_sim=0.0),
        lambda conf, sim: Reads(True, True, False),
    ),
    "ablation:no_conf": Strategy(
        lambda q_id, i: _pipeline(q_id, i, w_conf=0.0),
        lambda conf, sim: Reads(False, False, True),
    ),
    "ablation:random_bag_sentence": Strategy(
        lambda q_id, i: random_bag_sentence(q_id, i.view.corpus, i.view.scores, i.scoring),
        lambda conf, sim: Reads(True, False, False),
    ),
    "ablation:no_icl": Strategy(
        lambda q_id, i: ExemplarSet(
            q_id,
            candidates=tuple(select_candidates(q_id, i.view.scores, i.scoring.k)),
            relation_scope="candidates_only",
        ),
        lambda conf, sim: Reads(True, False, False),
    ),
}


def _selections_filename(k: int | None) -> str:
    return "selections.jsonl" if k is None else f"selections_k{k}.jsonl"


def cmd_select(
    config: RunConfig,
    k_values: Sequence[int | None] = (None,),
    run: LoadedRun | None = None,
) -> int:
    """Write one serialized selection record per query into one selections
    file per k; k None is the config's k, written to selections.jsonl.

    ``run`` is inputs already loaded and checked by the caller (a ``run``
    sweep passes its own, and writes metadata.json once it ends); without
    it the command loads its own and writes metadata.json. The command
    builds one corpus view (``selection.CorpusView``) of the loaded inputs,
    shared by every k and freed when it returns.
    Each query is selected for every k in turn, largest k first, so the
    view's work for a query (its chunk's screens and ranks, its stage-2
    and flat-retrieval picks) is done once, and the first pick request
    for a relation covers every k of the pass. When query similarities are computed, and for which
    queries at once, is the view's affair; every pick and every score
    written is the one a selection of that query alone would make.
    """
    standalone = run is None
    if standalone:
        run = _load_run(config)
        _check_providers(config, run)
        _check_k(config, run.corpus, k_values)
    scoring = config.scoring()
    view = CorpusView(run.corpus, run.scores, run.embeddings)
    inputs = [
        SelectionInputs(
            view,
            scoring if k is None else dataclasses.replace(scoring, k=k),
            mmr_alpha=float(config.raw["mmr"]["alpha"]),
            mmr_pool_size=config.raw["mmr"]["pool_size"],
        )
        for k in k_values
    ]
    select = STRATEGIES[config.strategy].select
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as stack:
        files = [
            stack.enter_context(atomic_write(out / _selections_filename(k)))
            for k in k_values
        ]
        largest_first = sorted(zip(files, inputs), key=lambda f: -f[1].scoring.k)
        for q in run.corpus.queries:
            for fh, k_inputs in largest_first:
                record = serialize_exemplar_set(
                    select(q.query_id, k_inputs), run.corpus.ontology
                )
                fh.write(jsonl_line(record))
    if standalone:
        _write_metadata(config, "select", run.inputs)
    print(f"selected exemplars for {len(run.corpus.queries)} queries -> {out}")
    return 0


def _render_for_record(
    config: RunConfig, corpus: Corpus, query: QueryInstance, record: dict
) -> str:
    selection = deserialize_exemplar_set(record, corpus)
    return render_prompt(query, selection, corpus.ontology, config.template())


def _render_pass(
    config: RunConfig, corpus: Corpus, k: int | None, cache: ReplayCache
) -> list[tuple[str, str]]:
    """(query_id, prompt) of each query, rendered from the selections file
    of ``k``. In replay mode, ReplayMiss unless the cache answers every
    prompt, so a pass with a gap dispatches nothing."""
    selections = _query_records(
        config.output_dir / _selections_filename(k),
        corpus,
        "selections",
        lambda record, where: _field(record, "exemplars", lambda v: type(v) is list, where),
    )
    prompts = []
    for q, (where, record) in zip(corpus.queries, selections):
        try:
            prompts.append((q.query_id, _render_for_record(config, corpus, q, record)))
        except (KeyError, TypeError, ValueError) as exc:
            # a KeyError or TypeError says only what it failed to read
            fault = exc if isinstance(exc, ValueError) else f"malformed record ({exc!r})"
            raise ConfigError(f"{where}: {fault}") from None
    if config.mode == "replay":
        params = config.generation()
        missed = [
            q_id for q_id, prompt in prompts if cache_key(prompt, params) not in cache
        ]
        if missed:
            raise ReplayMiss(f"no cached response for queries {missed}")
    return prompts


def _write_pass(
    config: RunConfig,
    corpus: Corpus,
    k: int | None,
    prompts: list[tuple[str, str]],
    results: list[BatchResult],
) -> None:
    suffix = "" if k is None else f"_k{k}"
    prompt_records = []
    prediction_records = []
    for (q_id, prompt), result in zip(prompts, results):
        prompt_records.append(
            {"query_id": q_id, "prompt": prompt, "response": result.response}
        )
        prediction_records.append(
            {
                "query_id": q_id,
                "relations": corpus.ontology.sorted_labels(result.prediction.relations),
                "raw": result.response or "",
                "error": result.error,
            }
        )
    write_jsonl(prompt_records, config.output_dir / f"prompts{suffix}.jsonl")
    write_jsonl(prediction_records, config.output_dir / f"predictions{suffix}.jsonl")


def _parse_k_flag(value: str | None) -> list[int] | None:
    """The k values of ``--k``: one positive integer, or a nonempty range
    lo..hi of them."""
    if value is None:
        return None
    try:
        bounds = [int(bound) for bound in value.split("..", 1)]
    except ValueError:
        bounds = []
    k_values = list(range(bounds[0], bounds[-1] + 1)) if bounds else []
    if not k_values or k_values[0] < 1:
        raise ConfigError(
            f"--k must be a positive integer or a range like 1..20, got {value!r}"
        )
    return k_values


def cmd_run(config: RunConfig, k_values: list[int] | None = None) -> int:
    """Render prompts, dispatch to the judge, parse, and persist predictions.

    The inputs, the replay cache and the judge backend are loaded once and
    shared by every k of a sweep. Each k is one pass of ``run_passes``:
    one pool of ``parallelism`` threads serves every pass, and a pass is
    rendered while the earlier ones are in flight. A prompt is sent once
    per run; every query of any k whose prompt has its cache key shares
    that request's outcome. A pass's prompts and predictions files are
    written, k by k, once all of its prompts are answered; a pass that
    cannot be rendered (or, in replay mode, has a cache gap) fails the run
    after every earlier pass is written. When every selections file the
    run reads already exists, nothing selects, so the score and embedding
    files are not read.
    """
    ks = [None] if k_values is None or len(k_values) == 1 else k_values
    unselected = [
        k for k in ks if not (config.output_dir / _selections_filename(k)).exists()
    ]
    run = _load_run(config, scores=bool(unselected), embeddings=bool(unselected))
    if unselected:
        _check_providers(config, run)
        _check_k(config, run.corpus, unselected)
    cache_path = config.path("cache")
    cache = ReplayCache.load(cache_path) if cache_path else ReplayCache()
    with contextlib.ExitStack() as held:  # closed on error too
        held.callback(cache.close)
        backend = FailOnDispatchBackend()
        if config.mode == "live":
            if not os.environ.get(LLM_API_KEY_ENV):
                raise ConfigError(
                    f"live mode requires the {LLM_API_KEY_ENV} environment variable"
                )
            if not config.raw.get("llm_endpoint"):
                raise ConfigError("live mode requires llm_endpoint in the config")
            backend = HttpChatBackend(config.raw["llm_endpoint"])
            held.callback(backend.close)
        if unselected:
            # A sweep selects every k it lacks in one pass. A selection that
            # reads no provider and no flattened corpus costs nothing to make,
            # so a single run makes it too.
            strategy = STRATEGIES[config.strategy]
            if ks == [None] and (strategy.flat or any(_needs(config))):
                raise ConfigError(
                    f"selections file {config.output_dir / _selections_filename(None)} "
                    "not found; run `select` first"
                )
            cmd_select(config, unselected, run=run)
        rendered: deque[list[tuple[str, str]]] = deque()

        def passes():
            for k in ks:
                rendered.append(_render_pass(config, run.corpus, k, cache))
                yield rendered[-1]

        answered = run_passes(
            passes(),
            run.corpus.ontology,
            config.generation(),
            backend,
            cache=cache,
            mode=config.mode,
            parallelism=config.parallelism,
        )
        with contextlib.closing(answered):  # a failed write stops the pool at once
            for k, results in zip(ks, answered):
                _write_pass(config, run.corpus, k, rendered.popleft(), results)
    _write_metadata(config, "run", run.inputs)
    print(f"predictions written -> {config.output_dir}")
    return 0


def _shown(ids: list[str]) -> str:
    return ", ".join(ids[:5]) + (", ..." if len(ids) > 5 else "")


def _query_records(
    path: Path, corpus: Corpus, noun: str, check: Callable[[dict, str], object]
) -> list[tuple[str, dict]]:
    """(path:line, record) of each of the corpus queries, in query-file
    order, from a JSONL file of one record per query: a predictions or a
    selections file, whose records are ``noun``.

    A record needs a string ``query_id`` no earlier line had, and must pass
    ``check(record, path:line)``; a query with no record, or a record of a
    query not in the query file, is refused naming the file."""
    records: dict[str, tuple[str, dict]] = {}
    for lineno, record in iter_jsonl(path, ConfigError):
        where = f"{path}:{lineno}"
        query_id = _field(record, "query_id", _is_str, where)
        check(record, where)
        if query_id in records:
            raise ConfigError(f"{where}: duplicate query_id {query_id!r}")
        records[query_id] = (where, record)
    query_ids = [q.query_id for q in corpus.queries]
    missing = [q for q in query_ids if q not in records]
    if missing:
        raise ConfigError(
            f"{path}: {noun} missing for {len(missing)} of {len(query_ids)} "
            f"queries ({_shown(missing)})"
        )
    known = set(query_ids)
    unknown = [q for q in records if q not in known]
    if unknown:
        raise ConfigError(
            f"{path}: {len(unknown)} {noun} for queries not in the query file "
            f"({_shown(unknown)})"
        )
    return [records[q] for q in query_ids]


def _load_predictions(path: Path, corpus: Corpus) -> dict[str, frozenset[str]]:
    """Predicted relations by query id, one for each of the corpus queries
    and no other (``_query_records``). A record needs a list of ontology
    relation names, and may set ``error`` to a string; one whose dispatch
    failed (its ``error`` is set) is refused rather than scored as an NA
    prediction."""

    def relation_names(value) -> bool:
        return _is_names(value) and all(r in corpus.ontology for r in value)

    failed: list[str] = []

    def check(record: dict, where: str) -> None:
        _field(record, "relations", relation_names, where)
        error = record.get("error")
        if not (error is None or _is_str(error)):
            raise ConfigError(f"{where}: malformed error {error!r}")
        if error is not None:
            failed.append(record["query_id"])

    records = _query_records(path, corpus, "predictions", check)
    if failed:
        raise ConfigError(
            f"{path}: {len(failed)} predictions failed to dispatch "
            f"(queries {_shown(failed)}); rerun `run` for them instead of scoring them as NA"
        )
    return {r["query_id"]: frozenset(r["relations"]) for _, r in records}


def cmd_eval(
    config: RunConfig, predictions_path: Path, baseline_path: Path | None = None
) -> int:
    """Score predictions against gold and emit report files."""
    run = _load_run(config, embeddings=False, bags=False)
    corpus = run.corpus
    predictions = _load_predictions(predictions_path, corpus)
    baseline = (
        _load_predictions(baseline_path, corpus) if baseline_path is not None else None
    )

    gold = FactSet.from_queries(corpus.queries)
    pred = FactSet.from_predictions(predictions, corpus.ontology)
    report = score(gold, pred, corpus.ontology)

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    summary_cell = f"{round(report.micro_f1 * 100)}/{round(report.macro_f1 * 100)}"

    report_payload = {
        "micro_precision": report.micro_precision,
        "micro_recall": report.micro_recall,
        "micro_f1": report.micro_f1,
        "macro_f1": report.macro_f1,
        "n_queries": report.n_queries,
        "n_gold_facts": report.n_gold_facts,
        "summary": summary_cell,
        "per_relation": {
            name: dataclasses.asdict(rs) for name, rs in report.per_relation.items()
        },
    }
    if run.scores is not None:
        report_payload["recall_at_k"] = {
            str(k): recall for k, recall in enumerate(recall_curve(gold, run.scores), 1)
        }
    with atomic_write(out / "report.json") as fh:
        fh.write(
            json.dumps(report_payload, sort_keys=True, ensure_ascii=False, indent=2)
            + "\n"
        )

    with atomic_write(out / "per_relation.csv", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["relation", "precision", "recall", "f1", "support"])
        for name in corpus.ontology.names:
            rs = report.per_relation[name]
            writer.writerow([name, rs.precision, rs.recall, rs.f1, rs.support])

    names = corpus.ontology.names
    pair_list = [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
    ]
    rows = confusion_pairs(gold, pred, pair_list, corpus.ontology)
    with atomic_write(out / "confusion_pairs.csv", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["relation_a", "relation_b", "a_as_a", "a_as_b", "b_as_a", "b_as_b"]
        )
        for row in rows:
            writer.writerow(
                [row.relation_a, row.relation_b, row.a_as_a, row.a_as_b, row.b_as_a, row.b_as_b]
            )

    summary_lines = [
        f"queries: {report.n_queries}",
        f"gold facts: {report.n_gold_facts}",
        f"micro/macro: {summary_cell}",
    ]
    if baseline is not None:
        baseline_report = score(
            gold, FactSet.from_predictions(baseline, corpus.ontology), corpus.ontology
        )
        result = mcnemar(pair_reports(report, baseline_report))
        with atomic_write(out / "mcnemar.json") as fh:
            fh.write(json.dumps(dataclasses.asdict(result), sort_keys=True, indent=2) + "\n")
        summary_lines.append(
            f"mcnemar vs baseline: statistic={result.statistic:.6g} "
            f"p={result.p_value:.6g} (b={result.b}, c={result.c}, {result.method})"
        )
    with atomic_write(out / "summary.txt") as fh:
        fh.write("\n".join(summary_lines) + "\n")
    _write_metadata(config, "eval", run.inputs)
    print("\n".join(summary_lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydre", description="Exemplar-selection pipeline for bag-supervised RE"
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--strategy", default=None)
    parser.add_argument("--k", default=None, help="exemplar count, or a sweep like 1..20")
    parser.add_argument("--mode", choices=["live", "replay"], default=None)
    parser.add_argument("--parallelism", type=int, default=None)
    parser.add_argument("--output", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", help="load and cross-check all inputs")
    sub.add_parser("select", help="precompute exemplar selections per query")
    sub.add_parser("run", help="render prompts, query the judge, parse predictions")
    eval_parser = sub.add_parser("eval", help="score predictions against gold")
    eval_parser.add_argument("predictions", help="predictions JSONL file")
    eval_parser.add_argument(
        "baseline", nargs="?", default=None,
        help="second predictions file for a McNemar comparison",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "strategy": args.strategy,
        "mode": args.mode,
        "parallelism": args.parallelism,
        "output": args.output,
    }
    try:
        k_values = _parse_k_flag(args.k)
        if k_values is not None and len(k_values) == 1:
            overrides["k"] = k_values[0]
        if k_values is not None and len(k_values) > 1 and args.command != "run":
            raise ConfigError("--k ranges are only supported by the run command")
        config = load_config(args.config, overrides)
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "select":
            return cmd_select(config)
        if args.command == "run":
            return cmd_run(config, k_values)
        if args.command == "eval":
            baseline = Path(args.baseline) if args.baseline else None
            return cmd_eval(config, Path(args.predictions), baseline)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, CorpusError, ProviderError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Configuration-driven experiment driver.

Commands: validate, select, run, eval. Configuration lives in a JSON file;
command-line flags override file values, which override built-in defaults.
Every output directory gets a metadata record sufficient to reproduce the
run; replay-mode pipelines are fully deterministic and offline.

Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .baselines import (
    DEFAULT_MMR_ALPHA,
    DEFAULT_MMR_POOL_SIZE,
    flat_retrieval,
    flat_rows,
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
    atomic_write,
    iter_jsonl,
    na_fraction,
    write_jsonl,
)
from .evaluation import (
    FactSet,
    confusion_pairs,
    mcnemar,
    pair_reports,
    recall_at_k,
    score,
)
from .judge import (
    FailOnDispatchBackend,
    GenerationParams,
    HttpChatBackend,
    LLM_API_KEY_ENV,
    ReplayCache,
    ReplayMiss,
    cache_key,
    run_batch,
)
from .prompting import PromptTemplate, block_for_sentences, render_prompt
from .providers import EmbeddingIndex, ProviderError, ScoreMatrix, ScoringConfig
from .selection import (
    Exemplar,
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
    raw: dict
    base_dir: Path

    @property
    def strategy(self) -> str:
        return self.raw["strategy"]

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def mode(self) -> str:
        return self.raw["mode"]

    @property
    def parallelism(self) -> int:
        return int(self.raw["parallelism"])

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
        return ScoringConfig(seed=self.seed, **self.raw["scoring"])

    def generation(self) -> GenerationParams:
        return GenerationParams(**self.raw["generation"])

    def template(self, relation_scope: str = "full_ontology") -> PromptTemplate:
        return PromptTemplate(relation_scope=relation_scope, **self.raw["template"])


def load_config(config_path: str | None, overrides: dict) -> RunConfig:
    file_values: dict = {}
    base_dir = Path.cwd()
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        with path.open("r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        base_dir = path.resolve().parent
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
    config = RunConfig(raw=raw, base_dir=base_dir)
    if config.strategy not in STRATEGIES:
        raise ConfigError(
            f"unknown strategy {config.strategy!r}; expected one of "
            f"{', '.join(STRATEGIES)}"
        )
    if config.mode not in ("live", "replay"):
        raise ConfigError(f"unknown mode {config.mode!r}")
    return config


def _write_metadata(config: RunConfig, command: str) -> None:
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "command": command,
        "version": __version__,
        "seed": config.seed,
        "strategy": config.strategy,
        "mode": config.mode,
        "config": config.raw,
    }
    with atomic_write(out / "metadata.json") as fh:
        fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False, indent=2) + "\n")


@dataclass
class LoadedRun:
    corpus: Corpus
    scores: ScoreMatrix | None
    embeddings: EmbeddingIndex | None


def _needs(config: RunConfig) -> tuple[bool, bool, bool, bool]:
    """(query scores, sentence scores, query embeddings, sentence embeddings)
    the configured strategy reads."""
    scoring = config.scoring()
    return STRATEGIES[config.strategy].needs(scoring.w_conf > 0, scoring.w_sim > 0)


def _load_run(config: RunConfig, embeddings: bool = True) -> LoadedRun:
    """Load the corpus and the providers whose files exist; the embedding
    file only when ``embeddings`` is set."""
    for name in ("ontology", "bags", "queries"):
        if config.path(name) is None:
            raise ConfigError(f"paths.{name} is required")
    corpus = Corpus.load(
        config.path("ontology"), config.path("bags"), config.path("queries")
    )
    scores = None
    if config.path("scores") is not None and config.path("scores").exists():
        scores = ScoreMatrix.load(config.path("scores"), corpus.ontology)
    index = None
    path = config.path("embeddings")
    if embeddings and path is not None and path.exists():
        index = EmbeddingIndex.load(path)
    return LoadedRun(corpus, scores, index)


def _check_providers(config: RunConfig, run: LoadedRun) -> None:
    """Cross-check that every item the strategy touches is scored/embedded."""
    corpus = run.corpus
    q_scores, s_scores, q_emb, s_emb = _needs(config)
    if (q_scores or s_scores) and run.scores is None:
        raise ConfigError(
            f"strategy {config.strategy!r} needs confidence scores but "
            "paths.scores is missing"
        )
    if (q_emb or s_emb) and run.embeddings is None:
        raise ConfigError(
            f"strategy {config.strategy!r} needs embeddings but "
            "paths.embeddings is missing"
        )
    if q_scores:
        for q in corpus.queries:
            if q.query_id not in run.scores:
                raise ProviderError(f"query {q.query_id!r} has no score row")
    if s_scores:
        for sentence_id in corpus.sentences_by_id:
            if sentence_id not in run.scores:
                raise ProviderError(f"sentence {sentence_id!r} has no score row")
    if q_emb:
        for q in corpus.queries:
            if q.query_id not in run.embeddings:
                raise ProviderError(f"query {q.query_id!r} has no embedding")
    if s_emb:
        for sentence_id in corpus.sentences_by_id:
            if sentence_id not in run.embeddings:
                raise ProviderError(f"sentence {sentence_id!r} has no embedding")


def cmd_validate(config: RunConfig) -> int:
    """Load everything the strategy needs and cross-check references."""
    run = _load_run(config)
    corpus = run.corpus
    _check_providers(config, run)
    print(f"ontology: {len(corpus.ontology)} relations (NA symbol {corpus.ontology.na_symbol!r})")
    print(
        f"bags: {len(corpus.bags)} "
        f"(NA fraction {na_fraction(corpus.bags, corpus.ontology):.1%})"
    )
    print(f"sentences: {len(corpus.sentences_by_id)}")
    print(f"queries: {len(corpus.queries)}")
    if run.scores is not None:
        print(f"scores: {len(run.scores.rows)} rows")
    if run.embeddings is not None:
        print(f"embeddings: {len(run.embeddings.vectors)} vectors")
    print(f"strategy {config.strategy}: OK")
    return 0


class FlatCorpus(NamedTuple):
    """The flattened corpus the sentence-level baselines select from, built
    once per select command."""

    examples: list[Exemplar]
    rows: np.ndarray | None  # embedding-matrix row of each example
    position: dict[str, int]  # sentence id -> index into examples


@dataclass(frozen=True)
class SelectionInputs:
    """What a strategy's selector reads besides the query id."""

    corpus: Corpus
    scores: ScoreMatrix | None
    embeddings: EmbeddingIndex | None
    scoring: ScoringConfig
    mmr_alpha: float = DEFAULT_MMR_ALPHA
    mmr_pool_size: int | None = DEFAULT_MMR_POOL_SIZE
    flat: FlatCorpus | None = None


class Strategy(NamedTuple):
    """A selector, the provider rows it reads and whether it selects from
    the flattened corpus.

    ``needs(conf, sim)``, with conf = w_conf > 0 and sim = w_sim > 0, gives
    (query scores, sentence scores, query embeddings, sentence embeddings).
    """

    select: Callable[[str, SelectionInputs], ExemplarSet]
    needs: Callable[[bool, bool], tuple[bool, bool, bool, bool]]
    flat: bool = False


def _pipeline(
    q_id: str, inputs: SelectionInputs, style: str = "sentence", **scoring_changes
) -> ExemplarSet:
    """The three-stage pipeline in an exemplar style, with changed scoring."""
    return build_exemplar_set(
        q_id,
        inputs.corpus,
        inputs.scores,
        inputs.embeddings,
        dataclasses.replace(inputs.scoring, **scoring_changes),
        style=style,
    )


def _scored_by_similarity(
    q_id: str, picked: list[Exemplar], flat: FlatCorpus, sims: np.ndarray
) -> ExemplarSet:
    """Baseline picks, each scored by its similarity to the query."""
    return ExemplarSet(
        q_id,
        tuple(
            dataclasses.replace(
                e, candidate_score=float(sims[flat.position[e.sentence.sentence_id]])
            )
            for e in picked
        ),
    )


def _topk_sim(q_id: str, inputs: SelectionInputs) -> ExemplarSet:
    flat, embeddings = inputs.flat, inputs.embeddings
    sims = embeddings.similarities(q_id, flat.rows)
    picked = topk_sim(q_id, flat.examples, embeddings, inputs.scoring.k, sims=sims)
    return _scored_by_similarity(q_id, picked, flat, sims)


def _mmr(q_id: str, inputs: SelectionInputs) -> ExemplarSet:
    flat, embeddings = inputs.flat, inputs.embeddings
    sims = embeddings.similarities(q_id, flat.rows)
    picked = mmr_select(
        q_id,
        flat.examples,
        embeddings,
        inputs.scoring.k,
        alpha=inputs.mmr_alpha,
        pool_size=inputs.mmr_pool_size,
        sims=sims,
    )
    return _scored_by_similarity(q_id, picked, flat, sims)


# Every strategy the CLI accepts. Selectors look the selection functions up
# as module globals when they run, so a wrapper installed on this module
# sees every call.
STRATEGIES: dict[str, Strategy] = {
    "hydre": Strategy(_pipeline, lambda conf, sim: (conf, conf, sim, sim)),
    "reduced_bag": Strategy(
        lambda q_id, i: _pipeline(q_id, i, "reduced_bag"),
        lambda conf, sim: (conf, True, sim, sim),
    ),
    "random_k": Strategy(
        lambda q_id, i: ExemplarSet(
            q_id,
            tuple(random_k(i.flat.examples, i.scoring.k, f"{i.scoring.seed}|{q_id}")),
        ),
        lambda conf, sim: (False, False, False, False),
        flat=True,
    ),
    "topk_sim": Strategy(
        _topk_sim, lambda conf, sim: (False, False, True, True), flat=True
    ),
    "mmr": Strategy(_mmr, lambda conf, sim: (False, False, True, True), flat=True),
    "zero_shot": Strategy(
        lambda q_id, i: ExemplarSet(q_id, style="zero_shot"),
        lambda conf, sim: (False, False, False, False),
    ),
    "ablation:all_relations": Strategy(
        lambda q_id, i: _pipeline(q_id, i, k=len(i.corpus.ontology)),
        lambda conf, sim: (conf, conf, sim, sim),
    ),
    "ablation:flat_retrieval": Strategy(
        lambda q_id, i: flat_retrieval(
            q_id, i.corpus, i.scores, i.embeddings, i.scoring
        ),
        lambda conf, sim: (True, True, sim, sim),
    ),
    "ablation:full_bag": Strategy(
        lambda q_id, i: _pipeline(q_id, i, "full_bag"),
        lambda conf, sim: (conf, conf, sim, sim),
    ),
    "ablation:no_sim": Strategy(
        lambda q_id, i: _pipeline(q_id, i, w_sim=0.0),
        lambda conf, sim: (True, True, False, False),
    ),
    "ablation:no_conf": Strategy(
        lambda q_id, i: _pipeline(q_id, i, w_conf=0.0),
        lambda conf, sim: (False, False, True, True),
    ),
    "ablation:random_bag_sentence": Strategy(
        lambda q_id, i: random_bag_sentence(q_id, i.corpus, i.scores, i.scoring),
        lambda conf, sim: (True, False, False, False),
    ),
    "ablation:no_icl": Strategy(
        lambda q_id, i: ExemplarSet(
            q_id,
            candidates=tuple(select_candidates(q_id, i.scores, i.scoring.k)),
            relation_scope="candidates_only",
        ),
        lambda conf, sim: (True, False, False, False),
    ),
}


def _flat_corpus(config: RunConfig, run: LoadedRun) -> FlatCorpus | None:
    if not STRATEGIES[config.strategy].flat:
        return None
    examples = flatten(run.corpus.bags)
    if not _needs(config)[3]:  # reads no sentence embeddings
        return FlatCorpus(examples, None, {})
    position = {e.sentence.sentence_id: i for i, e in enumerate(examples)}
    return FlatCorpus(examples, flat_rows(examples, run.embeddings), position)


def _selections_filename(k: int | None) -> str:
    return "selections.jsonl" if k is None else f"selections_k{k}.jsonl"


def cmd_select(
    config: RunConfig, k_override: int | None = None, run: LoadedRun | None = None
) -> int:
    """Write one serialized selection record per query.

    ``run`` is inputs already loaded and checked by the caller (a ``run``
    sweep passes its own); without it the command loads its own.
    """
    if run is None:
        run = _load_run(config)
        _check_providers(config, run)
    scoring = config.scoring()
    if k_override is not None:
        scoring = dataclasses.replace(scoring, k=k_override)
    inputs = SelectionInputs(
        run.corpus,
        run.scores,
        run.embeddings,
        scoring,
        mmr_alpha=float(config.raw["mmr"]["alpha"]),
        mmr_pool_size=config.raw["mmr"]["pool_size"],
        flat=_flat_corpus(config, run),
    )
    select = STRATEGIES[config.strategy].select
    records = [
        serialize_exemplar_set(select(q.query_id, inputs), run.corpus.ontology)
        for q in run.corpus.queries
    ]
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(records, out / _selections_filename(k_override))
    _write_metadata(config, "select")
    print(f"selected exemplars for {len(records)} queries -> {out}")
    return 0


def _render_for_record(
    config: RunConfig, corpus: Corpus, query: QueryInstance, record: dict
) -> str:
    selection = deserialize_exemplar_set(record, corpus)
    blocks = [
        block_for_sentences(e.sentences, e.labels, corpus.ontology)
        for e in selection.exemplars
    ]
    return render_prompt(
        query,
        blocks,
        corpus.ontology,
        config.template(relation_scope=selection.relation_scope),
        candidates=[r for r, _ in selection.candidates] or None,
    )


def _run_one_k(
    config: RunConfig, run: LoadedRun, k: int | None, cache: ReplayCache, backend
) -> None:
    corpus = run.corpus
    out = config.output_dir
    selections_path = out / _selections_filename(k)
    if not selections_path.exists():
        # A sweep selects per k. A selection that reads no provider and no
        # flattened corpus costs nothing to make, so run makes it.
        strategy = STRATEGIES[config.strategy]
        if k is not None or not (strategy.flat or any(_needs(config))):
            cmd_select(config, k_override=k, run=run)
        else:
            raise ConfigError(
                f"selections file {selections_path} not found; run `select` first"
            )
    by_query = {
        r["query_id"]: (lineno, r)
        for lineno, r in iter_jsonl(selections_path, ConfigError)
    }
    missing = [q.query_id for q in corpus.queries if q.query_id not in by_query]
    if missing:
        raise ConfigError(f"selections missing for queries: {missing}")

    prompts = []
    for q in corpus.queries:
        lineno, record = by_query[q.query_id]
        try:
            prompts.append((q.query_id, _render_for_record(config, corpus, q, record)))
        except CorpusError as exc:
            raise ConfigError(f"{selections_path}:{lineno}: {exc}") from None
    params = config.generation()
    if config.mode == "replay":
        missed = [
            q_id for q_id, prompt in prompts if cache_key(prompt, params) not in cache
        ]
        if missed:
            raise ReplayMiss(f"no cached response for queries {missed}")

    results = run_batch(
        prompts,
        corpus.ontology,
        params,
        backend,
        cache=cache,
        mode=config.mode,
        parallelism=config.parallelism,
    )
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
    write_jsonl(prompt_records, out / f"prompts{suffix}.jsonl")
    write_jsonl(prediction_records, out / f"predictions{suffix}.jsonl")


def _parse_k_flag(value: str | None) -> list[int] | None:
    if value is None:
        return None
    if ".." in value:
        lo, hi = value.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(value)]


def cmd_run(config: RunConfig, k_values: list[int] | None = None) -> int:
    """Render prompts, dispatch to the judge, parse, and persist predictions.

    The inputs, the replay cache and the judge backend are loaded once and
    shared by every k of a sweep; the cache's entries grow with each
    append, so a later k sees the answers of the earlier ones.
    """
    run = _load_run(config)
    _check_providers(config, run)
    cache_path = config.path("cache")
    cache = ReplayCache.load(cache_path) if cache_path else ReplayCache()
    backend = FailOnDispatchBackend()
    if config.mode == "live":
        if not os.environ.get(LLM_API_KEY_ENV):
            raise ConfigError(
                f"live mode requires the {LLM_API_KEY_ENV} environment variable"
            )
        if not config.raw.get("llm_endpoint"):
            raise ConfigError("live mode requires llm_endpoint in the config")
        backend = HttpChatBackend(config.raw["llm_endpoint"])
    if k_values is None or len(k_values) == 1:
        _run_one_k(config, run, None, cache, backend)
    else:
        for k in k_values:
            _run_one_k(config, run, k, cache, backend)
    _write_metadata(config, "run")
    print(f"predictions written -> {config.output_dir}")
    return 0


def _load_predictions(path: Path) -> dict[str, frozenset[str]]:
    """Predicted relations by query id. A record whose dispatch failed (its
    ``error`` is set) is refused rather than scored as an NA prediction."""
    predictions: dict[str, frozenset[str]] = {}
    failed: list[str] = []
    for _, record in iter_jsonl(path, ConfigError):
        query_id = record["query_id"]
        if query_id in predictions:
            raise ConfigError(f"{path}: duplicate query_id {query_id!r}")
        if record.get("error") is not None:
            failed.append(query_id)
        predictions[query_id] = frozenset(record["relations"])
    if failed:
        shown = ", ".join(failed[:5]) + (", ..." if len(failed) > 5 else "")
        raise ConfigError(
            f"{path}: {len(failed)} predictions failed to dispatch "
            f"(queries {shown}); rerun `run` for them instead of scoring them as NA"
        )
    return predictions


def cmd_eval(
    config: RunConfig, predictions_path: Path, baseline_path: Path | None = None
) -> int:
    """Score predictions against gold and emit report files."""
    run = _load_run(config, embeddings=False)
    corpus = run.corpus
    predictions = _load_predictions(predictions_path)
    gap = [q.query_id for q in corpus.queries if q.query_id not in predictions]
    if gap:
        raise ConfigError(f"predictions missing for queries: {gap}")
    baseline = _load_predictions(baseline_path) if baseline_path is not None else None

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
            str(k): recall_at_k(gold, run.scores, k)
            for k in range(1, len(corpus.ontology) + 1)
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
    _write_metadata(config, "eval")
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
    k_values = _parse_k_flag(args.k)
    overrides = {
        "seed": args.seed,
        "strategy": args.strategy,
        "mode": args.mode,
        "parallelism": args.parallelism,
        "output": args.output,
    }
    if k_values is not None and len(k_values) == 1:
        overrides["k"] = k_values[0]
    try:
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

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
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__
from .baselines import (
    ABLATION_NAMES,
    DEFAULT_MMR_ALPHA,
    DEFAULT_MMR_POOL_SIZE,
    FlatExample,
    ablation_variant,
    flat_rows,
    flatten,
    mmr_select,
    random_k,
    topk_sim,
)
from .corpus import Corpus, CorpusError, QueryInstance, na_fraction
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
    build_bag_exemplar_set,
    build_exemplar_set,
    serialize_exemplar_set,
)

BASE_STRATEGIES = ("hydre", "random_k", "topk_sim", "mmr", "zero_shot", "reduced_bag")


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
    "embed_endpoint": None,
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

    def validate_strategy(self) -> None:
        name = self.strategy
        if name in BASE_STRATEGIES:
            return
        if name.startswith("ablation:") and name.split(":", 1)[1] in ABLATION_NAMES:
            return
        raise ConfigError(
            f"unknown strategy {name!r}; expected one of {BASE_STRATEGIES} "
            f"or ablation:<{'|'.join(ABLATION_NAMES)}>"
        )


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
    config.validate_strategy()
    if config.mode not in ("live", "replay"):
        raise ConfigError(f"unknown mode {config.mode!r}")
    return config


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _write_jsonl(records: Sequence[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_dump_line(record))
            fh.write("\n")


def _read_jsonl(path: Path) -> list[dict]:
    records = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


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
    (out / "metadata.json").write_text(
        json.dumps(record, sort_keys=True, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )


@dataclass
class LoadedRun:
    corpus: Corpus
    scores: ScoreMatrix | None
    embeddings: EmbeddingIndex | None


def _provider_needs(config: RunConfig) -> tuple[bool, bool, bool, bool]:
    """(query scores, sentence scores, query embeddings, sentence embeddings)."""
    scoring = config.scoring()
    name = config.strategy
    variant = name.split(":", 1)[1] if name.startswith("ablation:") else name
    conf = scoring.w_conf > 0
    sim = scoring.w_sim > 0
    table = {
        "hydre": (conf, conf, sim, sim),
        "reduced_bag": (conf, True, sim, sim),
        "random_k": (False, False, False, False),
        "topk_sim": (False, False, True, True),
        "mmr": (False, False, True, True),
        "zero_shot": (False, False, False, False),
        "all_relations": (conf, conf, sim, sim),
        "flat_retrieval": (True, True, sim, sim),
        "full_bag": (conf, conf, sim, sim),
        "no_sim": (True, True, False, False),
        "no_conf": (False, False, True, True),
        "random_bag_sentence": (True, False, False, False),
        "no_icl": (True, False, False, False),
    }
    return table[variant]


def _load_run(config: RunConfig) -> LoadedRun:
    for name in ("ontology", "bags", "queries"):
        if config.path(name) is None:
            raise ConfigError(f"paths.{name} is required")
    corpus = Corpus.load(
        config.path("ontology"), config.path("bags"), config.path("queries")
    )
    scores = None
    if config.path("scores") is not None and config.path("scores").exists():
        scores = ScoreMatrix.load(config.path("scores"), corpus.ontology)
    embeddings = None
    if config.path("embeddings") is not None and config.path("embeddings").exists():
        embeddings = EmbeddingIndex.load(config.path("embeddings"))
    return LoadedRun(corpus, scores, embeddings)


def _check_providers(config: RunConfig, run: LoadedRun) -> None:
    """Cross-check that every item the strategy touches is scored/embedded."""
    corpus = run.corpus
    q_scores, s_scores, q_emb, s_emb = _provider_needs(config)
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


def _baseline_record(
    query_id: str, selected, ontology, with_scores: list[float] | None
) -> dict:
    entries = []
    for i, example in enumerate(selected):
        entries.append(
            {
                "sentence_id": example.sentence.sentence_id,
                "source_bag_id": example.source_bag_id,
                "candidate_relation": None,
                "candidate_score": None if with_scores is None else with_scores[i],
                "labels": ontology.sorted_labels(example.labels),
            }
        )
    return {
        "query_id": query_id,
        "exemplars": entries,
        "candidates": [],
        "skipped": [],
        "style": "sentence",
        "relation_scope": "full_ontology",
    }


class FlatCorpus(NamedTuple):
    """The flattened corpus the sentence-level baselines select from, built
    once per select command."""

    examples: list[FlatExample]
    rows: np.ndarray | None  # embedding-matrix row of each example
    position: dict[str, int]  # sentence id -> index into examples


FLAT_STRATEGIES = ("random_k", "topk_sim", "mmr")


def _flat_corpus(config: RunConfig, run: LoadedRun) -> FlatCorpus | None:
    if config.strategy not in FLAT_STRATEGIES:
        return None
    examples = flatten(run.corpus.bags)
    if config.strategy == "random_k":
        return FlatCorpus(examples, None, {})
    position = {f.sentence.sentence_id: i for i, f in enumerate(examples)}
    return FlatCorpus(examples, flat_rows(examples, run.embeddings), position)


def _select_for_query(
    config: RunConfig,
    run: LoadedRun,
    query: QueryInstance,
    scoring: ScoringConfig,
    flat: FlatCorpus | None,
) -> dict:
    corpus, scores, embeddings = run.corpus, run.scores, run.embeddings
    name = config.strategy
    q_id = query.query_id
    if name == "hydre":
        exemplar_set = build_exemplar_set(q_id, corpus, scores, embeddings, scoring)
        record = serialize_exemplar_set(exemplar_set, corpus.ontology)
        record["relation_scope"] = "full_ontology"
        return record
    if name == "reduced_bag":
        exemplar_set = build_bag_exemplar_set(
            q_id, corpus, scores, embeddings, scoring, reduced=True
        )
        record = serialize_exemplar_set(exemplar_set, corpus.ontology)
        record["relation_scope"] = "full_ontology"
        return record
    if name == "zero_shot":
        return {
            "query_id": q_id,
            "exemplars": [],
            "candidates": [],
            "skipped": [],
            "style": "zero_shot",
            "relation_scope": "full_ontology",
        }
    if name.startswith("ablation:"):
        outcome = ablation_variant(
            name.split(":", 1)[1], q_id, corpus, scores, embeddings, scoring
        )
        record = serialize_exemplar_set(outcome.selection, corpus.ontology)
        record["relation_scope"] = outcome.relation_scope
        return record
    if name not in FLAT_STRATEGIES:
        raise ConfigError(f"unknown strategy {name!r}")
    if name == "random_k":
        selected = random_k(flat.examples, scoring.k, f"{config.seed}|{q_id}")
        return _baseline_record(q_id, selected, corpus.ontology, None)
    sims = embeddings.similarities(q_id, flat.rows)
    if name == "topk_sim":
        selected = topk_sim(q_id, flat.examples, embeddings, scoring.k, sims=sims)
    else:
        selected = mmr_select(
            q_id,
            flat.examples,
            embeddings,
            scoring.k,
            alpha=float(config.raw["mmr"]["alpha"]),
            pool_size=config.raw["mmr"]["pool_size"],
            sims=sims,
        )
    candidate_scores = [
        float(sims[flat.position[e.sentence.sentence_id]]) for e in selected
    ]
    return _baseline_record(q_id, selected, corpus.ontology, candidate_scores)


def _selections_filename(k: int | None) -> str:
    return "selections.jsonl" if k is None else f"selections_k{k}.jsonl"


def cmd_select(config: RunConfig, k_override: int | None = None) -> int:
    """Write one serialized selection record per query."""
    run = _load_run(config)
    _check_providers(config, run)
    scoring = config.scoring()
    if k_override is not None:
        scoring = dataclasses.replace(scoring, k=k_override)
    flat = _flat_corpus(config, run)
    records = [
        _select_for_query(config, run, query, scoring, flat)
        for query in run.corpus.queries
    ]
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(records, out / _selections_filename(k_override))
    _write_metadata(config, "select")
    print(f"selected exemplars for {len(records)} queries -> {out}")
    return 0


def _blocks_for_record(record: dict, corpus: Corpus):
    blocks = []
    for entry in record["exemplars"]:
        if entry.get("sentence_id") is not None:
            sentences = [corpus.sentences_by_id[entry["sentence_id"]]]
        else:
            sentences = [corpus.sentences_by_id[sid] for sid in entry["sentence_ids"]]
        blocks.append(
            block_for_sentences(sentences, entry["labels"], corpus.ontology)
        )
    return blocks


def _render_for_record(
    config: RunConfig, corpus: Corpus, query: QueryInstance, record: dict
) -> str:
    scope = record.get("relation_scope", "full_ontology")
    template = config.template(relation_scope=scope)
    candidates = [r for r, _ in record.get("candidates", [])] or None
    return render_prompt(
        query,
        _blocks_for_record(record, corpus),
        corpus.ontology,
        template,
        candidates=candidates,
    )


def _run_one_k(config: RunConfig, run: LoadedRun, k: int | None) -> None:
    corpus = run.corpus
    out = config.output_dir
    selections_path = out / _selections_filename(k)
    if not selections_path.exists():
        if config.strategy == "zero_shot":
            cmd_select(config, k_override=k)
        elif k is not None:
            cmd_select(config, k_override=k)  # sweep runs select per k
        else:
            raise ConfigError(
                f"selections file {selections_path} not found; run `select` first"
            )
    by_query = {r["query_id"]: r for r in _read_jsonl(selections_path)}
    missing = [q.query_id for q in corpus.queries if q.query_id not in by_query]
    if missing:
        raise ConfigError(f"selections missing for queries: {missing}")

    prompts = [
        (q.query_id, _render_for_record(config, corpus, q, by_query[q.query_id]))
        for q in corpus.queries
    ]
    params = config.generation()
    cache_path = config.path("cache")
    cache = ReplayCache.load(cache_path) if cache_path else ReplayCache()
    if config.mode == "replay":
        missed = [
            q_id for q_id, prompt in prompts if cache_key(prompt, params) not in cache
        ]
        if missed:
            raise ReplayMiss(f"no cached response for queries {missed}")
        backend = FailOnDispatchBackend()
    else:
        if not os.environ.get(LLM_API_KEY_ENV):
            raise ConfigError(
                f"live mode requires the {LLM_API_KEY_ENV} environment variable"
            )
        if not config.raw.get("llm_endpoint"):
            raise ConfigError("live mode requires llm_endpoint in the config")
        backend = HttpChatBackend(config.raw["llm_endpoint"])

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
    _write_jsonl(prompt_records, out / f"prompts{suffix}.jsonl")
    _write_jsonl(prediction_records, out / f"predictions{suffix}.jsonl")


def _parse_k_flag(value: str | None) -> list[int] | None:
    if value is None:
        return None
    if ".." in value:
        lo, hi = value.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(value)]


def cmd_run(config: RunConfig, k_values: list[int] | None = None) -> int:
    """Render prompts, dispatch to the judge, parse, and persist predictions."""
    run = _load_run(config)
    _check_providers(config, run)
    if k_values is None or len(k_values) == 1:
        _run_one_k(config, run, None)
    else:
        for k in k_values:
            _run_one_k(config, run, k)
    _write_metadata(config, "run")
    print(f"predictions written -> {config.output_dir}")
    return 0


def _load_predictions(path: Path, corpus: Corpus) -> dict[str, frozenset[str]]:
    predictions: dict[str, frozenset[str]] = {}
    for record in _read_jsonl(path):
        query_id = record["query_id"]
        if query_id in predictions:
            raise ConfigError(f"{path}: duplicate query_id {query_id!r}")
        predictions[query_id] = frozenset(record["relations"])
    return predictions


def cmd_eval(
    config: RunConfig, predictions_path: Path, baseline_path: Path | None = None
) -> int:
    """Score predictions against gold and emit report files."""
    run = _load_run(config)
    corpus = run.corpus
    predictions = _load_predictions(predictions_path, corpus)
    gap = [q.query_id for q in corpus.queries if q.query_id not in predictions]
    if gap:
        raise ConfigError(f"predictions missing for queries: {gap}")

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
    (out / "report.json").write_text(
        json.dumps(report_payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )

    with (out / "per_relation.csv").open("w", encoding="utf-8", newline="") as fh:
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
    with (out / "confusion_pairs.csv").open("w", encoding="utf-8", newline="") as fh:
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
    if baseline_path is not None:
        baseline = _load_predictions(baseline_path, corpus)
        baseline_report = score(
            gold, FactSet.from_predictions(baseline, corpus.ontology), corpus.ontology
        )
        result = mcnemar(pair_reports(report, baseline_report))
        (out / "mcnemar.json").write_text(
            json.dumps(dataclasses.asdict(result), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        summary_lines.append(
            f"mcnemar vs baseline: statistic={result.statistic:.6g} "
            f"p={result.p_value:.6g} (b={result.b}, c={result.c}, {result.method})"
        )
    (out / "summary.txt").write_text("\n".join(summary_lines) + "\n", encoding="utf-8")
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

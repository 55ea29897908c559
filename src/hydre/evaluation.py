"""Multi-label evaluation: micro/macro F1, Recall@k, paired McNemar
significance, and per-relation-pair confusion counts.

The unit of evaluation is the fact: a (query_id, relation) pair. NA never
enters the fact space; an NA query contributes no gold facts and a correct
NA prediction contributes nothing, while relations predicted for an NA
query count as false positives.

Counting works on arrays. A call encodes each fact set it reads once, as a
query × relation indicator matrix with its columns in ontology order:
per-relation counts are column sums, and the confusion counts of every
relation pair are read from one gold × predicted relation count matrix.
Recall@k ranks each gold fact once, by its place in stage 1's order
(``providers.stage1_order``, the order candidate selection takes), and
reads every k from one cumulative count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

import numpy as np

from .corpus import QueryInstance, RelationOntology
from .providers import ScoreMatrix, stage1_order

# below this many discordant pairs the chi-square approximation is poor
EXACT_BINOMIAL_THRESHOLD = 25


@dataclass(frozen=True)
class FactSet:
    """(query_id, relation) pairs plus the query universe they came from."""

    facts: frozenset[tuple[str, str]]
    query_ids: frozenset[str]

    @classmethod
    def from_queries(cls, queries: Iterable[QueryInstance]) -> "FactSet":
        queries = list(queries)
        return cls(
            frozenset((q.query_id, r) for q in queries for r in q.gold),
            frozenset(q.query_id for q in queries),
        )

    @classmethod
    def from_predictions(
        cls,
        predictions: Mapping[str, AbstractSet[str]],
        ontology: RelationOntology,
    ) -> "FactSet":
        facts = set()
        for query_id, relations in predictions.items():
            for r in relations:
                if r == ontology.na_symbol or r not in ontology:
                    raise ValueError(f"prediction {r!r} is not an ontology relation")
                facts.add((query_id, r))
        return cls(frozenset(facts), frozenset(predictions))


@dataclass(frozen=True)
class RelationScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    micro_precision: float
    micro_recall: float
    micro_f1: float
    macro_f1: float
    per_relation: dict[str, RelationScore]
    n_queries: int
    n_gold_facts: int
    # per gold fact: was it predicted? ordered by (query_id, relation)
    paired_records: tuple[tuple[tuple[str, str], bool], ...]


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _indicators(fact_sets: Sequence[FactSet], names: Sequence[str]) -> list[np.ndarray]:
    """One bool matrix per fact set: a row per query that occurs in any of
    the sets (one shared order), a column per relation of ``names``."""
    col_of = {name: j for j, name in enumerate(names)}
    row_of: dict[str, int] = {}
    try:
        coded = [
            [(row_of.setdefault(q, len(row_of)), col_of[r]) for q, r in fact_set.facts]
            for fact_set in fact_sets
        ]
    except KeyError as exc:
        raise ValueError(f"fact relation {exc.args[0]!r} is not an ontology relation") from None
    matrices = []
    for pairs in coded:
        matrix = np.zeros((len(row_of), len(names)), bool)
        rows, cols = np.array(pairs, np.intp).reshape(-1, 2).T
        matrix[rows, cols] = True
        matrices.append(matrix)
    return matrices


def score(gold: FactSet, pred: FactSet, ontology: RelationOntology) -> EvalReport:
    """Micro F1 over pooled fact counts; macro F1 averaged over relations
    with gold support."""
    unknown = pred.query_ids - gold.query_ids
    if unknown:
        raise ValueError(f"predictions for unknown queries: {sorted(unknown)}")
    is_gold, is_pred = _indicators((gold, pred), ontology.names)
    tps = np.count_nonzero(is_gold & is_pred, axis=0).tolist()
    fps = np.count_nonzero(is_pred & ~is_gold, axis=0).tolist()
    fns = np.count_nonzero(is_gold & ~is_pred, axis=0).tolist()
    if not gold.facts and not pred.facts:
        # all-NA gold predicted all-NA: vacuously perfect
        micro_p = micro_r = micro_f1 = 1.0
    else:
        micro_p, micro_r, micro_f1 = _prf(sum(tps), sum(fps), sum(fns))

    per_relation: dict[str, RelationScore] = {}
    supported_f1s = []
    for name, tp, fp, fn in zip(ontology.names, tps, fps, fns):
        support = tp + fn
        p, r, f1 = _prf(tp, fp, fn)
        per_relation[name] = RelationScore(p, r, f1, support)
        if support > 0:
            supported_f1s.append(f1)
    if supported_f1s:
        macro_f1 = sum(supported_f1s) / len(supported_f1s)
    else:
        # no supported relation: perfect only if nothing was predicted
        macro_f1 = 1.0 if not pred.facts else 0.0

    paired = tuple(
        (fact, fact in pred.facts) for fact in sorted(gold.facts)
    )
    return EvalReport(
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f1=micro_f1,
        macro_f1=macro_f1,
        per_relation=per_relation,
        n_queries=len(gold.query_ids),
        n_gold_facts=len(gold.facts),
        paired_records=paired,
    )


def recall_curve(gold: FactSet, scores: ScoreMatrix) -> list[float]:
    """Recall@k for every k from 1 to the number of score columns: the
    fraction of gold facts whose relation ranks in the query's top k.

    A relation's rank is its place in candidate selection's order of the
    query's scores (``stage1_order``): descending, the lower ontology index
    first on ties. Each gold fact is ranked once. Queries with no gold
    facts (NA) never enter the denominator.
    """
    width = scores.matrix.shape[1]
    if not gold.facts:
        return [1.0] * width
    facts = list(gold.facts)
    order = stage1_order(scores.matrix[scores.row_indexes(q for q, _ in facts)])
    cols = np.fromiter((scores.column(r) for _, r in facts), np.intp, len(facts))
    ranks = np.argmax(order == cols[:, None], axis=1)
    hits = np.cumsum(np.bincount(ranks, minlength=width)).tolist()
    return [hit / len(facts) for hit in hits]


def recall_at_k(gold: FactSet, scores: ScoreMatrix, k: int) -> float:
    """Fraction of gold facts whose relation ranks in the query's top k:
    one point of ``recall_curve``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not gold.facts:
        return 1.0
    curve = recall_curve(gold, scores)
    return curve[min(k, len(curve)) - 1]


def pair_reports(report_a: EvalReport, report_b: EvalReport) -> list[tuple[bool, bool]]:
    """Align two reports' per-fact correctness bits over the same gold."""
    facts_a = [fact for fact, _ in report_a.paired_records]
    facts_b = [fact for fact, _ in report_b.paired_records]
    if facts_a != facts_b:
        raise ValueError("reports were scored against different gold facts")
    return [
        (a_ok, b_ok)
        for (_, a_ok), (_, b_ok) in zip(report_a.paired_records, report_b.paired_records)
    ]


@dataclass(frozen=True)
class McNemarResult:
    statistic: float
    p_value: float
    b: int  # A correct, B wrong
    c: int  # A wrong, B correct
    method: str  # "chi2" | "exact-binomial" | "degenerate"


def _binom_cdf(m: int, n: int) -> float:
    """P(X <= m) for X ~ Binomial(n, 1/2), exact."""
    total = sum(math.comb(n, i) for i in range(m + 1))
    return total / 2.0**n


def mcnemar(paired: Sequence[tuple[bool, bool]]) -> McNemarResult:
    """Continuity-corrected McNemar test on paired correctness bits.

    With fewer than 25 discordant pairs the p-value comes from the exact
    two-sided binomial instead of the chi-square tail.
    """
    b = sum(1 for a_ok, b_ok in paired if a_ok and not b_ok)
    c = sum(1 for a_ok, b_ok in paired if not a_ok and b_ok)
    n = b + c
    if n == 0:
        return McNemarResult(0.0, 1.0, 0, 0, "degenerate")
    statistic = (abs(b - c) - 1) ** 2 / n
    if n < EXACT_BINOMIAL_THRESHOLD:
        p = 2.0 * min(_binom_cdf(min(b, c), n), 0.5)
        return McNemarResult(statistic, p, b, c, "exact-binomial")
    # chi-square(1) upper tail
    p = math.erfc(math.sqrt(statistic / 2.0))
    return McNemarResult(statistic, p, b, c, "chi2")


@dataclass(frozen=True)
class ConfusionRow:
    relation_a: str
    relation_b: str
    a_as_a: int
    a_as_b: int
    b_as_a: int
    b_as_b: int


def confusion_pairs(
    gold: FactSet,
    pred: FactSet,
    pairs: Sequence[tuple[str, str]],
    ontology: RelationOntology,
) -> list[ConfusionRow]:
    """2x2 counts for each relation pair: how often gold-rA queries were
    predicted rA vs rB, and symmetrically."""
    index = {name: j for j, name in enumerate(ontology.names)}
    for pair in pairs:
        for name in pair:
            if name not in index:
                raise ValueError(f"unknown relation {name!r} in pair list")
    is_gold, is_pred = _indicators((gold, pred), ontology.names)
    # counts[a][b]: queries with gold relation a that were predicted b
    # (exact: float64 holds every count below 2**53)
    counts = (is_gold.T.astype(float) @ is_pred.astype(float)).astype(np.int64).tolist()
    rows = []
    for ra, rb in pairs:
        a, b = index[ra], index[rb]
        rows.append(
            ConfusionRow(ra, rb, counts[a][a], counts[a][b], counts[b][a], counts[b][b])
        )
    return rows

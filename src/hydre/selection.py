"""Three-stage exemplar selection over a bag-level training corpus.

Stage 1 ranks candidate relations by query confidence, stage 2 picks the
best bag per candidate by combined similarity + confidence, stage 3 picks
the bag sentence with maximal label coverage and aggregate confidence.
Every tie is broken deterministically: ontology index for relations,
corpus order for bags, in-bag order for sentences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .corpus import Bag, Corpus, CorpusError, RelationOntology, SentenceInstance
from .providers import EmbeddingIndex, ProviderError, ScoreMatrix, ScoringConfig


class NoBagForRelation(LookupError):
    """No training bag carries the requested relation."""

    def __init__(self, relation: str) -> None:
        super().__init__(f"no training bag is labeled with {relation!r}")
        self.relation = relation


@dataclass(frozen=True)
class Exemplar:
    """Sentences shown as one prompt block plus their source bag's full
    labelset.

    One sentence for the sentence-level strategies, the whole or reduced bag
    for the bag styles. Stage-2 picks name the candidate relation they were
    chosen for and its score; baseline exemplars carry no candidate.
    """

    sentences: tuple[SentenceInstance, ...]
    labels: frozenset[str]
    source_bag_id: str
    candidate_relation: str | None = None
    candidate_score: float | None = None

    def __post_init__(self) -> None:
        if (
            self.candidate_relation is not None
            and self.candidate_relation not in self.labels
        ):
            raise ValueError(
                f"candidate relation {self.candidate_relation!r} missing from "
                f"exemplar labels {sorted(self.labels)}"
            )

    @property
    def sentence(self) -> SentenceInstance:
        """The one sentence of a sentence-level exemplar."""
        (sentence,) = self.sentences
        return sentence


EXEMPLAR_STYLES = ("sentence", "full_bag", "reduced_bag", "zero_shot")


@dataclass(frozen=True)
class ExemplarSet:
    """One query's selection, as every strategy returns it.

    Exemplars that carry a candidate relation are ordered ascending by
    candidate score, at most one per candidate: the least relevant comes
    first so the most relevant sits adjacent to the query in the prompt.
    ``candidates`` records the stage-1 output and ``skipped`` the candidate
    relations with no training bag. ``style`` says how the exemplars are
    rendered and ``relation_scope`` which relations the prompt lists.
    """

    query_id: str
    exemplars: tuple[Exemplar, ...] = ()
    candidates: tuple[tuple[str, float], ...] = ()
    skipped: tuple[str, ...] = ()
    style: str = "sentence"
    relation_scope: str = "full_ontology"

    def __post_init__(self) -> None:
        if self.style not in EXEMPLAR_STYLES:
            raise ValueError(f"unknown exemplar style {self.style!r}")
        picked = [e for e in self.exemplars if e.candidate_relation is not None]
        scores = [e.candidate_score for e in picked]
        if any(a > b for a, b in zip(scores, scores[1:])):
            raise ValueError("exemplars must be ordered ascending by score")
        relations = [e.candidate_relation for e in picked]
        if len(set(relations)) != len(relations):
            raise ValueError("at most one exemplar per candidate relation")


@dataclass(frozen=True)
class CorpusView:
    """Columnar view of a corpus against the providers a selection reads.

    Sentences are numbered in corpus order. Bag b owns the sentence
    positions starts[b] .. starts[b] + lengths[b] - 1 (CSR layout), and
    sentence_bag maps each position back to its bag. The provider parts are
    None for a provider the selection does not consult.
    """

    starts: np.ndarray
    lengths: np.ndarray
    sentence_bag: np.ndarray
    bag_position: dict[str, int]
    bags_by_relation: dict[str, np.ndarray]
    embedding_rows: np.ndarray | None  # sentence position -> embedding row
    score_rows: np.ndarray | None  # sentence position -> score row
    confidence: np.ndarray | None  # bag x relation: max over the bag's sentences

    def bag_similarities(
        self, q_id: str, embeddings: EmbeddingIndex, pooling: str
    ) -> np.ndarray:
        """The query's similarity to every bag: one mat-vec, then a segmented
        max (or mean) over each bag's sentences."""
        sims = embeddings.similarities(q_id, self.embedding_rows)
        if pooling == "mean":
            return np.add.reduceat(sims, self.starts) / self.lengths
        return np.maximum.reduceat(sims, self.starts)


def corpus_view(
    corpus: Corpus, scores: ScoreMatrix | None, embeddings: EmbeddingIndex | None
) -> CorpusView:
    """The columnar view of a corpus against the given providers.

    Built on first use and kept in ``corpus.view_cache`` until a call names
    other providers, so a selection pass over many queries builds it once.
    """
    cached = corpus.view_cache.get("view")
    if cached is not None and cached[0] is scores and cached[1] is embeddings:
        return cached[2]
    bags = corpus.bags
    lengths = np.fromiter((len(b.sentences) for b in bags), np.intp, len(bags))
    starts = np.cumsum(lengths) - lengths
    position = {bag.bag_id: i for i, bag in enumerate(bags)}
    sentence_ids = [s.sentence_id for bag in bags for s in bag.sentences]
    score_rows = confidence = None
    if scores is not None:
        score_rows = scores.row_indexes(sentence_ids)
        confidence = np.maximum.reduceat(scores.matrix[score_rows], starts, axis=0)
    view = CorpusView(
        starts=starts,
        lengths=lengths,
        sentence_bag=np.repeat(np.arange(len(bags)), lengths),
        bag_position=position,
        bags_by_relation={
            relation: np.array([position[b] for b in bag_ids], dtype=np.intp)
            for relation, bag_ids in corpus.bags_by_relation.items()
        },
        embedding_rows=(
            None if embeddings is None else embeddings.row_indexes(sentence_ids)
        ),
        score_rows=score_rows,
        confidence=confidence,
    )
    corpus.view_cache["view"] = (scores, embeddings, view)
    return view


def _consulted(
    scores: ScoreMatrix | None,
    embeddings: EmbeddingIndex | None,
    config: ScoringConfig,
) -> tuple[ScoreMatrix | None, EmbeddingIndex | None]:
    """The providers a config reads; one whose weight is zero is never
    consulted, so confidence-only and similarity-only modes run without the
    other artifact."""
    if config.w_sim > 0 and embeddings is None:
        raise ProviderError("w_sim > 0 but no embedding index supplied")
    if config.w_conf > 0 and scores is None:
        raise ProviderError("w_conf > 0 but no score matrix supplied")
    return (
        scores if config.w_conf > 0 else None,
        embeddings if config.w_sim > 0 else None,
    )


def select_candidates(
    q_id: str, scores: ScoreMatrix, k: int
) -> list[tuple[str, float]]:
    """Stage 1: the k relations with highest f(q, r), descending.

    Ties break toward the lower ontology index. k larger than the ontology
    is clamped, which also serves the run-every-relation variant.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vec = scores.vector(q_id)
    order = sorted(range(len(vec)), key=lambda i: (-vec[i], i))
    return [(scores.relation_order[i], float(vec[i])) for i in order[:k]]


def combined_bag_scores(
    q_id: str,
    relation: str,
    corpus: Corpus,
    scores: ScoreMatrix | None,
    embeddings: EmbeddingIndex | None,
    config: ScoringConfig,
    bag_sims: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """w_sim * sim(q, bag) + w_conf * f(bag, relation) for every bag
    labelled with the relation.

    Returns (bag indexes in corpus order, their scores). ``bag_sims``, the
    query's similarity to every corpus bag, is computed when not given.
    """
    scores, embeddings = _consulted(scores, embeddings, config)
    view = corpus_view(corpus, scores, embeddings)
    bags = view.bags_by_relation[relation]
    total = 0.0
    if embeddings is not None:
        if bag_sims is None:
            bag_sims = view.bag_similarities(q_id, embeddings, config.bag_sim_pooling)
        total = config.w_sim * bag_sims[bags]
    if scores is not None:
        total = total + config.w_conf * view.confidence[bags, scores.column(relation)]
    return bags, total


def select_bag(
    q_id: str,
    relation: str,
    corpus: Corpus,
    scores: ScoreMatrix | None,
    embeddings: EmbeddingIndex | None,
    config: ScoringConfig,
    bag_sims: np.ndarray | None = None,
) -> str:
    """Stage 2: argmax of the combined bag score; ties keep the earliest bag."""
    bag_ids = corpus.bags_by_relation.get(relation)
    if bag_ids is None:
        raise KeyError(f"unknown relation {relation!r}")
    if not bag_ids:
        raise NoBagForRelation(relation)
    bags, total = combined_bag_scores(
        q_id, relation, corpus, scores, embeddings, config, bag_sims
    )
    # argmax returns the first maximum, which is the earliest bag
    return corpus.bags[bags[int(np.argmax(total))]].bag_id


def select_sentence(bag: Bag, scores: ScoreMatrix, threshold: float) -> SentenceInstance:
    """Stage 3: maximal label coverage, then maximal aggregate confidence.

    Coverage counts bag labels scored strictly above the threshold; among
    coverage-maximal sentences the one with the highest confidence sum over
    all bag labels wins, earliest in-bag position on ties.
    """
    columns = [scores.column(r) for r in sorted(bag.labelset)]
    best = None
    best_key = (-1, float("-inf"))
    for sentence in bag.sentences:
        row = scores.vector(sentence.sentence_id)
        confs = [float(row[c]) for c in columns]
        coverage = sum(1 for c in confs if c > threshold)
        aggregate = sum(confs)
        if (coverage, aggregate) > best_key:
            best, best_key = sentence, (coverage, aggregate)
    assert best is not None
    return best


def _order_ascending(exemplars: list) -> tuple:
    # Reverse candidate order, then stable-sort ascending by score: scores
    # become nondecreasing and ties keep the higher-ranked candidate last
    # (adjacent to the query).
    return tuple(sorted(reversed(exemplars), key=lambda e: e.candidate_score))


def _query_rng(seed: int, q_id: str) -> random.Random:
    # String seeding hashes with SHA-512 internally: stable across runs,
    # platforms, and batch order.
    return random.Random(f"{seed}|{q_id}")


def _similarity_candidates(
    corpus: Corpus, bag_sims: np.ndarray, k: int
) -> list[tuple[str, float]]:
    """Confidence-free stage 1: labels of the k most similar bags.

    A documented heuristic for running without any confidence model: rank
    bags by similarity, then collect their labelsets in that order,
    deduplicated, NA excluded.
    """
    candidates: list[tuple[str, float]] = []
    seen: set[str] = set()
    for i in np.argsort(-bag_sims, kind="stable")[:k]:
        bag, sim = corpus.bags[i], float(bag_sims[i])
        for label in corpus.ontology.sorted_labels(bag.labelset):
            if label == corpus.ontology.na_symbol or label in seen:
                continue
            seen.add(label)
            candidates.append((label, sim))
    return candidates


def select_candidate_bags(
    q_id: str,
    corpus: Corpus,
    scores: ScoreMatrix | None,
    embeddings: EmbeddingIndex | None,
    config: ScoringConfig,
) -> tuple[list[tuple[str, float]], list[tuple[str, float, str]], list[str]]:
    """Stages 1 + 2: candidates, their chosen bags, and recorded skips.

    Returns (candidates, picks, skipped) where picks holds
    (relation, score, bag_id) in candidate order. In similarity-only mode
    (w_conf = 0) the exemplar score is the chosen bag's similarity. The
    query's bag similarities are computed once and shared by every stage.
    """
    scores, embeddings = _consulted(scores, embeddings, config)
    view = corpus_view(corpus, scores, embeddings)
    bag_sims = None
    if embeddings is not None:
        bag_sims = view.bag_similarities(q_id, embeddings, config.bag_sim_pooling)
    if scores is not None:
        candidates = select_candidates(q_id, scores, config.k)
    else:
        candidates = _similarity_candidates(corpus, bag_sims, config.k)
    picks: list[tuple[str, float, str]] = []
    skipped: list[str] = []
    for relation, score in candidates:
        try:
            bag_id = select_bag(
                q_id, relation, corpus, scores, embeddings, config, bag_sims=bag_sims
            )
        except NoBagForRelation:
            skipped.append(relation)
            continue
        if scores is None:
            score = float(bag_sims[view.bag_position[bag_id]])
        picks.append((relation, score, bag_id))
    return candidates, picks, skipped


def build_exemplar_set(
    q_id: str,
    corpus: Corpus,
    scores: ScoreMatrix | None,
    embeddings: EmbeddingIndex | None,
    config: ScoringConfig,
    style: str = "sentence",
) -> ExemplarSet:
    """Run all three stages for one query.

    Stage 3 picks one sentence per chosen bag for the "sentence" style; the
    "full_bag" style shows the whole bag and "reduced_bag" one best sentence
    per bag label (``reduce_bag``). With w_conf = 0 there is no confidence
    model: sentence selection falls back to a seeded uniform choice within
    the chosen bag and ordering is ascending by bag similarity.
    """
    candidates, picks, skipped = select_candidate_bags(
        q_id, corpus, scores, embeddings, config
    )
    rng = _query_rng(config.seed, q_id) if config.w_conf == 0 else None
    exemplars = []
    for relation, score, bag_id in picks:
        bag = corpus.bags_by_id[bag_id]
        if style == "full_bag":
            sentences = bag.sentences
        elif style == "reduced_bag":
            sentences = tuple(s for s, _ in group_reduced(reduce_bag(bag, scores)))
        elif rng is not None:
            sentences = (bag.sentences[rng.randrange(len(bag.sentences))],)
        else:
            sentences = (select_sentence(bag, scores, config.threshold),)
        exemplars.append(Exemplar(sentences, bag.labelset, bag_id, relation, score))
    return ExemplarSet(
        query_id=q_id,
        exemplars=_order_ascending(exemplars),
        candidates=tuple(candidates),
        skipped=tuple(skipped),
        style=style,
    )


def reduce_bag(bag: Bag, scores: ScoreMatrix) -> list[tuple[str, SentenceInstance]]:
    """One best sentence per bag label: highest f(s, r), in-bag order on ties.

    Labels are visited in ontology order. A label without a score column
    (e.g. the NA symbol) is rejected.
    """
    order = {name: i for i, name in enumerate(scores.relation_order)}
    unknown = [l for l in bag.labelset if l not in order]
    if unknown:
        raise ValueError(
            f"bag {bag.bag_id!r} labels {sorted(unknown)} have no score column"
        )
    pairs: list[tuple[str, SentenceInstance]] = []
    for relation in sorted(bag.labelset, key=order.__getitem__):
        best = max(
            bag.sentences,
            key=lambda s: scores.score_of(s.sentence_id, relation),
        )
        # max() keeps the first maximal element: in-bag order tie-break
        pairs.append((relation, best))
    return pairs


def group_reduced(
    pairs: list[tuple[str, SentenceInstance]]
) -> list[tuple[SentenceInstance, list[str]]]:
    """Collapse duplicate sentences, keeping the union of their relations."""
    grouped: dict[str, tuple[SentenceInstance, list[str]]] = {}
    for relation, sentence in pairs:
        if sentence.sentence_id not in grouped:
            grouped[sentence.sentence_id] = (sentence, [])
        grouped[sentence.sentence_id][1].append(relation)
    return list(grouped.values())


def serialize_exemplar_set(
    exemplar_set: ExemplarSet, ontology: RelationOntology
) -> dict:
    """Audit/replay record for one query's selection.

    A sentence-style exemplar names its ``sentence_id``; a bag-style one
    has ``"sentence_id": null`` and lists its ``sentence_ids``.
    """
    entries = []
    for e in exemplar_set.exemplars:
        entry = {
            "source_bag_id": e.source_bag_id,
            "candidate_relation": e.candidate_relation,
            "candidate_score": e.candidate_score,
            "labels": ontology.sorted_labels(e.labels),
        }
        if exemplar_set.style == "sentence":
            entry["sentence_id"] = e.sentence.sentence_id
        else:
            entry["sentence_id"] = None
            entry["sentence_ids"] = [s.sentence_id for s in e.sentences]
        entries.append(entry)
    return {
        "query_id": exemplar_set.query_id,
        "exemplars": entries,
        "candidates": [[r, s] for r, s in exemplar_set.candidates],
        "skipped": list(exemplar_set.skipped),
        "style": exemplar_set.style,
        "relation_scope": exemplar_set.relation_scope,
    }


def deserialize_exemplar_set(record: dict, corpus: Corpus) -> ExemplarSet:
    """Rebuild a selection from its serialized record and the corpus.

    A sentence id the corpus does not hold raises ``CorpusError``.
    """
    style = record.get("style", "sentence")
    sentences = corpus.sentences_by_id
    exemplars = []
    for e in record["exemplars"]:
        ids = [e["sentence_id"]] if style == "sentence" else e["sentence_ids"]
        for sid in ids:
            if sid not in sentences:
                raise CorpusError(
                    f"query {record['query_id']!r} selects sentence {sid!r}, "
                    "which is not in the corpus"
                )
        exemplars.append(
            Exemplar(
                tuple(sentences[sid] for sid in ids),
                frozenset(e["labels"]),
                e["source_bag_id"],
                e["candidate_relation"],
                e["candidate_score"],
            )
        )
    return ExemplarSet(
        record["query_id"],
        tuple(exemplars),
        tuple((r, float(s)) for r, s in record.get("candidates", [])),
        tuple(record.get("skipped", [])),
        style,
        record.get("relation_scope", "full_ontology"),
    )

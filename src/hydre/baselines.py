"""Exemplar-selection baselines over the flattened corpus, plus the
ablations that replace stages 2 and 3 of the main pipeline.

Baselines operate on sentences: bags are flattened and every sentence
inherits its bag's full labelset. All selections are deterministic given
a seed.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .providers import ScoreMatrix, ScoringConfig, mapped_similarity
from .selection import (
    CorpusView,
    Exemplar,
    ExemplarSet,
    _expanded,
    _query_rng,
    candidate_set,
    select_candidates,
)

DEFAULT_MMR_ALPHA = 0.3
DEFAULT_MMR_POOL_SIZE = 100


def _sentence_exemplar(
    corpus: Corpus, pos: int, relation: str | None = None, score: float | None = None
) -> Exemplar:
    """The one-sentence exemplar of a corpus sentence position."""
    b = int(corpus.sentence_bag[pos])
    return Exemplar(
        (corpus.sentence(pos),), corpus.labelset(b), corpus.bag_ids[b], relation, score
    )


class FlatExamples(Sequence):
    """A corpus's flattened sentences in corpus order; the exemplar at a
    sentence position is built when it is read."""

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus

    def __len__(self) -> int:
        return len(self.corpus.sentence_ids)

    def __getitem__(self, pos: int) -> Exemplar:
        if not 0 <= pos < len(self):
            raise IndexError(pos)
        return _sentence_exemplar(self.corpus, pos)


def flatten(corpus: Corpus) -> FlatExamples:
    """One single-sentence Exemplar per corpus sentence, carrying its bag's
    full labelset, in corpus order; each is built when it is read."""
    return FlatExamples(corpus)


def random_k(
    flat: Sequence[Exemplar], k: int, seed: int | str
) -> list[Exemplar]:
    """Uniform sample without replacement, deterministic given the seed.
    The sampled positions depend only on the seed, k and len(flat)."""
    if k > len(flat):
        raise ValueError(f"k={k} exceeds corpus size {len(flat)}")
    return random.Random(seed).sample(flat, k)


def _scored(flat: FlatExamples, example: int, sim: float) -> Exemplar:
    """The example scored with its exact similarity to the query."""
    return dataclasses.replace(flat[example], candidate_score=float(sim))


def topk_sim(
    q_id: str, flat: FlatExamples, view: CorpusView, k: int
) -> list[Exemplar]:
    """The k sentences most similar to the query, descending; corpus order
    breaks ties. Each carries its exact similarity as its candidate score.

    ``view`` is a view of ``flat``'s corpus with an embedding index. The
    ranking is that of exact similarities (``CorpusView.top``): screened
    similarities only narrow which examples get one.
    """
    top, top_sims = view.top(q_id, k)
    return [_scored(flat, i, sim) for i, sim in zip(top.tolist(), top_sims)]


def mmr_select(
    q_id: str,
    flat: FlatExamples,
    view: CorpusView,
    k: int,
    alpha: float = DEFAULT_MMR_ALPHA,
    pool_size: int | None = DEFAULT_MMR_POOL_SIZE,
) -> list[Exemplar]:
    """Greedy maximal-marginal-relevance selection (Carbonell & Goldstein,
    SIGIR 1998), in selection order.

    Each step maximizes alpha * sim(q, s) - (1 - alpha) * max sim(s, s')
    over sentences not yet selected, where s' ranges over the selection so
    far. A tie goes to the higher exact query similarity, then to the
    earlier corpus position. ``view`` is a view of ``flat``'s corpus with
    an embedding index. The pool is every sentence when pool_size is None,
    else the pool_size most query-similar sentences (``CorpusView.top``).
    Every similarity read is exact, one float64 dot of the pool row, and
    each pick carries its query similarity as its candidate score.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    if pool_size is None:
        pool = np.arange(len(flat))
    else:
        pool = view.top(q_id, pool_size)[0]
    if k > len(pool):
        raise ValueError(f"k={k} exceeds pool size {len(pool)}")
    rows = view.embedding_rows[pool]
    if len(rows) and np.array_equal(rows, np.arange(rows[0], rows[0] + len(rows))):
        # a run of rows (every sentence's, in order, when the file starts
        # with the corpus sentences) is read in place, not copied
        vectors = view.embeddings.matrix[rows[0] : rows[0] + len(rows)]
    else:
        vectors = view.embeddings.matrix[rows]
    # bit-equal to EmbeddingIndex.similarities: the same dot of the same row
    q_sims = mapped_similarity(np.vecdot(vectors, view.embeddings.vector(q_id)))

    selected: list[int] = []
    max_to_selected = np.zeros(len(pool))
    for _ in range(k):
        objective = alpha * q_sims
        if selected:
            to_last = mapped_similarity(np.vecdot(vectors, vectors[selected[-1]]))
            max_to_selected = np.maximum(max_to_selected, to_last)
            objective = objective - (1.0 - alpha) * max_to_selected
            objective[selected] = -np.inf
        tied = np.flatnonzero(objective == objective.max())
        # either pool lists equal query similarities in corpus order, so
        # argmax takes the earliest
        selected.append(int(tied[np.argmax(q_sims[tied])]))
    return [_scored(flat, pool[j], q_sims[j]) for j in selected]


def sentence_runs(view: CorpusView, bags: np.ndarray, column: int | None) -> tuple:
    """Flat retrieval's items (``CorpusView.pick``): every sentence of the
    bags, in corpus order, as a run of one, each with its own score in the
    score column."""
    positions, _ = _expanded(view.corpus.starts[bags], view.corpus.lengths[bags])
    confidence = None
    if column is not None:
        confidence = view.scores.matrix[view.score_rows[positions], column]
    return positions, np.ones_like(positions), confidence


def flat_retrieval(
    q_id: str,
    view: CorpusView,
    config: ScoringConfig,
) -> ExemplarSet:
    """Stage 2/3 replacement: retrieve one best sentence per candidate
    directly from the flattened corpus, scored like a one-sentence bag:
    stage 2's pick (``CorpusView.pick``) over the sentences of the
    candidate's bags (``sentence_runs``). The earliest sentence in corpus
    order wins a tie. The view's score matrix is read for stage 1, and for
    the pick when w_conf > 0; its embedding index only when w_sim > 0.
    Stage 1 ranks by the score matrix whatever the weights, so a pick is
    decided for the block of chunk queries that rank its relation."""
    corpus = view.corpus

    def exemplar(relation: str, score: float) -> Exemplar | None:
        if not len(corpus.bags_by_relation[relation]):
            return None
        pos, _ = view.pick(q_id, relation, config, sentence_runs)
        return _sentence_exemplar(corpus, pos, relation, score)

    return candidate_set(q_id, select_candidates(q_id, view.scores, config.k), exemplar)


def random_bag_sentence(
    q_id: str,
    corpus: Corpus,
    scores: ScoreMatrix,
    config: ScoringConfig,
) -> ExemplarSet:
    """Both retrieval signals removed: seeded-random bag per candidate,
    then a seeded-random sentence from it."""
    rng = _query_rng(config.seed, q_id)

    def exemplar(relation: str, score: float) -> Exemplar | None:
        bags = corpus.bags_by_relation[relation]
        if not len(bags):
            return None
        b = int(bags[rng.randrange(len(bags))])
        pos = int(corpus.starts[b]) + rng.randrange(int(corpus.lengths[b]))
        return _sentence_exemplar(corpus, pos, relation, score)

    return candidate_set(q_id, select_candidates(q_id, scores, config.k), exemplar)

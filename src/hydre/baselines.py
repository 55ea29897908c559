"""Exemplar-selection baselines over the flattened corpus, plus the
ablations that replace stages 2 and 3 of the main pipeline.

Baselines operate on sentences: bags are flattened and every sentence
inherits its bag's full labelset. All selections are deterministic given
a seed.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .providers import ScoreMatrix, ScoringConfig, screen_slack, settle_argmax, settle_top
from .selection import (
    CorpusView,
    Exemplar,
    ExemplarSet,
    _order_ascending,
    _query_rng,
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


def _settled_top(
    q_id: str, flat: FlatExamples, view: CorpusView, k: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """(positions, exact similarities) of the k examples most similar to
    the query, descending, corpus order on ties. k None ranks every example
    from exact similarities alone, so nothing is screened."""
    return settle_top(
        view.similarities(q_id, exact=k is None),
        screen_slack(view.embeddings.dim),
        len(flat) if k is None else k,
        functools.partial(view.exact_similarities, q_id),
    )


def _scored(flat: FlatExamples, example: int, sim: float) -> Exemplar:
    """The example scored with its exact similarity to the query."""
    return dataclasses.replace(flat[example], candidate_score=float(sim))


def topk_sim(
    q_id: str, flat: FlatExamples, view: CorpusView, k: int
) -> list[Exemplar]:
    """The k sentences most similar to the query, descending; corpus order
    breaks ties. Each carries its exact similarity as its candidate score.

    ``view`` is a view of ``flat``'s corpus with an embedding index. The
    ranking is that of exact similarities: its screened similarities
    (``CorpusView.similarities``) only narrow which examples get one.
    """
    top, top_sims = _settled_top(q_id, flat, view, k)
    return [_scored(flat, i, sim) for i, sim in zip(top.tolist(), top_sims)]


def mmr_select(
    q_id: str,
    flat: FlatExamples,
    view: CorpusView,
    k: int,
    alpha: float = DEFAULT_MMR_ALPHA,
    pool_size: int | None = DEFAULT_MMR_POOL_SIZE,
) -> list[Exemplar]:
    """Greedy maximal-marginal-relevance selection, in selection order.

    Each step maximizes alpha * sim(q, s) - (1 - alpha) * max sim(s, s')
    over sentences not yet selected, where s' ranges over the selection so
    far; the earliest pool entry wins a tie. ``view`` is a view of
    ``flat``'s corpus with an embedding index. The pool is pre-truncated to
    the pool_size most query-similar sentences; pass pool_size=None to rank
    the whole corpus, whose query similarities are then computed exactly
    for the view's whole query chunk at once. The pool and its query
    similarities are exact, and each pick carries its query similarity as
    its candidate score.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    pool, q_sims = _settled_top(q_id, flat, view, pool_size)
    if k > len(pool):
        raise ValueError(f"k={k} exceeds pool size {len(pool)}")
    vectors = view.embeddings.matrix[view.embedding_rows[pool]]

    selected: list[int] = []
    available = np.ones(len(pool), dtype=bool)
    max_to_selected = np.zeros(len(pool))
    for _ in range(k):
        objective = alpha * q_sims
        if selected:
            objective = objective - (1.0 - alpha) * max_to_selected
        best_j = int(np.argmax(np.where(available, objective, -np.inf)))
        selected.append(best_j)
        available[best_j] = False
        to_best = (1.0 + np.vecdot(vectors, vectors[best_j])) / 2.0
        max_to_selected = np.maximum(max_to_selected, to_best)
    return [_scored(flat, pool[j], q_sims[j]) for j in selected]


def flat_retrieval(
    q_id: str,
    view: CorpusView,
    config: ScoringConfig,
) -> ExemplarSet:
    """Stage 2/3 replacement: retrieve one best sentence per candidate
    directly from the flattened corpus, scored like a one-sentence bag.
    The earliest sentence in corpus order wins a tie; screened similarities
    narrow each argmax, exact ones settle it. The view's score matrix is
    always read, its embedding index only when w_sim > 0."""
    corpus, scores = view.corpus, view.scores
    candidates = select_candidates(q_id, scores, config.k)
    sims = None
    if config.w_sim > 0:
        sims = view.similarities(q_id)
        slack = screen_slack(view.embeddings.dim, None, config.w_sim, config.w_conf)
    exemplars = []
    skipped = []
    for relation, score in candidates:
        bags = corpus.bags_by_relation[relation]
        if not len(bags):
            skipped.append(relation)
            continue
        positions = np.flatnonzero(np.isin(corpus.sentence_bag, bags))
        rows = view.score_rows[positions]
        conf = config.w_conf * scores.matrix[rows, scores.column(relation)]
        if sims is None:
            best = int(np.argmax(conf))
        else:

            def exact(near: np.ndarray) -> np.ndarray:
                return conf[near] + config.w_sim * view.exact_similarities(
                    q_id, positions[near]
                )

            best = settle_argmax(conf + config.w_sim * sims[positions], slack, exact)
        exemplars.append(_sentence_exemplar(corpus, positions[best], relation, score))
    return ExemplarSet(
        q_id, _order_ascending(exemplars), tuple(candidates), tuple(skipped)
    )


def random_bag_sentence(
    q_id: str,
    corpus: Corpus,
    scores: ScoreMatrix,
    config: ScoringConfig,
) -> ExemplarSet:
    """Both retrieval signals removed: seeded-random bag per candidate,
    then a seeded-random sentence from it."""
    candidates = select_candidates(q_id, scores, config.k)
    rng = _query_rng(config.seed, q_id)
    exemplars = []
    skipped = []
    for relation, score in candidates:
        bags = corpus.bags_by_relation[relation]
        if not len(bags):
            skipped.append(relation)
            continue
        b = int(bags[rng.randrange(len(bags))])
        pos = int(corpus.starts[b]) + rng.randrange(int(corpus.lengths[b]))
        exemplars.append(_sentence_exemplar(corpus, pos, relation, score))
    return ExemplarSet(
        q_id, _order_ascending(exemplars), tuple(candidates), tuple(skipped)
    )

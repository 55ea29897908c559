"""Three-stage exemplar selection over a bag-level training corpus.

Stage 1 ranks candidate relations by query confidence, stage 2 picks the
best bag per candidate by combined similarity + confidence, stage 3 picks
the bag sentence with maximal label coverage and aggregate confidence.
Every tie is broken deterministically: ontology index for relations,
corpus order for bags, in-bag order for sentences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from .corpus import Corpus, CorpusError, RelationOntology, SentenceInstance
from .providers import (
    EmbeddingIndex,
    ProviderError,
    ScoreMatrix,
    ScoringConfig,
    mapped_similarity,
    screen_slack,
    settle_columns,
    settle_top,
    stage1_order,
)


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
RELATION_SCOPES = ("full_ontology", "candidates_only")


@dataclass(frozen=True)
class ExemplarSet:
    """One query's selection, as every strategy returns it.

    Exemplars that carry a candidate relation are ordered ascending by
    candidate score, at most one per candidate: the least relevant comes
    first so the most relevant sits adjacent to the query in the prompt.
    ``candidates`` records the stage-1 output and ``skipped`` the candidate
    relations with no training bag. ``style`` says how the exemplars are
    rendered and ``relation_scope`` which relations the prompt lists: the
    whole ontology, or only the candidates (``candidates_only``).
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
        if self.relation_scope not in RELATION_SCOPES:
            raise ValueError(f"unknown relation scope {self.relation_scope!r}")
        picked = [e for e in self.exemplars if e.candidate_relation is not None]
        scores = [e.candidate_score for e in picked]
        if any(a > b for a, b in zip(scores, scores[1:])):
            raise ValueError("exemplars must be ordered ascending by score")
        relations = [e.candidate_relation for e in picked]
        if len(set(relations)) != len(relations):
            raise ValueError("at most one exemplar per candidate relation")


# Bytes of a query chunk's screened dot products (float32): about 330 queries
# against the 12.8k rows of 5k bags, 32 against the 128k rows of 50k bags.
SCREEN_BYTES = 16 << 20


@dataclass
class _Chunk:
    """One chunk of queries (``CorpusView._chunk_of``) and what the view
    derives for them, each filled on first need: their screened dot
    products with every embedding row, the bag similarities pooled from
    those, their stage-1 ranks and the picks made for them."""

    index: dict[str, int]  # query id -> its row of ``dots``
    dots: np.ndarray | None = None  # query x embedding row: a transposed screen
    bag_sims: dict = field(default_factory=dict)  # pooling -> query x bag
    # (the rows of the queries with a score row, query x relation: its
    # place in stage 1's order)
    ranks: tuple[np.ndarray, np.ndarray] | None = None
    # (items, relation, w_sim, w_conf, pooling, alone) -> (each row's picked
    # position, -1 while undecided; with alone, its exact similarity)
    picks: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CorpusView:
    """One selection pass over a corpus: the corpus and its providers (None
    for one the pass does not have). ``select`` builds one for its query
    file and hands it to every strategy and every k; it is freed when the
    command returns. A library caller builds
    ``CorpusView(corpus, scores, embeddings)``.

    The matrix row of each sentence position is derived on first read.
    Which providers a selection reads is decided by its scoring weights,
    not by what the view holds.

    The view owns the similarity screen. Queries are screened in chunks:
    aligned runs of ``corpus.queries`` whose screened dot products with
    every embedding row fit in ``SCREEN_BYTES``; a query outside
    ``corpus.queries`` is a chunk of its own. The first request for a
    query's sentence similarities computes them for its chunk with one
    float32 matrix product (``EmbeddingIndex.screen_dots``), and the first
    request for a bag similarity pools the whole chunk at once, one
    read-only query x bag matrix per pooling. Stage 2 and flat retrieval
    (``pick``) read neither: they screen one relation's items at a time,
    against the chunk's queries that rank the relation among their
    candidates, decide that block of queries at once and keep its picks
    with the chunk, one array per relation and scoring (``kept_pick``).
    The view keeps one chunk (``_Chunk``) until a request falls outside
    it. Each decision that reads similarities (``pick``,
    ``top``) settles whatever a screened value could get wrong with exact
    float64 values, so what a selection picks does not depend on the
    screen's precision, nor on how its queries fall into chunks or in what
    order they are visited.

    Stage 3 (``sentence_pick``) is decided in one array pass for every bag
    the chunk's stage-2 picks name that has no sentence yet, and each
    bag's sentence is kept. A k sweep selects each query for every k in
    turn with the same view, so the kept picks and sentences serve every
    k; each depends only on the query or bag, the scoring and the view's
    providers, not on k.
    """

    corpus: Corpus
    scores: ScoreMatrix | None
    embeddings: EmbeddingIndex | None
    # query id -> the _Chunk that holds it; one chunk at a time
    chunk: dict = field(default_factory=dict, init=False, repr=False)
    # (bag, threshold) -> its stage-3 sentence
    sentence_picks: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def embedding_rows(self) -> np.ndarray:
        """The embedding row of each sentence position."""
        return _sentence_rows(self.corpus, self.embeddings)

    @cached_property
    def score_rows(self) -> np.ndarray:
        """The score row of each sentence position."""
        return _sentence_rows(self.corpus, self.scores)

    @cached_property
    def query_position(self) -> dict[str, int]:
        """The index of each query in ``corpus.queries``."""
        return {q.query_id: i for i, q in enumerate(self.corpus.queries)}

    def _chunk_of(self, q_id: str) -> list[str]:
        """The aligned run of ``corpus.queries`` that holds the query and
        whose screened dot products fit in ``SCREEN_BYTES``; the query alone
        if it is not one of them."""
        i = self.query_position.get(q_id)
        if i is None:
            return [q_id]
        rows = 0 if self.embeddings is None else len(self.embeddings.matrix32)
        if not rows:  # nothing to screen: one chunk
            return [q.query_id for q in self.corpus.queries]
        size = max(1, SCREEN_BYTES // (self.embeddings.matrix32.itemsize * rows))
        i -= i % size
        return [q.query_id for q in self.corpus.queries[i : i + size]]

    def _held(self, q_id: str) -> _Chunk:
        """The chunk held if it holds the query, else a new, empty record
        of the query's chunk."""
        held = self.chunk.get(q_id)
        if held is None:
            self.chunk.clear()
            q_ids = self._chunk_of(q_id)
            held = _Chunk(dict(zip(q_ids, range(len(q_ids)))))
            self.chunk.update(dict.fromkeys(q_ids, held))
        return held

    def _dots(self, held: _Chunk) -> np.ndarray:
        """The chunk's screened dot products, query x embedding row, made
        on the first request."""
        if held.dots is None:
            held.dots = self.embeddings.screen_dots(list(held.index)).T
        return held.dots

    def similarities(self, q_id: str) -> np.ndarray:
        """The query's screened similarity to each corpus sentence, by
        position, each within ``screen_slack`` of the exact one."""
        held = self._held(q_id)
        return mapped_similarity(self._dots(held)[held.index[q_id], self.embedding_rows])

    def exact_similarities(self, q_id: str, positions: np.ndarray) -> np.ndarray:
        """The exact similarity of the query to each given sentence
        position (``EmbeddingIndex.similarities``)."""
        return self.embeddings.similarities(q_id, self.embedding_rows[positions])

    def bag_similarities(self, q_id: str, pooling: str) -> np.ndarray:
        """The query's screened similarity to every bag, a max (or mean)
        over each bag's screened sentence similarities. Each lies within
        ``_slack(pooling)`` of the exact value, which
        ``exact_bag_similarities`` gives. The first request pools the
        query's whole chunk from its whole-matrix screen (``_screened`` of
        every bag), one query x bag matrix per pooling; read-only."""
        held = self._held(q_id)
        sims = held.bag_sims.get(pooling)
        if sims is None:
            corpus, dots = self.corpus, self._dots(held).T
            sims = self._screened(corpus.starts, corpus.lengths, pooling, dots.__getitem__)
            sims.setflags(write=False)
            sims = held.bag_sims[pooling] = sims.T
        return sims[held.index[q_id]]

    def exact_bag_similarities(self, q_id: str, pooling: str, bags: np.ndarray) -> np.ndarray:
        """The exact similarity of each given bag (``exact_run_similarities``)."""
        starts, lengths = self.corpus.starts[bags], self.corpus.lengths[bags]
        return self.exact_run_similarities(q_id, pooling, starts, lengths)

    def exact_run_similarities(
        self, q_id: str, pooling: str, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """The exact similarity of each run of sentence positions (first
        position, length): the max (or mean) of its sentences' exact
        similarities, bit-equal to pooling those of every corpus sentence,
        since a segment's max or sum depends only on its own values, in
        order. A one-sentence run's is its sentence's
        (``exact_similarities``)."""
        positions, begins = _expanded(starts, lengths)
        sims = self.exact_similarities(q_id, positions)
        if pooling == "mean":
            return np.add.reduceat(sims, begins) / lengths
        return np.maximum.reduceat(sims, begins)

    def _slack(self, pooling: str | None, w_sim=1.0, w_conf=0.0) -> float:
        """``screen_slack`` of a sentence similarity (pooling None) or a
        pooled bag similarity, or of a combined score with the weights."""
        mean_of = int(self.corpus.lengths.max(initial=1)) if pooling == "mean" else None
        return screen_slack(self.embeddings.dim, mean_of, w_sim, w_conf)

    def _ranks(self, held: _Chunk) -> tuple[np.ndarray, np.ndarray]:
        """The chunk rows of the queries that have a score row and their
        stage-1 rank of every relation, made on the first request from
        their score rows' ``stage1_order``."""
        if held.ranks is None:
            row_of = self.scores.row_of
            q_ids = [q for q in held.index if q in row_of]
            rows = self.scores.matrix[self.scores.row_indexes(q_ids)]
            order = stage1_order(rows)
            ranks = np.empty_like(order)
            np.put_along_axis(ranks, order, np.arange(order.shape[1]), axis=1)
            held.ranks = (np.fromiter(map(held.index.__getitem__, q_ids), np.intp), ranks)
        return held.ranks

    def _screened(
        self, starts: np.ndarray, lengths: np.ndarray, pooling: str, dots: Callable
    ) -> np.ndarray:
        """Runs x queries: the screened similarity of each run of sentence
        positions (first position, length) to each query, pooled from
        ``dots(rows)``, the screened dot products (rows x queries) of the
        runs' embedding rows laid out sentence j of every run longer than j
        for j = 0, 1, ..., the runs longest first (in the given order on
        ties), so that ``_pooled`` pools contiguous blocks. Each lies
        within ``_slack(pooling)`` of the exact value: the slack bounds
        each dot whatever the product's blocking."""
        order = np.argsort(-lengths, kind="stable")
        first = starts[order]
        longer = len(lengths) - np.cumsum(np.bincount(lengths))  # runs longer than j, by j
        longer = longer[: lengths.max(initial=0)].tolist()
        # a block per j; with no runs, the one empty block ``first``
        positions = [first[:n] + j for j, n in enumerate(longer)] or [first]
        dots = dots(self.embedding_rows[np.concatenate(positions)])
        ends = np.cumsum(longer).tolist()
        more = (dots[end - n : end] for n, end in zip(longer[1:], ends[1:]))
        return _pooled(dots[: len(starts)], more, order, lengths, pooling)

    def pick(
        self, q_id: str, relation: str, config: ScoringConfig, items: Callable, alone: bool = False
    ) -> tuple[int, float | None]:
        """(the first sentence position of the relation's item with the
        first maximum of the exact score ``w_sim * sim + w_conf *
        confidence``, that item's exact similarity or None).
        ``items(view, bags, column)`` gives the items of the relation's
        bags as runs of sentence positions (first positions, lengths), and
        their confidences in the score column (column and confidences None
        when the config reads none); a run's similarity pools its
        sentences'. Stage 2's items are the bags (``bag_runs``), flat
        retrieval's their sentences.

        The first request decides a block of queries at once, and the
        picks are kept with the chunk (``kept_pick``), one array per
        relation and scoring. With w_sim = 0 the pick is one argmax of the
        confidences, every query's. Otherwise the block is the asking query
        and every query of its chunk that ranks the relation among its
        first ``config.k`` candidates by the score matrix (stage 1's
        ``_ranks``) and has no pick yet, screened by one product of the
        items' rows (``_screened``). A query whose candidates do not come
        from the score matrix (``alone``: similarity-only stage 2) is
        decided alone, from its chunk's screen, and its pick carries the
        picked item's exact similarity, its exemplar score; the similarity
        is None otherwise. In each query's column, the items screened
        within twice the slack of its best are its near set: a column with
        one near item takes it, and only the others are settled with exact
        similarities (``settle_columns``)."""
        kept = self.kept_pick(q_id, relation, config, items, alone)
        if kept is None:
            self._decide(q_id, relation, config, items, alone)
            kept = self.kept_pick(q_id, relation, config, items, alone)
        return kept

    def kept_pick(
        self, q_id: str, relation: str, config: ScoringConfig, items: Callable, alone: bool = False
    ) -> tuple[int, float | None] | None:
        """The pick ``pick`` keeps for the query, None while it is undecided."""
        held = self.chunk.get(q_id)
        key = _pick_key(relation, config, items, alone)
        record = None if held is None else held.picks.get(key)
        if record is None:
            return None
        picked, exact_sims = record
        i = held.index[q_id]
        if picked[i] < 0:
            return None
        return int(picked[i]), float(exact_sims[i]) if alone else None

    def _decide(
        self, q_id: str, relation: str, config: ScoringConfig, items: Callable, alone: bool
    ) -> None:
        """``pick``'s decision of the block that the query's request forms,
        written into the chunk's record of the relation and scoring."""
        held = self._held(q_id)
        key = _pick_key(relation, config, items, alone)
        if key not in held.picks:
            held.picks[key] = (np.full(len(held.index), -1), np.full(len(held.index), np.nan))
        picked, exact_sims = held.picks[key]
        scores, _ = _consulted(self, config)
        bags = self.corpus.bags_by_relation[relation]
        starts, lengths, confidence = items(
            self, bags, None if scores is None else scores.column(relation)
        )
        if config.w_sim == 0:
            picked[:] = starts[np.argmax(_combined(config, None, confidence))]
            return
        i = held.index[q_id]
        if alone or self.scores is None:
            rows, block = np.array([i]), [q_id]
            product = self._dots(held)[i, :, None].__getitem__
        else:
            ranked, ranks = self._ranks(held)
            asks = ranks[:, self.scores.column(relation)] < config.k
            rows = np.concatenate(([i], ranked[asks & (picked[ranked] < 0) & (ranked != i)]))
            q_ids = list(held.index)
            block = [q_ids[r] for r in rows.tolist()]
            product = partial(self.embeddings.screen_dots, block)
        pooling = config.bag_sim_pooling
        sims = self._screened(starts, lengths, pooling, product)
        screened = _combined(config, sims, None if confidence is None else confidence[:, None])

        def exact(c: int, near: np.ndarray) -> np.ndarray:
            sims = self.exact_run_similarities(block[c], pooling, starts[near], lengths[near])
            return _combined(config, sims, None if confidence is None else confidence[near])

        won = settle_columns(screened, self._slack(pooling, config.w_sim, config.w_conf), exact)
        picked[rows] = starts[won]
        if alone:
            run = starts[won], lengths[won]
            exact_sims[i] = self.exact_run_similarities(q_id, pooling, *run)[0]

    def top(
        self, q_id: str, k: int, pooling: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(indexes, exact similarities) of the k sentences, or with
        ``pooling`` the k bags, most similar to the query, descending, the
        earlier one first on ties; every one when k exceeds them. The
        screened similarities narrow which items are settled with exact
        ones (``settle_top``)."""
        if pooling is None:
            sims = self.similarities(q_id)
            exact = partial(self.exact_similarities, q_id)
        else:
            sims = self.bag_similarities(q_id, pooling)
            exact = partial(self.exact_bag_similarities, q_id, pooling)
        return settle_top(sims, self._slack(pooling), k, exact)

    def sentence_pick(self, q_id: str, b: int, threshold: float) -> SentenceInstance:
        """Stage 3 (``select_sentence``) for bag b, which a stage-2 pick of
        the query chose, kept per bag and threshold. A bag with no sentence
        yet gets it in one pass (``select_sentences``) together with every
        other bag that the stage-2 picks kept with the query's chunk name
        and that has none yet."""
        sentence = self.sentence_picks.get((b, threshold))
        if sentence is None:
            bags, held = {b}, self.chunk.get(q_id)
            for key, (positions, _) in held.picks.items() if held else ():
                if key[0] is bag_runs:
                    bags.update(self.corpus.sentence_bag[positions[positions >= 0]].tolist())
            bags = sorted(x for x in bags if (x, threshold) not in self.sentence_picks)
            found = select_sentences(
                self.corpus, np.array(bags), self.scores, threshold, self.score_rows
            )
            for x, position in zip(bags, found.tolist()):
                self.sentence_picks[x, threshold] = self.corpus.sentence(position)
            sentence = self.sentence_picks[b, threshold]
        return sentence


def _pick_key(relation: str, config: ScoringConfig, items: Callable, alone: bool) -> tuple:
    """The key of a chunk's record of picks (``_Chunk.picks``)."""
    return items, relation, config.w_sim, config.w_conf, config.bag_sim_pooling, alone


def _expanded(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(every sentence position of the runs with these first positions and
    lengths, run by run; the index of each run's first among them)."""
    begins = np.cumsum(lengths) - lengths
    positions = np.repeat(starts - begins, lengths)
    positions += np.arange(len(positions))
    return positions, begins


def _pooled(
    pooled: np.ndarray,
    more: Iterator[np.ndarray],
    order: np.ndarray,
    lengths: np.ndarray,
    pooling: str,
) -> np.ndarray:
    """Bags x queries: similarities pooled from dot products (rows x
    queries) of the first sentence of every bag (``pooled``, overwritten),
    then, for j = 1, 2, ..., of sentence j of every bag longer than j
    (``more``), the bags longest first (``order`` of bags of these
    ``lengths``; ``CorpusView._screened``). So the work is sentences x
    queries, each step on the head of the last. A max pools the dot
    products, since (1 + d) / 2 rounds monotonically; a mean sums float64
    similarities in in-bag order."""
    mean = pooling == "mean"
    if mean:
        pooled = mapped_similarity(pooled)
    for block in more:
        n = len(block)
        if mean:
            pooled[:n] += mapped_similarity(block)
        else:
            np.maximum(pooled[:n], block, out=pooled[:n])
    if mean:
        pooled /= lengths[order, None]
    else:
        pooled = mapped_similarity(pooled)
    sims = np.empty_like(pooled)
    sims[order] = pooled
    return sims


def _sentence_rows(corpus: Corpus, provider: ScoreMatrix | EmbeddingIndex) -> np.ndarray:
    """The provider row of each corpus sentence; one range when the
    provider's first rows are the corpus sentences, in order."""
    ids = corpus.sentence_ids
    if list(islice(provider.row_of, len(ids))) == ids:
        return np.arange(len(ids), dtype=np.intp)
    return provider.row_indexes(ids)


def _consulted(
    view: CorpusView, config: ScoringConfig
) -> tuple[ScoreMatrix | None, EmbeddingIndex | None]:
    """The view's providers a config reads; one whose weight is zero is
    never consulted, so confidence-only and similarity-only modes run
    without the other artifact."""
    if config.w_sim > 0 and view.embeddings is None:
        raise ProviderError("w_sim > 0 but no embedding index supplied")
    if config.w_conf > 0 and view.scores is None:
        raise ProviderError("w_conf > 0 but no score matrix supplied")
    return (
        view.scores if config.w_conf > 0 else None,
        view.embeddings if config.w_sim > 0 else None,
    )


def select_candidates(
    q_id: str, scores: ScoreMatrix, k: int
) -> list[tuple[str, float]]:
    """Stage 1: the k relations with highest f(q, r), descending.

    Ties break toward the lower ontology index (``stage1_order``). k larger
    than the ontology is clamped, which also serves the run-every-relation
    variant.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vec = scores.vector(q_id)
    order = stage1_order(vec)[:k].tolist()
    return [(scores.relation_order[i], float(vec[i])) for i in order]


def _combined(
    config: ScoringConfig, sims: np.ndarray | None, confidence: np.ndarray | None
) -> np.ndarray:
    """w_sim * sims + w_conf * confidence, leaving out a term that is None;
    screened and exact scores share this arithmetic."""
    total = 0.0
    if sims is not None:
        total = config.w_sim * sims
    if confidence is not None:
        total = total + config.w_conf * confidence
    return total


def bag_runs(view: CorpusView, bags: np.ndarray, column: int | None) -> tuple:
    """Stage 2's items (``CorpusView.pick``): the bags, as runs of their
    sentence positions, each with its confidence in the score column: the
    max of its sentences' scores there."""
    starts, lengths = view.corpus.starts[bags], view.corpus.lengths[bags]
    confidence = None
    if column is not None:
        positions, begins = _expanded(starts, lengths)
        scores = view.scores.matrix[view.score_rows[positions], column]
        confidence = np.maximum.reduceat(scores, begins)
    return starts, lengths, confidence


def select_bag(
    q_id: str,
    relation: str,
    corpus: Corpus,
    view: CorpusView,
    config: ScoringConfig,
) -> str:
    """Stage 2: the bag with the first maximum of the exact combined bag
    score ``w_sim * sim(q, bag) + w_conf * f(bag, relation)`` among the
    bags labelled with the relation; ties keep the earliest bag. The view
    makes the pick (``CorpusView.pick`` of ``bag_runs``): it screens the
    relation's bags for a block of queries at once and settles each pick
    with exact scores, so it is the one exact scores would make. With
    w_conf = 0 stage 1 ranks no relation by the score matrix, so the
    query is picked alone."""
    bags = corpus.bags_by_relation.get(relation)
    if bags is None:
        raise KeyError(f"unknown relation {relation!r}")
    if not len(bags):
        raise NoBagForRelation(relation)
    position, _ = view.pick(q_id, relation, config, bag_runs, alone=config.w_conf == 0)
    return corpus.bag_ids[corpus.sentence_bag[position]]


def _bag_scores(
    corpus: Corpus, b: int, scores: ScoreMatrix, relations: list[str]
) -> tuple[int, np.ndarray]:
    """(first sentence position, sentence x relation scores) of bag b."""
    start = int(corpus.starts[b])
    sentence_ids = corpus.sentence_ids[start : start + int(corpus.lengths[b])]
    columns = [scores.column(r) for r in relations]
    return start, scores.matrix[scores.row_indexes(sentence_ids)][:, columns]


def select_sentence(
    corpus: Corpus, b: int, scores: ScoreMatrix, threshold: float
) -> SentenceInstance:
    """Stage 3 for bag b: maximal label coverage, then maximal aggregate
    confidence.

    Coverage counts bag labels scored strictly above the threshold; among
    coverage-maximal sentences the one with the highest confidence sum over
    all bag labels wins, earliest in-bag position on ties. Sums add the
    labels in name order, one ``+`` at a time, which fixes how a near tie
    rounds: builtin ``sum`` compensates float rounding from Python 3.12 on.
    It is the one-bag case of ``select_sentences``.
    """
    (position,) = select_sentences(corpus, np.array([b]), scores, threshold).tolist()
    return corpus.sentence(position)


def select_sentences(
    corpus: Corpus,
    bags: np.ndarray,
    scores: ScoreMatrix,
    threshold: float,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Stage 3 (``select_sentence``) for each of the bags, in one array
    pass: the sentence position it picks in each. ``rows`` is the score row
    of each corpus sentence position (``CorpusView.score_rows``); without
    it the bags' sentences are looked up by id.

    Each sentence's scores for its bag's labels fill a row of label slots,
    the labels in name order and the slots past them 0.0. Coverage counts
    a row's labels above the threshold. The aggregate folds the slots left
    to right, ``acc = acc + slot`` from 0.0, bit-equal to
    ``reduce(operator.add, row, 0.0)`` over the labels, since a 0.0 slot
    leaves a sum as it was. A stable sort by bag, then coverage and
    aggregate descending, then position puts each bag's first maximum
    first.
    """
    bags = np.asarray(bags, dtype=np.intp)
    lengths = corpus.lengths[bags]
    positions, begins = _expanded(corpus.starts[bags], lengths)
    if not len(bags):
        return positions
    ontology = corpus.ontology
    names = (*ontology.names, ontology.na_symbol)
    by_name = np.array(sorted(range(len(names)), key=names.__getitem__))
    held = np.column_stack((corpus.mask[bags], corpus.bag_na[bags]))[:, by_name]
    bag, label = np.nonzero(held)  # each bag's labels in name order
    counts = np.bincount(bag, minlength=len(bags))
    slot = np.arange(len(bag)) - np.repeat(np.cumsum(counts) - counts, counts)
    column = np.zeros(len(names), np.intp)
    # the labels some bag holds (np.unique's first call imports numpy.ma)
    for j in np.flatnonzero(held.any(axis=0)).tolist():
        column[j] = scores.column(names[by_name[j]])
    width = int(counts.max())
    columns = np.zeros((len(bags), width), np.intp)
    columns[bag, slot] = column[label]
    labelled = np.zeros((len(bags), width), bool)
    labelled[bag, slot] = True
    owner = np.repeat(np.arange(len(bags)), lengths)
    if rows is None:
        rows = scores.row_indexes(map(corpus.sentence_ids.__getitem__, positions.tolist()))
    else:
        rows = rows[positions]
    confs = scores.matrix[rows[:, None], columns[owner]]
    labelled = labelled[owner]
    confs[~labelled] = 0.0
    coverage = np.count_nonzero((confs > threshold) & labelled, axis=1)
    aggregate = np.zeros(len(positions))
    for j in range(width):
        aggregate = aggregate + confs[:, j]
    order = np.lexsort((positions, -aggregate, -coverage, owner))
    return positions[order[begins]]


def _query_rng(seed: int, q_id: str) -> random.Random:
    # String seeding hashes with SHA-512 internally: stable across runs,
    # platforms, and batch order.
    return random.Random(f"{seed}|{q_id}")


def _similarity_candidates(
    corpus: Corpus, top: np.ndarray, sims: np.ndarray
) -> list[tuple[str, float]]:
    """Confidence-free stage 1: labels of the most similar bags.

    A documented heuristic for running without any confidence model: rank
    bags by similarity (``top``, with their exact similarities ``sims``),
    then collect their labelsets in that order, deduplicated, NA excluded.
    """
    candidates: list[tuple[str, float]] = []
    seen: set[str] = set()
    for i, sim in zip(top.tolist(), sims.tolist()):
        for label in corpus.ontology.sorted_labels(corpus.labelset(i)):
            if label == corpus.ontology.na_symbol or label in seen:
                continue
            seen.add(label)
            candidates.append((label, sim))
    return candidates


def candidate_set(
    q_id: str,
    candidates: list[tuple[str, float]],
    exemplar: Callable[[str, float], Exemplar | None],
    style: str = "sentence",
) -> ExemplarSet:
    """The selection of one exemplar per candidate relation:
    ``exemplar(relation, score)`` gives the candidate's exemplar, or None
    for a relation recorded as skipped. Exemplars are ordered ascending by
    candidate score."""
    exemplars, skipped = [], []
    for relation, score in candidates:
        e = exemplar(relation, score)
        if e is None:
            skipped.append(relation)
        else:
            exemplars.append(e)
    # Reverse candidate order, then stable-sort ascending by score: scores
    # become nondecreasing and ties keep the higher-ranked candidate last
    # (adjacent to the query).
    return ExemplarSet(
        q_id,
        tuple(sorted(reversed(exemplars), key=lambda e: e.candidate_score)),
        tuple(candidates),
        tuple(skipped),
        style,
    )


def build_exemplar_set(
    q_id: str,
    view: CorpusView,
    config: ScoringConfig,
    style: str = "sentence",
) -> ExemplarSet:
    """Run all three stages for one query.

    Stage 1 ranks the candidate relations (``select_candidates``; with
    w_conf = 0, the labels of the most similar bags), stage 2 picks one bag
    per candidate (``select_bag``) and ``candidate_set`` records the
    candidates with no bag as skipped. Stage 3 picks one sentence per
    chosen bag for the "sentence" style; the "full_bag" style shows the
    whole bag and "reduced_bag" one best sentence per bag label
    (``reduce_bag``). With w_conf = 0 there is no confidence model: the
    exemplar score is the chosen bag's exact similarity, and the sentence
    is a seeded uniform choice within the bag.

    The view keeps each candidate's stage-2 pick (``CorpusView.pick``)
    and each picked bag's stage-3 sentence (``CorpusView.sentence_pick``),
    so a k sweep decides each once; it decides stage 2 one relation at a
    time for every query of the chunk that ranks it, and stage 3 for every
    bag such a block picked at once.
    """
    corpus = view.corpus
    scores, _ = _consulted(view, config)
    if scores is not None:
        candidates = select_candidates(q_id, scores, config.k)
    else:
        candidates = _similarity_candidates(
            corpus, *view.top(q_id, config.k, config.bag_sim_pooling)
        )
    alone = scores is None
    rng = _query_rng(config.seed, q_id) if alone else None
    # stage 2 for every candidate first, so one stage-3 pass serves them
    # all; select_bag decides a pick the view does not keep yet
    picks = {}
    for relation, _ in candidates:
        kept = view.kept_pick(q_id, relation, config, bag_runs, alone)
        if kept is None:
            try:
                select_bag(q_id, relation, corpus, view, config)
            except NoBagForRelation:
                continue
            kept = view.kept_pick(q_id, relation, config, bag_runs, alone)
        picks[relation] = kept

    def exemplar(relation: str, score: float) -> Exemplar | None:
        if relation not in picks:
            return None
        position, similarity = picks[relation]
        if alone:
            score = similarity
        b = int(corpus.sentence_bag[position])
        start, n = int(corpus.starts[b]), int(corpus.lengths[b])
        if style == "full_bag":
            sentences = tuple(map(corpus.sentence, range(start, start + n)))
        elif style == "reduced_bag":
            pairs = reduce_bag(corpus, b, view.scores)
            sentences = tuple(s for s, _ in group_reduced(pairs))
        elif rng is not None:
            sentences = (corpus.sentence(start + rng.randrange(n)),)
        else:
            sentences = (view.sentence_pick(q_id, b, config.threshold),)
        return Exemplar(sentences, corpus.labelset(b), corpus.bag_ids[b], relation, score)

    return candidate_set(q_id, candidates, exemplar, style)


def reduce_bag(
    corpus: Corpus, b: int, scores: ScoreMatrix
) -> list[tuple[str, SentenceInstance]]:
    """One best sentence per label of bag b: highest f(s, r), in-bag order
    on ties.

    Labels are visited in ontology order. A label without a score column
    (e.g. the NA symbol) is rejected.
    """
    order = {name: i for i, name in enumerate(scores.relation_order)}
    labels = corpus.labelset(b)
    unknown = [l for l in labels if l not in order]
    if unknown:
        raise ValueError(
            f"bag {corpus.bag_ids[b]!r} labels {sorted(unknown)} have no score column"
        )
    relations = sorted(labels, key=order.__getitem__)
    start, confs = _bag_scores(corpus, b, scores, relations)
    # argmax keeps the first maximal sentence: in-bag order tie-break
    best = np.argmax(confs, axis=0).tolist()
    return [(r, corpus.sentence(start + i)) for r, i in zip(relations, best)]


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
    position = corpus.sentence_position
    exemplars = []
    for e in record["exemplars"]:
        ids = [e["sentence_id"]] if style == "sentence" else e["sentence_ids"]
        for sid in ids:
            if sid not in position:
                raise CorpusError(
                    f"query {record['query_id']!r} selects sentence {sid!r}, "
                    "which is not in the corpus"
                )
        exemplars.append(
            Exemplar(
                tuple(corpus.sentence(position[sid]) for sid in ids),
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

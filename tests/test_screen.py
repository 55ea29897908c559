"""The similarity screen and its repair.

Selection screens a query's similarities with one matrix product and
settles every decision the screen could get wrong with exact dot products.
These tests pin the screen's error bound and show, on instances built to
be close calls, that the view's two decisions (``CorpusView.pick``, for
stage 2 and flat retrieval, and ``CorpusView.top``) are those of
brute-force exact values, and that every strategy writes the same bytes as
it does when the screen is exact.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from hydre import selection
from hydre.baselines import sentence_runs
from hydre.cli import STRATEGIES, SelectionInputs
from hydre.corpus import jsonl_line
from hydre.providers import (
    EmbeddingIndex,
    ScoringConfig,
    screen_slack,
    settle_argmax,
    settle_columns,
)
from hydre.selection import (
    CorpusView,
    select_bag,
    serialize_exemplar_set,
)

from conftest import (
    corpus_from_instance,
    embeddings_from_instance,
    scores_from_instance,
    with_duplicated_rows,
)
from oracles import combined_bag_scores, make_random_instance


@pytest.mark.parametrize("mean_of", [None, 1, 4])
def test_screen_lies_within_the_slack(mean_of):
    """|screened - exact| <= slack for random unit vectors at dims 1-512,
    for the similarity and for its mean over ``mean_of`` rows: the float32
    screen of the index's ``matrix32`` against exact float64 values."""
    rng = np.random.default_rng(8100)
    for dim in range(1, 513):
        emb = EmbeddingIndex(dim)
        emb.matrix = rng.standard_normal((40, dim))
        emb.row_of = {f"r{i}": i for i in range(40)}
        emb.matrix /= np.sqrt(np.vecdot(emb.matrix, emb.matrix))[:, None]
        emb.matrix32 = emb.matrix.astype(np.float32)
        q_ids = ["r0", "r1", "r2"]
        rows = np.arange(40)
        slack = screen_slack(dim, mean_of)
        for q_id, dots in zip(q_ids, emb.screen_dots(q_ids).T):
            assert dots.dtype == np.float32
            screened = (1.0 + dots.astype(float)) / 2.0  # as CorpusView maps it
            exact = emb.similarities(q_id, rows)
            if mean_of is not None:
                starts = np.arange(0, 40, mean_of)
                screened = np.add.reduceat(screened, starts) / mean_of
                exact = np.add.reduceat(exact, starts) / mean_of
            assert np.abs(screened - exact).max() <= slack
    # a bound, not a tolerance: float32's unit roundoff times the dimension
    assert 6.1e-5 < screen_slack(512, 4, 1.0, 1.0) < 6.2e-5


# every strategy that reads query embeddings, with the MMR pool cut and
# the whole corpus as the pool
SCREENED_STRATEGIES = [
    ("hydre", 3),
    ("reduced_bag", 3),
    ("ablation:full_bag", 3),
    ("ablation:all_relations", 3),
    ("ablation:no_conf", 3),
    ("ablation:flat_retrieval", 3),
    ("topk_sim", 3),
    ("mmr", 3),
    ("mmr", None),
]


def with_ulp_rows(instance: dict, emb: EmbeddingIndex, seed: int, ulp=np.float64) -> None:
    """Make every sentence a close call: each sentence row becomes one unit
    base vector with every component moved 1-4 ulps of dtype ``ulp`` either
    way, and every sentence gets the same score row, so only similarity
    separates them. float64 ulps vanish in the float32 screen, which ties
    the rows; float32 ulps survive it, but its rounding can reorder them."""
    rng = np.random.default_rng(seed)
    sentence_ids = [s["sentence_id"] for b in instance["bags"] for s in b["sentences"]]
    base = emb.vector(sentence_ids[0]).copy()
    spacing = np.spacing(base.astype(ulp)).astype(np.float64)
    for sentence_id in sentence_ids:
        steps = rng.integers(1, 5, emb.dim) * rng.choice([-1, 1], emb.dim)
        emb.matrix[emb.row_of[sentence_id]] = base + steps * spacing
        instance["scores"][sentence_id] = list(instance["scores"][sentence_ids[0]])
    emb.matrix32 = emb.matrix.astype(np.float32)


def close_call_instances(dim: int):
    """(instance, embedding index) pairs: duplicated rows, then rows 1-4
    float64 ulps apart, then rows 1-4 float32 ulps apart."""
    for seed in range(2):
        instance = make_random_instance(
            seed=8200 + 10 * dim + seed, max_bags=25, dim=dim, n_queries=5
        )
        instance = with_duplicated_rows(instance)
        yield instance, embeddings_from_instance(instance)
        for base_seed, ulp in ((8300, np.float64), (8500, np.float32)):
            instance = make_random_instance(
                seed=base_seed + 10 * dim + seed, max_bags=25, dim=dim, n_queries=5
            )
            emb = embeddings_from_instance(instance)
            with_ulp_rows(instance, emb, seed, ulp)
            yield instance, emb


def exact_screen_dots(self, q_ids, rows=None):
    """The screen replaced by exact per-query np.vecdot values of the given
    rows (every row when ``rows`` is None), one column per query, as
    ``screen_dots`` lays it out."""
    matrix = self.matrix if rows is None else self.matrix[rows]
    return np.stack([np.vecdot(matrix, self.vector(q_id)) for q_id in q_ids]).T


def select_records(strategy, pool_size, pooling, instance, emb, q_ids=None) -> str:
    """A strategy's serialized records for each query of ``q_ids`` (the
    instance's queries, in order, by default), selected in one pass as
    ``select`` does; the corpus holds the instance's queries in file order,
    so the view screens them in chunks."""
    corpus = corpus_from_instance(instance)
    inputs = SelectionInputs(
        CorpusView(corpus, scores_from_instance(instance), emb),
        ScoringConfig(k=3, bag_sim_pooling=pooling),
        mmr_pool_size=pool_size,
    )
    select = STRATEGIES[strategy].select
    return "".join(
        jsonl_line(serialize_exemplar_set(select(q_id, inputs), corpus.ontology))
        for q_id in (instance["queries"] if q_ids is None else q_ids)
    )


@pytest.mark.parametrize("dim", [3, 17, 256, 300])
@pytest.mark.parametrize("pooling", ["max", "mean"])
@pytest.mark.parametrize("strategy, pool_size", SCREENED_STRATEGIES)
def test_screened_selection_writes_the_exact_records(
    monkeypatch, strategy, pool_size, pooling, dim
):
    """On close calls, every strategy that reads similarities writes the
    records it writes when the screen is the exact vecdot row. Each settles
    some decision with one query's exact ``similarities`` to do so, except
    MMR ranking every row, which reads exact values only and screens
    nothing."""
    calls = {"exact": 0, "screen": 0}
    similarities, screen_dots = EmbeddingIndex.similarities, EmbeddingIndex.screen_dots

    def counted(self, q_id, rows):
        calls["exact"] += 1
        return similarities(self, q_id, rows)

    def counted_screen(self, q_ids, rows=None):
        calls["screen"] += 1
        return screen_dots(self, q_ids, rows)

    for instance, emb in close_call_instances(dim):
        with monkeypatch.context() as patch:
            patch.setattr(EmbeddingIndex, "similarities", counted)
            patch.setattr(EmbeddingIndex, "screen_dots", counted_screen)
            got = select_records(strategy, pool_size, pooling, instance, emb)
        with monkeypatch.context() as patch:
            patch.setattr(EmbeddingIndex, "screen_dots", exact_screen_dots)
            want = select_records(strategy, pool_size, pooling, instance, emb)
        assert got == want
    if pool_size is None:
        assert calls["screen"] == 0
    else:
        assert calls["exact"] and calls["screen"]


def test_the_screen_differs_from_the_exact_dots_on_close_calls():
    """The property test above exercises a screen that really disagrees
    with the exact values, and orders close calls differently."""
    reordered = 0
    for dim in (256, 300):
        for instance, emb in close_call_instances(dim):
            q_ids = instance["queries"]
            screened, exact = emb.screen_dots(q_ids).T, exact_screen_dots(emb, q_ids).T
            assert not np.array_equal(screened, exact)
            for s, e in zip(screened, exact):
                reordered += not np.array_equal(
                    np.argsort(-s, kind="stable"), np.argsort(-e, kind="stable")
                )
    assert reordered


@pytest.mark.parametrize("pooling", ["max", "mean"])
def test_combined_bag_scores_agree_with_select_bag(pooling):
    """``combined_bag_scores`` is exact: on close calls the first maximum
    of its scores is the bag ``select_bag`` picks from the screen."""
    picks = 0
    for dim in (17, 300):
        for instance, emb in close_call_instances(dim):
            corpus = corpus_from_instance(instance)
            scores = scores_from_instance(instance)
            view = CorpusView(corpus, scores, emb)
            config = ScoringConfig(bag_sim_pooling=pooling)
            for q_id in instance["queries"]:
                for relation in corpus.ontology.names:
                    if not len(corpus.bags_by_relation.get(relation, ())):
                        continue
                    bags, total = combined_bag_scores(q_id, relation, view, config)
                    want = corpus.bag_ids[bags[int(np.argmax(total))]]
                    got = select_bag(q_id, relation, corpus, view, config)
                    assert got == want
                    picks += 1
    assert picks


def brute_similarities(corpus, emb, q_id, pooling):
    """The exact similarity of the query to every corpus sentence (pooling
    None) or bag, by brute force: one np.vecdot over every sentence row,
    then a max or mean over each bag's sentences."""
    sims = emb.similarities(q_id, emb.row_indexes(corpus.sentence_ids))
    if pooling == "max":
        return np.maximum.reduceat(sims, corpus.starts)
    if pooling == "mean":
        return np.add.reduceat(sims, corpus.starts) / corpus.lengths
    return sims


def item_sets(corpus, scores, pooling):
    """(relation, items, the items' confidence in it): for each relation
    with a bag, its bags, or with pooling None their sentence positions."""
    rows = scores.row_indexes(corpus.sentence_ids)
    bag_confidence = np.maximum.reduceat(scores.matrix[rows], corpus.starts, axis=0)
    for relation in corpus.ontology.names:
        bags = corpus.bags_by_relation.get(relation, ())
        if not len(bags):
            continue
        column = scores.column(relation)
        if pooling is None:
            items = np.flatnonzero(np.isin(corpus.sentence_bag, bags))
            yield relation, items, scores.matrix[rows[items], column]
        else:
            yield relation, bags, bag_confidence[bags, column]


def combined_scores(w_sim, w_conf, sims, confidence):
    """w_sim * sims + w_conf * confidence, leaving out a term whose weight
    is zero or whose values are None."""
    total = 0.0
    if w_sim:
        total = w_sim * sims
    if confidence is not None:
        total = total + w_conf * confidence
    return total


@pytest.mark.parametrize("pooling", [None, "max", "mean"])
@pytest.mark.parametrize(
    "w_sim, w_conf, with_confidence",
    [(1.0, 1.0, True), (1.0, 0.0, False), (2.0, 0.5, True), (0.0, 1.0, True)],
)
def test_argmax_is_the_first_maximum_of_exact_scores(
    pooling, w_sim, w_conf, with_confidence
):
    """On close calls, the view's pick over one relation's items, which it
    settles for a block of queries at once, is the first maximum of
    w_sim * sim + w_conf * confidence from brute-force exact similarities:
    flat retrieval's over the relation's sentences (pooling None,
    ``sentence_runs``) and stage 2's over its pooled bags (``select_bag``);
    a bag pick is also the first maximum of ``combined_bag_scores``. With
    w_sim = 0 the view has no embedding index, so no similarity is read."""
    config = ScoringConfig(w_sim=w_sim, w_conf=w_conf, bag_sim_pooling=pooling or "max")
    picks = 0
    for dim in (17, 300):
        for instance, emb in close_call_instances(dim):
            corpus = corpus_from_instance(instance)
            scores = scores_from_instance(instance)
            view = CorpusView(corpus, scores if with_confidence else None, emb if w_sim else None)
            for q_id in instance["queries"]:
                sims = brute_similarities(corpus, emb, q_id, pooling)
                for relation, items, confidence in item_sets(corpus, scores, pooling):
                    if not with_confidence:
                        confidence = None
                    want = combined_scores(w_sim, w_conf, sims[items], confidence)
                    if pooling is None:
                        got, _ = view.pick(q_id, relation, config, sentence_runs)
                        assert got == items[np.argmax(want)]
                    else:
                        got = select_bag(q_id, relation, corpus, view, config)
                        assert got == corpus.bag_ids[items[np.argmax(want)]]
                        _, total = combined_bag_scores(q_id, relation, view, config)
                        assert got == corpus.bag_ids[items[np.argmax(total)]]
                    picks += 1
    assert picks


@pytest.mark.parametrize("pooling", ["max", "mean"])
def test_a_block_settles_near_sets_of_several_bags_exactly(monkeypatch, pooling):
    """Stage 2 screens one relation's bags for a block of queries at once.
    On close calls, a block of several queries leaves several bags within
    twice the slack of a query's best, and each such near set is settled
    with exact similarities: every pick is the first maximum of
    ``combined_bag_scores``."""
    settled, block = [], [0]
    screen_dots = EmbeddingIndex.screen_dots
    exact = CorpusView.exact_run_similarities

    def recorded_block(self, q_ids, rows=None):
        block[0] = len(q_ids)
        return screen_dots(self, q_ids, rows)

    def recorded_exact(self, q_id, pooling, starts, lengths):
        settled.append((block[0], len(starts)))
        return exact(self, q_id, pooling, starts, lengths)

    for dim in (17, 300):
        for instance, emb in close_call_instances(dim):
            corpus = corpus_from_instance(instance)
            view = CorpusView(corpus, scores_from_instance(instance), emb)
            # every query ranks every relation, so each block is all of them
            config = ScoringConfig(k=len(corpus.ontology), bag_sim_pooling=pooling)
            for relation in corpus.ontology.names:
                bags = corpus.bags_by_relation.get(relation, ())
                if not len(bags):
                    continue
                for q_id in instance["queries"]:
                    with monkeypatch.context() as patch:
                        patch.setattr(EmbeddingIndex, "screen_dots", recorded_block)
                        patch.setattr(CorpusView, "exact_run_similarities", recorded_exact)
                        got = select_bag(q_id, relation, corpus, view, config)
                    _, total = combined_bag_scores(q_id, relation, view, config)
                    assert got == corpus.bag_ids[bags[np.argmax(total)]]
    assert any(queries > 1 and near > 1 for queries, near in settled)


def test_a_block_settles_exactly_only_the_columns_with_several_near_items():
    """``settle_columns`` decides a block, items x queries, at once. A
    column whose near set (items screened within twice the slack of its
    best) holds one item takes it with no exact value; every other column
    gets the exact values of exactly its near items, and its pick, the
    first exact maximum, can differ from its screened argmax."""
    slack = 1e-3
    screened = np.array(
        [
            [0.5, 0.9, 0.7, 0.1, 0.3],
            [0.9, 0.8995, 0.7, 0.1, 0.3 - 2 * slack],
            [0.2, 0.9, 0.697, 0.1, 0.2],
        ]
    )
    exact = np.array(
        [
            [0.5, 0.9, 0.69, 0.1, 0.3],
            [0.9, 0.9001, 0.7, 0.1, 0.3],
            [0.2, 0.9, 0.697, 0.1, 0.2],
        ]
    )
    asked = []

    def exact_values(column, near):
        asked.append((column, near.tolist()))
        return exact[near, column]

    won = settle_columns(screened, slack, exact_values)
    assert won.tolist() == [1, 1, 1, 0, 0]
    assert asked == [(1, [0, 1, 2]), (2, [0, 1]), (3, [0, 1, 2]), (4, [0, 1])]
    for column in range(screened.shape[1]):
        one = settle_argmax(screened[:, column], slack, lambda near: exact[near, column])
        assert won[column] == one


@pytest.mark.parametrize(
    "pooling, k", [(p, k) for p in (None, "max", "mean") for k in (1, 3, "all")]
)
def test_top_is_a_stable_descending_sort_of_exact_similarities(pooling, k):
    """On close calls, ``CorpusView.top`` gives the head of a stable
    descending sort of brute-force exact similarities, with bit-equal
    values, for k below and equal to the number of sentences or bags."""
    for dim in (17, 300):
        for instance, emb in close_call_instances(dim):
            corpus = corpus_from_instance(instance)
            for q_id in instance["queries"]:
                view = CorpusView(corpus, None, emb)  # a new chunk per query and k
                sims = brute_similarities(corpus, emb, q_id, pooling)
                n = len(sims) if k == "all" else k
                order = np.argsort(-sims, kind="stable")[:n]
                got, values = view.top(q_id, n, pooling)
                assert np.array_equal(got, order)
                assert np.array_equal(values, sims[order])


@pytest.mark.parametrize("dim", [17, 256])
@pytest.mark.parametrize(
    "strategy, pool_size", [("hydre", 3), ("topk_sim", 3), ("mmr", 3), ("mmr", None)]
)
def test_selection_does_not_depend_on_the_order_queries_are_visited(
    monkeypatch, strategy, pool_size, dim
):
    """Each query's record is byte-equal whether the queries are visited in
    order, reversed or shuffled, with the view screening chunks of 1, 16
    or all of the corpus queries, and for a query outside the corpus
    queries (a training sentence, which has an embedding and a score row)
    visited among them."""
    instance = make_random_instance(seed=8400 + dim, max_bags=25, dim=dim, n_queries=20)
    instance = with_duplicated_rows(instance)
    emb = embeddings_from_instance(instance)
    queries = instance["queries"]
    outside = instance["bags"][0]["sentences"][0]["sentence_id"]
    shuffled = queries[:10] + [outside] + queries[10:]
    random.Random(dim).shuffle(shuffled)
    orders = [queries + [outside], [outside] + queries[::-1], shuffled]

    def records(q_ids):
        lines = select_records(strategy, pool_size, "max", instance, emb, q_ids)
        return dict(zip(q_ids, lines.splitlines()))

    want = records([outside])
    want.update(records(queries))
    for chunk in (1, 16, len(queries)):
        size = chunk * emb.matrix32.itemsize * len(emb.matrix)
        monkeypatch.setattr(selection, "SCREEN_BYTES", size)
        for q_ids in orders:
            assert records(q_ids) == want, (chunk, q_ids)

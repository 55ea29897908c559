from __future__ import annotations

import collections
import dataclasses

import pytest

from hydre.baselines import (
    DEFAULT_MMR_ALPHA,
    DEFAULT_MMR_POOL_SIZE,
    flatten,
    mmr_select,
    random_k,
    topk_sim,
)
from hydre.cli import STRATEGIES, SelectionInputs, load_config
from hydre.corpus import Corpus
from hydre.providers import EmbeddingIndex, ScoringConfig
from hydre.selection import CorpusView, Exemplar, ExemplarSet, build_exemplar_set

from conftest import (
    corpus_from_instance,
    embeddings_from_instance,
    scores_from_instance,
    with_duplicated_rows,
)
from oracles import make_random_instance, mapped_cosine, mmr_oracle, topk_oracle


def build_all(seed, **kwargs):
    instance = make_random_instance(seed=seed, **kwargs)
    corpus = corpus_from_instance(instance)
    return (
        instance,
        corpus,
        scores_from_instance(instance),
        embeddings_from_instance(instance),
    )


# ----------------------------------------------------------------- flatten


def test_flatten_counts_pairs():
    instance, corpus, _, _ = build_all(1)
    flat = flatten(corpus)
    assert len(flat) == sum(len(b.sentences) for b in corpus.bags)


def test_flatten_empty_corpus(tiny_ontology):
    assert list(flatten(Corpus.assemble(tiny_ontology, ()))) == []


def test_flatten_labels_equal_bag_labelset():
    for trial in range(10):
        _, corpus, _, _ = build_all(100 + trial)
        flat = flatten(corpus)
        position = 0
        for bag in corpus.bags:
            for sentence in bag.sentences:
                example = flat[position]
                assert example.sentence == sentence
                assert example.labels == bag.labelset
                assert example.source_bag_id == bag.bag_id
                position += 1


# ---------------------------------------------------------------- random_k


def test_random_k_deterministic_under_seed():
    _, corpus, _, _ = build_all(2, max_bags=10)
    flat = flatten(corpus)
    k = min(4, len(flat))
    assert random_k(flat, k, 7) == random_k(flat, k, 7)
    assert random_k(flat, k, "7|q01") == random_k(flat, k, "7|q01")


def test_random_k_whole_corpus():
    _, corpus, _, _ = build_all(3, max_bags=5)
    flat = flatten(corpus)
    sample = random_k(flat, len(flat), 0)
    assert sorted(f.sentence.sentence_id for f in sample) == sorted(
        f.sentence.sentence_id for f in flat
    )


def test_random_k_too_large_errors():
    _, corpus, _, _ = build_all(4, max_bags=3)
    flat = flatten(corpus)
    with pytest.raises(ValueError, match="exceeds"):
        random_k(flat, len(flat) + 1, 0)


def test_random_k_is_roughly_uniform():
    # 10000 seeded draws of 1 from 4 items; each within 3 sigma of 2500
    from conftest import make_sentence

    flat = [
        Exemplar((make_sentence(f"u{i}"),), frozenset({"rel_a"}), f"b{i}")
        for i in range(4)
    ]
    counts = collections.Counter()
    for seed in range(10000):
        (pick,) = random_k(flat, 1, seed)
        counts[pick.sentence.sentence_id] += 1
    sigma = (10000 * 0.25 * 0.75) ** 0.5
    for i in range(4):
        assert abs(counts[f"u{i}"] - 2500) <= 3 * sigma


# ---------------------------------------------------------------- topk_sim


def test_topk_sim_k1_is_nearest():
    instance, corpus, _, emb = build_all(6)
    flat = flatten(corpus)
    view = CorpusView(corpus, None, emb)
    q_id = instance["queries"][0]
    (top,) = topk_sim(q_id, flat, view, 1)
    items = [f.sentence.sentence_id for f in flat]
    want = topk_oracle(q_id, items, instance["embeddings"], 1)
    assert top.sentence.sentence_id == want[0]


def test_topk_sim_full_sort():
    instance, corpus, _, emb = build_all(7)
    flat = flatten(corpus)
    view = CorpusView(corpus, None, emb)
    q_id = instance["queries"][0]
    got = [f.sentence.sentence_id for f in topk_sim(q_id, flat, view, len(flat))]
    want = topk_oracle(
        q_id, [f.sentence.sentence_id for f in flat], instance["embeddings"], len(flat)
    )
    assert got == want


def test_topk_sim_matches_sort_oracle():
    checked = 0
    trial = 0
    while checked < 100:
        instance, corpus, _, emb = build_all(9000 + trial)
        trial += 1
        flat = flatten(corpus)
        view = CorpusView(corpus, None, emb)
        q_id = instance["queries"][0]
        items = [f.sentence.sentence_id for f in flat]
        for k in (1, 2, min(5, len(flat)), len(flat)):
            got = [f.sentence.sentence_id for f in topk_sim(q_id, flat, view, k)]
            assert got == topk_oracle(q_id, items, instance["embeddings"], k)
            checked += 1


# --------------------------------------------------------------------- mmr


def test_mmr_defaults():
    assert DEFAULT_MMR_ALPHA == 0.3
    assert DEFAULT_MMR_POOL_SIZE == 100
    assert mmr_select.__defaults__[0] == 0.3


def test_mmr_alpha_one_equals_topk_set():
    for trial in range(100):
        instance, corpus, _, emb = build_all(10000 + trial)
        flat = flatten(corpus)
        view = CorpusView(corpus, None, emb)
        q_id = instance["queries"][0]
        k = min(5, len(flat))
        mmr_set = {
            f.sentence.sentence_id
            for f in mmr_select(q_id, flat, view, k, alpha=1.0, pool_size=None)
        }
        top_set = {f.sentence.sentence_id for f in topk_sim(q_id, flat, view, k)}
        assert mmr_set == top_set


def test_mmr_matches_greedy_oracle():
    checked = 0
    trial = 0
    while checked < 100:
        instance, corpus, _, emb = build_all(11000 + trial)
        trial += 1
        flat = flatten(corpus)
        view = CorpusView(corpus, None, emb)
        q_id = instance["queries"][0]
        items = [f.sentence.sentence_id for f in flat]
        for alpha in (0.0, 0.3, 0.7):
            k = min(5, len(flat))
            got = [
                f.sentence.sentence_id
                for f in mmr_select(q_id, flat, view, k, alpha=alpha, pool_size=None)
            ]
            want = mmr_oracle(q_id, items, instance["embeddings"], k, alpha, None)
            assert got == want
            checked += 1


def test_mmr_pool_truncation_and_errors():
    instance, corpus, _, emb = build_all(12, max_bags=10)
    flat = flatten(corpus)
    view = CorpusView(corpus, None, emb)
    q_id = instance["queries"][0]
    pool = min(3, len(flat))
    got = mmr_select(q_id, flat, view, pool, alpha=0.3, pool_size=pool)
    assert len(got) == pool
    with pytest.raises(ValueError, match="pool"):
        mmr_select(q_id, flat, view, pool + 1, alpha=0.3, pool_size=pool)
    with pytest.raises(ValueError, match="alpha"):
        mmr_select(q_id, flat, view, 1, alpha=1.5)


def test_duplicated_rows_tie_in_corpus_order():
    tied = 0
    for seed in range(100):
        instance = with_duplicated_rows(make_random_instance(seed=42000 + seed))
        corpus = corpus_from_instance(instance)
        emb = embeddings_from_instance(instance)
        flat = flatten(corpus)
        view = CorpusView(corpus, None, emb)
        items = [f.sentence.sentence_id for f in flat]
        vectors = instance["embeddings"]
        tied += len(items) - len({tuple(vectors[i]) for i in items})
        got = [f.sentence.sentence_id for f in topk_sim("q000", flat, view, len(flat))]
        assert got == topk_oracle("q000", items, vectors, len(flat))
        k = min(5, len(flat))
        for alpha in (0.0, 0.3, 1.0):
            got = [
                f.sentence.sentence_id
                for f in mmr_select("q000", flat, view, k, alpha=alpha, pool_size=None)
            ]
            assert got == mmr_oracle("q000", items, vectors, k, alpha, None)
    assert tied > 0


# Unit rows whose dot products are sums of quarters, so every similarity
# below is exact and every tie is exact: with the query along the first
# axis, positions 2-5 have q-sim 0.75, position 1 0.5 and position 0 0.25.
TIE_ROWS = [
    [-0.5, 0.5, 0.5, 0.5],
    [0.0, 1.0, 0.0, 0.0],
    [0.5, 0.5, 0.5, 0.5],
    [0.5, 0.5, 0.5, 0.5],  # a copy of position 2
    [0.5, -0.5, 0.5, 0.5],
    [0.5, -0.5, 0.5, 0.5],  # a copy of position 4
]


@pytest.mark.parametrize(
    "pool_size, want",
    [(3, [2, 4, 3]), (6, [2, 4, 1, 0, 3, 5]), (None, [2, 4, 1, 0, 3, 5])],
    ids=["pool_3", "pool_of_every_sentence", "no_pool"],
)
def test_mmr_breaks_objective_ties_by_query_similarity_then_corpus_order(
    pool_size, want
):
    """With alpha = 0 every first-step objective is 0, so the highest
    query similarity decides, and of the copies at 0.75 the earliest.
    Positions 0, 1 and 4 then tie at -0.75 with q-sims 0.25, 0.5 and 0.75,
    so 4 goes first although it comes last in corpus order; later, 0 and 1
    tie again, and the two copies at -1 fall back to corpus order. A pool
    of 3 holds the three earliest rows at 0.75."""
    sentences = [f"s{i}" for i in range(len(TIE_ROWS))]
    bags = [
        {"bag_id": f"b{b}", "labels": {"rel_a"}, "sentences": [{"sentence_id": s} for s in ids]}
        for b, ids in enumerate((sentences[:3], sentences[3:]))
    ]
    instance = {"relations": ["rel_a", "rel_b"], "bags": bags, "queries": ["q"]}
    vectors = dict(zip(sentences, TIE_ROWS), q=[1.0, 0.0, 0.0, 0.0])
    corpus = corpus_from_instance(instance)
    flat = flatten(corpus)
    view = CorpusView(corpus, None, EmbeddingIndex(4, vectors))
    got = mmr_select("q", flat, view, len(want), alpha=0.0, pool_size=pool_size)
    assert [f.sentence.sentence_id for f in got] == [sentences[i] for i in want]
    assert [f.candidate_score for f in got] == [(1.0 + TIE_ROWS[i][0]) / 2.0 for i in want]
    assert [sentences[i] for i in want] == mmr_oracle(
        "q", sentences, vectors, len(want), 0.0, pool_size
    )


# --------------------------------------------------------------- ablations


def ablation_variant(name, q_id, corpus, scores, emb, config):
    """One ablation, selected through the CLI's strategy registry."""
    return STRATEGIES[f"ablation:{name}"].select(
        q_id, SelectionInputs(CorpusView(corpus, scores, emb), config)
    )


def test_ablation_unknown_name():
    with pytest.raises(ValueError, match="unknown strategy"):
        load_config(None, {"strategy": "ablation:bogus"})


def test_ablation_no_icl_empty_with_candidates():
    instance, corpus, scores, emb = build_all(14)
    outcome = ablation_variant("no_icl", "q000", corpus, scores, emb, ScoringConfig(k=3))
    assert outcome.relation_scope == "candidates_only"
    assert outcome.exemplars == ()
    assert len(outcome.candidates) == min(3, len(corpus.ontology))


def test_ablation_all_relations_covers_ontology_minus_skips():
    instance, corpus, scores, emb = build_all(15, max_bags=30)
    outcome = ablation_variant(
        "all_relations", "q000", corpus, scores, emb, ScoringConfig(k=2)
    )
    selection = outcome
    assert len(selection.exemplars) + len(selection.skipped) == len(corpus.ontology)
    covered = {e.candidate_relation for e in selection.exemplars}
    assert covered.isdisjoint(set(selection.skipped))


def test_ablation_no_sim_equals_weights_0_1():
    for trial in range(50):
        instance, corpus, scores, emb = build_all(16000 + trial)
        base = ScoringConfig(k=3, seed=5)
        outcome = ablation_variant("no_sim", "q000", corpus, scores, emb, base)
        direct = build_exemplar_set(
            "q000",
            CorpusView(corpus, scores, None),
            dataclasses.replace(base, w_sim=0.0),
        )
        assert outcome == direct


def test_ablation_no_conf_uses_similarity_only():
    instance, corpus, scores, emb = build_all(17, max_bags=10)
    base = ScoringConfig(k=3, seed=5)
    outcome = ablation_variant("no_conf", "q000", corpus, scores, emb, base)
    direct = build_exemplar_set(
        "q000",
        CorpusView(corpus, None, emb),
        dataclasses.replace(base, w_conf=0.0),
    )
    assert outcome == direct


def test_ablation_random_bag_sentence_deterministic():
    instance, corpus, scores, emb = build_all(18, max_bags=10)
    config = ScoringConfig(k=3, seed=5)
    a = ablation_variant("random_bag_sentence", "q000", corpus, scores, emb, config)
    b = ablation_variant("random_bag_sentence", "q000", corpus, scores, emb, config)
    assert a == b
    for exemplar in a.exemplars:
        bag = corpus.bag(corpus.bag_position[exemplar.source_bag_id])
        assert exemplar.candidate_relation in bag.labelset
        assert exemplar.sentence in bag.sentences


def test_ablation_full_bag_returns_bag_exemplars():
    instance, corpus, scores, emb = build_all(19, max_bags=8)
    outcome = ablation_variant("full_bag", "q000", corpus, scores, emb, ScoringConfig(k=2))
    assert outcome.style == "full_bag"
    for exemplar in outcome.exemplars:
        bag = corpus.bag(corpus.bag_position[exemplar.source_bag_id])
        assert exemplar.sentences == bag.sentences


def test_ablation_flat_retrieval_best_sentence_per_candidate():
    instance, corpus, scores, emb = build_all(20, max_bags=10)
    config = ScoringConfig(k=3)
    outcome = ablation_variant("flat_retrieval", "q000", corpus, scores, emb, config)

    for exemplar in outcome.exemplars:
        relation = exemplar.candidate_relation
        assert relation in exemplar.labels
        # exhaustively verify no flattened sentence with this label beats it
        best = None
        best_score = float("-inf")
        for bag in corpus.bags:
            if relation not in bag.labelset:
                continue
            for sentence in bag.sentences:
                total = scores.score_of(sentence.sentence_id, relation) + mapped_cosine(
                    emb.vector("q000"), emb.vector(sentence.sentence_id)
                )
                if total > best_score:
                    best, best_score = sentence.sentence_id, total
        assert exemplar.sentence.sentence_id == best


def test_every_ablation_name_runs():
    instance, corpus, scores, emb = build_all(21, max_bags=10)
    names = [n.split(":", 1)[1] for n in STRATEGIES if n.startswith("ablation:")]
    assert len(names) == 7
    for name in names:
        outcome = ablation_variant(name, "q000", corpus, scores, emb, ScoringConfig(k=2, seed=1))
        assert isinstance(outcome, ExemplarSet)

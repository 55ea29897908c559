from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hydre.selection
from hydre.corpus import Bag, Corpus, CorpusError
from hydre.evaluation import FactSet, recall_curve
from hydre.providers import EmbeddingIndex, ProviderError, ScoreMatrix, ScoringConfig
from hydre.selection import (
    CorpusView,
    Exemplar,
    ExemplarSet,
    NoBagForRelation,
    build_exemplar_set,
    group_reduced,
    reduce_bag,
    select_bag,
    select_candidates,
    select_sentence,
    select_sentences,
    serialize_exemplar_set,
)

from conftest import (
    corpus_from_instance,
    embeddings_from_instance,
    make_sentence,
    ontology_from_names,
    scores_from_instance,
    with_duplicated_rows,
)
from oracles import (
    candidates_oracle,
    combined_score_oracle,
    exemplar_set_oracle,
    make_random_instance,
    recall_at_k_oracle,
    reduce_bag_oracle,
    select_bag_oracle,
    select_sentence_oracle,
)


def matrix(tiny_ontology, rows):
    return ScoreMatrix(
        tiny_ontology.names, {k: np.asarray(v, dtype=float) for k, v in rows.items()}
    )


# ------------------------------------------------------- select_candidates


def test_select_candidates_basic(tiny_ontology):
    scores = matrix(tiny_ontology, {"q": [0.9, 0.4, 0.1]})
    assert select_candidates("q", scores, 2) == [("rel_a", 0.9), ("rel_b", 0.4)]


def test_select_candidates_all_relations(tiny_ontology):
    scores = matrix(tiny_ontology, {"q": [0.1, 0.9, 0.4]})
    got = select_candidates("q", scores, 3)
    assert got == [("rel_b", 0.9), ("rel_c", 0.4), ("rel_a", 0.1)]


def test_select_candidates_tie_breaks_by_ontology_index(tiny_ontology):
    scores = matrix(tiny_ontology, {"q": [0.5, 0.5, 0.5]})
    assert [r for r, _ in select_candidates("q", scores, 2)] == ["rel_a", "rel_b"]


def test_select_candidates_unknown_query(tiny_ontology):
    scores = matrix(tiny_ontology, {"q": [0.5, 0.5, 0.5]})
    with pytest.raises(ProviderError, match="zz"):
        select_candidates("zz", scores, 1)


def test_select_candidates_matches_sort_oracle():
    count = 0
    trial = 0
    while count < 200:
        instance = make_random_instance(seed=4000 + trial, max_bags=3)
        trial += 1
        scores = scores_from_instance(instance)
        q_id = instance["queries"][0]
        relations = instance["relations"]
        for k in range(1, len(relations) + 1):
            got = select_candidates(q_id, scores, k)
            want = candidates_oracle(instance["scores"][q_id], relations, k)
            assert [r for r, _ in got] == [r for r, _ in want]
            assert all(
                abs(gs - ws) <= 1e-12 for (_, gs), (_, ws) in zip(got, want)
            )
            scores_only = [s for _, s in got]
            assert scores_only == sorted(scores_only, reverse=True)
            assert len(got) == min(k, len(relations))
            count += 1


def test_stage1_order_agrees_everywhere_on_signed_zeros_and_exact_ties(monkeypatch):
    """Query score rows of 0.0, -0.0 and exactly tied values: stage 1
    (``select_candidates``), the block ranks a stage-2 product is formed
    from (its queries are exactly those whose oracle candidates hold the
    relation) and Recall@k all follow ``candidates_oracle``'s order, in
    which -0.0 ties with 0.0."""
    screens, asked = [], []
    pick, screen_dots = CorpusView.pick, EmbeddingIndex.screen_dots

    def recorded_pick(self, q_id, relation, config, items, **kwargs):
        asked.append(relation)
        return pick(self, q_id, relation, config, items, **kwargs)

    def recorded_screen(self, q_ids, rows=None):
        screens.append((asked[-1], frozenset(q_ids)))
        return screen_dots(self, q_ids, rows)

    monkeypatch.setattr(CorpusView, "pick", recorded_pick)
    monkeypatch.setattr(EmbeddingIndex, "screen_dots", recorded_screen)
    signed = 0
    for seed in range(12):
        instance = make_random_instance(seed=4500 + seed, max_bags=12, n_queries=6)
        relations, q_ids = instance["relations"], instance["queries"]
        rng = instance["rng"]
        for q_id in q_ids:
            instance["scores"][q_id] = [rng.choice([0.0, -0.0, 0.5, 1.0]) for _ in relations]
        signed += sum(math.copysign(1.0, v) < 0 for q in q_ids for v in instance["scores"][q])
        scores = scores_from_instance(instance)
        pairs = frozenset((q, r) for q in q_ids for r in rng.sample(relations, 2))
        gold = FactSet(pairs, frozenset(q_ids))
        curve = recall_curve(gold, scores)
        for k in range(1, len(relations) + 1):
            assert curve[k - 1] == recall_at_k_oracle(gold.facts, instance["scores"], relations, k)
            want = {q: candidates_oracle(instance["scores"][q], relations, k) for q in q_ids}
            for q_id in q_ids:
                got = select_candidates(q_id, scores, k)
                assert [(r, repr(v)) for r, v in got] == [(r, repr(v)) for r, v in want[q_id]]
            screens.clear()
            corpus = corpus_from_instance(instance)
            view = CorpusView(corpus, scores, embeddings_from_instance(instance))
            for q_id in q_ids:
                got = build_exemplar_set(q_id, view, ScoringConfig(k=k))
                oracle = exemplar_set_oracle(
                    q_id, relations, instance["bags"], instance["scores"],
                    instance["embeddings"], k=k, threshold=0.5,
                )
                assert [(e.candidate_relation, e.source_bag_id) for e in got.exemplars] == [
                    (w["relation"], w["bag_id"]) for w in oracle["exemplars"]
                ]
            blocks = {}
            for q_id in q_ids:
                for relation, _ in want[q_id]:
                    if len(corpus.bags_by_relation[relation]):
                        blocks.setdefault(relation, set()).add(q_id)
            assert sorted(screens) == sorted(blocks.items())
    assert signed


# ------------------------------------------------------------- select_bag


def one_sentence_bag(bag_id, sid, labels):
    return Bag(bag_id, "h", "t", (make_sentence(sid),), frozenset(labels))


def test_select_bag_arithmetic(tiny_ontology):
    # B1: sim .8 conf .5 -> 1.3; B2: sim .6 conf .9 -> 1.5
    import math

    def unit(mapped):
        cos = 2 * mapped - 1
        return [cos, math.sqrt(1 - cos * cos)]

    bags = [
        one_sentence_bag("B1", "s1", {"rel_a"}),
        one_sentence_bag("B2", "s2", {"rel_a"}),
    ]
    corpus = Corpus.assemble(tiny_ontology, bags)
    scores = matrix(tiny_ontology, {"s1": [0.5, 0, 0], "s2": [0.9, 0, 0]})
    emb = EmbeddingIndex(
        2,
        {
            "q": np.array([1.0, 0.0]),
            "s1": np.array(unit(0.8)),
            "s2": np.array(unit(0.6)),
        },
    )
    view = CorpusView(corpus, scores, emb)
    got = select_bag("q", "rel_a", corpus, view, ScoringConfig())
    assert got == "B2"


def test_select_bag_single_bag(tiny_ontology):

    corpus = Corpus.assemble(tiny_ontology, [one_sentence_bag("B1", "s1", {"rel_b"})])
    scores = matrix(tiny_ontology, {"s1": [0, 0.2, 0]})
    config = ScoringConfig(w_sim=0.0, w_conf=1.0)
    view = CorpusView(corpus, scores, None)
    assert select_bag("q", "rel_b", corpus, view, config) == "B1"


def test_select_bag_no_bag_for_relation(tiny_ontology):

    corpus = Corpus.assemble(tiny_ontology, [one_sentence_bag("B1", "s1", {"rel_b"})])
    scores = matrix(tiny_ontology, {"s1": [0, 0.2, 0]})
    view = CorpusView(corpus, scores, None)
    with pytest.raises(NoBagForRelation) as err:
        select_bag("q", "rel_a", corpus, view, ScoringConfig(w_sim=0.0))
    assert err.value.relation == "rel_a"


def test_select_bag_tie_keeps_earliest(tiny_ontology):

    bags = [
        one_sentence_bag("B1", "s1", {"rel_a"}),
        one_sentence_bag("B2", "s2", {"rel_a"}),
    ]
    corpus = Corpus.assemble(tiny_ontology, bags)
    scores = matrix(tiny_ontology, {"s1": [0.4, 0, 0], "s2": [0.4, 0, 0]})
    config = ScoringConfig(w_sim=0.0, w_conf=1.0)
    view = CorpusView(corpus, scores, None)
    assert select_bag("q", "rel_a", corpus, view, config) == "B1"


def test_a_bag_id_names_one_bag_of_an_assembled_corpus(tiny_ontology):
    """Two bags sharing an id once let ``select_bag`` pick the first while
    the exemplar showed the second's sentence, s2; the corpus refuses them
    instead."""
    bags = [
        one_sentence_bag("b1", "s1", {"rel_a"}),
        one_sentence_bag("b1", "s2", {"rel_a"}),
    ]
    with pytest.raises(CorpusError, match="duplicate bag_id 'b1'"):
        corpus = Corpus.assemble(tiny_ontology, bags)
        scores = matrix(tiny_ontology, {"q": [0.9, 0.1, 0.1], "s1": [0.9, 0.1, 0.1],
                                        "s2": [0.2, 0.1, 0.1]})
        emb = EmbeddingIndex(2, {"q": [1.0, 0.0], "s1": [1.0, 0.0], "s2": [0.0, 1.0]})
        config = ScoringConfig(k=1)
        exemplar_set = build_exemplar_set("q", CorpusView(corpus, scores, emb), config)
        assert [s.sentence_id for s in exemplar_set.exemplars[0].sentences] == ["s1"]


def test_select_bag_matches_exhaustive_scan_oracle():
    checked = 0
    trial = 0
    while checked < 100:
        instance = make_random_instance(seed=5000 + trial)
        trial += 1
        corpus = corpus_from_instance(instance)
        scores = scores_from_instance(instance)
        emb = embeddings_from_instance(instance)
        view = CorpusView(corpus, scores, emb)
        q_id = instance["queries"][0]
        config = ScoringConfig()
        for relation in instance["relations"]:
            want = select_bag_oracle(
                q_id,
                relation,
                instance["relations"],
                instance["bags"],
                instance["scores"],
                instance["embeddings"],
                w_sim=1.0,
                w_conf=1.0,
            )
            if want is None:
                with pytest.raises(NoBagForRelation):
                    select_bag(q_id, relation, corpus, view, config)
            else:
                got = select_bag(q_id, relation, corpus, view, config)
                assert got == want
            checked += 1


# --------------------------------------------------------- select_sentence


def one_bag_corpus(ontology, sentence_ids, labels):
    """A corpus of one bag, B1, with the given sentences and labels."""
    bag = Bag(
        "B1", "h", "t", tuple(make_sentence(s) for s in sentence_ids), frozenset(labels)
    )
    return Corpus.assemble(ontology, [bag])


def test_select_sentence_coverage_dominates(tiny_ontology):
    corpus = one_bag_corpus(tiny_ontology, ["s1", "s2"], {"rel_a", "rel_b"})
    scores = matrix(tiny_ontology, {"s1": [0.6, 0.4, 0], "s2": [0.7, 0.8, 0]})
    got = select_sentence(corpus, 0, scores, threshold=0.5)
    assert got.sentence_id == "s2"  # coverage 2 beats 1


def test_select_sentence_aggregate_breaks_coverage_tie(tiny_ontology):
    corpus = one_bag_corpus(tiny_ontology, ["s1", "s2"], {"rel_a", "rel_b"})
    scores = matrix(tiny_ontology, {"s1": [0.6, 0.6, 0], "s2": [0.9, 0.55, 0]})
    got = select_sentence(corpus, 0, scores, threshold=0.5)
    assert got.sentence_id == "s2"  # both cover 2; 1.45 > 1.2


def test_select_sentence_full_tie_keeps_in_bag_order(tiny_ontology):
    corpus = one_bag_corpus(tiny_ontology, ["s1", "s2"], {"rel_a"})
    scores = matrix(tiny_ontology, {"s1": [0.7, 0, 0], "s2": [0.7, 0, 0]})
    assert select_sentence(corpus, 0, scores, threshold=0.5).sentence_id == "s1"


def test_select_sentence_strict_threshold(tiny_ontology):
    # a score exactly at the threshold contributes no coverage
    corpus = one_bag_corpus(tiny_ontology, ["s1", "s2"], {"rel_a", "rel_b"})
    scores = matrix(tiny_ontology, {"s1": [0.5, 0.5, 0], "s2": [0.51, 0.1, 0]})
    got = select_sentence(corpus, 0, scores, threshold=0.5)
    assert got.sentence_id == "s2"  # s1 covers 0, s2 covers 1


def test_select_sentence_sums_labels_in_name_order():
    # In name order (a, b, c) s1 sums 0.1 + 0.2 + 0.3 = 0.6000000000000001
    # and s2 sums 0.3 + 0.2 + 0.1 = 0.6, so s1 wins; summed in ontology
    # order (c, b, a) the two sums swap and s2 would win.
    ontology = ontology_from_names(["rel_c", "rel_b", "rel_a"])
    corpus = one_bag_corpus(ontology, ["s1", "s2"], {"rel_a", "rel_b", "rel_c"})
    scores = matrix(ontology, {"s1": [0.3, 0.2, 0.1], "s2": [0.1, 0.2, 0.3]})
    assert 0.1 + 0.2 + 0.3 > 0.3 + 0.2 + 0.1
    assert select_sentence(corpus, 0, scores, threshold=0.5).sentence_id == "s1"


def test_select_sentence_folds_the_aggregate_left_to_right():
    # The bag above in reverse order, [s2, s1]. A left fold in name order
    # sums s1 to 0.6000000000000001 and s2 to 0.6, so s1 wins. Builtin sum
    # compensates its rounding from Python 3.12 on: both would sum to 0.6,
    # and the tie would go to s2, the first in the bag.
    relations = ["rel_c", "rel_b", "rel_a"]
    labels = {"rel_a", "rel_b", "rel_c"}
    rows = {"s1": [0.3, 0.2, 0.1], "s2": [0.1, 0.2, 0.3]}
    corpus = one_bag_corpus(ontology_from_names(relations), ["s2", "s1"], labels)
    scores = matrix(corpus.ontology, rows)
    assert select_sentence(corpus, 0, scores, threshold=0.5).sentence_id == "s1"
    bag = {"labels": labels, "sentences": [{"sentence_id": "s2"}, {"sentence_id": "s1"}]}
    assert select_sentence_oracle(bag, relations, rows, 0.5) == "s1"


# ontology order differs from name order, so the fold's label order shows
STAGE3_RELATIONS = ["rel_c", "rel_a", "rel_d", "rel_b"]


@st.composite
def stage3_instances(draw):
    """(an oracle instance, a threshold, an order of its bags) made for
    ties: every score comes from a few values, among them the threshold
    itself and its float64 neighbours, and a row may be an arrangement of
    0.1, 0.2 and 0.3, whose sum rounds by the order of the labels; a bag
    has 1 to 3 labels, and its later rows are free, all equal to its
    first, or copies of any earlier row."""
    threshold = draw(st.sampled_from([0.5, 0.3]))
    values = [0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 1.0, threshold]
    values += [float(np.nextafter(threshold, 0.0)), float(np.nextafter(threshold, 1.0))]
    arranged = st.permutations([0.1, 0.2, 0.3, 0.6])
    row = st.one_of(st.lists(st.sampled_from(values), min_size=4, max_size=4), arranged, arranged)
    bags, scores = [], {}
    for b in range(draw(st.integers(1, 6))):
        labels = draw(st.sets(st.sampled_from(STAGE3_RELATIONS), min_size=1, max_size=3))
        rows = draw(st.sampled_from(["free", "equal", "copied"]))
        sentences = []
        for j in range(draw(st.integers(1, 4))):
            if rows == "equal" and j:
                scores[f"b{b}s{j}"] = list(scores[f"b{b}s0"])
            elif rows == "copied" and scores:
                scores[f"b{b}s{j}"] = list(draw(st.sampled_from(list(scores.values()))))
            else:
                scores[f"b{b}s{j}"] = draw(row)
            sentences.append({"sentence_id": f"b{b}s{j}"})
        bags.append({"bag_id": f"B{b}", "labels": labels, "sentences": sentences})
    instance = {"relations": STAGE3_RELATIONS, "bags": bags, "scores": scores, "queries": []}
    return instance, threshold, draw(st.permutations(range(len(bags))))


@settings(max_examples=300, deadline=None)
@given(stage3_instances())
def test_stage3_array_pass_matches_the_two_pass_oracle(drawn):
    """One ``select_sentences`` pass over bags in any order, with the score
    rows looked up by id or given (``CorpusView.score_rows``), picks in
    each bag the sentence the two-pass oracle picks."""
    instance, threshold, order = drawn
    corpus = corpus_from_instance(instance)
    scores = scores_from_instance(instance)
    bags = instance["bags"]
    want = [
        select_sentence_oracle(bags[b], STAGE3_RELATIONS, instance["scores"], threshold)
        for b in order
    ]
    rows = CorpusView(corpus, scores, None).score_rows
    for given_rows in (None, rows):
        got = select_sentences(corpus, np.array(order), scores, threshold, given_rows)
        assert [corpus.sentence_ids[p] for p in got.tolist()] == want


def oracle_instances(seed):
    """A random instance, then the same instance with duplicated rows."""
    yield make_random_instance(seed=seed)
    yield with_duplicated_rows(make_random_instance(seed=seed))


def test_select_sentence_matches_two_pass_oracle():
    checked = 0
    trial = 0
    while checked < 400:
        for instance in oracle_instances(6000 + trial):
            corpus = corpus_from_instance(instance)
            scores = scores_from_instance(instance)
            for b, raw in enumerate(instance["bags"]):
                if raw["labels"] == {"NA"}:
                    continue
                got = select_sentence(corpus, b, scores, threshold=0.5)
                want = select_sentence_oracle(
                    raw, instance["relations"], instance["scores"], 0.5
                )
                assert got.sentence_id == want
                checked += 1
        trial += 1


# ------------------------------------------------------- build_exemplar_set


def hand_checkable_instance():
    """3 relations, 3 bags; every stage decidable by inspection."""
    relations = ["rel_a", "rel_b", "rel_c"]
    bags = [
        {
            "bag_id": "b0",
            "labels": {"rel_a"},
            "sentences": [{"sentence_id": "s0"}, {"sentence_id": "s1"}],
        },
        {
            "bag_id": "b1",
            "labels": {"rel_a", "rel_b"},
            "sentences": [{"sentence_id": "s2"}],
        },
        {
            "bag_id": "b2",
            "labels": {"rel_b"},
            "sentences": [{"sentence_id": "s3"}, {"sentence_id": "s4"}],
        },
    ]
    scores = {
        "q000": [0.9, 0.8, 0.1],
        "s0": [0.9, 0.1, 0.1],
        "s1": [0.6, 0.1, 0.1],
        "s2": [0.7, 0.7, 0.1],
        "s3": [0.1, 0.95, 0.1],
        "s4": [0.1, 0.55, 0.1],
    }
    # dim-2 unit embeddings; q aligned with axis 0
    embeddings = {
        "q000": [1.0, 0.0],
        "s0": [0.8, 0.6],
        "s1": [0.0, 1.0],
        "s2": [0.6, 0.8],
        "s3": [1.0, 0.0],
        "s4": [-0.6, 0.8],
    }
    return {
        "relations": relations,
        "bags": bags,
        "scores": scores,
        "embeddings": embeddings,
        "queries": ["q000"],
    }


def test_build_exemplar_set_composed_stages():
    instance = hand_checkable_instance()
    corpus = corpus_from_instance(instance)
    scores = scores_from_instance(instance)
    emb = embeddings_from_instance(instance)
    config = ScoringConfig(k=3)
    got = build_exemplar_set("q000", CorpusView(corpus, scores, emb), config)
    want = exemplar_set_oracle(
        "q000",
        instance["relations"],
        instance["bags"],
        instance["scores"],
        instance["embeddings"],
        k=3,
        threshold=0.5,
    )
    assert [e.candidate_relation for e in got.exemplars] == [
        w["relation"] for w in want["exemplars"]
    ]
    assert [e.source_bag_id for e in got.exemplars] == [
        w["bag_id"] for w in want["exemplars"]
    ]
    assert [e.sentence.sentence_id for e in got.exemplars] == [
        w["sentence_id"] for w in want["exemplars"]
    ]
    # ascending by candidate score: rel_c (0.1) skipped? no: rel_c has no bag
    assert got.skipped == ("rel_c",)
    assert [e.candidate_relation for e in got.exemplars] == ["rel_b", "rel_a"]


def test_build_exemplar_set_k1(tiny_ontology):
    instance = hand_checkable_instance()
    corpus = corpus_from_instance(instance)
    scores = scores_from_instance(instance)
    emb = embeddings_from_instance(instance)
    view = CorpusView(corpus, scores, emb)
    got = build_exemplar_set("q000", view, ScoringConfig(k=1))
    assert len(got.exemplars) == 1
    assert got.exemplars[0].candidate_relation == "rel_a"


def test_build_exemplar_set_records_skip():
    instance = hand_checkable_instance()
    # rel_c is a candidate but has no bag
    instance["scores"]["q000"] = [0.9, 0.8, 0.85]
    corpus = corpus_from_instance(instance)
    scores = scores_from_instance(instance)
    emb = embeddings_from_instance(instance)
    view = CorpusView(corpus, scores, emb)
    got = build_exemplar_set("q000", view, ScoringConfig(k=3))
    assert len(got.exemplars) == 2
    assert got.skipped == ("rel_c",)


def test_k_sweep_decides_each_pick_once_and_skips_a_bagless_candidate_at_every_k(monkeypatch):
    """Selecting one query at k = 1, 2, 3 with one view decides each
    candidate's stage-2 pick once (one ``settle_columns`` column) and
    never one for rel_c, which has no bag and is skipped at every k."""
    instance = hand_checkable_instance()
    instance["scores"]["q000"] = [0.9, 0.8, 0.85]  # rel_c, with no bag, ranks 2nd
    corpus = corpus_from_instance(instance)
    scores = scores_from_instance(instance)
    emb = embeddings_from_instance(instance)
    view = CorpusView(corpus, scores, emb)
    decided, asked = Counter(), []
    pick = CorpusView.pick
    settle_columns = hydre.selection.settle_columns

    def recorded_pick(self, q_id, relation, *args, **kwargs):
        asked.append(relation)
        return pick(self, q_id, relation, *args, **kwargs)

    def counted_settle(screened, slack, exact):
        decided[asked[-1]] += screened.shape[1]
        return settle_columns(screened, slack, exact)

    monkeypatch.setattr(CorpusView, "pick", recorded_pick)
    monkeypatch.setattr(hydre.selection, "settle_columns", counted_settle)
    skipped = [
        build_exemplar_set("q000", view, ScoringConfig(k=k)).skipped
        for k in (1, 2, 3)
    ]
    assert skipped == [(), ("rel_c",), ("rel_c",)]
    assert decided == {"rel_a": 1, "rel_b": 1}


def test_kept_stage2_picks_follow_query_weights_and_pooling():
    """One view serves every call below, so its kept stage-2 picks must be
    told apart by query, w_conf and pooling; each result is the oracle's."""
    differs = Counter()
    for seed in range(60):
        instance = make_random_instance(seed=44000 + seed, n_queries=2)
        corpus = corpus_from_instance(instance)
        scores = scores_from_instance(instance)
        emb = embeddings_from_instance(instance)
        view = CorpusView(corpus, scores, emb)
        k = len(instance["relations"])
        seen = {}
        for q_id in instance["queries"]:
            for w_conf, pooling in ((1.0, "max"), (4.0, "max"), (1.0, "mean")):
                config = ScoringConfig(k=k, w_conf=w_conf, bag_sim_pooling=pooling)
                got = build_exemplar_set(q_id, view, config)
                want = exemplar_set_oracle(
                    q_id,
                    instance["relations"],
                    instance["bags"],
                    instance["scores"],
                    instance["embeddings"],
                    k=k,
                    threshold=0.5,
                    w_conf=w_conf,
                    pooling=pooling,
                )
                assert list(got.skipped) == want["skipped"]
                picks = {(e.candidate_relation, e.source_bag_id) for e in got.exemplars}
                assert picks == {(w["relation"], w["bag_id"]) for w in want["exemplars"]}
                assert [e.sentence.sentence_id for e in got.exemplars] == [
                    w["sentence_id"] for w in want["exemplars"]
                ]
                seen[q_id, w_conf, pooling] = picks
        differs["w_conf"] += seen["q000", 1.0, "max"] != seen["q000", 4.0, "max"]
        differs["pooling"] += seen["q000", 1.0, "max"] != seen["q000", 1.0, "mean"]
        differs["query"] += seen["q000", 1.0, "max"] != seen["q001", 1.0, "max"]
    assert min(differs[key] for key in ("w_conf", "pooling", "query")) > 0, differs


def test_exemplar_labels_contain_candidate_and_order_ascends():
    for trial in range(20):
        instance = make_random_instance(seed=7000 + trial)
        corpus = corpus_from_instance(instance)
        scores = scores_from_instance(instance)
        emb = embeddings_from_instance(instance)
        es = build_exemplar_set(
            "q000",
            CorpusView(corpus, scores, emb),
            ScoringConfig(k=len(instance["relations"])),
        )
        scores_list = [e.candidate_score for e in es.exemplars]
        assert scores_list == sorted(scores_list)
        for e in es.exemplars:
            assert e.candidate_relation in e.labels
            assert e.labels == corpus.bag(corpus.bag_position[e.source_bag_id]).labelset


def test_build_exemplar_set_deterministic_bytes():
    instance = make_random_instance(seed=99)
    corpus = corpus_from_instance(instance)
    scores = scores_from_instance(instance)
    emb = embeddings_from_instance(instance)

    def render():
        view = CorpusView(corpus, scores, emb)
        es = build_exemplar_set("q000", view, ScoringConfig(k=4, seed=3))
        return json.dumps(serialize_exemplar_set(es, corpus.ontology), sort_keys=True)

    assert render() == render()


def test_similarity_only_mode_is_seeded_and_sim_ordered():
    instance = make_random_instance(seed=123, max_bags=12)
    corpus = corpus_from_instance(instance)
    emb = embeddings_from_instance(instance)
    config = ScoringConfig(w_sim=1.0, w_conf=0.0, k=4, seed=11)
    first = build_exemplar_set("q000", CorpusView(corpus, None, emb), config)
    second = build_exemplar_set("q000", CorpusView(corpus, None, emb), config)
    assert first == second
    scores_list = [e.candidate_score for e in first.exemplars]
    assert scores_list == sorted(scores_list)
    # candidates come from bag labelsets, so every one has a bag
    assert first.skipped == ()
    other_seed = build_exemplar_set(
        "q000",
        CorpusView(corpus, None, emb),
        ScoringConfig(w_sim=1.0, w_conf=0.0, k=4, seed=12),
    )
    assert {e.candidate_relation for e in other_seed.exemplars} == {
        e.candidate_relation for e in first.exemplars
    }


def test_exemplar_set_invariants_enforced():
    s = make_sentence("s1")
    e_low = Exemplar((s,), frozenset({"rel_a"}), "b1", "rel_a", 0.2)
    e_high = Exemplar((make_sentence("s2"),), frozenset({"rel_b"}), "b2", "rel_b", 0.9)
    with pytest.raises(ValueError, match="ascending"):
        ExemplarSet("q", (e_high, e_low))
    with pytest.raises(ValueError, match="one exemplar per candidate"):
        ExemplarSet("q", (e_low, Exemplar((s,), frozenset({"rel_a"}), "b1", "rel_a", 0.5)))
    with pytest.raises(ValueError, match="missing from"):
        Exemplar((s,), frozenset({"rel_b"}), "b1", "rel_a", 0.2)


# --------------------------------------------------------------- reduce_bag


def test_reduce_bag_picks_best_sentence_per_label(tiny_ontology):
    corpus = one_bag_corpus(tiny_ontology, ["s1", "s2"], {"rel_a", "rel_b"})
    scores = matrix(tiny_ontology, {"s1": [0.9, 0.2, 0], "s2": [0.3, 0.8, 0]})
    pairs = reduce_bag(corpus, 0, scores)
    assert [(r, s.sentence_id) for r, s in pairs] == [("rel_a", "s1"), ("rel_b", "s2")]


def test_reduce_bag_single_sentence_covers_all_labels(tiny_ontology):
    corpus = one_bag_corpus(tiny_ontology, ["s1"], {"rel_a", "rel_c"})
    scores = matrix(tiny_ontology, {"s1": [0.9, 0.2, 0.4]})
    pairs = reduce_bag(corpus, 0, scores)
    assert [(r, s.sentence_id) for r, s in pairs] == [("rel_a", "s1"), ("rel_c", "s1")]
    grouped = group_reduced(pairs)
    assert len(grouped) == 1
    assert grouped[0][1] == ["rel_a", "rel_c"]


def test_reduce_bag_matches_oracle():
    checked = 0
    trial = 0
    while checked < 200:
        for instance in oracle_instances(8000 + trial):
            corpus = corpus_from_instance(instance)
            scores = scores_from_instance(instance)
            for b, raw in enumerate(instance["bags"]):
                if raw["labels"] == {"NA"}:
                    continue
                got = [(r, s.sentence_id) for r, s in reduce_bag(corpus, b, scores)]
                want = reduce_bag_oracle(raw, instance["relations"], instance["scores"])
                assert got == want
                checked += 1
        trial += 1


def test_reduce_bag_rejects_na_label(tiny_ontology):
    corpus = one_bag_corpus(tiny_ontology, ["s1"], {"NA"})
    scores = matrix(tiny_ontology, {"s1": [0.9, 0.2, 0.4]})
    with pytest.raises(ValueError, match="score column"):
        reduce_bag(corpus, 0, scores)


def test_serialize_round_trip_sentence_and_bag_styles():
    instance = hand_checkable_instance()
    corpus = corpus_from_instance(instance)
    scores = scores_from_instance(instance)
    emb = embeddings_from_instance(instance)
    view = CorpusView(corpus, scores, emb)
    config = ScoringConfig(k=3)

    es = build_exemplar_set("q000", view, config)
    record = serialize_exemplar_set(es, corpus.ontology)
    assert record["style"] == "sentence"
    for entry in record["exemplars"]:
        assert set(entry) == {
            "sentence_id",
            "source_bag_id",
            "candidate_relation",
            "candidate_score",
            "labels",
        }
    from hydre.selection import deserialize_exemplar_set

    assert deserialize_exemplar_set(record, corpus) == es

    for reduced in (False, True):
        style = "reduced_bag" if reduced else "full_bag"
        bes = build_exemplar_set("q000", view, config, style)
        record = serialize_exemplar_set(bes, corpus.ontology)
        assert record["style"] == ("reduced_bag" if reduced else "full_bag")
        assert all(entry["sentence_id"] is None for entry in record["exemplars"])
        assert deserialize_exemplar_set(record, corpus) == bes


def test_confidence_only_pipeline_matches_oracle():
    # weights (0, 1): the no-similarity route against the brute force
    for trial in range(50):
        instance = make_random_instance(seed=30000 + trial)
        corpus = corpus_from_instance(instance)
        scores = scores_from_instance(instance)
        config = ScoringConfig(w_sim=0.0, w_conf=1.0, k=3, seed=trial)
        got = build_exemplar_set("q000", CorpusView(corpus, scores, None), config)
        want = exemplar_set_oracle(
            "q000",
            instance["relations"],
            instance["bags"],
            instance["scores"],
            instance["embeddings"],
            k=3,
            threshold=0.5,
            w_sim=0.0,
            w_conf=1.0,
        )
        assert [
            (e.candidate_relation, e.source_bag_id, e.sentence.sentence_id)
            for e in got.exemplars
        ] == [(w["relation"], w["bag_id"], w["sentence_id"]) for w in want["exemplars"]]


def test_build_bag_exemplar_set_reduced_and_full():
    instance = hand_checkable_instance()
    corpus = corpus_from_instance(instance)
    scores = scores_from_instance(instance)
    emb = embeddings_from_instance(instance)
    view = CorpusView(corpus, scores, emb)
    config = ScoringConfig(k=2)
    full = build_exemplar_set("q000", view, config, style="full_bag")
    reduced = build_exemplar_set("q000", view, config, style="reduced_bag")
    assert full.style == "full_bag"
    assert reduced.style == "reduced_bag"
    for exemplar in full.exemplars:
        bag = corpus.bag(corpus.bag_position[exemplar.source_bag_id])
        assert exemplar.sentences == bag.sentences
    for exemplar in reduced.exemplars:
        bag = corpus.bag(corpus.bag_position[exemplar.source_bag_id])
        assert len(exemplar.sentences) <= len(bag.sentences)
        assert set(exemplar.sentences) <= set(bag.sentences)


def assert_matches_exemplar_oracle(instance, k, pooling):
    corpus = corpus_from_instance(instance)
    scores = scores_from_instance(instance)
    emb = embeddings_from_instance(instance)
    config = ScoringConfig(k=k, bag_sim_pooling=pooling)
    got = build_exemplar_set("q000", CorpusView(corpus, scores, emb), config)
    want = exemplar_set_oracle(
        "q000",
        instance["relations"],
        instance["bags"],
        instance["scores"],
        instance["embeddings"],
        k=k,
        threshold=0.5,
        pooling=pooling,
    )
    assert [r for r, _ in got.candidates] == [r for r, _ in want["candidates"]]
    assert list(got.skipped) == want["skipped"]
    assert [
        (e.candidate_relation, e.source_bag_id, e.sentence.sentence_id)
        for e in got.exemplars
    ] == [(w["relation"], w["bag_id"], w["sentence_id"]) for w in want["exemplars"]]


def test_build_exemplar_set_mean_pooling_matches_oracle():
    for seed in range(100):
        instance = make_random_instance(seed=40000 + seed)
        k = (seed % len(instance["relations"])) + 1
        assert_matches_exemplar_oracle(instance, k, "mean")


def test_duplicated_rows_tie_to_earliest_bag():
    ties = 0
    for seed in range(100):
        instance = with_duplicated_rows(make_random_instance(seed=41000 + seed))
        corpus = corpus_from_instance(instance)
        scores = scores_from_instance(instance)
        emb = embeddings_from_instance(instance)
        view = CorpusView(corpus, scores, emb)
        relations = instance["relations"]
        for pooling in ("max", "mean"):
            config = ScoringConfig(bag_sim_pooling=pooling)
            for r_index, relation in enumerate(relations):
                want = select_bag_oracle(
                    "q000", relation, relations, instance["bags"],
                    instance["scores"], instance["embeddings"], 1.0, 1.0, pooling,
                )
                if want is None:
                    continue
                assert select_bag("q000", relation, corpus, view, config) == want
                totals = [
                    combined_score_oracle(
                        "q000", bag, r_index, instance["scores"],
                        instance["embeddings"], 1.0, 1.0, pooling,
                    )
                    for bag in instance["bags"]
                    if relation in bag["labels"]
                ]
                ties += totals.count(max(totals)) > 1
            assert_matches_exemplar_oracle(instance, len(relations), pooling)
    assert ties > 0


def test_zero_weight_provider_is_never_consulted():
    instance = make_random_instance(seed=43000, max_bags=10)
    corpus = corpus_from_instance(instance)
    scores = scores_from_instance(instance)
    emb = embeddings_from_instance(instance)
    # providers without a single row: any read of them would raise
    no_vectors = EmbeddingIndex(emb.dim)
    no_rows = ScoreMatrix(scores.relation_order, {})
    conf_only = ScoringConfig(w_sim=0.0, k=3)
    assert build_exemplar_set(
        "q000", CorpusView(corpus, scores, no_vectors), conf_only
    ) == build_exemplar_set("q000", CorpusView(corpus, scores, None), conf_only)
    sim_only = ScoringConfig(w_conf=0.0, k=3)
    assert build_exemplar_set(
        "q000", CorpusView(corpus, no_rows, emb), sim_only
    ) == build_exemplar_set("q000", CorpusView(corpus, None, emb), sim_only)

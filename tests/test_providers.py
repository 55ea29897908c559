from __future__ import annotations

import ast
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hydre.corpus
from hydre import providers, selection
from hydre.corpus import (
    Bag,
    Corpus,
    builtin_ontology_path,
    file_sha256,
    load_ontology,
    write_jsonl,
)
from hydre.providers import (
    SIDECAR_SUFFIX,
    EmbeddingIndex,
    ProviderError,
    ScoreMatrix,
    ScoringConfig,
)
from hydre.selection import CorpusView, bag_runs

from conftest import (
    FIXTURES,
    backdate,
    edit_sidecar_arrays,
    edit_sidecar_header,
    opened_files,
    restore_mtime,
    corpus_from_instance,
    embeddings_from_instance,
    make_query,
    make_sentence,
    ontology_from_names,
    scores_from_instance,
    with_duplicated_rows,
)
from oracles import (
    bag_confidence_oracle,
    bag_similarity_oracle,
    combined_bag_scores,
    make_random_instance,
    mapped_cosine,
)


# ------------------------------------------------- similarities (cosine)


def cosine_of(u, v):
    """Mapped cosine of two raw vectors through an index built from them."""
    emb = EmbeddingIndex(len(v), {"u": u, "v": v})
    return emb.similarities("u", emb.row_indexes(["v"]))[0]


def test_cosine_identical_direction():
    assert cosine_of([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine_of([1.0, 0.0], [0.0, 3.0]) == pytest.approx(0.5)


def test_cosine_opposite():
    assert cosine_of([1.0, 1.0], [-1.0, -1.0]) == pytest.approx(0.0)


def test_cosine_zero_vector_errors():
    with pytest.raises(ProviderError, match="zero vector"):
        cosine_of([0.0, 0.0], [1.0, 0.0])


def test_cosine_dim_mismatch_errors():
    with pytest.raises(ProviderError, match="mismatch"):
        cosine_of([1.0], [1.0, 0.0])


# ------------------------------------------- batched similarities (exact)


def vecdot_similarities(emb, q_id, rows):
    """The per-query reference: one np.vecdot over the whole matrix."""
    return (1.0 + np.vecdot(emb.matrix, emb.vector(q_id))[rows]) / 2.0


def assert_similarities_equal_vecdot(emb, q_ids, rows):
    """Bit-equality of ``similarities`` with the per-query reference."""
    for q_id in q_ids:
        want = vecdot_similarities(emb, q_id, rows)
        assert np.array_equal(emb.similarities(q_id, rows), want)


def row_block(dim):
    """Rows in a MiB of float64 matrix: the row counts below straddle it."""
    return max(1, (1 << 20) // (8 * dim))


@pytest.mark.parametrize("extra", [-1, 0, 1, "2B+5"], ids=["B-1", "B", "B+1", "2B+5"])
@pytest.mark.parametrize("dim", [1, 3, 17, 256, 300])
def test_batched_similarities_equal_per_query_vecdot(dim, extra):
    block = row_block(dim)
    n = block + 5 if extra == "2B+5" else extra
    rng = np.random.default_rng([dim, block + n])
    ids = [f"s{i}" for i in range(block + n)]
    # filled as load fills it: a dict of 2B rows would dominate the test
    emb = EmbeddingIndex(dim)
    emb.matrix = rng.standard_normal((len(ids), dim))
    emb.row_of = dict(zip(ids, range(len(ids))))
    providers._normalize_rows(emb.matrix, ids)
    q_ids = [ids[i] for i in rng.choice(len(ids), 20, replace=False)]
    rows = rng.permutation(len(ids))[: len(ids) // 2]
    assert_similarities_equal_vecdot(emb, q_ids, rows)
    if dim >= 256:
        # a matrix product rounds differently in the last ulp: swapping the
        # per-row vecdot for one would fail the equality above
        queries = emb.matrix[emb.row_indexes(q_ids)]
        gemm = (1.0 + queries @ emb.matrix[rows].T) / 2.0
        exact = np.array([emb.similarities(q_id, rows) for q_id in q_ids])
        assert not np.array_equal(gemm, exact)
        assert np.abs(gemm - exact).max() <= 8 * np.finfo(float).eps


def test_batched_similarities_on_every_kind_of_index(tmp_path, monkeypatch):
    """Loaded (parse and sidecar hit) and built from a dict, on instances
    with duplicated rows: every index's ``similarities`` equal the
    per-query vecdot, and duplicated rows stay tied."""
    for trial in range(4):
        instance = make_random_instance(
            seed=2200 + trial, max_bags=30, dim=64, n_queries=20
        )
        instance = with_duplicated_rows(instance)
        corpus = corpus_from_instance(instance)
        vectors = instance["embeddings"]
        path = tmp_path / f"emb{trial}.jsonl"
        write_jsonl(
            ({"id": i, "vector": [float(x) for x in v]} for i, v in vectors.items()),
            path,
        )
        indexes = [EmbeddingIndex(64, vectors), EmbeddingIndex.load(path)]
        with monkeypatch.context() as patch:
            refuse_parse(patch)
            indexes.append(EmbeddingIndex.load(path))
        copies = {}
        for pos, sentence_id in enumerate(corpus.sentence_ids):
            copies.setdefault(tuple(vectors[sentence_id]), []).append(pos)
        tied = [positions for positions in copies.values() if len(positions) > 1]
        assert tied
        for emb in indexes:
            rows = CorpusView(corpus, None, emb).embedding_rows
            assert_similarities_equal_vecdot(emb, instance["queries"], rows)
            for q_id in instance["queries"]:
                sims = emb.similarities(q_id, rows)
                assert all(len(set(sims[positions])) == 1 for positions in tied)


def screen_chunks(monkeypatch, size, emb):
    """Make the view screen ``size`` queries per chunk."""
    size_bytes = size * emb.matrix32.itemsize * len(emb.matrix)
    monkeypatch.setattr(selection, "SCREEN_BYTES", size_bytes)


# --------------------------------------------------------------- pooling


def vectors_with_mapped_sims(mapped):
    """Unit 2-d vectors whose mapped cosine against [1, 0] hits each value."""
    out = []
    for m in mapped:
        cos = 2.0 * m - 1.0
        out.append([cos, math.sqrt(1.0 - cos * cos)])
    return out


def bag_of(sentence_ids, labels={"rel_a"}):
    return Bag(
        "bag",
        "h",
        "t",
        tuple(make_sentence(sid) for sid in sentence_ids),
        frozenset(labels),
    )


def one_bag_corpus(bag):
    return Corpus.assemble(ontology_from_names(["rel_a", "rel_b", "rel_c"]), [bag])


def bag_similarity(q_id, bag, emb, config):
    """The exact similarity of a one-bag corpus's only bag, from the view,
    after checking that its screened similarity lies within the slack."""
    view = CorpusView(one_bag_corpus(bag), None, emb)
    pooling = config.bag_sim_pooling
    exact = view.exact_bag_similarities(q_id, pooling, np.array([0]))[0]
    screened = view.bag_similarities(q_id, pooling)[0]
    assert abs(screened - exact) <= view._slack(pooling)
    return exact


def bag_confidence(bag, relation, scores):
    """Stage 2's bag confidence (``bag_runs``) of a one-bag corpus's only
    bag."""
    view = CorpusView(one_bag_corpus(bag), scores, None)
    return bag_runs(view, np.array([0]), scores.column(relation))[2][0]


def test_bag_similarity_single_sentence_equals_cosine():
    emb = EmbeddingIndex(
        2, {"q": np.array([1.0, 0.0]), "s1": np.array([0.6, 0.8])}
    )
    bag = bag_of(["s1"])
    config = ScoringConfig()
    expected = mapped_cosine(emb.vector("q"), emb.vector("s1"))
    assert bag_similarity("q", bag, emb, config) == pytest.approx(expected)


def test_bag_similarity_max_pooling():
    vecs = vectors_with_mapped_sims([0.2, 0.9, 0.4])
    emb = EmbeddingIndex(
        2,
        {
            "q": np.array([1.0, 0.0]),
            "s1": np.array(vecs[0]),
            "s2": np.array(vecs[1]),
            "s3": np.array(vecs[2]),
        },
    )
    bag = bag_of(["s1", "s2", "s3"])
    assert bag_similarity("q", bag, emb, ScoringConfig()) == pytest.approx(0.9, abs=1e-12)
    mean = bag_similarity("q", bag, emb, ScoringConfig(bag_sim_pooling="mean"))
    assert mean == pytest.approx(0.5, abs=1e-12)


def test_bag_similarity_missing_embedding_errors():
    emb = EmbeddingIndex(2, {"q": np.array([1.0, 0.0])})
    with pytest.raises(ProviderError, match="s1"):
        bag_similarity("q", bag_of(["s1"]), emb, ScoringConfig())


def test_bag_similarity_matches_brute_force_on_random_bags():
    """Exact bag similarities agree with the oracle to 1e-12, and the
    screened ones lie within the slack of the exact ones."""
    for trial in range(10):
        instance = make_random_instance(seed=2000 + trial, max_bags=5)
        corpus = corpus_from_instance(instance)
        emb = embeddings_from_instance(instance)
        q_id = instance["queries"][0]
        view = CorpusView(corpus, None, emb)
        every = np.arange(len(corpus.bag_ids))
        for pooling in ("max", "mean"):
            sims = view.exact_bag_similarities(q_id, pooling, every)
            for raw, got in zip(instance["bags"], sims):
                want = bag_similarity_oracle(
                    instance["embeddings"][q_id], raw, instance["embeddings"], pooling
                )
                assert got == pytest.approx(want, abs=1e-12)
            screened = view.bag_similarities(q_id, pooling)
            assert np.abs(screened - sims).max() <= view._slack(pooling)


@pytest.mark.parametrize("pooling", ["max", "mean"])
def test_a_corpus_without_bags_pools_no_bag(tiny_ontology, pooling):
    """A corpus of queries only pools an empty row and ranks no bag."""
    corpus = Corpus.assemble(tiny_ontology, [], [make_query("q", {"rel_a"})])
    view = CorpusView(corpus, None, EmbeddingIndex(2, {"q": [1.0, 0.0]}))
    assert view.bag_similarities("q", pooling).shape == (0,)
    assert [len(a) for a in view.top("q", 3, pooling)] == [0, 0]


@pytest.mark.parametrize("size", [1, 3, 20])
def test_bag_similarities_pool_each_chunk_once_per_pooling(monkeypatch, size):
    """A view pools a chunk's bag similarities from one whole-matrix
    screen, into one read-only query x bag matrix per pooling that every
    query of the chunk reads its row of, again on a repeated request:
    equal to a fresh view's and within the slack of the exact values."""
    instance = make_random_instance(seed=2100, max_bags=5, n_queries=20)
    corpus = corpus_from_instance(instance)
    emb = embeddings_from_instance(instance)
    q_ids = instance["queries"]
    poolings = ("max", "mean")
    screen_chunks(monkeypatch, size, emb)
    view = CorpusView(corpus, None, emb)
    screens = []
    screen_dots = EmbeddingIndex.screen_dots

    def recorded(self, ids, rows=None):
        screens.append((len(ids), rows is None))
        return screen_dots(self, ids, rows)

    with monkeypatch.context() as patch:
        patch.setattr(EmbeddingIndex, "screen_dots", recorded)
        got = {}
        for q_id in q_ids:
            for pooling in poolings:
                got[q_id, pooling] = view.bag_similarities(q_id, pooling)
            for pooling in poolings:
                again = view.bag_similarities(q_id, pooling)
                assert np.shares_memory(again, got[q_id, pooling])
    chunks = [q_ids[i : i + size] for i in range(0, len(q_ids), size)]
    assert screens == [(len(chunk), True) for chunk in chunks]
    for chunk in chunks:
        for pooling in poolings:
            matrix = got[chunk[0], pooling].base  # what the row is a view of
            assert matrix.size == len(chunk) * len(corpus.bag_ids)
            assert not matrix.flags.writeable
            assert all(np.shares_memory(matrix, got[q, pooling]) for q in chunk)
        assert not np.shares_memory(got[chunk[0], "max"], got[chunk[0], "mean"])
    every = np.arange(len(corpus.bag_ids))
    fresh = CorpusView(corpus, None, emb)
    for (q_id, pooling), sims in got.items():
        assert not sims.flags.writeable
        assert np.array_equal(sims, fresh.bag_similarities(q_id, pooling))
        exact = view.exact_bag_similarities(q_id, pooling, every)
        assert np.abs(sims - exact).max() <= view._slack(pooling)


@pytest.mark.parametrize(
    "order, lookups",
    [("sentences_first", 0), ("queries_first", 2), ("sentences_reversed", 2)],
)
def test_view_maps_each_sentence_to_its_provider_row(monkeypatch, order, lookups):
    """Providers whose first rows are the corpus sentences in order map them
    with one range and no lookup; any other order maps them by lookup."""
    instance = make_random_instance(seed=2200, max_bags=8)
    corpus = corpus_from_instance(instance)
    sentences, queries = corpus.sentence_ids, instance["queries"]
    assert len(sentences) > 1
    ids = {
        "sentences_first": sentences + queries,
        "queries_first": queries + sentences,
        "sentences_reversed": sentences[::-1] + queries,
    }[order]
    scores = ScoreMatrix(instance["relations"], {i: instance["scores"][i] for i in ids})
    emb = embeddings_from_instance(
        dict(instance, embeddings={i: instance["embeddings"][i] for i in ids})
    )
    calls = []
    for owner in (ScoreMatrix, EmbeddingIndex):
        monkeypatch.setattr(
            owner,
            "row_indexes",
            lambda self, items, _f=owner.row_indexes: calls.append(self) or _f(self, items),
        )
    view = CorpusView(corpus, scores, emb)
    mapped = (view.score_rows, view.embedding_rows)
    assert len(calls) == lookups
    for rows in mapped:
        assert rows.dtype == np.intp
        assert [ids[r] for r in rows.tolist()] == sentences


def test_bag_confidence_max_pooling(tiny_ontology):
    scores = ScoreMatrix(
        tiny_ontology.names,
        {"s1": np.array([0.1, 0.0, 0.0]), "s2": np.array([0.7, 0.0, 0.0])},
    )
    assert bag_confidence(bag_of(["s1", "s2"]), "rel_a", scores) == pytest.approx(0.7)


def test_bag_confidence_single_sentence(tiny_ontology):
    scores = ScoreMatrix(tiny_ontology.names, {"s1": np.array([0.3, 0.0, 0.0])})
    assert bag_confidence(bag_of(["s1"]), "rel_a", scores) == pytest.approx(0.3)


def test_bag_confidence_missing_row_errors(tiny_ontology):
    scores = ScoreMatrix(tiny_ontology.names, {})
    with pytest.raises(ProviderError, match="s1"):
        bag_confidence(bag_of(["s1"]), "rel_a", scores)


def test_bag_confidence_matches_brute_force_and_dominates_sentences():
    for trial in range(10):
        instance = make_random_instance(seed=3000 + trial, max_bags=5)
        corpus = corpus_from_instance(instance)
        scores = scores_from_instance(instance)
        view = CorpusView(corpus, scores, None)
        for b, (raw, bag) in enumerate(zip(instance["bags"], corpus.bags)):
            for r_index, relation in enumerate(instance["relations"]):
                got = bag_runs(view, np.array([b]), scores.column(relation))[2][0]
                want = bag_confidence_oracle(raw, r_index, instance["scores"])
                assert got == pytest.approx(want, abs=1e-12)
                per_sentence = [
                    scores.score_of(s.sentence_id, relation) for s in bag.sentences
                ]
                assert all(got >= v for v in per_sentence)
                assert any(got == v for v in per_sentence)


# --------------------------------------------------------- combined score


def crafted_sim_conf(sim, conf):
    """A one-sentence bag with exact mapped similarity and confidence."""
    emb = EmbeddingIndex(
        2,
        {
            "q": np.array([1.0, 0.0]),
            "s1": np.array(vectors_with_mapped_sims([sim])[0]),
        },
    )
    scores = ScoreMatrix(("rel_a",), {"s1": np.array([conf])})
    return bag_of(["s1"]), scores, emb


def combined_bag_score(q_id, bag, relation, scores, emb, config):
    """The combined score of a one-bag corpus's only bag."""
    corpus = Corpus.assemble(ontology_from_names(["rel_a"]), [bag])
    view = CorpusView(corpus, scores, emb)
    _, total = combined_bag_scores(q_id, relation, view, config)
    return total[0]


def test_combined_equal_weights():
    bag, scores, emb = crafted_sim_conf(0.8, 0.6)
    config = ScoringConfig(w_sim=1.0, w_conf=1.0)
    got = combined_bag_score("q", bag, "rel_a", scores, emb, config)
    assert got == pytest.approx(1.4, abs=1e-12)


def test_combined_confidence_only_mode():
    bag, scores, _ = crafted_sim_conf(0.8, 0.6)
    config = ScoringConfig(w_sim=0.0, w_conf=1.0)
    got = combined_bag_score("q", bag, "rel_a", scores, None, config)
    assert got == pytest.approx(0.6, abs=1e-12)


def test_combined_similarity_only_mode():
    bag, _, emb = crafted_sim_conf(0.8, 0.6)
    config = ScoringConfig(w_sim=1.0, w_conf=0.0)
    got = combined_bag_score("q", bag, "rel_a", None, emb, config)
    assert got == pytest.approx(0.8, abs=1e-12)


@given(
    sim=st.floats(0.0, 1.0),
    conf=st.floats(0.0, 1.0),
    w_sim=st.floats(0.0, 5.0),
    w_conf=st.floats(0.0, 5.0),
)
@settings(max_examples=80)
def test_combined_score_bounded_and_monotone(sim, conf, w_sim, w_conf):
    if w_sim + w_conf == 0:
        return
    bag, scores, emb = crafted_sim_conf(sim, conf)
    config = ScoringConfig(w_sim=w_sim, w_conf=w_conf)
    value = combined_bag_score("q", bag, "rel_a", scores, emb, config)
    assert -1e-9 <= value <= w_sim + w_conf + 1e-9
    # raising a component never lowers the score
    bag2, scores2, emb2 = crafted_sim_conf(min(1.0, sim + 0.1), min(1.0, conf + 0.1))
    higher = combined_bag_score("q", bag2, "rel_a", scores2, emb2, config)
    assert higher >= value - 1e-9


def test_argmax_invariant_under_weight_scaling():
    instance = make_random_instance(seed=42, max_bags=20)
    corpus = corpus_from_instance(instance)
    scores = scores_from_instance(instance)
    emb = embeddings_from_instance(instance)
    view = CorpusView(corpus, scores, emb)
    q_id = instance["queries"][0]
    relation = instance["relations"][0]
    bags = [b for b in corpus.bags if relation in b.labelset]
    if not bags:
        pytest.skip("no bag carries the probe relation")

    def argmax(config):
        _, totals = combined_bag_scores(q_id, relation, view, config)
        scored = [(total, i) for i, total in enumerate(totals)]
        return max(scored, key=lambda pair: (pair[0], -pair[1]))[1]

    base = argmax(ScoringConfig(w_sim=1.0, w_conf=1.0))
    for factor in (0.5, 2.0, 7.3):
        scaled = argmax(ScoringConfig(w_sim=factor, w_conf=factor))
        assert scaled == base


# ------------------------------------------------------------ file loading


def test_score_matrix_load_and_manifest(tmp_path, tiny_ontology):
    path = tmp_path / "scores.jsonl"
    path.write_text(
        '{"relation_order": ["rel_a", "rel_b", "rel_c"]}\n'
        '{"id": "s1", "scores": [0.1, 0.2, 0.3]}\n'
    )
    matrix = ScoreMatrix.load(path, tiny_ontology)
    assert matrix.score_of("s1", "rel_b") == pytest.approx(0.2)


def test_score_matrix_manifest_order_mismatch(tmp_path, tiny_ontology):
    path = tmp_path / "scores.jsonl"
    path.write_text(
        '{"relation_order": ["rel_b", "rel_a", "rel_c"]}\n'
        '{"id": "s1", "scores": [0.1, 0.2, 0.3]}\n'
    )
    with pytest.raises(ProviderError, match="ontology order"):
        ScoreMatrix.load(path, tiny_ontology)


def test_score_matrix_rejects_out_of_range(tmp_path, tiny_ontology):
    path = tmp_path / "scores.jsonl"
    path.write_text(
        '{"relation_order": ["rel_a", "rel_b", "rel_c"]}\n'
        '{"id": "s1", "scores": [0.1, 1.2, 0.3]}\n'
    )
    with pytest.raises(ProviderError, match="outside"):
        ScoreMatrix.load(path, tiny_ontology)


@pytest.mark.parametrize(
    "rows, where",
    [
        # the bad row is not the first
        (['{"id": "s1", "scores": [0.1, 0.2, 0.3]}',
          '{"id": "s2", "scores": [0.1, 0.2, -0.3]}',
          '{"id": "s3", "scores": [1.5, 0.2, 0.3]}'], ":3: row 's2'"),
        # a bad row above another fault is still the first fault named
        (['{"id": "s1", "scores": [0.1, 0.2, 0.3]}',
          '{"id": "s2", "scores": [0.1, 2.0, 0.3]}',
          '{"id": "s1", "scores": [0.1, 0.2, 0.3]}'], ":3: row 's2'"),
        # ... and above a value that is not a number
        (['{"id": "s1", "scores": [0.1, 0.2, 0.3]}',
          '{"id": "s2", "scores": [0.1, 2.0, 0.3]}',
          '{"id": "s3", "scores": ["x", 0.2, 0.3]}'], ":3: row 's2'"),
    ],
)
def test_score_matrix_names_first_out_of_range_row(tmp_path, tiny_ontology, rows, where):
    path = tmp_path / "scores.jsonl"
    path.write_text(
        '{"relation_order": ["rel_a", "rel_b", "rel_c"]}\n' + "\n".join(rows) + "\n"
    )
    with pytest.raises(ProviderError) as info:
        ScoreMatrix.load(path, tiny_ontology)
    assert str(info.value) == f"{path}{where} has scores outside [0, 1]"


def test_score_matrix_rejects_wrong_length(tmp_path, tiny_ontology):
    path = tmp_path / "scores.jsonl"
    path.write_text(
        '{"relation_order": ["rel_a", "rel_b", "rel_c"]}\n'
        '{"id": "s1", "scores": [0.1, 0.2]}\n'
    )
    with pytest.raises(ProviderError, match="expected 3"):
        ScoreMatrix.load(path, tiny_ontology)


def test_embedding_index_normalizes_on_load(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": "a", "vector": [3.0, 4.0]}\n')
    index = EmbeddingIndex.load(path)
    assert np.allclose(index.vector("a"), [0.6, 0.8])


def test_embedding_index_from_non_unit_vectors_keeps_cosine_semantics():
    raw = {"q": [3.0, 0.0], "a": [2.0, 2.0], "b": [0.0, -5.0], "c": [-1.0, 0.5]}
    emb = EmbeddingIndex(2, raw)
    assert np.allclose(np.linalg.norm(emb.matrix, axis=1), 1.0)
    got = emb.similarities("q", emb.row_indexes(["a", "b", "c"]))
    want = [mapped_cosine(raw["q"], raw[item_id]) for item_id in "abc"]
    assert list(got) == pytest.approx(want, abs=1e-12)
    for item_id, vec in raw.items():
        assert np.allclose(emb.vector(item_id), np.asarray(vec) / np.linalg.norm(vec))


def test_embedding_index_rejects_zero_vector(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": "a", "vector": [0.0, 0.0]}\n')
    with pytest.raises(ProviderError, match="zero"):
        EmbeddingIndex.load(path)


def test_embedding_index_rejects_mixed_dims(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": "a", "vector": [1.0, 0.0]}\n{"id": "b", "vector": [1.0]}\n')
    with pytest.raises(ProviderError, match="dim"):
        EmbeddingIndex.load(path)


# ------------------------------------------------------------ sidecars

GOLDEN = FIXTURES / "golden"


@pytest.fixture
def nyt_ontology():
    return load_ontology(builtin_ontology_path())


def sidecar_of(path):
    return path.with_name(path.name + SIDECAR_SUFFIX)


def load_scores(path, ontology):
    return ScoreMatrix.load(path, ontology)


def load_embeddings(path, ontology):
    return EmbeddingIndex.load(path)


PROVIDERS = [
    pytest.param("scores.jsonl", load_scores, id="scores"),
    pytest.param("embeddings.jsonl", load_embeddings, id="embeddings"),
]


def golden_copy(tmp_path, name):
    """A copy of a golden file, dated a minute back so that its stat record
    is not racy."""
    path = tmp_path / name
    shutil.copyfile(GOLDEN / name, path)
    backdate(path)
    return path


def assert_same_load(a, b):
    assert a.matrix.tobytes() == b.matrix.tobytes()
    if hasattr(a, "matrix32"):
        assert a.matrix32.dtype == b.matrix32.dtype == np.float32
        assert a.matrix32.tobytes() == b.matrix32.tobytes()
    assert a.matrix.shape == b.matrix.shape
    assert list(a.row_of) == list(b.row_of)
    assert getattr(a, "relation_order", None) == getattr(b, "relation_order", None)
    assert getattr(a, "dim", None) == getattr(b, "dim", None)


def refuse_parse(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("provider JSONL parsed on a sidecar hit")

    monkeypatch.setattr(providers, "iter_jsonl", refuse)


@pytest.mark.parametrize("name, load", PROVIDERS)
def test_sidecar_hit_equals_miss_and_skips_the_parse(
    tmp_path, monkeypatch, nyt_ontology, name, load
):
    path = golden_copy(tmp_path, name)
    miss = load(path, nyt_ontology)
    assert sidecar_of(path).exists()
    refuse_parse(monkeypatch)
    hit = load(path, nyt_ontology)
    assert_same_load(hit, miss)


@pytest.mark.parametrize("name, load", PROVIDERS)
def test_sidecar_hit_counts_no_lines(tmp_path, monkeypatch, nyt_ontology, name, load):
    path = golden_copy(tmp_path, name)
    load(path, nyt_ontology)
    monkeypatch.setattr(
        providers._Sidecar,
        "lines",
        property(lambda self: pytest.fail("source lines counted on a sidecar hit")),
    )
    load(path, nyt_ontology)


@pytest.mark.parametrize("name, load", PROVIDERS)
def test_sidecar_of_edited_source_is_ignored_and_rewritten(
    tmp_path, nyt_ontology, name, load
):
    path = golden_copy(tmp_path, name)
    before = load(path, nyt_ontology)
    stale = sidecar_of(path).read_bytes()
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1] + lines[2:]) + "\n")  # drop one row
    edited = load(path, nyt_ontology)
    assert len(edited.row_of) == len(before.row_of) - 1
    assert sidecar_of(path).read_bytes() != stale
    sidecar_of(path).unlink()
    assert_same_load(edited, load(path, nyt_ontology))
    # append one row by hand, a copy of the last under a new id
    stale = sidecar_of(path).read_bytes()
    with path.open("a") as fh:
        fh.write(json.dumps(json.loads(lines[-1]) | {"id": "appended"}) + "\n")
    grown = load(path, nyt_ontology)
    assert list(grown.row_of) == [*edited.row_of, "appended"]
    assert np.array_equal(grown.matrix[-1], grown.matrix[-2])
    assert sidecar_of(path).read_bytes() != stale
    sidecar_of(path).unlink()
    assert_same_load(grown, load(path, nyt_ontology))


def object_array_sidecar(path):
    """A sidecar naming the right format and sha256 whose matrix needs pickle."""
    edit_sidecar_header(path, lambda header: header["arrays"]["matrix"].update(dtype="|O"))


def array_past_the_end(path):
    """A sidecar whose header places the matrix at the end of the file."""
    size = path.stat().st_size
    edit_sidecar_header(path, lambda header: header["arrays"]["matrix"].update(offset=size))


def bare_npy(path):
    with path.open("wb") as fh:
        np.save(fh, np.zeros(3))


CORRUPTIONS = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
    "garbage": lambda p: p.write_bytes(b"not a sidecar at all"),
    "empty": lambda p: p.write_bytes(b""),
    "bare-npy": bare_npy,
    "object-array": object_array_sidecar,
    "past-end": array_past_the_end,
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("name, load", PROVIDERS)
def test_broken_sidecar_is_ignored(tmp_path, nyt_ontology, name, load, corruption):
    path = golden_copy(tmp_path, name)
    reference = load(path, nyt_ontology)
    CORRUPTIONS[corruption](sidecar_of(path))
    assert_same_load(load(path, nyt_ontology), reference)
    # the parse replaced the broken sidecar with a good one
    assert_same_load(load(path, nyt_ontology), reference)


@pytest.mark.parametrize("name, load", PROVIDERS)
def test_sidecar_write_failure_still_loads(tmp_path, monkeypatch, nyt_ontology, name, load):
    path = golden_copy(tmp_path, name)
    reference = load(path, nyt_ontology)
    sidecar_of(path).unlink()

    def read_only(*args, **kwargs):
        raise PermissionError("read-only directory")

    monkeypatch.setattr(providers, "atomic_write", read_only)
    assert_same_load(load(path, nyt_ontology), reference)
    assert not sidecar_of(path).exists()


@pytest.mark.parametrize(
    "name, text, match",
    [
        ("scores.jsonl", '{"relation_order": ["rel_a", "rel_b", "rel_c"]}\n'
         '{"id": "s1", "scores": [0.1, 0.2, 0.3]}\n'
         '{"id": "s2", "scores": [0.1, 1.2, 0.3]}\n', "outside"),
        ("scores.jsonl", '{"relation_order": ["rel_a", "rel_b", "rel_c"]}\n'
         '{"id": "s1", "scores": [0.1, 0.2]}\n', "expected 3"),
        ("embeddings.jsonl", '{"id": "a", "vector": [1.0, 0.0]}\n'
         '{"id": "b", "vector": [0.0, 0.0]}\n', "zero"),
        ("embeddings.jsonl", '{"id": "a", "vector": [1.0, 0.0]}\n'
         '{"id": "a", "vector": [0.0, 1.0]}\n', "duplicate"),
    ],
)
def test_invalid_source_gets_no_sidecar(tmp_path, tiny_ontology, name, text, match):
    path = tmp_path / name
    path.write_text(text)
    for _ in range(2):
        with pytest.raises(ProviderError, match=match):
            if name == "scores.jsonl":
                ScoreMatrix.load(path, tiny_ontology)
            else:
                EmbeddingIndex.load(path)
        assert not sidecar_of(path).exists()


def test_sidecar_still_checks_the_ontology_order(tmp_path, monkeypatch, nyt_ontology):
    path = golden_copy(tmp_path, "scores.jsonl")
    ScoreMatrix.load(path, nyt_ontology)
    refuse_parse(monkeypatch)
    reordered = ontology_from_names(list(reversed(nyt_ontology.names)))
    with pytest.raises(ProviderError, match="ontology order"):
        ScoreMatrix.load(path, reordered)


def count_hashes(monkeypatch):
    """The files a sidecar hashes, in order."""
    hashed = []

    def counted(path):
        hashed.append(Path(path))
        return file_sha256(path)

    monkeypatch.setattr(providers, "file_sha256", counted)
    return hashed


@pytest.mark.parametrize("name, load", PROVIDERS)
def test_stat_matched_load_reads_no_source_byte(
    tmp_path, monkeypatch, nyt_ontology, name, load
):
    path = golden_copy(tmp_path, name)
    reference = load(path, nyt_ontology)
    opened = opened_files(monkeypatch)
    hit = load(path, nyt_ontology)
    assert opened == [sidecar_of(path)]
    assert_same_load(hit, reference)
    assert hit.sha256 == reference.sha256 == file_sha256(GOLDEN / name)
    assert not hit.matrix.flags.writeable  # a view of the sidecar's map


def same_size_edit(path):
    """Swap the file's last two rows: the same size, another row order."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-2] + [lines[-1], lines[-2]]))


@pytest.mark.parametrize("name, load", PROVIDERS)
def test_same_size_edit_with_forged_mtime_is_reparsed(
    tmp_path, nyt_ontology, name, load
):
    """An edit that keeps the size, with its mtime set back by os.utime, is
    seen by its ctime, which no utime call can set back."""
    path = golden_copy(tmp_path, name)
    before = load(path, nyt_ontology)
    st = path.stat()
    same_size_edit(path)
    restore_mtime(path, st)
    edited = path.stat()
    assert (edited.st_ino, edited.st_size, edited.st_mtime_ns) == (
        st.st_ino, st.st_size, st.st_mtime_ns
    )
    ids = list(before.row_of)
    got = load(path, nyt_ontology)
    assert list(got.row_of) == ids[:-2] + [ids[-1], ids[-2]]
    assert got.sha256 == file_sha256(path) != before.sha256


LOADS = {
    "bags.jsonl": Corpus.load_bag_file,
    "scores.jsonl": load_scores,
    "embeddings.jsonl": load_embeddings,
}


def test_copied_directory_hashes_once_then_nothing(tmp_path, monkeypatch, nyt_ontology):
    """A copy keeps the bytes under new inodes: each file is hashed once,
    nothing is parsed, and the next load hashes nothing."""
    original = tmp_path / "original"
    original.mkdir()
    for name, load in LOADS.items():
        load(golden_copy(original, name), nyt_ontology)
    copy = tmp_path / "copy"
    shutil.copytree(original, copy)  # new inodes, the same mtimes
    hashed = count_hashes(monkeypatch)
    refuse_parse(monkeypatch)
    monkeypatch.setattr(
        hydre.corpus, "_parse_bags", lambda *args: pytest.fail("bags parsed on a copy")
    )
    for name, load in LOADS.items():
        assert load(copy / name, nyt_ontology).sha256 == file_sha256(GOLDEN / name)
    assert hashed == [copy / name for name in LOADS]
    hashed.clear()
    opened = opened_files(monkeypatch)
    for name, load in LOADS.items():
        load(copy / name, nyt_ontology)
    assert hashed == []
    assert opened == [sidecar_of(copy / name) for name in LOADS]


@pytest.mark.parametrize("name, load", PROVIDERS)
def test_racy_stamp_hashes_until_its_record_is_rewritten(
    tmp_path, monkeypatch, nyt_ontology, name, load
):
    monkeypatch.setattr(providers, "RACY_NS", 3600 * 10**9)  # every stamp here is racy
    path = tmp_path / name
    shutil.copyfile(GOLDEN / name, path)
    reference = load(path, nyt_ontology)
    sidecar = sidecar_of(path).read_bytes()
    hashed = count_hashes(monkeypatch)
    refuse_parse(monkeypatch)
    for loads in (1, 2):
        assert_same_load(load(path, nyt_ontology), reference)
        assert len(hashed) == loads
    assert sidecar_of(path).read_bytes() == sidecar  # a racy record is not rewritten
    backdate(path, seconds=7200)  # now older than any read: the next hash records it
    load(path, nyt_ontology)
    assert len(hashed) == 3
    assert sidecar_of(path).read_bytes() != sidecar
    assert_same_load(load(path, nyt_ontology), reference)
    assert len(hashed) == 3


@pytest.mark.parametrize("name, load", PROVIDERS)
def test_loaded_matrix_keeps_its_values_when_its_sidecar_is_replaced(
    tmp_path, nyt_ontology, name, load
):
    path = golden_copy(tmp_path, name)
    load(path, nyt_ontology)
    mapped = load(path, nyt_ontology)
    values = mapped.matrix.copy()
    inode = sidecar_of(path).stat().st_ino
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last row
    assert len(load(path, nyt_ontology).row_of) == len(mapped.row_of) - 1
    assert sidecar_of(path).stat().st_ino != inode
    assert mapped.matrix.tobytes() == values.tobytes()  # the old map still reads


@pytest.mark.parametrize("name, load", PROVIDERS)
def test_legacy_npz_sidecar_is_ignored_and_replaced(tmp_path, nyt_ontology, name, load):
    """A zip sidecar of an earlier version, naming the source's sha256 and a
    wrong matrix, is never read, and goes once a sidecar is written."""
    path = golden_copy(tmp_path, name)
    reference = load(path, nyt_ontology)
    sidecar_of(path).unlink()
    legacy = path.with_name(path.name + providers.LEGACY_SIDECAR_SUFFIX)
    meta = {"ids": list(reference.row_of)}
    if name == "scores.jsonl":
        meta["relation_order"] = list(nyt_ontology.names)
    with legacy.open("wb") as fh:
        np.savez(
            fh,
            format=np.array(f"hydre.{name.split('.')[0]}.v2"),
            sha256=np.array(file_sha256(path)),
            meta=np.frombuffer(json.dumps(meta).encode(), np.uint8),
            matrix=np.zeros_like(reference.matrix),
        )
    assert_same_load(load(path, nyt_ontology), reference)
    assert sidecar_of(path).exists() and not legacy.exists()


def count_embedding_parses(monkeypatch):
    """A list that gets an entry each time an embedding file is parsed."""
    parses, parse = [], EmbeddingIndex._parse

    def counted(path, lines):
        parses.append(path)
        return parse(path, lines)

    monkeypatch.setattr(EmbeddingIndex, "_parse", staticmethod(counted))
    return parses


def test_embedding_sidecar_of_format_v2_is_parsed_again_and_replaced(
    tmp_path, monkeypatch
):
    """A v2 embedding sidecar (no matrix32) naming the source's bytes is not
    read: the file is parsed again and the sidecar replaced by a v3 one,
    whose matrix32 the next load maps."""
    path = golden_copy(tmp_path, "embeddings.jsonl")
    reference = EmbeddingIndex.load(path)
    sidecar_of(path).unlink()
    old = providers._Sidecar(path, "hydre.embeddings.v2")
    old.write({"ids": list(reference.row_of)}, matrix=np.zeros_like(reference.matrix))
    parses = count_embedding_parses(monkeypatch)
    assert_same_load(EmbeddingIndex.load(path), reference)
    assert parses == [path]
    header, arrays = providers._unpack(sidecar_of(path).read_bytes())
    assert header["format"] == "hydre.embeddings.v3"
    assert arrays["matrix32"].tobytes() == reference.matrix32.tobytes()
    refuse_parse(monkeypatch)
    assert_same_load(EmbeddingIndex.load(path), reference)


MATRIX32_FAULTS = {
    "missing": lambda arrays: arrays.pop("matrix32"),
    "float64": lambda arrays: arrays.update(matrix32=arrays["matrix"].copy()),
    "int32": lambda arrays: arrays.update(matrix32=arrays["matrix32"].view(np.int32)),
    "short": lambda arrays: arrays.update(matrix32=arrays["matrix32"][:-1]),
    "transposed": lambda arrays: arrays.update(matrix32=arrays["matrix32"].T),
}


@pytest.mark.parametrize("fault", sorted(MATRIX32_FAULTS))
def test_embedding_sidecar_with_a_bad_matrix32_is_parsed_again(tmp_path, monkeypatch, fault):
    """A v3 sidecar whose matrix32 is missing, not float32 or not the
    matrix's shape is refused: the file is parsed again and the sidecar
    rewritten."""
    path = golden_copy(tmp_path, "embeddings.jsonl")
    reference = EmbeddingIndex.load(path)
    edit_sidecar_arrays(sidecar_of(path), MATRIX32_FAULTS[fault])
    parses = count_embedding_parses(monkeypatch)
    assert_same_load(EmbeddingIndex.load(path), reference)
    assert parses == [path]
    assert_same_load(EmbeddingIndex.load(path), reference)
    assert parses == [path]


def test_loaded_and_dict_built_indexes_agree_on_matrix32(tmp_path, monkeypatch):
    """matrix32 is the float32 rounding of the normalised matrix whether
    the index is parsed, mapped from its sidecar or built from a dict; the
    mapped one is a read-only view of the sidecar."""
    path = golden_copy(tmp_path, "embeddings.jsonl")
    vectors = {r["id"]: r["vector"] for r in map(json.loads, path.read_text().splitlines())}
    built = EmbeddingIndex(len(next(iter(vectors.values()))), vectors)
    parsed = EmbeddingIndex.load(path)
    refuse_parse(monkeypatch)
    mapped = EmbeddingIndex.load(path)
    assert not mapped.matrix32.flags.writeable
    for emb in (built, parsed, mapped):
        assert emb.matrix32.dtype == np.float32
        assert emb.matrix32.tobytes() == built.matrix.astype(np.float32).tobytes()
        assert_same_load(emb, built)


def test_source_changed_during_parse_gets_no_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": "a", "vector": [1.0, 0.0]}\n')
    parse = EmbeddingIndex._parse

    def parse_then_append(source, lines):
        parsed = parse(source, lines)
        with source.open("a") as fh:  # another process appends meanwhile
            fh.write('{"id": "b", "vector": [0.0, 1.0]}\n')
        return parsed

    monkeypatch.setattr(EmbeddingIndex, "_parse", staticmethod(parse_then_append))
    assert list(EmbeddingIndex.load(path).row_of) == ["a"]
    assert not sidecar_of(path).exists()
    monkeypatch.undo()
    assert list(EmbeddingIndex.load(path).row_of) == ["a", "b"]


# --------------------------------------------------------------- layering


def hydre_imports(path):
    """The hydre modules a source file imports from, as dotted names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level:
            # relative to the hydre package: ``from .corpus import x``
            found |= {f"hydre.{node.module or alias.name}" for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
    return {name for name in found if name.split(".")[0] == "hydre"}


def test_providers_import_only_corpus_from_hydre():
    """The provider layer reads score and embedding files; it must not
    depend on the dispatch layer (judge) or anything built on it."""
    path = Path(__file__).resolve().parents[1] / "src" / "hydre" / "providers.py"
    assert hydre_imports(path) == {"hydre.corpus"}


# --------------------------------------------------------------- config


def test_scoring_config_validation():
    with pytest.raises(ValueError):
        ScoringConfig(w_sim=0.0, w_conf=0.0)
    with pytest.raises(ValueError):
        ScoringConfig(threshold=0.0)
    with pytest.raises(ValueError):
        ScoringConfig(k=0)
    with pytest.raises(ValueError):
        ScoringConfig(bag_sim_pooling="median")
    with pytest.raises(ValueError):
        ScoringConfig(w_sim=-1.0)


# ---------------------------------------------------- non-finite values

NAN_SCORES = (
    '{"relation_order": ["rel_a", "rel_b", "rel_c"]}\n'
    '{"id": "s1", "scores": [0.1, 0.2, 0.3]}\n'
    '{"id": "s2", "scores": [NaN, 0.2, 0.3]}\n'
)
NAN_EMBEDDINGS = (
    '{"id": "a", "vector": [1.0, 0.0]}\n'
    '{"id": "b", "vector": [0.5, 0.5]}\n'
    '{"id": "c", "vector": [NaN, 1.0]}\n'
)


def test_score_file_with_nan_rejected_naming_line(tmp_path, tiny_ontology):
    path = tmp_path / "scores.jsonl"
    path.write_text(NAN_SCORES)
    for _ in range(2):
        with pytest.raises(ProviderError) as info:
            ScoreMatrix.load(path, tiny_ontology)
        assert str(info.value) == f"{path}:3: row 's2' has a non-finite score"
        assert not sidecar_of(path).exists()


def test_embedding_file_with_nan_rejected_naming_line(tmp_path):
    path = tmp_path / "embeddings.jsonl"
    path.write_text(NAN_EMBEDDINGS)
    for _ in range(2):
        with pytest.raises(ProviderError) as info:
            EmbeddingIndex.load(path)
        assert str(info.value) == f"{path}:3: vector for 'c' has a non-finite value"
        assert not sidecar_of(path).exists()


DICT_ROW_FAULTS = [
    (lambda: ScoreMatrix(("a", "b"), {"x": [1.5, math.nan]}),
     "row 'x' has a non-finite score"),
    (lambda: ScoreMatrix(("a", "b"), {"x": [0.1, 0.2], "y": [0.5, 1.5]}),
     "row 'y' has scores outside [0, 1]"),
    (lambda: ScoreMatrix(("a", "b"), {"x": [-0.1, 0.2]}), "row 'x' has scores outside [0, 1]"),
    (lambda: EmbeddingIndex(2, {"x": [math.nan, 1.0], "y": [math.inf, 0.0]}),
     "vector for 'x' has a non-finite value"),
    (lambda: EmbeddingIndex(2, {"x": [1.0, 0.0], "y": [math.inf, 0.0]}),
     "vector for 'y' has a non-finite value"),
]


@pytest.mark.parametrize("build, message", DICT_ROW_FAULTS, ids=[m for _, m in DICT_ROW_FAULTS])
def test_provider_built_from_a_dict_gets_the_file_value_checks(build, message):
    """A row a provider file is refused for is refused from a dict too,
    named by its id; an infinite embedding is not normalised into NaNs."""
    with pytest.raises(ProviderError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("value", [True, "x", 10**400], ids=["bool", "string", "huge_int"])
@pytest.mark.parametrize("provider", ["scores", "embeddings"])
def test_provider_built_from_a_dict_refuses_a_value_that_is_not_a_number(provider, value):
    """A boolean, a string or an integer beyond float64's range is refused
    as a provider file's parser refuses it, naming the item id: not read
    as 1.0, nor raised as a bare ValueError or OverflowError."""
    with pytest.raises(ProviderError) as info:
        if provider == "scores":
            ScoreMatrix(("r",), {"a": [value]})
        else:
            EmbeddingIndex(2, {"a": [1.0, value]})
    row = "row 'a'" if provider == "scores" else "vector for 'a'"
    assert str(info.value) == f"{row} has a value that is not a number"


@pytest.mark.parametrize("kind", ["scores", "embeddings"])
def test_sidecar_written_before_the_finite_check_is_ignored(tmp_path, tiny_ontology, kind):
    """A version-1 sidecar holding the NaN row loads no more: its format is
    stale, so the file is parsed and rejected."""
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(NAN_SCORES if kind == "scores" else NAN_EMBEDDINGS)
    sidecar = providers._Sidecar(path, f"hydre.{kind}.v1")
    if kind == "scores":
        matrix = np.array([[0.1, 0.2, 0.3], [np.nan, 0.2, 0.3]])
        meta = {"ids": ["s1", "s2"], "relation_order": list(tiny_ontology.names)}
    else:
        matrix = np.array([[1.0, 0.0], [0.5**0.5, 0.5**0.5], [np.nan, np.nan]])
        meta = {"ids": ["a", "b", "c"]}
    sidecar.write(meta, matrix=matrix)
    assert sidecar_of(path).exists()
    with pytest.raises(ProviderError, match="non-finite"):
        if kind == "scores":
            ScoreMatrix.load(path, tiny_ontology)
        else:
            EmbeddingIndex.load(path)

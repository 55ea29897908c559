from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hydre.corpus import (
    Bag,
    Corpus,
    EntitySpan,
    QueryInstance,
    RelationOntology,
    SentenceInstance,
)
from hydre.providers import EmbeddingIndex, ScoreMatrix

FIXTURES = Path(__file__).parent / "fixtures"


def make_sentence(sentence_id: str, head: str = "Alice", tail: str = "Paris") -> SentenceInstance:
    """A small valid sentence with one head and one tail mention."""
    text = f"{head} visited {tail} [{sentence_id}] last spring."
    h = text.index(head)
    t = text.index(tail)
    return SentenceInstance(
        sentence_id,
        text,
        EntitySpan(h, h + len(head), head),
        EntitySpan(t, t + len(tail), tail),
    )


def make_query(query_id: str, gold: set[str] | None, head: str = "Bob", tail: str = "Rome") -> QueryInstance:
    text = f"{head} spoke about {tail} [{query_id}] at length."
    h = text.index(head)
    t = text.index(tail)
    return QueryInstance(
        query_id,
        text,
        EntitySpan(h, h + len(head), head),
        EntitySpan(t, t + len(tail), tail),
        gold=frozenset(gold or set()),
        is_na=not gold,
    )


def ontology_from_names(names: list[str]) -> RelationOntology:
    return RelationOntology(tuple((n, f"definition of {n}") for n in names))


def corpus_from_instance(instance: dict) -> Corpus:
    """Build hydre objects from a primitive oracle instance."""
    ontology = ontology_from_names(instance["relations"])
    bags = []
    for raw in instance["bags"]:
        sentences = tuple(make_sentence(s["sentence_id"]) for s in raw["sentences"])
        bags.append(
            Bag(raw["bag_id"], "head", "tail", sentences, frozenset(raw["labels"]))
        )
    queries = [
        make_query(q_id, {instance["relations"][0]}) for q_id in instance["queries"]
    ]
    return Corpus.assemble(ontology, bags, queries)


def scores_from_instance(instance: dict) -> ScoreMatrix:
    return ScoreMatrix(
        tuple(instance["relations"]),
        {k: np.asarray(v, dtype=float) for k, v in instance["scores"].items()},
    )


def embeddings_from_instance(instance: dict) -> EmbeddingIndex:
    vectors = {
        k: np.asarray(v, dtype=float) for k, v in instance["embeddings"].items()
    }
    dim = len(next(iter(vectors.values())))
    return EmbeddingIndex(dim, vectors)


def with_duplicated_rows(instance: dict) -> dict:
    """Give an oracle instance exact ties by copying embedding and score rows.

    Within a bag, each later sentence copies the first sentence's rows with
    probability 1/4. Each later bag copies, with probability 1/2, the labels
    and the rows (sentence by sentence) of a random earlier bag with as many
    sentences. Copied bags tie exactly in similarity under either pooling
    and in confidence; copied sentences tie in similarity.
    """
    rng = instance["rng"]
    embeddings, scores, bags = instance["embeddings"], instance["scores"], instance["bags"]

    def copy_rows(src: str, dst: str) -> None:
        embeddings[dst] = list(embeddings[src])
        scores[dst] = list(scores[src])

    for bag in bags:
        first = bag["sentences"][0]["sentence_id"]
        for s in bag["sentences"][1:]:
            if rng.random() < 0.25:
                copy_rows(first, s["sentence_id"])
    for j, bag in enumerate(bags):
        same_size = [b for b in bags[:j] if len(b["sentences"]) == len(bag["sentences"])]
        if same_size and rng.random() < 0.5:
            source = rng.choice(same_size)
            bag["labels"] = set(source["labels"])
            for s, t in zip(source["sentences"], bag["sentences"]):
                copy_rows(s["sentence_id"], t["sentence_id"])
    return instance


@pytest.fixture
def tiny_ontology() -> RelationOntology:
    return ontology_from_names(["rel_a", "rel_b", "rel_c"])

from __future__ import annotations

import builtins
import io
import json
import os
import struct
import sys
import time
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
from hydre import providers
from hydre.providers import EmbeddingIndex, ScoreMatrix

FIXTURES = Path(__file__).parent / "fixtures"


def edit_sidecar_header(path: Path, edit) -> None:
    """Rewrite a sidecar with ``edit(header)`` applied to its JSON header
    and its arrays' bytes kept as they are (offsets count from the first
    aligned byte after the header)."""
    raw = path.read_bytes()
    magic = providers.SIDECAR_MAGIC
    (size,) = struct.unpack_from("<Q", raw, len(magic))
    start = len(magic) + 8
    header = json.loads(raw[start : start + size])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    head = magic + struct.pack("<Q", len(blob)) + blob
    pad = bytes(providers._aligned(len(head)) - len(head))
    path.write_bytes(head + pad + raw[providers._aligned(start + size) :])


def edit_sidecar_arrays(path: Path, edit) -> None:
    """Rewrite a sidecar with ``edit(arrays)`` applied to its arrays and its
    header (format, sha256, stat record, meta) kept."""
    header, arrays = providers._unpack(path.read_bytes())
    del header["arrays"]
    edit(arrays)
    with path.open("wb") as fh:
        providers._pack(fh, header, arrays)


def opened_files(monkeypatch) -> list[Path]:
    """The path of every file opened from now on, in order."""
    opened: list[Path] = []
    io_open = io.open

    def recorded(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(Path(file))
        return io_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", recorded)  # pathlib opens through io.open
    monkeypatch.setattr(builtins, "open", recorded)
    return opened


def restore_mtime(path: Path, st: os.stat_result) -> None:
    """Set the file's times back to those of ``st`` after an edit, until its
    ctime, which the clock stamps in ticks and no utime call sets back,
    differs from ``st``'s."""
    for _ in range(200):
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        if path.stat().st_ctime_ns != st.st_ctime_ns:
            return
        time.sleep(0.01)
    raise AssertionError(f"{path}: ctime did not change")


def backdate(*paths: Path, seconds: float = 60.0) -> None:
    """Move each file's mtime back, so its stat record is not racy."""
    for path in paths:
        st = path.stat()
        mtime = st.st_mtime_ns - int(seconds * 1e9)
        os.utime(path, ns=(st.st_atime_ns, mtime))


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

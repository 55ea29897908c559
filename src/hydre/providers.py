"""Confidence scores and embeddings as row-major matrices, plus the scoring
configuration.

Each provider keeps one contiguous matrix with a row per item and maps item
ids to row indexes and to row views. Score matrices are immutable after
load; an embedding index changes only when EmbeddingClient appends rows.
Selection only reads them, so concurrent use per query is safe.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import RelationOntology, iter_jsonl
from .judge import retry

EMBED_API_KEY_ENV = "HYDRE_EMBED_API_KEY"


class ProviderError(ValueError):
    """Missing, malformed, or inconsistent provider data."""


def _count_records(path: Path) -> int:
    """Upper bound on the records of a JSONL file: its non-blank lines."""
    with path.open("rb") as fh:
        return sum(1 for line in fh if line.strip())


class RowViews(Mapping):
    """Read-only item id -> row-view map over a provider's matrix."""

    def __init__(self, owner: "_RowMatrix") -> None:
        self._owner = owner

    def __getitem__(self, item_id: str) -> np.ndarray:
        return self._owner.matrix[self._owner.row_of[item_id]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._owner.row_of)

    def __len__(self) -> int:
        return len(self._owner.row_of)


class _RowMatrix:
    """One contiguous row-major matrix plus an item id -> row index map."""

    _missing = "no row for item {!r}"
    matrix: np.ndarray
    row_of: dict[str, int]

    def __contains__(self, item_id: str) -> bool:
        return item_id in self.row_of

    def vector(self, item_id: str) -> np.ndarray:
        try:
            return self.matrix[self.row_of[item_id]]
        except KeyError:
            raise ProviderError(self._missing.format(item_id)) from None

    def row_indexes(self, item_ids: Iterable[str]) -> np.ndarray:
        """Matrix row of each item, in the order given."""
        try:
            return np.fromiter((self.row_of[i] for i in item_ids), dtype=np.intp)
        except KeyError as exc:
            raise ProviderError(self._missing.format(exc.args[0])) from None


class ScoreMatrix(_RowMatrix):
    """Per-item confidence vectors f(item, r) over the ontology order.

    Rows exist for test queries and for training sentences; bag scores are
    derived by pooling, never stored.
    """

    _missing = "no score row for item {!r}"

    def __init__(
        self, relation_order: Sequence[str], rows: Mapping[str, Sequence[float]]
    ) -> None:
        self.relation_order = tuple(relation_order)
        self._column = {name: i for i, name in enumerate(self.relation_order)}
        width = len(self.relation_order)
        self.matrix = np.empty((len(rows), width))
        self.row_of = {}
        for i, (item_id, scores) in enumerate(rows.items()):
            vec = np.asarray(scores, dtype=float)
            if vec.shape != (width,):
                raise ProviderError(
                    f"row {item_id!r} has {vec.size} scores, expected {width}"
                )
            self.matrix[i] = vec
            self.row_of[item_id] = i

    @property
    def rows(self) -> RowViews:
        return RowViews(self)

    def column(self, relation: str) -> int:
        try:
            return self._column[relation]
        except KeyError:
            raise ProviderError(f"relation {relation!r} not in score matrix") from None

    def score_of(self, item_id: str, relation: str) -> float:
        col = self.column(relation)
        return float(self.vector(item_id)[col])

    @classmethod
    def load(cls, path: str | Path, ontology: RelationOntology) -> "ScoreMatrix":
        """Load a score file: manifest line first, then one row per item.

        The matrix is allocated once from the line count and filled in place.
        """
        path = Path(path)
        records = iter_jsonl(path, ProviderError)
        first = next(records, None)
        if first is None:
            raise ProviderError(f"{path}: empty score file")
        lineno, manifest = first
        order = manifest.get("relation_order")
        if order is None:
            raise ProviderError(
                f"{path}:{lineno}: first line must be the relation_order manifest"
            )
        if tuple(order) != ontology.names:
            raise ProviderError(
                f"{path}: relation_order does not match the ontology order"
            )
        self = cls(order, {})
        width = len(order)
        matrix = np.empty((_count_records(path) - 1, width))
        for lineno, record in records:
            item_id = record.get("id")
            scores = record.get("scores")
            if not isinstance(item_id, str) or not isinstance(scores, list):
                raise ProviderError(f"{path}:{lineno}: malformed score row")
            if len(scores) != width:
                raise ProviderError(
                    f"{path}:{lineno}: row {item_id!r} has {len(scores)} "
                    f"scores, expected {width}"
                )
            if item_id in self.row_of:
                raise ProviderError(f"{path}:{lineno}: duplicate id {item_id!r}")
            row = matrix[len(self.row_of)]
            row[:] = scores
            if row.min() < 0.0 or row.max() > 1.0:
                # fail loudly on provider mismatch instead of clamping
                raise ProviderError(
                    f"{path}:{lineno}: row {item_id!r} has scores outside [0, 1]"
                )
            self.row_of[item_id] = len(self.row_of)
        self.matrix = matrix[: len(self.row_of)]
        return self

    def save(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"relation_order": list(self.relation_order)}))
            fh.write("\n")
            for item_id, vec in self.rows.items():
                fh.write(
                    json.dumps({"id": item_id, "scores": [float(v) for v in vec]})
                )
                fh.write("\n")


def _normalize_rows(matrix: np.ndarray, ids: Sequence[str]) -> None:
    """L2-normalise every row in place.

    Row norms come from np.vecdot, one BLAS dot per row, so each row gets
    the same norm as np.linalg.norm gives that row alone.
    """
    norms = np.sqrt(np.vecdot(matrix, matrix))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ProviderError(f"embedding of item {ids[zero[0]]!r} is a zero vector")
    matrix /= norms[:, None]


class EmbeddingIndex(_RowMatrix):
    """L2-normalised embedding vectors keyed by item id, one matrix row each.

    Every way of building an index (load, a dict of vectors, add) normalises
    the rows, so a cosine is a dot product.
    """

    _missing = "no embedding for item {!r}"

    def __init__(
        self, dim: int, vectors: Mapping[str, Sequence[float]] | None = None
    ) -> None:
        self.dim = dim
        self.matrix = np.empty((0, dim))
        self.row_of = {}
        if vectors:
            self.add(vectors)

    @property
    def vectors(self) -> RowViews:
        return RowViews(self)

    def add(self, vectors: Mapping[str, Sequence[float]]) -> None:
        """Append one normalised row per new item."""
        ids = list(vectors)
        if not ids:
            return
        dim = self.dim or int(np.asarray(vectors[ids[0]]).size)
        block = np.empty((len(ids), dim))
        for j, item_id in enumerate(ids):
            if item_id in self.row_of:
                raise ProviderError(f"duplicate id {item_id!r}")
            vec = np.asarray(vectors[item_id], dtype=float)
            if vec.size != dim:
                raise ProviderError(
                    f"dimension mismatch: vector for {item_id!r} has dim "
                    f"{vec.size}, expected {dim}"
                )
            block[j] = vec.reshape(dim)
        _normalize_rows(block, ids)
        start = len(self.row_of)
        self.matrix = np.concatenate([self.matrix, block]) if start else block
        self.dim = dim
        for j, item_id in enumerate(ids):
            self.row_of[item_id] = start + j

    def similarities(self, q_id: str, rows: np.ndarray) -> np.ndarray:
        """Cosine of the query with each given row, mapped from [-1, 1] into
        [0, 1] so it shares a scale with model confidences.

        One mat-vec over the whole matrix, then a gather: no row copies.
        np.vecdot is one BLAS dot per row, so identical rows get identical
        values wherever they sit; a matrix product (dgemv) rounds rows in
        its remainder block differently and would break exact ties.
        """
        q = self.vector(q_id)
        return (1.0 + np.vecdot(self.matrix, q)[rows]) / 2.0

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingIndex":
        """Load an embedding file into a matrix allocated once from the line
        count, filled in place, then normalised row by row."""
        path = Path(path)
        n_records = _count_records(path)
        self = cls(0)
        matrix: np.ndarray | None = None
        for lineno, record in iter_jsonl(path, ProviderError):
            item_id = record.get("id")
            raw = record.get("vector")
            if not isinstance(item_id, str) or not isinstance(raw, list):
                raise ProviderError(f"{path}:{lineno}: malformed embedding row")
            if matrix is None:
                matrix = np.empty((n_records, len(raw)))
            elif len(raw) != matrix.shape[1]:
                raise ProviderError(
                    f"{path}:{lineno}: dimension mismatch: vector for "
                    f"{item_id!r} has dim {len(raw)}, expected {matrix.shape[1]}"
                )
            if item_id in self.row_of:
                raise ProviderError(f"{path}:{lineno}: duplicate id {item_id!r}")
            matrix[len(self.row_of)] = raw
            self.row_of[item_id] = len(self.row_of)
        if matrix is None:
            raise ProviderError(f"{path}: empty embedding file")
        self.matrix = matrix[: len(self.row_of)]
        self.dim = matrix.shape[1]
        _normalize_rows(self.matrix, list(self.row_of))
        return self

    def save(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            for item_id, vec in self.vectors.items():
                fh.write(
                    json.dumps({"id": item_id, "vector": [float(v) for v in vec]})
                )
                fh.write("\n")


@dataclass(frozen=True)
class ScoringConfig:
    """Weights and knobs for the exemplar selection stages."""

    w_sim: float = 1.0
    w_conf: float = 1.0
    threshold: float = 0.5
    k: int = 5
    bag_sim_pooling: str = "max"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.w_sim < 0 or self.w_conf < 0:
            raise ValueError("weights must be nonnegative")
        if self.w_sim + self.w_conf <= 0:
            raise ValueError("at least one of w_sim, w_conf must be positive")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("threshold must lie in (0, 1)")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.bag_sim_pooling not in ("max", "mean"):
            raise ValueError("bag_sim_pooling must be 'max' or 'mean'")


def http_embedding_transport(
    endpoint: str,
    api_key_env: str = EMBED_API_KEY_ENV,
    timeout: float = 60.0,
    session=None,
) -> Callable[[list[str]], list[list[float]]]:
    """Build a transport posting {"texts": [...]} and reading {"vectors": [...]}."""
    if session is None:
        import requests

        session = requests.Session()

    def post(texts: list[str]) -> list[list[float]]:
        headers = {}
        token = os.environ.get(api_key_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        response = session.post(
            endpoint, json={"texts": texts}, headers=headers, timeout=timeout
        )
        response.raise_for_status()
        body = response.json()
        return body["vectors"]

    return post


class EmbeddingClient:
    """Fetch embeddings from a service, caching them in an embedding file.

    Items already present in the file are served from cache without any
    request; new vectors are L2-normalized and appended for reuse.
    """

    def __init__(
        self,
        transport: Callable[[list[str]], list[list[float]]],
        cache_path: str | Path,
        batch_size: int = 64,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.transport = transport
        self.cache_path = Path(cache_path)
        self.batch_size = batch_size
        self._sleep = sleep
        if self.cache_path.exists() and self.cache_path.stat().st_size > 0:
            self.index = EmbeddingIndex.load(self.cache_path)
        else:
            self.index = EmbeddingIndex(dim=0)

    def fetch_embeddings(self, items: Sequence[tuple[str, str]]) -> EmbeddingIndex:
        """Ensure every (item_id, text) pair has a cached vector.

        Returns the full index including previously cached rows.
        """
        if not items:
            raise ProviderError("fetch_embeddings called with no items")
        missing = [(i, t) for i, t in items if i not in self.index]
        for start in range(0, len(missing), self.batch_size):
            batch = missing[start : start + self.batch_size]
            vectors = retry(
                lambda: self.transport([t for _, t in batch]),
                Exception,  # transport errors are backend-specific
                ProviderError,
                "embedding service",
                self._sleep,
            )
            if len(vectors) != len(batch):
                raise ProviderError(
                    f"embedding service returned {len(vectors)} vectors "
                    f"for {len(batch)} texts"
                )
            new_rows = {item_id: raw for (item_id, _), raw in zip(batch, vectors)}
            self.index.add(new_rows)
            self._append_rows(new_rows)
        return self.index

    def _append_rows(self, rows: dict[str, Sequence[float]]) -> None:
        """Persist the normalised index rows of the given items."""
        with self.cache_path.open("a", encoding="utf-8") as fh:
            for item_id in rows:
                vec = self.index.vector(item_id)
                fh.write(
                    json.dumps({"id": item_id, "vector": [float(v) for v in vec]})
                )
                fh.write("\n")

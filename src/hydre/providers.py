"""Confidence scores and embeddings as row-major matrices, the scoring
configuration, and the similarity screen's rounding bound
(``screen_slack``) and settles (``settle_argmax``, ``settle_top``).

Each provider keeps one contiguous matrix with a row per item and maps item
ids to row indexes. A built matrix never changes and a provider holds no
per-query state; selection only reads it, so concurrent use is safe. An
embedding index has one exact similarity (``EmbeddingIndex.similarities``)
and one float32 screen of many queries at once (``screen_dots``). What a
selection pass keeps per query, such as a chunk of screened similarities,
its ``selection.CorpusView`` owns, and it is freed with the view; the view
is also the one caller of the bound and the settles.

Parsing a provider file's JSONL text dominates its load, so the first load
of a file also writes the parsed matrix to a binary sidecar beside it,
``<file>.hydre.bin``. A later load trusts the sidecar while the file's stat
record (device, inode, size, mtime, ctime) is the one recorded, and hashes
the file only when that record differs or was taken too close to a write to
tell; the sidecar's matrix is then read as a view of a shared memory map.
Checks that depend only on the file's bytes run once, on the parse; checks
against other inputs run on every load.
"""

from __future__ import annotations

import json
import math
import mmap
import struct
import time
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .corpus import RelationOntology, atomic_write, file_sha256, iter_jsonl


class ProviderError(ValueError):
    """Missing, malformed, or inconsistent provider data."""


SIDECAR_SUFFIX = ".hydre.bin"
# the zip sidecar of earlier versions, removed once a sidecar replaces it
LEGACY_SIDECAR_SUFFIX = ".hydre.npz"
SIDECAR_MAGIC = b"HYDRESC1"
SIDECAR_ALIGN = 64  # every array of a sidecar starts at a multiple of this
# A file's stamps come in steps of up to 2 s (FAT; ns elsewhere) from a clock
# that may lag time.time_ns() by a tick, so a file modified this close to the
# moment it was read can be modified again without its stat record changing.
RACY_NS = 2_000_000_000
UNIT_ROUNDOFF = 2.0**-53
SCREEN_ROUNDOFF = 2.0**-24  # the unit roundoff of float32, the screen's precision
# Half the spacing of float32's subnormals: the absolute error of rounding a
# value, or a product, that falls below float32's normal range.
SCREEN_UNDERFLOW = 2.0**-150
# A screened and an exact value each miss the true one by at most the derived
# error bound, so they differ by at most twice it; the rest is margin.
SCREEN_SAFETY = 4.0
T = TypeVar("T")


def _stat_record(path: Path) -> list[int]:
    st = path.stat()
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _racy(stat: list[int], read_ns: int) -> bool:
    """Whether a file with this stat record, read from ``read_ns`` on, may
    have been modified since without its stamps changing."""
    return stat[3] >= read_ns - RACY_NS


def _aligned(n: int) -> int:
    return -(-n // SIDECAR_ALIGN) * SIDECAR_ALIGN


def _pack(fh: IO[bytes], header: dict, arrays: Mapping[str, np.ndarray]) -> None:
    """Write a sidecar: the magic, the byte length of the JSON header, the
    header (``header`` plus each array's dtype, shape and offset from the
    first aligned byte after it), then each array's bytes at its offset."""
    arrays = {name: np.ascontiguousarray(a) for name, a in arrays.items()}
    layout, end = {}, 0
    for name, a in arrays.items():
        layout[name] = {"dtype": a.dtype.str, "shape": a.shape, "offset": _aligned(end)}
        end = _aligned(end) + a.nbytes
    blob = json.dumps(dict(header, arrays=layout)).encode("utf-8")
    head = SIDECAR_MAGIC + struct.pack("<Q", len(blob)) + blob
    fh.write(head)
    pos, data = len(head), _aligned(len(head))
    for name, a in arrays.items():
        offset = data + layout[name]["offset"]
        fh.write(bytes(offset - pos))
        fh.write(a.data)
        pos = offset + a.nbytes


def _unpack(buffer) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, arrays) of a sidecar's bytes, each array a view of
    ``buffer``. ValueError if they are not a sidecar, or if an array needs
    pickle (an object dtype) or runs past the end: np.frombuffer refuses
    both."""
    if buffer[: len(SIDECAR_MAGIC)] != SIDECAR_MAGIC:
        raise ValueError("not a hydre sidecar")
    (size,) = struct.unpack_from("<Q", buffer, len(SIDECAR_MAGIC))
    start = len(SIDECAR_MAGIC) + 8
    header = json.loads(buffer[start : start + size])
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), dict):
        raise ValueError("malformed sidecar header")
    data = _aligned(start + size)
    arrays = {}
    for name, spec in header["arrays"].items():
        shape = tuple(spec["shape"])
        if min(shape, default=0) < 0:
            raise ValueError(f"sidecar array {name!r} has a negative shape")
        arrays[name] = np.frombuffer(
            buffer, spec["dtype"], math.prod(shape), data + spec["offset"]
        ).reshape(shape)
    return header, arrays


class _Sidecar:
    """Named arrays parsed from a source file plus JSON ``meta``, kept in
    ``<file>.hydre.bin`` beside it and valid only for the bytes they were
    parsed from.

    Its header holds ``format`` (which parser made it), the source's
    ``sha256``, the source's stat record and the time its bytes were read
    (``read_ns``), ``meta`` (so every string round-trips exactly) and the
    arrays' layout (``_pack``). The arrays are read as read-only views of one
    memory map, so every process that loads the file shares its pages. A
    sidecar is only ever replaced whole, never changed in place, so a map
    keeps its bytes.

    A source whose stat record is the recorded one is trusted unread,
    unless the record is racy (``_racy``): that is the stat cache of git's
    index. Otherwise the source is hashed, and a sidecar with its sha256 is
    read and rewritten under the new record (say, for a copied directory),
    so that the next load hashes nothing.
    """

    def __init__(self, source: Path, fmt: str) -> None:
        self.source = source
        self.path = source.with_name(source.name + SIDECAR_SUFFIX)
        self.fmt = fmt
        self.read_ns = time.time_ns()  # before the stat, so before any read
        self.stat = _stat_record(source)

    @cached_property
    def sha256(self) -> str:
        return file_sha256(self.source)

    @cached_property
    def lines(self) -> int:
        """An upper bound on the source's records, which a parse allocates
        from; counted only when the source is parsed."""
        with self.source.open("rb") as fh:
            return 1 + sum(c.count(b"\n") for c in iter(lambda: fh.read(1 << 20), b""))

    def read(self, decode: Callable[[dict, Mapping[str, np.ndarray]], T]) -> T | None:
        """``decode(meta, arrays)`` if the sidecar was written for the
        source's current bytes by this format, else None. ``decode`` raises
        ValueError or KeyError on arrays that do not fit its format.

        On a miss the source is hashed before the caller parses it, so a
        sidecar never stores the digest of bytes newer than its arrays."""
        try:
            with self.path.open("rb") as fh:
                buffer = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            header, arrays = _unpack(buffer)
            stat = header["stat"]
            trusted = stat == self.stat and not _racy(stat, header["read_ns"])
            fits = header["format"] == self.fmt and (
                trusted or header["sha256"] == self.sha256
            )
            decoded = decode(header["meta"], arrays) if fits else None
        except (OSError, ValueError, KeyError, TypeError, struct.error):
            # missing, torn, foreign (an npy or npz file) or holding objects:
            # the source is parsed instead
            decoded = None
        if decoded is None:
            self.sha256  # hashed now, before the caller parses the source
            return None
        self.sha256 = header["sha256"]
        if not (trusted or _racy(self.stat, self.read_ns)):
            # the same bytes under a new stat record (a copy, say): record it
            self.write(header["meta"], **arrays)
        return decoded

    def write(self, meta: dict, **arrays: np.ndarray) -> None:
        """Store a parse of the source under the stat record taken before it
        was read; skipped if the source changed since, or if the directory
        cannot be written."""
        # the source is hashed (if it was not yet) before the stat check, so
        # the check sees a change made while hashing
        header = {"format": self.fmt, "sha256": self.sha256, "stat": self.stat,
                  "read_ns": self.read_ns, "meta": meta}
        if _stat_record(self.source) != self.stat:
            return
        try:
            with atomic_write(self.path, mode="wb") as fh:
                _pack(fh, header, arrays)
            self.source.with_name(self.source.name + LEGACY_SIDECAR_SUFFIX).unlink(
                missing_ok=True
            )
        except OSError:
            pass


def _matrix(
    meta: dict, arrays: Mapping[str, np.ndarray]
) -> tuple[dict, dict[str, int], np.ndarray]:
    """(meta, row_of, matrix) of a provider sidecar."""
    ids, matrix = meta["ids"], arrays["matrix"]
    if matrix.dtype != np.float64 or matrix.ndim != 2 or len(ids) != len(matrix):
        raise ValueError("sidecar matrix does not match its ids")
    return meta, dict(zip(ids, range(len(ids)))), matrix


def _matrices(
    meta: dict, arrays: Mapping[str, np.ndarray]
) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """(row_of, matrix, matrix32) of an embedding sidecar; ``matrix32``
    must be a float32 array of the matrix's shape. Only the header is
    read, never an array's pages."""
    _, row_of, matrix = _matrix(meta, arrays)
    matrix32 = arrays["matrix32"]
    if matrix32.dtype != np.float32 or matrix32.shape != matrix.shape:
        raise ValueError("sidecar matrix32 is not the float32 shape of its matrix")
    return row_of, matrix, matrix32


class _RowMatrix:
    """One contiguous row-major matrix plus an item id -> row index map."""

    _missing = "no row for item {!r}"
    matrix: np.ndarray
    row_of: dict[str, int]
    sha256: str | None = None  # of the file it was loaded from

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
            if len(scores) != width:
                raise ProviderError(
                    f"row {item_id!r} has {len(scores)} scores, expected {width}"
                )
            _fill(self.matrix, i, scores, f"row {item_id!r}")
            self.row_of[item_id] = i
        _check_range(self.matrix, list(self.row_of))

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

        Reads the file's sidecar when it matches the file's bytes, else
        parses the file and writes one. The manifest is checked against the
        ontology either way.
        """
        path = Path(path)
        # v3 refuses a value that is not a JSON number, which v2 took
        sidecar = _Sidecar(path, "hydre.scores.v3")
        cached = sidecar.read(_matrix)
        if cached is None:
            order, row_of, matrix = cls._parse(path, ontology, sidecar.lines)
            meta = {"ids": list(row_of), "relation_order": list(order)}
            sidecar.write(meta, matrix=matrix)
        else:
            meta, row_of, matrix = cached
            order = meta["relation_order"]
            _check_order(path, order, ontology)
        self = cls(order, {})
        self.matrix, self.row_of, self.sha256 = matrix, row_of, sidecar.sha256
        return self

    @staticmethod
    def _parse(
        path: Path, ontology: RelationOntology, lines: int
    ) -> tuple[list[str], dict[str, int], np.ndarray]:
        """(relation order, row_of, matrix) of a score file of at most
        ``lines`` lines. The matrix is allocated once and filled in place."""
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
        _check_order(path, order, ontology)
        width = len(order)
        matrix = np.empty((lines - 1, width))
        row_of: dict[str, int] = {}
        linenos: list[int] = []
        try:
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
                if item_id in row_of:
                    raise ProviderError(f"{path}:{lineno}: duplicate id {item_id!r}")
                _fill(matrix, len(row_of), scores, f"{path}:{lineno}: row {item_id!r}")
                row_of[item_id] = len(row_of)
                linenos.append(lineno)
        except ProviderError:
            # a bad row above this line's fault is the first fault in the file
            _check_range(matrix[: len(row_of)], list(row_of), path, linenos)
            raise
        matrix = matrix[: len(row_of)]
        _check_range(matrix, list(row_of), path, linenos)
        return order, row_of, matrix


def _check_order(path: Path, order: Sequence[str], ontology: RelationOntology) -> None:
    if tuple(order) != ontology.names:
        raise ProviderError(f"{path}: relation_order does not match the ontology order")


def _fill(matrix: np.ndarray, i: int, values: Sequence, row: str) -> None:
    """Fill matrix row i from a JSON list, or from a dict-built provider's
    row (an array is read as the Python values it holds); a value that is
    not a number (a string, a boolean, null, a list), or an integer too
    large for a float64, raises ``ProviderError`` naming ``row``."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    # type(), not isinstance: a JSON true is a bool, and bools are ints;
    # a float subclass such as NumPy's float64 is a float
    if all(t is int or issubclass(t, float) for t in {*map(type, values)}):
        try:
            matrix[i] = values
            return
        except OverflowError:  # an integer beyond float64's range
            pass
    raise ProviderError(f"{row} has a value that is not a number")


def _row_at(path: Path | None, linenos: Sequence[int], i: int) -> str:
    """The ``path:line: `` of row i of a provider file; empty for a provider
    built from a dict."""
    return "" if path is None else f"{path}:{linenos[i]}: "


def _check_range(
    matrix: np.ndarray,
    ids: Sequence[str],
    path: Path | None = None,
    linenos: Sequence[int] = (),
) -> None:
    """Fail loudly on provider mismatch instead of clamping: name the first
    row with a score outside [0, 1] or a NaN."""
    outside = (matrix.min(axis=1, initial=0.0) < 0.0) | (
        matrix.max(axis=1, initial=1.0) > 1.0
    )
    bad = np.flatnonzero(outside | ~np.isfinite(matrix).all(axis=1))
    if bad.size:
        i = bad[0]
        problem = "scores outside [0, 1]" if outside[i] else "a non-finite score"
        raise ProviderError(f"{_row_at(path, linenos, i)}row {ids[i]!r} has {problem}")


def _check_finite(
    matrix: np.ndarray,
    ids: Sequence[str],
    path: Path | None = None,
    linenos: Sequence[int] = (),
) -> None:
    """Name the first embedding row with a NaN or an infinity."""
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        i = bad[0]
        raise ProviderError(
            f"{_row_at(path, linenos, i)}vector for {ids[i]!r} has a non-finite value"
        )


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

    Both ways of building an index (load, a dict of vectors) normalise the
    rows, so a cosine is a dot product. The exact one (``similarities``)
    is one float64 BLAS dot of the row and the query vector, so identical
    rows get identical values and ties are exact. The screen
    (``screen_dots``) computes many queries at once with one float32 matrix
    product over ``matrix32``, the float32 rounding of the normalised
    matrix; each of its values lies within ``screen_slack`` of the exact
    one, and identical rows can get different values. A loaded index
    maps ``matrix32`` from its sidecar beside ``matrix``, so a process
    that only screens reads half the bytes, and a dict-built index derives
    it when it is built. Which queries and rows share a product, how long
    it is kept, and how each decision read from it is settled with exact
    values (``CorpusView.pick``, ``CorpusView.top``) is decided by the
    selection pass's ``selection.CorpusView``.
    """

    _missing = "no embedding for item {!r}"

    def __init__(
        self, dim: int, vectors: Mapping[str, Sequence[float]] | None = None
    ) -> None:
        vectors = vectors or {}
        self.dim = dim
        self.matrix = np.empty((len(vectors), dim))
        self.row_of = {}
        for i, (item_id, vec) in enumerate(vectors.items()):
            if len(vec) != dim:
                raise ProviderError(
                    f"dimension mismatch: vector for {item_id!r} has dim "
                    f"{len(vec)}, expected {dim}"
                )
            _fill(self.matrix, i, vec, f"vector for {item_id!r}")
            self.row_of[item_id] = i
        _check_finite(self.matrix, list(vectors))
        _normalize_rows(self.matrix, list(vectors))
        self.matrix32 = self.matrix.astype(np.float32)

    def screen_dots(
        self, q_ids: Sequence[str], rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Each query's dot product with each given matrix row (every row
        when ``rows`` is None) from one float32 matrix product of
        ``matrix32``, laid out rows x queries (one column per query), so a
        gather of rows reads every query's values at once. Each entry lies
        within the a-priori rounding bound of ``screen_slack`` of the exact
        dot product, not necessarily on it: identical rows can get
        different values."""
        matrix32 = self.matrix32 if rows is None else self.matrix32[rows]
        return matrix32 @ self.matrix32[self.row_indexes(q_ids)].T

    def similarities(self, q_id: str, rows: np.ndarray) -> np.ndarray:
        """Exact cosine of the query with each given row, mapped from
        [-1, 1] into [0, 1] so it shares a scale with model confidences.

        The rows are gathered and dotted with the query, one np.vecdot: each
        entry is one BLAS dot of the same contiguous row and query vector,
        bit-identical to ``np.vecdot(matrix, q)``, so identical rows get
        identical values wherever they sit. A matrix product rounds entries
        differently and can break exact ties, so ``screen_dots`` serves only
        as a screen.
        """
        return (1.0 + np.vecdot(self.matrix[rows], self.vector(q_id))) / 2.0

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingIndex":
        """Load an embedding file from its sidecar when that matches the
        file's bytes, else parse it and write one."""
        path = Path(path)
        # v3 holds matrix32 and refuses a value that is not a JSON number
        sidecar = _Sidecar(path, "hydre.embeddings.v3")
        cached = sidecar.read(_matrices)
        if cached is None:
            row_of, matrix = cls._parse(path, sidecar.lines)
            matrix32 = matrix.astype(np.float32)
            sidecar.write({"ids": list(row_of)}, matrix=matrix, matrix32=matrix32)
        else:
            row_of, matrix, matrix32 = cached
        self = cls(matrix.shape[1])
        self.matrix, self.matrix32, self.row_of = matrix, matrix32, row_of
        self.sha256 = sidecar.sha256
        return self

    @staticmethod
    def _parse(path: Path, lines: int) -> tuple[dict[str, int], np.ndarray]:
        """(row_of, matrix) of an embedding file of at most ``lines`` lines:
        a matrix allocated once, filled in place, then normalised row by
        row."""
        row_of: dict[str, int] = {}
        linenos: list[int] = []
        matrix: np.ndarray | None = None
        for lineno, record in iter_jsonl(path, ProviderError):
            item_id = record.get("id")
            raw = record.get("vector")
            if not isinstance(item_id, str) or not isinstance(raw, list):
                raise ProviderError(f"{path}:{lineno}: malformed embedding row")
            if matrix is None:
                matrix = np.empty((lines, len(raw)))
            elif len(raw) != matrix.shape[1]:
                raise ProviderError(
                    f"{path}:{lineno}: dimension mismatch: vector for "
                    f"{item_id!r} has dim {len(raw)}, expected {matrix.shape[1]}"
                )
            if item_id in row_of:
                raise ProviderError(f"{path}:{lineno}: duplicate id {item_id!r}")
            _fill(matrix, len(row_of), raw, f"{path}:{lineno}: vector for {item_id!r}")
            row_of[item_id] = len(row_of)
            linenos.append(lineno)
        if matrix is None:
            raise ProviderError(f"{path}: empty embedding file")
        matrix = matrix[: len(row_of)]
        _check_finite(matrix, list(row_of), path, linenos)
        _normalize_rows(matrix, list(row_of))
        return row_of, matrix


def _gamma(n: int, u: float = UNIT_ROUNDOFF) -> float:
    """gamma_n = nu / (1 - nu): the relative error bound of n roundings to
    unit roundoff u."""
    return n * u / (1.0 - n * u)


def screen_slack(
    dim: int, mean_of: int | None = None, w_sim: float = 1.0, w_conf: float = 0.0
) -> float:
    """A bound on |screened - exact| of a value selection derives from the
    similarity of two unit rows of dimension ``dim``: the similarity itself,
    its mean over at most ``mean_of`` sentences (a max pools exactly), and
    ``w_sim * sim + w_conf * conf``.

    It is derived, never observed. The screen rounds both float64 rows to
    float32 (``matrix32``), which moves each product q_i m_i by at most
    (2v + v^2) |q_i m_i| for v = 2^-24 (Higham & Mary, "Mixed precision
    algorithms in numerical linear algebra", Acta Numerica 2022), plus an
    absolute term where a value or product underflows. Its float32 dot
    then errs by at most gamma_n sum |q'_i m'_i| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, §3.1), for any summation
    order, with or without FMA. Rows normalised in float64 have norm at
    most 1 + gamma_(n+2). The exact float64 dot errs by far less than
    this. The rest of the chain is float64, as the exact values are: the
    rounding of (1 + d) / 2, the mean's sum and division, and the weighted
    sum's three roundings. The total is multiplied by ``SCREEN_SAFETY``.
    """
    u, v, tiny = UNIT_ROUNDOFF, SCREEN_ROUNDOFF, SCREEN_UNDERFLOW
    norm = 1.0 + _gamma(dim + 2)
    g = _gamma(dim, v)
    rounded = (g * (1.0 + v) ** 2 + 2.0 * v + v * v) * norm**2
    # underflow: each rounded input (summed over a row, at most
    # sqrt(dim) * norm), each product, and their cross terms
    underflow = (1.0 + g) * (
        2.0 * tiny * (1.0 + v) * math.sqrt(dim) * norm + dim * (tiny + tiny * tiny)
    )
    dot = rounded + underflow
    sim = dot / 2.0 + u * (1.0 + dot)  # fl(1 + d) with |1 + d| <= 2 + dot
    if mean_of is not None:
        sim += _gamma(mean_of) * (1.0 + sim)  # a sum of values <= 1 + sim, / n
    total = w_sim * sim + 3.0 * u * (w_sim + w_conf) * (1.0 + sim)
    return SCREEN_SAFETY * total


def settle_argmax(
    screened: np.ndarray, slack: float, exact: Callable[[np.ndarray], np.ndarray]
) -> int:
    """The first index of the maximum of exact values, of which
    ``screened`` holds approximations within ``slack`` each.

    Only entries screened within twice the slack of the screened maximum
    can hold the exact maximum; ``exact(near)`` gives their exact values,
    in index order, and is not called when one entry is left.
    """
    near = np.flatnonzero(screened >= screened.max() - 2.0 * slack)
    if len(near) == 1:
        return int(near[0])
    return int(near[np.argmax(exact(near))])


def settle_columns(
    screened: np.ndarray, slack: float, exact: Callable[[int, np.ndarray], np.ndarray]
) -> np.ndarray:
    """``settle_argmax`` of each column of ``screened`` at once: the row of
    each column's first exact maximum. A column whose near set (the rows
    screened within twice the slack of its maximum) holds one row takes
    it; ``exact(column, near)`` gives the exact values of each other
    column's near rows.
    """
    near = screened >= screened.max(axis=0) - 2.0 * slack
    won = screened.argmax(axis=0)
    for c in np.flatnonzero(near.sum(axis=0) > 1).tolist():
        won[c] = settle_argmax(screened[:, c], slack, partial(exact, c))
    return won


def settle_top(
    screened: np.ndarray,
    slack: float,
    k: int,
    exact: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """(indexes, exact values) of the k largest exact values, descending,
    the earlier index first on ties: the head of a stable descending sort
    of the exact values, of which ``screened`` holds approximations within
    ``slack`` each.

    An entry screened more than twice the slack below the k-th largest
    screened value has k exact values above it, so only the entries within
    that margin are settled with ``exact(near)``, in index order.
    """
    n = len(screened)
    near = np.arange(n)
    if k < n:
        kth = np.partition(screened, n - k)[n - k]
        near = np.flatnonzero(screened >= kth - 2.0 * slack)
    values = exact(near)
    order = np.argsort(-values, kind="stable")[:k]
    return near[order], values[order]


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

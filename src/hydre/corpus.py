"""Bag-structured training corpus, relation ontology, and test queries.

All files are line-delimited JSON (one record per line, UTF-8). Entity
offsets count Unicode code points of the owning sentence text, inclusive
start / exclusive end.

A corpus holds its bags as columns and builds ``Bag`` and
``SentenceInstance`` objects only for what is read. One parser builds every
corpus's columns, from a bag file's records or an assembled corpus's bags
as records, and one its queries likewise, so a file and an assembled
corpus get the same checks. The first load of a bag
file writes its columns to a sidecar beside it, ``<file>.hydre.bin`` (the
provider sidecar of ``providers``); later loads read that instead while the
file's stat record is unchanged, or its sha256 when the record differs. The
checks on the file's records run once, on the parse; the label checks
against the ontology run on every load.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from itertools import compress
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_NA_SYMBOL = "NA"


class CorpusError(ValueError):
    """Malformed or inconsistent corpus data."""


@dataclass(frozen=True)
class EntitySpan:
    """A character span [start, end) plus the surface text it covers."""

    start: int
    end: int
    surface: str


@dataclass(frozen=True)
class SentenceInstance:
    """A single sentence mentioning the bag's entity pair."""

    sentence_id: str
    text: str
    head: EntitySpan
    tail: EntitySpan

    def __post_init__(self) -> None:
        _check_spans(f"sentence {self.sentence_id!r}", self.text, self.head, self.tail)


COMBINING = ("Mn", "Mc")  # the Unicode categories of combining marks


def _splits_grapheme(text: str, start: int, end: int) -> bool:
    """Whether the span [start, end) of ``text`` starts on a combining mark
    (Unicode category Mn or Mc, such as a matra or a virama) or stops just
    before one: either way it tags part of a grapheme."""
    return unicodedata.category(text[start]) in COMBINING or (
        end < len(text) and unicodedata.category(text[end]) in COMBINING
    )


def _check_spans(name: str, text: str, head: EntitySpan, tail: EntitySpan) -> None:
    """Each span lies within the text, splits no grapheme and matches its
    slice, and the two do not overlap; a fault raises ``CorpusError``
    naming ``name``."""
    for role, span in (("head", head), ("tail", tail)):
        if not (0 <= span.start < span.end <= len(text)):
            raise CorpusError(
                f"{name}: {role} span [{span.start}, {span.end}) out of range "
                f"for text of length {len(text)}"
            )
        if _splits_grapheme(text, span.start, span.end):
            raise CorpusError(
                f"{name}: {role} span [{span.start}, {span.end}) splits a grapheme"
            )
        got = text[span.start : span.end]
        if got != span.surface:
            raise CorpusError(
                f"{name}: {role} surface {span.surface!r} != text slice {got!r}"
            )
    if head.start < tail.end and tail.start < head.end:
        raise CorpusError(f"{name}: head and tail spans overlap")


@dataclass(frozen=True)
class Bag:
    """All sentences for one entity pair plus its distant labelset.

    An NA bag carries the NA symbol as its only label.
    """

    bag_id: str
    head_entity: str
    tail_entity: str
    sentences: tuple[SentenceInstance, ...]
    labelset: frozenset[str]

    def __post_init__(self) -> None:
        if not self.sentences:
            raise CorpusError(f"bag {self.bag_id!r}: empty sentence list")
        if not self.labelset:
            raise CorpusError(f"bag {self.bag_id!r}: empty labelset")


@dataclass(frozen=True)
class RelationOntology:
    """Ordered relation names with definitions; the order defines the index
    space of every score vector."""

    relations: tuple[tuple[str, str], ...]
    na_symbol: str = DEFAULT_NA_SYMBOL
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[str, int] = {}
        for i, (name, definition) in enumerate(self.relations):
            if not name:
                raise CorpusError("relation with empty name")
            if not definition:
                raise CorpusError(f"relation {name!r} has an empty definition")
            if name in index:
                raise CorpusError(f"duplicate relation name {name!r}")
            index[name] = i
        if self.na_symbol in index:
            raise CorpusError(
                f"NA symbol {self.na_symbol!r} collides with a relation name"
            )
        names = list(index)
        for name in names:
            for other in names:
                if name != other and name in other:
                    # The response parser matches names by occurrence; a
                    # contained name would fire inside the longer one.
                    logger.warning(
                        "relation name %r occurs inside %r; response "
                        "parsing may over-match",
                        name,
                        other,
                    )
        object.__setattr__(self, "_index", index)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)

    def __len__(self) -> int:
        return len(self.relations)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CorpusError(f"unknown relation {name!r}") from None

    def definition_of(self, name: str) -> str:
        return self.relations[self.index_of(name)][1]

    def sorted_labels(self, labels: Iterable[str]) -> list[str]:
        """Order a label subset by ontology index, NA symbol last."""
        real = sorted(
            (l for l in labels if l != self.na_symbol), key=self.index_of
        )
        if any(l == self.na_symbol for l in labels):
            real.append(self.na_symbol)
        return real


@dataclass(frozen=True)
class QueryInstance:
    """A sentence-level test query with its gold relation set.

    Gold NA is stored as an empty set plus ``is_na`` so multi-label metrics
    stay uniform.
    """

    query_id: str
    text: str
    head: EntitySpan
    tail: EntitySpan
    gold: frozenset[str]
    is_na: bool = False

    def __post_init__(self) -> None:
        _check_spans(f"query {self.query_id!r}", self.text, self.head, self.tail)
        if self.is_na and self.gold:
            raise CorpusError(
                f"query {self.query_id!r} marked NA but has gold relations"
            )
        if not self.is_na and not self.gold:
            raise CorpusError(
                f"query {self.query_id!r} has no gold relations and no NA flag"
            )


def iter_jsonl(
    path: str | Path, error: type[Exception]
) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSONL file.

    A line that is not a JSON object raises ``error`` naming path:line.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise error(f"{path}:{lineno}: record is not an object")
            yield lineno, record


@contextmanager
def atomic_write(
    path: str | Path, newline: str | None = None, mode: str = "w"
) -> Iterator[IO]:
    """A file to write ``path`` through: a temp file in the same directory
    that replaces ``path`` only once the block ends cleanly, so a failed or
    killed write leaves the old file whole. On failure the temp file is
    removed. ``mode`` "w" opens UTF-8 text, "wb" bytes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": newline}
    try:
        with tmp.open(mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def file_sha256(path: str | Path) -> str:
    """The sha256 of a file's bytes, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def jsonl_line(record: dict) -> str:
    """A record as one compact, key-sorted JSON line."""
    line = json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return line + "\n"


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    """One compact, key-sorted JSON object per line, written atomically."""
    with atomic_write(path) as fh:
        for record in records:
            fh.write(jsonl_line(record))


def builtin_ontology_path() -> Path:
    """Path of the NYT-10m relation ontology shipped with the package."""
    return Path(str(resources.files("hydre").joinpath("data/nyt10m_ontology.jsonl")))


def load_ontology(path: str | Path, na_symbol: str = DEFAULT_NA_SYMBOL) -> RelationOntology:
    """Load an ontology file; ordering equals file order.

    The NA symbol is attached to the ontology, never listed as a relation.
    """
    relations: list[tuple[str, str]] = []
    for lineno, record in iter_jsonl(path, CorpusError):
        try:
            name = record["name"]
            definition = record["definition"]
        except KeyError as exc:
            raise CorpusError(f"{path}:{lineno}: missing field {exc}") from None
        if not isinstance(name, str) or not isinstance(definition, str):
            raise CorpusError(f"{path}:{lineno}: name/definition must be strings")
        relations.append((name, definition))
    try:
        return RelationOntology(tuple(relations), na_symbol=na_symbol)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def _field(record: dict, key: str, ok: Callable[[object], bool], where: str):
    """``record[key]``; a missing key, or a value ``ok`` refuses (one of
    another JSON type), raises ``CorpusError`` naming ``where`` and the key."""
    try:
        value = record[key]
    except KeyError:
        raise CorpusError(f"{where}: missing field {key!r}") from None
    if not ok(value):
        raise CorpusError(f"{where}: malformed {key} {value!r}")
    return value


def _is_str(value) -> bool:
    return type(value) is str


def _is_names(value) -> bool:
    """A JSON list of strings, such as a list of relation names."""
    return type(value) is list and all(map(_is_str, value))


def _span(record: dict, key: str, text: str, where: str) -> tuple[int, int]:
    """The checked [start, end) code-point span of ``text`` under ``key``:
    within the text, splitting no grapheme (``_splits_grapheme``)."""
    raw = record.get(key)
    # type(), not isinstance: a JSON true is a bool, and bools are ints
    if type(raw) is not list or len(raw) != 2 or not all(type(v) is int for v in raw):
        raise CorpusError(f"{where}: malformed {key} {raw!r}")
    start, end = raw
    if not (0 <= start < end <= len(text)):
        raise CorpusError(f"{where}: {key} [{start}, {end}) out of range")
    if _splits_grapheme(text, start, end):
        raise CorpusError(f"{where}: {key} [{start}, {end}) splits a grapheme")
    return start, end


def _check_labels(
    labels: list[str], ontology: RelationOntology, where: str
) -> frozenset[str]:
    """The labelset of a listed label set; the first unknown label in the
    list, or the NA symbol beside a relation, raises ``CorpusError``."""
    labelset = frozenset(labels)
    na = ontology.na_symbol
    for label in labels:
        if label != na and label not in ontology:
            raise CorpusError(f"{where}: unknown relation {label!r}")
    if na in labelset and len(labelset) > 1:
        raise CorpusError(f"{where}: {na!r} cannot appear alongside relations")
    return labelset


# v2 refuses fields of the wrong JSON type, which v1 took, and v3 a span that
# splits a grapheme, which v2 took; so a sidecar of an earlier format may hold
# a file that this one refuses: it is never read.
BAGS_FORMAT = "hydre.corpus.v3"

# The columns of a bag file besides the strings, which go in the meta record
# (bag_ids, heads, tails, sentence_ids and the label vocabulary ``labels``).
_BAG_ARRAYS = {
    "texts": np.uint8,  # every sentence text, UTF-8 (surrogatepass), concatenated
    "text_offsets": np.int64,  # sentence i is texts[text_offsets[i]:text_offsets[i + 1]]
    "spans": np.int64,  # per sentence: head start, head end, tail start, tail end
    "lengths": np.int64,  # sentences per bag
    "label_ids": np.int64,  # each bag's distinct labels, as indexes into labels
    "label_counts": np.int64,  # labels per bag
    "lines": np.int64,  # the source line of each bag
}

_Columns = tuple[dict, dict[str, np.ndarray]]


def _at(source: str | Path | None, n: int, items: str = "bags") -> str:
    """Where record ``n`` is: line n of the file ``source``, or position n
    of an assembled corpus's ``items`` (its bags or its queries)."""
    return f"{items}[{n}]" if source is None else f"{source}:{n}"


def _label_mask(
    ontology: RelationOntology,
    labels: list[str],
    label_ids: np.ndarray,
    label_counts: np.ndarray,
    where: Callable[[int], str],
) -> tuple[np.ndarray, np.ndarray]:
    """The bag x relation label mask and each bag's NA flag.

    The first bag with a label the ontology lacks, or with the NA symbol
    beside a relation, raises ``CorpusError`` after ``where(bag)``; an
    unknown label is named in the order the bag lists it.
    """
    na = ontology.na_symbol
    column = np.array(
        [-2 if l == na else ontology.index_of(l) if l in ontology else -1 for l in labels],
        np.int64,
    )
    col = column[label_ids]
    owner = np.repeat(np.arange(len(label_counts)), label_counts)
    unknown = np.zeros(len(label_counts), bool)
    unknown[owner[col == -1]] = True
    has_na = np.zeros(len(label_counts), bool)
    has_na[owner[col == -2]] = True
    bad = np.flatnonzero(unknown | (has_na & (label_counts > 1)))
    if bad.size:
        b = int(bad[0])
        if unknown[b]:
            first = label_ids[np.flatnonzero((owner == b) & (col == -1))[0]]
            raise CorpusError(f"{where(b)}: unknown relation {labels[first]!r}")
        raise CorpusError(f"{where(b)}: {na!r} cannot appear alongside relations")
    mask = np.zeros((len(label_counts), len(ontology)), bool)
    real = col >= 0
    mask[owner[real], col[real]] = True
    return mask, has_na


def _parse_bags(
    records: Iterable[tuple[int, dict]], ontology: RelationOntology, source: Path | None
) -> _Columns:
    """(meta, arrays) of numbered bag records, after every check on them.

    The records are a bag file's by line (``iter_jsonl``), or an assembled
    corpus's by position (``source`` None). A fault raises ``CorpusError``
    naming where its record is (``_at``). Each bag's labels are checked
    against the ontology where they are read, so the first fault is the one
    raised.
    """
    bag_ids: list = []
    heads: list = []
    tails: list = []
    lines: list[int] = []
    labels: dict[str, int] = {}
    label_ids: list[int] = []
    label_counts: list[int] = []
    lengths: list[int] = []
    sentence_ids: list = []
    texts: list[bytes] = []
    spans: list[int] = []
    seen_bags: set = set()
    seen_sentences: set = set()
    for n, record in records:
        where = _at(source, n)
        bag_id = _field(record, "bag_id", _is_str, where)
        head_entity = _field(record, "head", _is_str, where)
        tail_entity = _field(record, "tail", _is_str, where)
        relations = _field(record, "relations", _is_names, where)
        sentence_records = _field(record, "sentences", lambda v: type(v) is list, where)
        if bag_id in seen_bags:
            raise CorpusError(f"{where}: duplicate bag_id {bag_id!r}")
        seen_bags.add(bag_id)
        _check_labels(relations, ontology, f"{where} (bag {bag_id!r})")
        if not sentence_records:
            raise CorpusError(f"{where}: bag {bag_id!r} has no sentences")
        for sr in sentence_records:
            if type(sr) is not dict:
                raise CorpusError(f"{where}: malformed sentence {sr!r}")
            sentence_id = _field(sr, "sentence_id", _is_str, where)
            text = _field(sr, "text", _is_str, where)
            head = _span(sr, "head_span", text, where)
            tail = _span(sr, "tail_span", text, where)
            if head[0] < tail[1] and tail[0] < head[1]:
                raise CorpusError(
                    f"{where}: sentence {sentence_id!r}: head and tail spans overlap"
                )
            if sentence_id in seen_sentences:
                raise CorpusError(f"{where}: duplicate sentence_id {sentence_id!r}")
            seen_sentences.add(sentence_id)
            sentence_ids.append(sentence_id)
            texts.append(text.encode("utf-8", "surrogatepass"))
            spans += head + tail
        bag_labels = dict.fromkeys(relations)
        if not bag_labels:
            raise CorpusError(f"{where}: bag {bag_id!r}: empty labelset")
        bag_ids.append(bag_id)
        heads.append(head_entity)
        tails.append(tail_entity)
        lines.append(n)
        label_ids.extend(labels.setdefault(l, len(labels)) for l in bag_labels)
        label_counts.append(len(bag_labels))
        lengths.append(len(sentence_records))
    sizes = np.fromiter(map(len, texts), np.int64, len(texts))
    meta = {
        "bag_ids": bag_ids,
        "heads": heads,
        "tails": tails,
        "sentence_ids": sentence_ids,
        "labels": list(labels),
    }
    arrays = {
        "texts": np.frombuffer(b"".join(texts), np.uint8),
        "text_offsets": np.concatenate(([0], np.cumsum(sizes))),
        "spans": np.array(spans, np.int64).reshape(-1, 4),
        "lengths": np.array(lengths, np.int64),
        "label_ids": np.array(label_ids, np.int64),
        "label_counts": np.array(label_counts, np.int64),
        "lines": np.array(lines, np.int64),
    }
    return meta, arrays


def _sidecar_columns(meta: dict, stored: Mapping[str, np.ndarray]) -> _Columns:
    """The columns a corpus sidecar holds; ValueError if they do not fit
    together."""
    arrays = {name: stored[name] for name in _BAG_ARRAYS}
    n_bags, n_sentences = len(meta["bag_ids"]), len(meta["sentence_ids"])
    label_ids = arrays["label_ids"]
    shapes = {
        "text_offsets": (n_sentences + 1,),
        "spans": (n_sentences, 4),
        "lengths": (n_bags,),
        "label_counts": (n_bags,),
        "lines": (n_bags,),
        "label_ids": (int(arrays["label_counts"].sum()),),
    }
    if (
        any(arrays[name].dtype != dtype for name, dtype in _BAG_ARRAYS.items())
        or any(arrays[name].shape != shape for name, shape in shapes.items())
        or arrays["texts"].shape != (arrays["text_offsets"][-1],)
        or arrays["lengths"].sum() != n_sentences
        or not (len(meta["heads"]) == len(meta["tails"]) == n_bags)
        or (
            label_ids.size
            and not 0 <= label_ids.min() <= label_ids.max() < len(meta["labels"])
        )
    ):
        raise ValueError("corpus sidecar columns do not fit together")
    return meta, arrays


def load_bags(path: str | Path, ontology: RelationOntology) -> list[Bag]:
    """Load and validate training bags, preserving file order."""
    return list(Corpus.load_bag_file(path, ontology).bags)


def load_queries(path: str | Path, ontology: RelationOntology) -> list[QueryInstance]:
    """Load and validate test queries; gold NA only as a singleton."""
    return _parse_queries(iter_jsonl(path, CorpusError), ontology, path)


def _parse_queries(
    records: Iterable[tuple[int, dict]],
    ontology: RelationOntology,
    source: str | Path | None,
) -> list[QueryInstance]:
    """The queries of numbered query records, after every check on them.

    The records are a query file's by line (``iter_jsonl``), or an
    assembled corpus's by position (``source`` None). A fault raises
    ``CorpusError`` naming where its record is (``_at``).
    """
    queries: list[QueryInstance] = []
    seen: set[str] = set()
    na = ontology.na_symbol
    for n, record in records:
        where = _at(source, n, "queries")
        query_id = _field(record, "query_id", _is_str, where)
        text = _field(record, "text", _is_str, where)
        gold_list = _field(record, "gold", _is_names, where)
        is_na = record.get("is_na", False)
        if type(is_na) is not bool:
            raise CorpusError(f"{where}: malformed is_na {is_na!r}")
        if query_id in seen:
            raise CorpusError(f"{where}: duplicate query_id {query_id!r}")
        seen.add(query_id)
        hs, he = _span(record, "head_span", text, where)
        ts, te = _span(record, "tail_span", text, where)
        labelset = _check_labels(gold_list, ontology, f"{where} (query {query_id!r})")
        try:
            query = QueryInstance(
                query_id,
                text,
                EntitySpan(hs, he, text[hs:he]),
                EntitySpan(ts, te, text[ts:te]),
                frozenset(l for l in labelset if l != na),
                is_na or na in labelset,
            )
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from None
        queries.append(query)
    return queries


def ontology_records(ontology: RelationOntology) -> list[dict]:
    return [{"name": n, "definition": d} for n, d in ontology.relations]


def _bag_record(bag: Bag, relations: list[str]) -> dict:
    """The bag-file record of a bag whose labels are listed as ``relations``."""
    return {
        "bag_id": bag.bag_id,
        "head": bag.head_entity,
        "tail": bag.tail_entity,
        "relations": relations,
        "sentences": [
            {
                "sentence_id": s.sentence_id,
                "text": s.text,
                "head_span": [s.head.start, s.head.end],
                "tail_span": [s.tail.start, s.tail.end],
            }
            for s in bag.sentences
        ],
    }


def bag_records(bags: Iterable[Bag], ontology: RelationOntology) -> list[dict]:
    return [_bag_record(bag, ontology.sorted_labels(bag.labelset)) for bag in bags]


def _query_record(query: QueryInstance, gold: list[str]) -> dict:
    """The query-file record of a query whose gold labels are listed as
    ``gold``."""
    return {
        "query_id": query.query_id,
        "text": query.text,
        "head_span": [query.head.start, query.head.end],
        "tail_span": [query.tail.start, query.tail.end],
        "gold": gold,
        "is_na": query.is_na,
    }


def query_records(queries: Iterable[QueryInstance], ontology: RelationOntology) -> list[dict]:
    return [_query_record(q, ontology.sorted_labels(q.gold)) for q in queries]


class Corpus:
    """The ontology, the training bags and the test queries.

    The bags are columns: ids, entity strings, the sentence texts as one
    UTF-8 buffer plus offsets, an n x 4 span array, CSR bag starts and
    lengths (bag b owns sentence positions starts[b] .. starts[b] +
    lengths[b] - 1), and a bag x relation label mask built against the
    ontology. ``sentence`` builds one sentence's object on first read and
    keeps it, ``bag`` one bag's object from those, ``labelset`` one bag's
    labels; ``bags`` builds every bag once, for callers that want them all.
    Selection reads the columns and builds only the sentences it shows; a
    corpus holds nothing of a selection pass, which lives in the pass's
    ``selection.CorpusView``. ``sha256`` is the bag file's, None for a
    corpus not loaded from one.
    """

    sha256: str | None = None

    def __init__(
        self,
        ontology: RelationOntology,
        meta: dict,
        arrays: dict[str, np.ndarray],
        source: Path | None = None,
    ) -> None:
        self.ontology = ontology
        self.queries: tuple[QueryInstance, ...] = ()
        self.bag_ids: list[str] = meta["bag_ids"]
        self.heads: list[str] = meta["heads"]
        self.tails: list[str] = meta["tails"]
        self.sentence_ids: list[str] = meta["sentence_ids"]
        self._texts = memoryview(arrays["texts"])
        self.text_offsets = arrays["text_offsets"]
        self.spans = arrays["spans"]
        self.lengths = arrays["lengths"]
        self.starts = np.cumsum(self.lengths) - self.lengths
        lines = arrays["lines"]
        self.mask, self.bag_na = _label_mask(
            ontology,
            meta["labels"],
            arrays["label_ids"],
            arrays["label_counts"],
            lambda b: f"{_at(source, lines[b])} (bag {self.bag_ids[b]!r})",
        )
        self.bags_by_relation = {
            name: np.flatnonzero(self.mask[:, j])
            for j, name in enumerate(ontology.names)
        }
        # sentences built so far, by position: a k sweep or a run over many
        # queries shows the same few sentences again
        self._sentences: dict[int, SentenceInstance] = {}

    @classmethod
    def assemble(
        cls,
        ontology: RelationOntology,
        bags: Iterable[Bag],
        queries: Iterable[QueryInstance] = (),
    ) -> "Corpus":
        """A corpus of bag and query objects; ``bags`` and ``queries``
        rebuild equal ones.

        The bags' and queries' records go through the file parsers, so they
        get every check a bag or query file gets, duplicate ids and unknown
        labels included; a fault names the record's position, ``bags[n]``
        or ``queries[n]``. Labels are listed by name, so no ontology order
        is asked of an unknown one.
        """
        records = enumerate(_bag_record(b, sorted(b.labelset)) for b in bags)
        corpus = cls(ontology, *_parse_bags(records, ontology, None))
        records = enumerate(_query_record(q, sorted(q.gold)) for q in queries)
        corpus.queries = tuple(_parse_queries(records, ontology, None))
        return corpus

    @classmethod
    def load_bag_file(cls, path: str | Path, ontology: RelationOntology) -> "Corpus":
        """The bags of a file, with no queries.

        Reads the file's sidecar when it matches the file's bytes, else
        parses the file and writes one; a file that fails a check gets
        none. The labels are checked against the ontology either way.
        """
        from .providers import _Sidecar  # providers imports this module

        path = Path(path)
        sidecar = _Sidecar(path, BAGS_FORMAT)
        columns = sidecar.read(_sidecar_columns)
        parsed = columns is None
        if parsed:
            columns = _parse_bags(iter_jsonl(path, CorpusError), ontology, path)
        corpus = cls(ontology, *columns, source=path)
        if parsed:
            sidecar.write(columns[0], **columns[1])
        corpus.sha256 = sidecar.sha256
        return corpus

    @classmethod
    def load(
        cls,
        ontology_path: str | Path,
        bags_path: str | Path | None,
        queries_path: str | Path | None = None,
    ) -> "Corpus":
        """Ontology, bags and queries from their files. With no bags file
        the corpus has no bags, and no bag file or sidecar is read."""
        ontology = load_ontology(ontology_path)
        if bags_path is None:
            corpus = cls.assemble(ontology, ())
        else:
            corpus = cls.load_bag_file(bags_path, ontology)
        if queries_path:
            corpus.queries = tuple(load_queries(queries_path, ontology))
        return corpus

    @cached_property
    def bags(self) -> tuple[Bag, ...]:
        """Every bag as an object, built on first use."""
        return tuple(self.bag(b) for b in range(len(self.bag_ids)))

    def bag(self, b: int) -> Bag:
        start = int(self.starts[b])
        return Bag(
            self.bag_ids[b],
            self.heads[b],
            self.tails[b],
            tuple(map(self.sentence, range(start, start + int(self.lengths[b])))),
            self.labelset(b),
        )

    def sentence(self, pos: int) -> SentenceInstance:
        sentence = self._sentences.get(pos)
        if sentence is None:
            start, end = self.text_offsets[pos : pos + 2].tolist()
            text = str(self._texts[start:end], "utf-8", "surrogatepass")
            hs, he, ts, te = self.spans[pos].tolist()
            sentence = self._sentences[int(pos)] = SentenceInstance(
                self.sentence_ids[pos],
                text,
                EntitySpan(hs, he, text[hs:he]),
                EntitySpan(ts, te, text[ts:te]),
            )
        return sentence

    def labelset(self, b: int) -> frozenset[str]:
        labels = list(compress(self._names, self.mask[b].tolist()))
        if self.bag_na[b]:
            labels.append(self.ontology.na_symbol)
        return frozenset(labels)

    @cached_property
    def _names(self) -> tuple[str, ...]:
        return self.ontology.names

    @cached_property
    def sentence_bag(self) -> np.ndarray:
        """The bag of each sentence position."""
        return np.repeat(np.arange(len(self.bag_ids)), self.lengths)

    @cached_property
    def bag_position(self) -> dict[str, int]:
        return {bag_id: b for b, bag_id in enumerate(self.bag_ids)}

    @cached_property
    def sentence_position(self) -> dict[str, int]:
        return {sid: pos for pos, sid in enumerate(self.sentence_ids)}

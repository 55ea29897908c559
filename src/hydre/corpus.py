"""Bag-structured training corpus, relation ontology, and test queries.

All files are line-delimited JSON (one record per line, UTF-8). Entity
offsets count Unicode code points of the owning sentence text, inclusive
start / exclusive end.
"""

from __future__ import annotations

import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Iterator

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
        for role, span in (("head", self.head), ("tail", self.tail)):
            if not (0 <= span.start < span.end <= len(self.text)):
                raise CorpusError(
                    f"sentence {self.sentence_id!r}: {role} span "
                    f"[{span.start}, {span.end}) out of range for text of "
                    f"length {len(self.text)}"
                )
            got = self.text[span.start : span.end]
            if got != span.surface:
                raise CorpusError(
                    f"sentence {self.sentence_id!r}: {role} surface "
                    f"{span.surface!r} != text slice {got!r}"
                )
        if self.head.start < self.tail.end and self.tail.start < self.head.end:
            raise CorpusError(
                f"sentence {self.sentence_id!r}: head and tail spans overlap"
            )


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
        # reuse the span validation from SentenceInstance
        SentenceInstance(self.query_id, self.text, self.head, self.tail)
        if self.is_na and self.gold:
            raise CorpusError(
                f"query {self.query_id!r}: NA query must have empty gold set"
            )
        if not self.is_na and not self.gold:
            raise CorpusError(f"query {self.query_id!r}: empty gold set")


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


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    """One compact, key-sorted JSON object per line, written atomically."""
    with atomic_write(path) as fh:
        for record in records:
            fh.write(
                json.dumps(
                    record, sort_keys=True, ensure_ascii=False, separators=(",", ":")
                )
            )
            fh.write("\n")


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


def _span_from_record(record: dict, key: str, text: str, where: str) -> EntitySpan:
    raw = record.get(key)
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(isinstance(v, int) for v in raw)
    ):
        raise CorpusError(f"{where}: malformed {key} {raw!r}")
    start, end = raw
    if not (0 <= start < end <= len(text)):
        raise CorpusError(f"{where}: {key} [{start}, {end}) out of range")
    return EntitySpan(start, end, text[start:end])


def _sentence_from_record(record: dict, where: str) -> SentenceInstance:
    try:
        sentence_id = record["sentence_id"]
        text = record["text"]
    except KeyError as exc:
        raise CorpusError(f"{where}: missing field {exc}") from None
    head = _span_from_record(record, "head_span", text, where)
    tail = _span_from_record(record, "tail_span", text, where)
    return SentenceInstance(sentence_id, text, head, tail)


def _check_labels(
    labels: Iterable[str], ontology: RelationOntology, where: str
) -> frozenset[str]:
    labelset = frozenset(labels)
    na = ontology.na_symbol
    for label in labelset:
        if label != na and label not in ontology:
            raise CorpusError(f"{where}: unknown relation {label!r}")
    if na in labelset and len(labelset) > 1:
        raise CorpusError(f"{where}: {na!r} cannot appear alongside relations")
    return labelset


def load_bags(path: str | Path, ontology: RelationOntology) -> list[Bag]:
    """Load and validate training bags, preserving file order."""
    bags: list[Bag] = []
    seen_bags: set[str] = set()
    seen_sentences: set[str] = set()
    for lineno, record in iter_jsonl(path, CorpusError):
        where = f"{path}:{lineno}"
        try:
            bag_id = record["bag_id"]
            head_entity = record["head"]
            tail_entity = record["tail"]
            relations = record["relations"]
            sentence_records = record["sentences"]
        except KeyError as exc:
            raise CorpusError(f"{where}: missing field {exc}") from None
        if bag_id in seen_bags:
            raise CorpusError(f"{where}: duplicate bag_id {bag_id!r}")
        seen_bags.add(bag_id)
        labelset = _check_labels(relations, ontology, f"{where} (bag {bag_id!r})")
        if not sentence_records:
            raise CorpusError(f"{where}: bag {bag_id!r} has no sentences")
        sentences = []
        for sr in sentence_records:
            sentence = _sentence_from_record(sr, where)
            if sentence.sentence_id in seen_sentences:
                raise CorpusError(
                    f"{where}: duplicate sentence_id {sentence.sentence_id!r}"
                )
            seen_sentences.add(sentence.sentence_id)
            sentences.append(sentence)
        bags.append(
            Bag(bag_id, head_entity, tail_entity, tuple(sentences), labelset)
        )
    return bags


def load_queries(path: str | Path, ontology: RelationOntology) -> list[QueryInstance]:
    """Load and validate test queries; gold NA only as a singleton."""
    queries: list[QueryInstance] = []
    seen: set[str] = set()
    na = ontology.na_symbol
    for lineno, record in iter_jsonl(path, CorpusError):
        where = f"{path}:{lineno}"
        try:
            query_id = record["query_id"]
            text = record["text"]
            gold_list = record["gold"]
        except KeyError as exc:
            raise CorpusError(f"{where}: missing field {exc}") from None
        if query_id in seen:
            raise CorpusError(f"{where}: duplicate query_id {query_id!r}")
        seen.add(query_id)
        head = _span_from_record(record, "head_span", text, where)
        tail = _span_from_record(record, "tail_span", text, where)
        labelset = _check_labels(gold_list, ontology, f"{where} (query {query_id!r})")
        is_na = bool(record.get("is_na", False)) or na in labelset
        gold = frozenset(l for l in labelset if l != na)
        if is_na and gold:
            raise CorpusError(
                f"{where}: query {query_id!r} marked NA but has gold relations"
            )
        if not is_na and not gold:
            raise CorpusError(
                f"{where}: query {query_id!r} has no gold relations and no NA flag"
            )
        queries.append(QueryInstance(query_id, text, head, tail, gold, is_na))
    return queries


def ontology_records(ontology: RelationOntology) -> list[dict]:
    return [{"name": n, "definition": d} for n, d in ontology.relations]


def bag_records(bags: Iterable[Bag], ontology: RelationOntology) -> list[dict]:
    records = []
    for bag in bags:
        records.append(
            {
                "bag_id": bag.bag_id,
                "head": bag.head_entity,
                "tail": bag.tail_entity,
                "relations": ontology.sorted_labels(bag.labelset),
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
        )
    return records


def query_records(queries: Iterable[QueryInstance], ontology: RelationOntology) -> list[dict]:
    records = []
    for q in queries:
        records.append(
            {
                "query_id": q.query_id,
                "text": q.text,
                "head_span": [q.head.start, q.head.end],
                "tail_span": [q.tail.start, q.tail.end],
                "gold": ontology.sorted_labels(q.gold),
                "is_na": q.is_na,
            }
        )
    return records


def index_bags_by_relation(
    bags: Iterable[Bag], ontology: RelationOntology
) -> dict[str, list[str]]:
    """Map every ontology relation to the ids of bags labeled with it.

    Membership partition: ``bag_id in index[r]`` iff ``r in bag.labelset``.
    Relations with no bag map to an empty list; corpus order is preserved.
    The NA symbol is never a key.
    """
    index: dict[str, list[str]] = {name: [] for name in ontology.names}
    for bag in bags:
        for label in bag.labelset:
            if label != ontology.na_symbol:
                index[label].append(bag.bag_id)
    return index


def na_fraction(bags: Iterable[Bag], ontology: RelationOntology) -> float:
    bags = list(bags)
    if not bags:
        return 0.0
    na = ontology.na_symbol
    n_na = sum(1 for b in bags if b.labelset == frozenset({na}))
    return n_na / len(bags)


@dataclass(frozen=True)
class Corpus:
    """Loaded ontology, bags, and queries with lookup indexes.

    ``view_cache`` starts empty; selection keeps the columnar view it builds
    lazily from the corpus and its providers there.
    """

    ontology: RelationOntology
    bags: tuple[Bag, ...]
    queries: tuple[QueryInstance, ...]
    bags_by_relation: dict[str, list[str]] = field(compare=False)
    bags_by_id: dict[str, Bag] = field(compare=False)
    sentences_by_id: dict[str, SentenceInstance] = field(compare=False)
    view_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def assemble(
        cls,
        ontology: RelationOntology,
        bags: Iterable[Bag],
        queries: Iterable[QueryInstance] = (),
    ) -> "Corpus":
        bags = tuple(bags)
        queries = tuple(queries)
        return cls(
            ontology=ontology,
            bags=bags,
            queries=queries,
            bags_by_relation=index_bags_by_relation(bags, ontology),
            bags_by_id={b.bag_id: b for b in bags},
            sentences_by_id={
                s.sentence_id: s for b in bags for s in b.sentences
            },
        )

    @classmethod
    def load(
        cls,
        ontology_path: str | Path,
        bags_path: str | Path,
        queries_path: str | Path | None = None,
    ) -> "Corpus":
        ontology = load_ontology(ontology_path)
        bags = load_bags(bags_path, ontology)
        queries = load_queries(queries_path, ontology) if queries_path else []
        return cls.assemble(ontology, bags, queries)

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydre.corpus import (
    Bag,
    Corpus,
    CorpusError,
    EntitySpan,
    QueryInstance,
    SentenceInstance,
    bag_records,
    builtin_ontology_path,
    load_bags,
    load_ontology,
    load_queries,
    ontology_records,
    query_records,
    write_jsonl,
)

from conftest import make_query, make_sentence, ontology_from_names
from oracles import make_random_instance


def write_records(tmp_path, name, records):
    path = tmp_path / name
    write_jsonl(records, path)
    return path


# ---------------------------------------------------------------- ontology


def test_builtin_ontology_has_24_relations_plus_na():
    ontology = load_ontology(builtin_ontology_path())
    assert len(ontology) == 24
    assert ontology.na_symbol == "NA"
    assert "NA" not in ontology.names
    assert ontology.names[0] == "/people/person/nationality"


def test_load_ontology_single_relation(tmp_path):
    path = write_records(
        tmp_path, "ont.jsonl", [{"name": "rel_a", "definition": "something"}]
    )
    ontology = load_ontology(path)
    assert len(ontology) == 1
    assert ontology.index_of("rel_a") == 0


def test_load_ontology_duplicate_name_errors(tmp_path):
    path = write_records(
        tmp_path,
        "ont.jsonl",
        [
            {"name": "/people/person/religion", "definition": "a"},
            {"name": "/people/person/religion", "definition": "b"},
        ],
    )
    with pytest.raises(CorpusError, match="duplicate"):
        load_ontology(path)


def test_load_ontology_empty_definition_errors(tmp_path):
    path = write_records(tmp_path, "ont.jsonl", [{"name": "rel_a", "definition": ""}])
    with pytest.raises(CorpusError, match="empty definition"):
        load_ontology(path)


def test_load_ontology_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_ontology(tmp_path / "absent.jsonl")


def test_ontology_sorted_labels_puts_na_last(tiny_ontology):
    assert tiny_ontology.sorted_labels({"rel_c", "NA", "rel_a"}) == [
        "rel_a",
        "rel_c",
        "NA",
    ]


# -------------------------------------------------------------------- bags


def sentence_record(sentence_id):
    s = make_sentence(sentence_id)
    return {
        "sentence_id": s.sentence_id,
        "text": s.text,
        "head_span": [s.head.start, s.head.end],
        "tail_span": [s.tail.start, s.tail.end],
    }


def bag_record(bag_id, labels, sentence_ids):
    return {
        "bag_id": bag_id,
        "head": "Alice",
        "tail": "Paris",
        "relations": labels,
        "sentences": [sentence_record(sid) for sid in sentence_ids],
    }


def test_load_bags_single_na_bag(tmp_path, tiny_ontology):
    path = write_records(tmp_path, "bags.jsonl", [bag_record("b1", ["NA"], ["s1"])])
    bags = load_bags(path, tiny_ontology)
    assert len(bags) == 1
    assert bags[0].labelset == frozenset({"NA"})
    assert Corpus.assemble(tiny_ontology, bags).bag_na.tolist() == [True]


def test_load_bags_unknown_label_names_it(tmp_path, tiny_ontology):
    path = write_records(
        tmp_path, "bags.jsonl", [bag_record("b1", ["rel_zz"], ["s1"])]
    )
    with pytest.raises(CorpusError, match="rel_zz"):
        load_bags(path, tiny_ontology)


def test_load_bags_empty_sentences_errors(tmp_path, tiny_ontology):
    path = write_records(tmp_path, "bags.jsonl", [bag_record("b1", ["rel_a"], [])])
    with pytest.raises(CorpusError, match="no sentences"):
        load_bags(path, tiny_ontology)


def test_load_bags_malformed_span_errors(tmp_path, tiny_ontology):
    record = bag_record("b1", ["rel_a"], ["s1"])
    record["sentences"][0]["head_span"] = [5, 2]
    path = write_records(tmp_path, "bags.jsonl", [record])
    with pytest.raises(CorpusError, match="head_span"):
        load_bags(path, tiny_ontology)


def test_load_bags_na_plus_relation_errors(tmp_path, tiny_ontology):
    path = write_records(
        tmp_path, "bags.jsonl", [bag_record("b1", ["NA", "rel_a"], ["s1"])]
    )
    with pytest.raises(CorpusError, match="alongside"):
        load_bags(path, tiny_ontology)


def test_load_bags_duplicate_sentence_id_errors(tmp_path, tiny_ontology):
    path = write_records(
        tmp_path,
        "bags.jsonl",
        [
            bag_record("b1", ["rel_a"], ["s1"]),
            bag_record("b2", ["rel_b"], ["s1"]),
        ],
    )
    with pytest.raises(CorpusError, match="duplicate sentence_id"):
        load_bags(path, tiny_ontology)


# ------------------------------------------------------------------ queries


def query_record(query_id, gold, is_na=False):
    s = make_sentence(query_id)
    return {
        "query_id": query_id,
        "text": s.text,
        "head_span": [s.head.start, s.head.end],
        "tail_span": [s.tail.start, s.tail.end],
        "gold": gold,
        "is_na": is_na,
    }


def test_load_queries_na_gold_accepted(tmp_path, tiny_ontology):
    path = write_records(
        tmp_path, "q.jsonl", [query_record("q1", [], is_na=True)]
    )
    queries = load_queries(path, tiny_ontology)
    assert queries[0].is_na and queries[0].gold == frozenset()


def test_load_queries_na_symbol_in_gold_list(tmp_path, tiny_ontology):
    path = write_records(tmp_path, "q.jsonl", [query_record("q1", ["NA"])])
    queries = load_queries(path, tiny_ontology)
    assert queries[0].is_na and queries[0].gold == frozenset()


def test_load_queries_na_plus_relation_errors(tmp_path, tiny_ontology):
    path = write_records(tmp_path, "q.jsonl", [query_record("q1", ["NA", "rel_a"])])
    with pytest.raises(CorpusError):
        load_queries(path, tiny_ontology)


def test_load_queries_unknown_relation_errors(tmp_path, tiny_ontology):
    path = write_records(tmp_path, "q.jsonl", [query_record("q1", ["rel_zz"])])
    with pytest.raises(CorpusError, match="rel_zz"):
        load_queries(path, tiny_ontology)


def test_load_queries_names_the_first_listed_unknown_gold_label(tmp_path):
    """The unknown label named is the first the record lists, under every
    hash seed (a frozenset's order changes with the seed)."""
    path = write_records(
        tmp_path, "q.jsonl", [query_record("q1", ["rel_zz", "rel_yy", "rel_xx"])]
    )
    script = (
        "import sys\n"
        "from hydre.corpus import CorpusError, RelationOntology, load_queries\n"
        "try:\n"
        "    load_queries(sys.argv[1], RelationOntology((('rel_a', 'a relation'),)))\n"
        "except CorpusError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{path}:1 (query 'q1'): unknown relation 'rel_zz'\n", seed


def test_load_queries_empty_gold_without_flag_errors(tmp_path, tiny_ontology):
    path = write_records(tmp_path, "q.jsonl", [query_record("q1", [])])
    with pytest.raises(CorpusError, match="no gold"):
        load_queries(path, tiny_ontology)


def test_load_queries_rejects_non_string_text(tmp_path, tiny_ontology):
    record = query_record("q1", ["rel_a"])
    record["text"] = list(record["text"])
    path = write_records(tmp_path, "q.jsonl", [record])
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:1: malformed text"):
        load_queries(path, tiny_ontology)


@pytest.mark.parametrize(
    "field, value",
    [
        ("head_span", [False, True]),
        ("query_id", [1]),
        ("query_id", 5),
        ("gold", None),
        ("gold", "rel_a"),
        ("is_na", "false"),
    ],
)
def test_load_queries_refuses_a_field_of_the_wrong_type(tmp_path, tiny_ontology, field, value):
    record = query_record("q1", ["rel_a"])
    record[field] = value
    path = write_records(tmp_path, "q.jsonl", [query_record("q0", ["rel_b"]), record])
    with pytest.raises(CorpusError) as info:
        load_queries(path, tiny_ontology)
    assert str(info.value) == f"{path}:2: malformed {field} {value!r}"


@pytest.mark.parametrize(
    "head, tail, message",
    [
        ((0, 7, "Alpha B"), (6, 10, "Beta"), "query 'q1': head and tail spans overlap"),
        ((0, 5, "Alphx"), (6, 10, "Beta"), "query 'q1': head surface 'Alphx'"),
        ((0, 5, "Alpha"), (6, 99, "Beta"), "query 'q1': tail span [6, 99) out of range"),
    ],
    ids=["overlap", "surface", "range"],
)
def test_query_instance_refuses_bad_spans(head, tail, message):
    with pytest.raises(CorpusError, match=re.escape(message)):
        QueryInstance(
            "q1", "Alpha Beta", EntitySpan(*head), EntitySpan(*tail), frozenset({"rel_a"})
        )


def test_loaded_queries_equal_directly_built_ones(tmp_path, tiny_ontology):
    records = [query_record("q1", ["rel_b"]), query_record("q2", [], is_na=True)]
    queries = load_queries(write_records(tmp_path, "q.jsonl", records), tiny_ontology)
    built = []
    for record, gold in zip(records, ({"rel_b"}, set())):
        s = make_sentence(record["query_id"])
        built.append(
            QueryInstance(s.sentence_id, s.text, s.head, s.tail, frozenset(gold), not gold)
        )
    assert queries == built
    assert list(map(hash, queries)) == list(map(hash, built))


# ----------------------------------------------------------------- indexing


def bag_ids_by_relation(corpus):
    """``corpus.bags_by_relation`` with bag ids for bag indexes."""
    return {
        relation: [corpus.bag_ids[b] for b in bags]
        for relation, bags in corpus.bags_by_relation.items()
    }


def test_index_by_relation_small_case(tiny_ontology):
    b1 = Bag("b1", "h", "t", (make_sentence("s1"),), frozenset({"rel_a"}))
    b2 = Bag("b2", "h", "t", (make_sentence("s2"),), frozenset({"rel_a", "rel_b"}))
    index = bag_ids_by_relation(Corpus.assemble(tiny_ontology, [b1, b2]))
    assert index == {"rel_a": ["b1", "b2"], "rel_b": ["b2"], "rel_c": []}


def test_index_by_relation_empty_corpus(tiny_ontology):
    index = bag_ids_by_relation(Corpus.assemble(tiny_ontology, []))
    assert index == {"rel_a": [], "rel_b": [], "rel_c": []}


@pytest.mark.parametrize(
    "bags, message",
    [
        (
            [Bag("b1", "h", "t", (make_sentence("s1"),), frozenset({"rel_a"})),
             Bag("b1", "h", "t", (make_sentence("s2"),), frozenset({"rel_b"}))],
            "bags[1]: duplicate bag_id 'b1'",
        ),
        (
            [Bag("b1", "h", "t", (make_sentence("s1"),), frozenset({"rel_a"})),
             Bag("b2", "h", "t", (make_sentence("s1"),), frozenset({"rel_b"}))],
            "bags[1]: duplicate sentence_id 's1'",
        ),
    ],
    ids=["bag_id", "sentence_id"],
)
def test_assemble_refuses_a_duplicate_id(tiny_ontology, bags, message):
    """An assembled corpus names each bag and each sentence once, as a bag
    file must."""
    with pytest.raises(CorpusError) as info:
        Corpus.assemble(tiny_ontology, bags)
    assert str(info.value) == message


def test_assembled_unknown_label_names_the_bag_and_the_label(tiny_ontology):
    bag = Bag("b1", "h", "t", (make_sentence("s1"),), frozenset({"rel_a", "rel_zz"}))
    with pytest.raises(CorpusError) as info:
        Corpus.assemble(tiny_ontology, [bag])
    assert "bag 'b1'" in str(info.value)
    assert str(info.value).endswith("unknown relation 'rel_zz'")


@pytest.mark.parametrize(
    "golds, message",
    [
        ([{"rel_a"}, {"rel_b"}], "queries[1]: duplicate query_id 'q1'"),
        ([{"rel_zz"}, {"rel_a"}], "queries[0] (query 'q1'): unknown relation 'rel_zz'"),
    ],
    ids=["duplicate-id", "unknown-gold-label"],
)
def test_assemble_checks_its_queries_as_a_query_file(tiny_ontology, golds, message):
    """An assembled corpus's queries get the query file's checks, so two
    queries sharing an id, or a gold label outside the ontology, fail at
    assembly and name the query's position."""
    queries = [make_query("q1", gold) for gold in golds]
    with pytest.raises(CorpusError) as info:
        Corpus.assemble(tiny_ontology, (), queries)
    assert str(info.value) == message


def test_index_by_relation_matches_set_filter_oracle():
    for trial in range(10):
        instance = make_random_instance(seed=1000 + trial, max_bags=100)
        ontology = ontology_from_names(instance["relations"])
        bags = [
            Bag(
                raw["bag_id"],
                "h",
                "t",
                tuple(make_sentence(s["sentence_id"]) for s in raw["sentences"]),
                frozenset(raw["labels"]),
            )
            for raw in instance["bags"]
        ]
        corpus = Corpus.assemble(ontology, bags)
        index = bag_ids_by_relation(corpus)
        for relation in instance["relations"]:
            expected = [b["bag_id"] for b in instance["bags"] if relation in b["labels"]]
            assert index[relation] == expected
        # partition-by-membership in both directions
        for bag in bags:
            for relation in instance["relations"]:
                assert (bag.bag_id in index[relation]) == (relation in bag.labelset)
        na = [b["labels"] == {"NA"} for b in instance["bags"]]
        assert corpus.bag_na.tolist() == na


def test_load_bags_preserves_file_order_at_scale(tmp_path, tiny_ontology):
    records = [
        bag_record(f"b{i:04d}", ["rel_a" if i % 2 else "rel_b"], [f"s{i:04d}"])
        for i in range(300)
    ]
    path = write_records(tmp_path, "bags.jsonl", records)
    bags = load_bags(path, tiny_ontology)
    assert len(bags) == 300
    assert [b.bag_id for b in bags] == [r["bag_id"] for r in records]


# ------------------------------------------------------------- round-trips


def test_bag_round_trip(tmp_path, tiny_ontology):
    records = [
        bag_record("b1", ["rel_a", "rel_b"], ["s1", "s2"]),
        bag_record("b2", ["NA"], ["s3"]),
    ]
    path = write_records(tmp_path, "bags.jsonl", records)
    bags = load_bags(path, tiny_ontology)
    path2 = write_records(tmp_path, "bags2.jsonl", bag_records(bags, tiny_ontology))
    assert load_bags(path2, tiny_ontology) == bags


def test_query_round_trip(tmp_path, tiny_ontology):
    records = [query_record("q1", ["rel_b"]), query_record("q2", [], is_na=True)]
    path = write_records(tmp_path, "q.jsonl", records)
    queries = load_queries(path, tiny_ontology)
    path2 = write_records(tmp_path, "q2.jsonl", query_records(queries, tiny_ontology))
    assert load_queries(path2, tiny_ontology) == queries


def test_ontology_round_trip(tmp_path):
    ontology = load_ontology(builtin_ontology_path())
    path = write_records(tmp_path, "ont.jsonl", ontology_records(ontology))
    assert load_ontology(path) == ontology


def test_random_corpora_round_trip(tmp_path):
    from conftest import corpus_from_instance, ontology_from_names

    for trial in range(10):
        instance = make_random_instance(seed=500 + trial, max_bags=20)
        ontology = ontology_from_names(instance["relations"])
        corpus = corpus_from_instance(instance)
        path = write_records(
            tmp_path, f"bags{trial}.jsonl", bag_records(corpus.bags, ontology)
        )
        assert tuple(load_bags(path, ontology)) == corpus.bags


# ------------------------------------------------------ span property tests

words = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
    min_size=1,
    max_size=8,
)


@given(head=words, tail=words, filler=words)
@settings(max_examples=60)
def test_generated_sentences_keep_span_invariants(head, tail, filler):
    text = f"{head} {filler} {tail}"
    sentence = SentenceInstance(
        "s1",
        text,
        EntitySpan(0, len(head), head),
        EntitySpan(len(text) - len(tail), len(text), tail),
    )
    assert sentence.text[sentence.head.start : sentence.head.end] == head
    assert sentence.text[sentence.tail.start : sentence.tail.end] == tail


def test_overlapping_spans_rejected():
    with pytest.raises(CorpusError, match="overlap"):
        SentenceInstance(
            "s1",
            "Alpha Beta",
            EntitySpan(0, 7, "Alpha B"),
            EntitySpan(6, 10, "Beta"),
        )


def test_surface_mismatch_rejected():
    with pytest.raises(CorpusError, match="surface"):
        SentenceInstance(
            "s1", "Alpha Beta", EntitySpan(0, 5, "Alphx"), EntitySpan(6, 10, "Beta")
        )


def test_span_out_of_range_rejected():
    with pytest.raises(CorpusError, match="out of range"):
        SentenceInstance(
            "s1", "Alpha", EntitySpan(0, 99, "Alpha"), EntitySpan(0, 2, "Al")
        )


# ------------------------------------------------- graphemes in Indic scripts

KA = "\u0b15"  # ORIYA LETTER KA (Lo)
# a combining mark (Mn or Mc) that joins the letter before it into one grapheme
MARKS = {
    "odia-i": "\u0b3f",  # ORIYA VOWEL SIGN I (Mn)
    "odia-aa": "\u0b3e",  # ORIYA VOWEL SIGN AA (Mc)
    "kannada-i": "\u0cbf",  # KANNADA VOWEL SIGN I (Mn)
    "meetei-onap": "\uabe3",  # MEETEI MAYEK VOWEL SIGN ONAP (Mc)
}


def script_record(text, head, tail, query_id=None):
    """A bag record with one sentence, or with ``query_id`` a query record,
    of ``text`` with the given (start, end) spans."""
    fields = {"text": text, "head_span": list(head), "tail_span": list(tail)}
    if query_id is not None:
        return {"query_id": query_id, **fields, "gold": ["rel_a"], "is_na": False}
    return {"bag_id": "b1", "head": "h", "tail": "t", "relations": ["rel_a"],
            "sentences": [{"sentence_id": "s1", **fields}]}


def split_spans(mark):
    """(text, head, tail, the span key at fault) for each way a span can split
    the grapheme KA + mark: the head stops before the mark, or the tail
    starts on it."""
    text = f"{KA}{mark} x {KA}{mark}"
    return [
        (text, (0, 1), (5, 7), "head_span"),
        (text, (0, 2), (6, 7), "tail_span"),
    ]


@pytest.mark.parametrize("kind", ["bags", "queries"])
@pytest.mark.parametrize("mark", list(MARKS.values()), ids=list(MARKS))
def test_a_span_that_splits_a_grapheme_is_refused(tmp_path, tiny_ontology, mark, kind):
    """A bag or query span that starts on a combining mark, or stops just
    before one, is refused at load naming path:line and the span."""
    for text, head, tail, key in split_spans(mark):
        record = script_record(text, head, tail, "q1" if kind == "queries" else None)
        path = write_records(tmp_path, f"{kind}.jsonl", [record])
        load = load_queries if kind == "queries" else load_bags
        with pytest.raises(CorpusError) as info:
            load(path, tiny_ontology)
        start, end = head if key == "head_span" else tail
        assert str(info.value) == f"{path}:1: {key} [{start}, {end}) splits a grapheme"


@pytest.mark.parametrize("mark", list(MARKS.values()), ids=list(MARKS))
def test_a_built_sentence_that_splits_a_grapheme_is_refused(mark):
    text, head, tail, _ = split_spans(mark)[0]
    with pytest.raises(CorpusError, match="head span \\[0, 1\\) splits a grapheme"):
        SentenceInstance(
            "s1", text, EntitySpan(*head, text[slice(*head)]),
            EntitySpan(*tail, text[slice(*tail)]),
        )


def test_whole_graphemes_and_ol_chiki_letters_load(tmp_path, tiny_ontology):
    """Spans over whole graphemes load in every mark's script, and so do
    spans over Ol Chiki letters (Lo), which combine with nothing."""
    records = []
    for i, mark in enumerate(MARKS.values()):
        record = script_record(f"{KA}{mark} x {KA}{mark}", (0, 2), (5, 7))
        record["bag_id"] = f"b{i}"
        record["sentences"][0]["sentence_id"] = f"s{i}"
        records.append(record)
    ol_chiki = "\u1c5a\u1c63 \u1c5a \u1c63\u1c5a"
    record = script_record(ol_chiki, (0, 2), (5, 7))
    record["bag_id"], record["sentences"][0]["sentence_id"] = "b-ol", "s-ol"
    records.append(record)
    path = write_records(tmp_path, "bags.jsonl", records)
    bags = load_bags(path, tiny_ontology)
    assert len(bags) == len(records)
    assert bags[-1].sentences[0].head.surface == ol_chiki[:2]
    path = write_records(tmp_path, "q.jsonl", [script_record(ol_chiki, (0, 2), (5, 7), "q1")])
    assert load_queries(path, tiny_ontology)[0].tail.surface == ol_chiki[5:]


def test_write_jsonl_failure_keeps_old_file(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl([{"a": 1}, {"a": 2}], path)
    before = path.read_bytes()

    def records():
        yield {"a": 3}
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_jsonl(records(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]


# ------------------------------------------------------------ bag sidecar

import json
import shutil
from pathlib import Path

import numpy as np

import hydre.corpus as corpus_module
import hydre.providers as providers_module
from hydre.corpus import Corpus
from hydre.providers import SIDECAR_SUFFIX

from conftest import (
    FIXTURES,
    backdate,
    edit_sidecar_arrays,
    edit_sidecar_header,
    opened_files,
    restore_mtime,
)

GOLDEN_BAGS = FIXTURES / "golden" / "bags.jsonl"


def sidecar_of(path):
    return path.with_name(path.name + SIDECAR_SUFFIX)


@pytest.fixture
def nyt_ontology():
    return load_ontology(builtin_ontology_path())


def golden_bags(tmp_path):
    """A copy of the golden bag file, dated a minute back so that its stat
    record is not racy."""
    path = tmp_path / "bags.jsonl"
    shutil.copyfile(GOLDEN_BAGS, path)
    backdate(path)
    return path


COLUMNS = ("bag_ids", "heads", "tails", "sentence_ids", "_texts", "text_offsets",
           "spans", "lengths", "starts", "mask", "bag_na")


def assert_same_corpus(a, b):
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
        else:
            assert type(x) is type(y) and x == y, name
    assert a.bags_by_relation.keys() == b.bags_by_relation.keys()
    for relation, bags in a.bags_by_relation.items():
        assert bags.tolist() == b.bags_by_relation[relation].tolist()
    assert len(a.bags) == len(b.bags)
    for x, y in zip(a.bags, b.bags):
        assert x == y


def refuse_bag_parse(monkeypatch, path):
    """Make iter_jsonl raise for the bag file; other files still parse."""
    original = corpus_module.iter_jsonl

    def guarded(source, error):
        if Path(source) == path:
            raise AssertionError("bag JSONL parsed on a sidecar hit")
        return original(source, error)

    monkeypatch.setattr(corpus_module, "iter_jsonl", guarded)


def test_bag_sidecar_hit_equals_miss_and_skips_the_parse(tmp_path, monkeypatch, nyt_ontology):
    path = golden_bags(tmp_path)
    miss = Corpus.load_bag_file(path, nyt_ontology)
    assert sidecar_of(path).exists()
    refuse_bag_parse(monkeypatch, path)
    hit = Corpus.load_bag_file(path, nyt_ontology)
    assert_same_corpus(hit, miss)
    # the objects equal those built from a fresh parse of the records
    assert hit.bags == tuple(load_bags_without_sidecar(path, nyt_ontology))


def load_bags_without_sidecar(path, ontology):
    copy = path.with_name("copy_" + path.name)
    shutil.copyfile(path, copy)
    try:
        return load_bags(copy, ontology)
    finally:
        copy.unlink()
        sidecar_of(copy).unlink(missing_ok=True)


def test_bag_sidecar_of_edited_source_is_ignored_and_rewritten(tmp_path, nyt_ontology):
    path = golden_bags(tmp_path)
    before = Corpus.load_bag_file(path, nyt_ontology)
    stale = sidecar_of(path).read_bytes()
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[1:]) + "\n")  # drop the first bag
    edited = Corpus.load_bag_file(path, nyt_ontology)
    assert edited.bag_ids == before.bag_ids[1:]
    assert sidecar_of(path).read_bytes() != stale
    sidecar_of(path).unlink()
    assert_same_corpus(edited, Corpus.load_bag_file(path, nyt_ontology))


def object_array_sidecar(path):
    """A sidecar naming the right format and sha256 whose spans need pickle."""
    edit_sidecar_header(path, lambda header: header["arrays"]["spans"].update(dtype="|O"))


def bare_npy(path):
    with path.open("wb") as fh:
        np.save(fh, np.zeros(3))


def mismatched_columns(path):
    """A sidecar naming the right format and sha256 with one bag too few."""
    edit_sidecar_arrays(path, lambda arrays: arrays.update(lengths=arrays["lengths"][:-1]))


def array_past_the_end(path):
    """A sidecar whose header places the texts at the end of the file."""
    size = path.stat().st_size
    edit_sidecar_header(path, lambda header: header["arrays"]["texts"].update(offset=size))


BAG_SIDECAR_CORRUPTIONS = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
    "garbage": lambda p: p.write_bytes(b"not a sidecar at all"),
    "empty": lambda p: p.write_bytes(b""),
    "bare-npy": bare_npy,
    "object-array": object_array_sidecar,
    "mismatched-columns": mismatched_columns,
    "past-end": array_past_the_end,
}


@pytest.mark.parametrize("corruption", sorted(BAG_SIDECAR_CORRUPTIONS))
def test_broken_bag_sidecar_is_ignored(tmp_path, nyt_ontology, corruption):
    path = golden_bags(tmp_path)
    reference = Corpus.load_bag_file(path, nyt_ontology)
    BAG_SIDECAR_CORRUPTIONS[corruption](sidecar_of(path))
    assert_same_corpus(Corpus.load_bag_file(path, nyt_ontology), reference)
    # the parse replaced the broken sidecar with a good one
    header, _ = providers_module._unpack(sidecar_of(path).read_bytes())
    assert header["format"] == corpus_module.BAGS_FORMAT
    assert_same_corpus(Corpus.load_bag_file(path, nyt_ontology), reference)


def test_bag_sidecar_trusted_by_stat_reads_no_source_byte(
    tmp_path, monkeypatch, nyt_ontology
):
    path = golden_bags(tmp_path)
    reference = Corpus.load_bag_file(path, nyt_ontology)
    opened = opened_files(monkeypatch)
    hit = Corpus.load_bag_file(path, nyt_ontology)
    monkeypatch.undo()
    assert opened == [sidecar_of(path)]
    assert_same_corpus(hit, reference)
    assert hit.sha256 == reference.sha256 == corpus_module.file_sha256(GOLDEN_BAGS)
    assert not hit.spans.flags.writeable  # a view of the sidecar's map


def test_same_size_bag_edit_with_forged_mtime_is_reparsed(tmp_path, nyt_ontology):
    """A same-size edit with its mtime set back is seen by its ctime."""
    path = golden_bags(tmp_path)
    before = Corpus.load_bag_file(path, nyt_ontology)
    st = path.stat()
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([lines[1], lines[0]] + lines[2:]))  # swap two bags
    restore_mtime(path, st)
    assert path.stat().st_size == st.st_size
    edited = Corpus.load_bag_file(path, nyt_ontology)
    assert edited.bag_ids == [before.bag_ids[1], before.bag_ids[0]] + before.bag_ids[2:]


def test_loaded_corpus_keeps_its_columns_when_its_sidecar_is_replaced(
    tmp_path, nyt_ontology
):
    path = golden_bags(tmp_path)
    Corpus.load_bag_file(path, nyt_ontology)
    mapped = Corpus.load_bag_file(path, nyt_ontology)
    spans, offsets = mapped.spans.copy(), mapped.text_offsets.copy()
    inode = sidecar_of(path).stat().st_ino
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last bag
    assert Corpus.load_bag_file(path, nyt_ontology).bag_ids == mapped.bag_ids[:-1]
    assert sidecar_of(path).stat().st_ino != inode
    assert mapped.spans.tobytes() == spans.tobytes()  # the old map still reads
    assert mapped.text_offsets.tobytes() == offsets.tobytes()


def test_legacy_npz_bag_sidecar_is_ignored_and_replaced(tmp_path, nyt_ontology):
    """A zip sidecar of an earlier version, naming the source's sha256 and
    one bag too few, is never read, and goes once a sidecar is written."""
    path = golden_bags(tmp_path)
    reference = Corpus.load_bag_file(path, nyt_ontology)
    _, arrays = providers_module._unpack(sidecar_of(path).read_bytes())
    sidecar_of(path).unlink()
    legacy = path.with_name(path.name + providers_module.LEGACY_SIDECAR_SUFFIX)
    meta = {name: getattr(reference, name) for name in
            ("bag_ids", "heads", "tails", "sentence_ids")}
    with legacy.open("wb") as fh:
        np.savez(
            fh,
            format=np.array(corpus_module.BAGS_FORMAT),
            sha256=np.array(corpus_module.file_sha256(path)),
            meta=np.frombuffer(json.dumps(meta).encode(), np.uint8),
            **dict(arrays, lengths=arrays["lengths"][:-1]),
        )
    assert_same_corpus(Corpus.load_bag_file(path, nyt_ontology), reference)
    assert sidecar_of(path).exists() and not legacy.exists()


def test_bag_sidecar_write_failure_still_loads(tmp_path, monkeypatch, nyt_ontology):
    path = golden_bags(tmp_path)

    def read_only(*args, **kwargs):
        raise PermissionError("read-only directory")

    monkeypatch.setattr(providers_module, "atomic_write", read_only)
    corpus = Corpus.load_bag_file(path, nyt_ontology)
    assert not sidecar_of(path).exists()
    monkeypatch.undo()
    assert_same_corpus(corpus, Corpus.load_bag_file(path, nyt_ontology))


def invalid_bag_files():
    """Each invalid bag file of the tests above, with its full message."""
    malformed = bag_record("b1", ["rel_a"], ["s1"])
    malformed["sentences"][0]["head_span"] = [5, 2]
    overlap = bag_record("b1", ["rel_a"], ["s1"])
    overlap["sentences"][0]["tail_span"] = overlap["sentences"][0]["head_span"]
    missing = bag_record("b2", ["rel_a"], ["s2"])
    del missing["sentences"][0]["text"]

    def edited(edit):
        record = bag_record("b1", ["rel_a"], ["s1"])
        edit(record)
        return [record]

    return [
        ([bag_record("b1", ["rel_zz"], ["s1"])],
         "{p}:1 (bag 'b1'): unknown relation 'rel_zz'"),
        ([bag_record("b1", ["rel_a"], [])], "{p}:1: bag 'b1' has no sentences"),
        ([malformed], "{p}:1: head_span [5, 2) out of range"),
        ([bag_record("b1", ["NA", "rel_a"], ["s1"])],
         "{p}:1 (bag 'b1'): 'NA' cannot appear alongside relations"),
        ([bag_record("b1", ["rel_a"], ["s1"]), bag_record("b2", ["rel_b"], ["s1"])],
         "{p}:2: duplicate sentence_id 's1'"),
        ([bag_record("b1", ["rel_a"], ["s1"]), bag_record("b1", ["rel_b"], ["s2"])],
         "{p}:2: duplicate bag_id 'b1'"),
        ([overlap], "{p}:1: sentence 's1': head and tail spans overlap"),
        ([bag_record("b1", [], ["s1"])], "{p}:1: bag 'b1': empty labelset"),
        ([bag_record("b1", ["rel_a"], ["s1"]), missing], "{p}:2: missing field 'text'"),
        # the first fault in the file is the one raised
        ([bag_record("b1", ["rel_zz"], ["s1"]), malformed],
         "{p}:1 (bag 'b1'): unknown relation 'rel_zz'"),
        ([malformed, bag_record("b2", ["rel_zz"], ["s2"])],
         "{p}:1: head_span [5, 2) out of range"),
        ([bag_record("b1", ["rel_zz"], [])], "{p}:1 (bag 'b1'): unknown relation 'rel_zz'"),
        # fields of the wrong JSON type
        (edited(lambda r: r.update(bag_id=["B01"])), "{p}:1: malformed bag_id ['B01']"),
        (edited(lambda r: r.update(head=3)), "{p}:1: malformed head 3"),
        (edited(lambda r: r.update(relations=None)), "{p}:1: malformed relations None"),
        (edited(lambda r: r.update(relations="rel_a")), "{p}:1: malformed relations 'rel_a'"),
        (edited(lambda r: r.update(sentences=None)), "{p}:1: malformed sentences None"),
        (edited(lambda r: r.update(sentences=["s1"])), "{p}:1: malformed sentence 's1'"),
        (edited(lambda r: r["sentences"][0].update(sentence_id=7)),
         "{p}:1: malformed sentence_id 7"),
        (edited(lambda r: r["sentences"][0].update(head_span=[False, True])),
         "{p}:1: malformed head_span [False, True]"),
    ]


@pytest.mark.parametrize("records, message", invalid_bag_files())
def test_invalid_bag_file_gets_no_sidecar(tmp_path, tiny_ontology, records, message):
    path = write_records(tmp_path, "bags.jsonl", records)
    for _ in range(2):
        with pytest.raises(CorpusError) as info:
            load_bags(path, tiny_ontology)
        assert str(info.value) == message.format(p=path)
        assert not sidecar_of(path).exists()


def lax_span(record, key, text, where):
    """Span bounds as the v1 parser took them: any two ints, bools too."""
    start, end = record[key]
    return start, end


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r.update(head=3),
        lambda r: r["sentences"][0].update(head_span=[False, True]),
    ],
    ids=["int-head", "bool-head-span"],
)
def test_v1_sidecar_of_a_wrongly_typed_bag_file_is_not_read(
    tmp_path, monkeypatch, tiny_ontology, edit
):
    """A file with a field of the wrong JSON type that the v1 parser took,
    and wrote a sidecar for, is parsed again and refused."""
    record = bag_record("b1", ["rel_a"], ["s1"])
    edit(record)
    path = write_records(tmp_path, "bags.jsonl", [record])
    with monkeypatch.context() as patch:
        patch.setattr(corpus_module, "BAGS_FORMAT", "hydre.corpus.v1")
        patch.setattr(corpus_module, "_field", lambda record, key, ok, where: record[key])
        patch.setattr(corpus_module, "_span", lax_span)
        Corpus.load_bag_file(path, tiny_ontology)
        assert sidecar_of(path).exists()
        refuse_bag_parse(patch, path)
        Corpus.load_bag_file(path, tiny_ontology)  # read from the v1 sidecar
    with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}:1: malformed "):
        Corpus.load_bag_file(path, tiny_ontology)


def test_bag_sidecar_still_checks_labels_against_the_ontology(
    tmp_path, monkeypatch, tiny_ontology
):
    records = [
        bag_record("b1", ["rel_a"], ["s1"]),
        bag_record("b2", ["rel_b", "rel_c"], ["s2"]),
        bag_record("b3", ["rel_c"], ["s3"]),
    ]
    path = write_records(tmp_path, "bags.jsonl", records)
    Corpus.load_bag_file(path, tiny_ontology)
    assert sidecar_of(path).exists()
    narrower = ontology_from_names(["rel_a", "rel_b"])
    expected = f"{path}:2 (bag 'b2'): unknown relation 'rel_c'"
    with monkeypatch.context() as patch:
        refuse_bag_parse(patch, path)
        with pytest.raises(CorpusError) as hit:
            Corpus.load_bag_file(path, narrower)
    assert str(hit.value) == expected
    sidecar_of(path).unlink()
    with pytest.raises(CorpusError) as miss:
        Corpus.load_bag_file(path, narrower)
    assert str(miss.value) == expected
    assert not sidecar_of(path).exists()


def test_bag_sidecar_round_trips_every_string(tmp_path, monkeypatch, tiny_ontology):
    texts = [
        ("Ana met Bo\x00", "Ana", "Bo\x00"),  # trailing NUL
        ("X \ud800 met Yo", "\ud800", "Yo"),  # lone surrogate
        ("Zoé saw Aña", "Zoé", "Aña"),  # combining marks
        ("\U0001F600 Emoji \U00010348 met Kai", "\U00010348", "Kai"),  # non-BMP
        ("ଓଡ଼ିଆ met ᱥᱟ", "ଓଡ଼ିଆ", "ᱥᱟ"),  # Odia, Ol Chiki: whole graphemes
    ]
    records = []
    for i, (text, head_surface, tail_surface) in enumerate(texts):
        start, end = text.index(head_surface), text.rindex(tail_surface)
        head = (start, start + len(head_surface))
        tail = (end, end + len(tail_surface))
        records.append({
            "bag_id": f"b{i}\x00",
            "head": text[head[0]:head[1]],
            "tail": f"t\ud83d{i}",
            "relations": ["rel_a"],
            "sentences": [{"sentence_id": f"s{i}\udfff", "text": text,
                           "head_span": list(head), "tail_span": list(tail)}],
        })
    path = tmp_path / "bags.jsonl"
    # ensure_ascii keeps lone surrogates as escapes, which json.loads accepts
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    miss = Corpus.load_bag_file(path, tiny_ontology)
    refuse_bag_parse(monkeypatch, path)
    hit = Corpus.load_bag_file(path, tiny_ontology)
    assert_same_corpus(hit, miss)
    for record, bag in zip(records, hit.bags):
        assert bag.bag_id == record["bag_id"]
        assert (bag.head_entity, bag.tail_entity) == (record["head"], record["tail"])
        (sentence,) = bag.sentences
        raw = record["sentences"][0]
        assert sentence.sentence_id == raw["sentence_id"]
        assert sentence.text == raw["text"]
        assert [sentence.head.start, sentence.head.end] == raw["head_span"]
        assert [sentence.tail.start, sentence.tail.end] == raw["tail_span"]
        assert sentence.head.surface == raw["text"][slice(*raw["head_span"])]
        assert sentence.tail.surface == raw["text"][slice(*raw["tail_span"])]


def test_corpus_builds_no_bag_objects_on_load(tmp_path, monkeypatch, nyt_ontology):
    path = golden_bags(tmp_path)
    for _ in range(2):  # miss, then hit
        built = []
        monkeypatch.setattr(Corpus, "bag", lambda self, b: built.append(b))
        corpus = Corpus.load_bag_file(path, nyt_ontology)
        assert built == [] and "bags" not in vars(corpus)
        monkeypatch.undo()

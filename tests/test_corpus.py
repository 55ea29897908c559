from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydre.corpus import (
    Bag,
    CorpusError,
    EntitySpan,
    SentenceInstance,
    bag_records,
    builtin_ontology_path,
    index_bags_by_relation,
    load_bags,
    load_ontology,
    load_queries,
    na_fraction,
    ontology_records,
    query_records,
    write_jsonl,
)

from conftest import make_sentence, ontology_from_names
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
    assert na_fraction(bags, tiny_ontology) == 1.0


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


def test_load_queries_empty_gold_without_flag_errors(tmp_path, tiny_ontology):
    path = write_records(tmp_path, "q.jsonl", [query_record("q1", [])])
    with pytest.raises(CorpusError, match="no gold"):
        load_queries(path, tiny_ontology)


# ----------------------------------------------------------------- indexing


def test_index_by_relation_small_case(tiny_ontology):
    b1 = Bag("b1", "h", "t", (make_sentence("s1"),), frozenset({"rel_a"}))
    b2 = Bag("b2", "h", "t", (make_sentence("s2"),), frozenset({"rel_a", "rel_b"}))
    index = index_bags_by_relation([b1, b2], tiny_ontology)
    assert index == {"rel_a": ["b1", "b2"], "rel_b": ["b2"], "rel_c": []}


def test_index_by_relation_empty_corpus(tiny_ontology):
    index = index_bags_by_relation([], tiny_ontology)
    assert index == {"rel_a": [], "rel_b": [], "rel_c": []}


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
        index = index_bags_by_relation(bags, ontology)
        for relation in instance["relations"]:
            expected = [b["bag_id"] for b in instance["bags"] if relation in b["labels"]]
            assert index[relation] == expected
        # partition-by-membership in both directions
        for bag in bags:
            for relation in instance["relations"]:
                assert (bag.bag_id in index[relation]) == (relation in bag.labelset)


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

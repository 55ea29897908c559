from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydre.corpus import (
    EntitySpan,
    QueryInstance,
    SentenceInstance,
    builtin_ontology_path,
    load_ontology,
)
from hydre.prompting import (
    DEFAULT_TASK_INSTRUCTION,
    PromptError,
    PromptTemplate,
    parse_response,
    render_prompt,
    tag_entities,
)
from hydre.selection import Exemplar, ExemplarSet

from conftest import make_query, make_sentence, ontology_from_names


@pytest.fixture(scope="module")
def nyt():
    return load_ontology(builtin_ontology_path())


def simple_query():
    return make_query("q1", {"rel_a"})


def shots(*exemplars, **kwargs):
    """A selection for ``simple_query`` showing the given exemplars."""
    return ExemplarSet("q1", exemplars, **kwargs)


def exemplar(sentences, labels):
    return Exemplar(tuple(sentences), frozenset(labels), "b1")


# ---------------------------------------------------------------- rendering


def test_template_rejects_bad_tags():
    with pytest.raises(PromptError, match="distinct"):
        PromptTemplate(head_open="<X>", head_close="<X>")
    with pytest.raises(PromptError, match="nonempty"):
        PromptTemplate(tail_open="")
    with pytest.raises(ValueError, match="scope"):
        shots(relation_scope="some_of_them")


def test_zero_exemplars_renders_three_sections(tiny_ontology):
    prompt = render_prompt(simple_query(), shots(), tiny_ontology, PromptTemplate())
    sections = prompt.split("\n\n")
    assert len(sections) == 3
    assert sections[0] == DEFAULT_TASK_INSTRUCTION
    assert sections[1].splitlines()[-1].startswith("NA : ")
    assert sections[2].endswith("Output:")
    assert prompt == render_prompt(simple_query(), shots(), tiny_ontology, PromptTemplate())


def test_relation_lines_order_and_na_last(tiny_ontology):
    prompt = render_prompt(simple_query(), shots(), tiny_ontology, PromptTemplate())
    lines = prompt.split("\n\n")[1].splitlines()
    assert lines == [
        "rel_a : definition of rel_a",
        "rel_b : definition of rel_b",
        "rel_c : definition of rel_c",
        "NA : no relation from the set exists between the given entity pair",
    ]


def test_no_definitions_flag(tiny_ontology):
    template = PromptTemplate(include_definitions=False)
    prompt = render_prompt(simple_query(), shots(), tiny_ontology, template)
    lines = prompt.split("\n\n")[1].splitlines()
    assert lines == ["rel_a", "rel_b", "rel_c", "NA"]


def test_candidates_only_scope(tiny_ontology):
    template = PromptTemplate()
    candidates = (("rel_c", 0.9), ("rel_a", 0.5))
    prompt = render_prompt(
        simple_query(),
        shots(candidates=candidates, relation_scope="candidates_only"),
        tiny_ontology,
        template,
    )
    lines = prompt.split("\n\n")[1].splitlines()
    # candidate subset rendered in ontology order, NA still last
    assert lines[:-1] == [
        "rel_a : definition of rel_a",
        "rel_c : definition of rel_c",
    ]
    with pytest.raises(PromptError, match="candidate list"):
        render_prompt(
            simple_query(), shots(relation_scope="candidates_only"), tiny_ontology, template
        )
    with pytest.raises(PromptError, match="not in ontology"):
        render_prompt(
            simple_query(),
            shots(candidates=(("rel_zz", 0.5),), relation_scope="candidates_only"),
            tiny_ontology,
            template,
        )


def test_multi_label_exemplar_outputs_ontology_order(tiny_ontology):
    # hand-rendered expectation for a two-label exemplar block
    sentence = make_sentence("s1", head="Acme", tail="Jo Vance")
    selection = shots(exemplar([sentence], {"rel_c", "rel_a"}))
    prompt = render_prompt(simple_query(), selection, tiny_ontology, PromptTemplate())
    block_text = prompt.split("\n\n")[2]
    tagged = tag_entities(sentence, PromptTemplate())
    assert block_text == f"Input: {tagged}\nOutput: rel_a\nrel_c"


def test_multi_label_nyt_exemplar(nyt):
    sentence = make_sentence("s1")
    labels = {"/business/company/majorshareholders", "/business/company/founders"}
    rendered = render_prompt(
        simple_query(), shots(exemplar([sentence], labels)), nyt, PromptTemplate()
    )
    # majorshareholders precedes founders in the shipped ontology order
    assert (
        "Output: /business/company/majorshareholders\n/business/company/founders"
        in rendered
    )


def test_exemplar_block_requires_known_labels(tiny_ontology):
    selection = shots(exemplar([make_sentence("s1")], {"rel_zz"}))
    with pytest.raises(PromptError, match="rel_zz"):
        render_prompt(simple_query(), selection, tiny_ontology, PromptTemplate())


def test_na_labeled_block_renders_na_line(tiny_ontology):
    selection = shots(exemplar([make_sentence("s1")], {"NA"}))
    prompt = render_prompt(simple_query(), selection, tiny_ontology, PromptTemplate())
    assert "\nOutput: NA\n" in prompt


def test_tag_injection_preserves_text(tiny_ontology):
    template = PromptTemplate()
    sentence = make_sentence("s9", head="Leila Khan", tail="Atlas Corp")
    tagged = tag_entities(sentence, template)
    stripped = tagged
    for tag in ("<Head>", "</Head>", "<Tail>", "</Tail>"):
        stripped = stripped.replace(tag, "")
    assert stripped == sentence.text
    assert f"<Head>{sentence.head.surface}</Head>" in tagged
    assert f"<Tail>{sentence.tail.surface}</Tail>" in tagged


def test_tag_injection_tail_before_head(tiny_ontology):
    text = "In Rome spoke Bob."
    sentence = SentenceInstance(
        "s1", text, EntitySpan(14, 17, "Bob"), EntitySpan(3, 7, "Rome")
    )
    tagged = tag_entities(sentence, PromptTemplate())
    assert tagged == "In <Tail>Rome</Tail> spoke <Head>Bob</Head>."


def test_overlapping_injection_rejected():
    sentence = make_sentence("s1")
    bad = QueryInstance.__new__(QueryInstance)  # bypass validation on purpose
    object.__setattr__(bad, "query_id", "x")
    object.__setattr__(bad, "text", sentence.text)
    object.__setattr__(bad, "head", EntitySpan(0, 5, sentence.text[0:5]))
    object.__setattr__(bad, "tail", EntitySpan(3, 8, sentence.text[3:8]))
    with pytest.raises(PromptError, match="overlap"):
        tag_entities(bad, PromptTemplate())


words = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
    min_size=1,
    max_size=10,
)


@given(head=words, tail=words, mid=words)
@settings(max_examples=60)
def test_tag_strip_property(head, tail, mid):
    text = f"{head} {mid} {tail}."
    sentence = SentenceInstance(
        "s1",
        text,
        EntitySpan(0, len(head), head),
        EntitySpan(len(text) - 1 - len(tail), len(text) - 1, tail),
    )
    template = PromptTemplate()
    tagged = tag_entities(sentence, template)
    for tag in (
        template.head_open,
        template.head_close,
        template.tail_open,
        template.tail_close,
    ):
        tagged = tagged.replace(tag, "", 1)
    assert tagged == text


def test_tag_injection_counts_code_points():
    # offsets are Unicode code points, exercised with a Devanagari sentence
    text = "ओमर रेयेस ने इस्लाम के बारे में बात की।"
    head = "ओमर रेयेस"
    tail = "इस्लाम"
    sentence = SentenceInstance(
        "s1",
        text,
        EntitySpan(0, len(head), head),
        EntitySpan(text.index(tail), text.index(tail) + len(tail), tail),
    )
    template = PromptTemplate()
    tagged = tag_entities(sentence, template)
    assert tagged == (
        "<Head>ओमर रेयेस</Head> ने <Tail>इस्लाम</Tail> के बारे में बात की।"
    )
    stripped = tagged
    for tag in ("<Head>", "</Head>", "<Tail>", "</Tail>"):
        stripped = stripped.replace(tag, "")
    assert stripped == text


@given(
    labels=st.sets(
        st.sampled_from(
            [
                "/people/person/nationality",
                "/people/person/religion",
                "/business/company/founders",
                "/location/location/contains",
                "/people/person/place_lived",
                "/people/deceasedperson/place_of_death",
            ]
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=50)
def test_parse_recovers_any_rendered_output_block(labels):
    ontology = load_ontology(builtin_ontology_path())
    output_text = "Output: " + "\n".join(ontology.sorted_labels(labels))
    assert parse_response(output_text, ontology).relations == frozenset(labels)


def test_rendering_is_pure(nyt):
    sentence = make_sentence("s1")
    selection = shots(exemplar([sentence], {"/people/person/religion"}))
    args = (simple_query(), selection, nyt, PromptTemplate())
    assert render_prompt(*args) == render_prompt(*args)


def test_full_bag_block_joins_sentences_with_space(tiny_ontology):
    s1, s2 = make_sentence("s1"), make_sentence("s2", head="Kofi", tail="Accra")
    selection = shots(exemplar([s1, s2], {"rel_a"}), style="full_bag")
    prompt = render_prompt(simple_query(), selection, tiny_ontology, PromptTemplate())
    template = PromptTemplate()
    joined = f"{tag_entities(s1, template)} {tag_entities(s2, template)}"
    assert f"Input: {joined}\nOutput: rel_a" in prompt


# ------------------------------------------------------------------ parsing


def test_parse_exact_name(nyt):
    got = parse_response("/people/person/religion", nyt)
    assert got.relations == {"/people/person/religion"}


def test_parse_garbage_is_na(nyt):
    got = parse_response("I think the answer is: none of these.", nyt)
    assert got.relations == frozenset()
    assert got.is_na


def test_parse_na_dropped_next_to_relation(nyt):
    got = parse_response("NA\n/location/location/contains", nyt)
    assert got.relations == {"/location/location/contains"}


PARSE_CASES = [
    ("/people/person/religion", {"/people/person/religion"}),
    ("Output: /people/person/religion", {"/people/person/religion"}),
    (
        "/people/person/religion\n/people/person/ethnicity",
        {"/people/person/religion", "/people/person/ethnicity"},
    ),
    (
        "/business/company/founders, /business/company/majorshareholders",
        {"/business/company/founders", "/business/company/majorshareholders"},
    ),
    ("NA", set()),
    ("  NA  ", set()),
    ("NA.", set()),
    ("nothing fits", set()),
    ("I think the answer is: none of these.", set()),
    ("", set()),
    ("NA\n/location/location/contains", {"/location/location/contains"}),
    ("NA /people/person/nationality", {"/people/person/nationality"}),
    (
        "The relation is /location/country/capital.",
        {"/location/country/capital"},
    ),
    (
        "/location/region/capital is my answer",
        {"/location/region/capital"},
    ),
    (
        "duplicate /people/person/children and again /people/person/children",
        {"/people/person/children"},
    ),
    (
        "- /people/person/place_of_birth\n- /people/person/place_lived",
        {"/people/person/place_of_birth", "/people/person/place_lived"},
    ),
    ("answer: na", set()),  # NA matching is case-sensitive and token-exact
    ("NAome text", set()),
    (
        "It could be /business/person/company or maybe nothing",
        {"/business/person/company"},
    ),
    (
        "Output:\n/people/deceasedperson/place_of_death\n/people/deceasedperson/place_of_burial",
        {
            "/people/deceasedperson/place_of_death",
            "/people/deceasedperson/place_of_burial",
        },
    ),
    ("…/people/person/nationality…", {"/people/person/nationality"}),
    ("/people/person/natio", set()),  # prefixes never match
]


@pytest.mark.parametrize("raw,expected", PARSE_CASES)
def test_parse_suite(nyt, raw, expected):
    got = parse_response(raw, nyt)
    assert got.relations == frozenset(expected)


def test_parse_every_ontology_name_roundtrips(nyt):
    for name in nyt.names:
        assert parse_response(name, nyt).relations == {name}


def test_parse_render_output_roundtrip(nyt):
    # parsing an exemplar's own Output block recovers exactly its labels
    labels = {
        "/people/person/nationality",
        "/people/person/place_lived",
        "/people/person/place_of_birth",
    }
    output_text = "Output: " + "\n".join(nyt.sorted_labels(labels))
    assert parse_response(output_text, nyt).relations == frozenset(labels)


def test_parse_na_output_roundtrip(nyt):
    block_labels = ["NA"]
    output_text = "Output: " + "\n".join(block_labels)
    got = parse_response(output_text, nyt)
    assert got.relations == frozenset()
    assert got.is_na


def test_parse_token_names_without_slash():
    ontology = ontology_from_names(["rel_a", "rel_b"])
    assert parse_response("rel_a", ontology).relations == {"rel_a"}
    # without '/', names must be standalone tokens
    assert parse_response("rel_ab", ontology).relations == frozenset()
    assert parse_response("xrel_a", ontology).relations == frozenset()
    assert parse_response("rel_a rel_b", ontology).relations == {"rel_a", "rel_b"}

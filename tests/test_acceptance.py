"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <name>: PASS|FAIL` line so the suite
doubles as a checklist (`pytest -s tests/test_acceptance.py`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

import hydre.cli as cli
from hydre.baselines import (
    DEFAULT_MMR_ALPHA,
    flatten,
    mmr_select,
    topk_sim,
)
from hydre.cli import DEFAULT_CONFIG
from hydre.corpus import builtin_ontology_path, load_ontology
from hydre.evaluation import FactSet, confusion_pairs, mcnemar, recall_at_k, score
from hydre.judge import GenerationParams
from hydre.prompting import PromptTemplate, parse_response, render_prompt
from hydre.providers import ScoringConfig
from hydre.selection import (
    CorpusView,
    Exemplar,
    ExemplarSet,
    NoBagForRelation,
    build_exemplar_set,
    group_reduced,
    reduce_bag,
    select_bag,
    select_candidates,
    select_sentence,
)

from conftest import (
    FIXTURES,
    corpus_from_instance,
    embeddings_from_instance,
    make_query,
    ontology_from_names,
    scores_from_instance,
    with_duplicated_rows,
)
from oracles import (
    binom_cdf_oracle,
    candidates_oracle,
    confusion_oracle,
    exemplar_set_oracle,
    make_random_instance,
    mmr_oracle,
    recall_at_k_oracle,
    reduce_bag_oracle,
    select_bag_oracle,
    select_sentence_oracle,
    topk_oracle,
)

GOLDEN = FIXTURES / "golden"


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {name}: PASS", flush=True)


def test_algorithm1_oracle_equivalence():
    with criterion("algorithm1-oracle-equivalence"):
        start = time.monotonic()
        for seed in range(200):
            instance = make_random_instance(
                seed=seed, max_relations=10, max_bags=30, max_sentences=5
            )
            corpus = corpus_from_instance(instance)
            scores = scores_from_instance(instance)
            emb = embeddings_from_instance(instance)
            relations = instance["relations"]
            k = (seed % len(relations)) + 1
            got = build_exemplar_set(
                "q000",
                CorpusView(corpus, scores, emb),
                ScoringConfig(k=k, seed=seed),
            )
            want = exemplar_set_oracle(
                "q000",
                relations,
                instance["bags"],
                instance["scores"],
                instance["embeddings"],
                k=k,
                threshold=0.5,
            )
            assert [r for r, _ in got.candidates] == [r for r, _ in want["candidates"]]
            assert all(
                abs(gs - ws) == 0.0
                for (_, gs), (_, ws) in zip(got.candidates, want["candidates"])
            )
            assert list(got.skipped) == want["skipped"]
            assert [
                (e.candidate_relation, e.source_bag_id, e.sentence.sentence_id)
                for e in got.exemplars
            ] == [
                (w["relation"], w["bag_id"], w["sentence_id"])
                for w in want["exemplars"]
            ]
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_stage_unit_oracles():
    with criterion("stage-unit-oracles"):
        start = time.monotonic()

        # select_candidates
        checked = 0
        seed = 0
        while checked < 100:
            instance = make_random_instance(seed=20000 + seed, max_bags=2)
            seed += 1
            scores = scores_from_instance(instance)
            relations = instance["relations"]
            for k in range(1, len(relations) + 1):
                got = select_candidates("q000", scores, k)
                want = candidates_oracle(instance["scores"]["q000"], relations, k)
                assert [r for r, _ in got] == [r for r, _ in want]
                assert all(
                    abs(g - w) <= 1e-12 for (_, g), (_, w) in zip(got, want)
                )
                checked += 1

        # select_bag
        checked = 0
        seed = 0
        while checked < 100:
            instance = make_random_instance(seed=21000 + seed)
            seed += 1
            corpus = corpus_from_instance(instance)
            scores = scores_from_instance(instance)
            emb = embeddings_from_instance(instance)
            view = CorpusView(corpus, scores, emb)
            for relation in instance["relations"]:
                want = select_bag_oracle(
                    "q000", relation, instance["relations"], instance["bags"],
                    instance["scores"], instance["embeddings"], 1.0, 1.0,
                )
                if want is None:
                    with pytest.raises(NoBagForRelation):
                        select_bag("q000", relation, corpus, view, ScoringConfig())
                else:
                    assert select_bag(
                        "q000", relation, corpus, view, ScoringConfig()
                    ) == want
                checked += 1

        # select_sentence and reduce_bag
        checked_sentence = 0
        checked_reduce = 0
        seed = 0
        while checked_sentence < 200 or checked_reduce < 200:
            # each random instance, then the same one with duplicated rows
            for instance in (
                make_random_instance(seed=22000 + seed),
                with_duplicated_rows(make_random_instance(seed=22000 + seed)),
            ):
                corpus = corpus_from_instance(instance)
                scores = scores_from_instance(instance)
                for b, raw in enumerate(instance["bags"]):
                    if raw["labels"] == {"NA"}:
                        continue
                    got = select_sentence(corpus, b, scores, 0.5)
                    assert got.sentence_id == select_sentence_oracle(
                        raw, instance["relations"], instance["scores"], 0.5
                    )
                    checked_sentence += 1
                    got_pairs = [
                        (r, s.sentence_id) for r, s in reduce_bag(corpus, b, scores)
                    ]
                    assert got_pairs == reduce_bag_oracle(
                        raw, instance["relations"], instance["scores"]
                    )
                    checked_reduce += 1
            seed += 1

        # topk_sim and mmr_select
        checked = 0
        seed = 0
        while checked < 100:
            instance = make_random_instance(seed=23000 + seed)
            seed += 1
            corpus = corpus_from_instance(instance)
            emb = embeddings_from_instance(instance)
            flat = flatten(corpus)
            view = CorpusView(corpus, None, emb)
            items = [f.sentence.sentence_id for f in flat]
            k = min(5, len(flat))
            got_top = [f.sentence.sentence_id for f in topk_sim("q000", flat, view, k)]
            assert got_top == topk_oracle("q000", items, instance["embeddings"], k)
            got_mmr = [
                f.sentence.sentence_id
                for f in mmr_select("q000", flat, view, k, alpha=0.3, pool_size=None)
            ]
            assert got_mmr == mmr_oracle(
                "q000", items, instance["embeddings"], k, 0.3, None
            )
            checked += 2

        # recall_at_k
        checked = 0
        seed = 0
        while checked < 100:
            instance = make_random_instance(seed=24000 + seed, n_queries=3)
            seed += 1
            scores = scores_from_instance(instance)
            rng = random.Random(seed)
            relations = instance["relations"]
            facts = frozenset(
                (q, rng.choice(relations)) for q in instance["queries"]
            )
            gold = FactSet(facts, frozenset(instance["queries"]))
            for k in range(1, len(relations) + 1):
                got = recall_at_k(gold, scores, k)
                want = recall_at_k_oracle(facts, instance["scores"], relations, k)
                assert abs(got - want) <= 1e-12
                checked += 1

        # confusion_pairs
        ontology = ontology_from_names(["rel_a", "rel_b", "rel_c", "rel_d"])
        rng = random.Random(77)
        names = list(ontology.names)
        checked = 0
        while checked < 100:
            queries = [f"q{i}" for i in range(10)]
            gold_facts = {(q, r) for q in queries for r in names if rng.random() < 0.3}
            pred_facts = {(q, r) for q in queries for r in names if rng.random() < 0.3}
            gold = FactSet(frozenset(gold_facts), frozenset(queries))
            pred = FactSet(frozenset(pred_facts), frozenset(queries))
            ra, rb = rng.sample(names, 2)
            (row,) = confusion_pairs(gold, pred, [(ra, rb)], ontology)
            assert (
                row.a_as_a, row.a_as_b, row.b_as_a, row.b_as_b
            ) == confusion_oracle(gold_facts, pred_facts, ra, rb)
            checked += 1

        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_mmr_degeneracy():
    with criterion("mmr-degeneracy"):
        assert DEFAULT_MMR_ALPHA == 0.3
        assert DEFAULT_CONFIG["mmr"]["alpha"] == 0.3
        checked = 0
        seed = 0
        while checked < 100:
            instance = make_random_instance(seed=25000 + seed)
            seed += 1
            corpus = corpus_from_instance(instance)
            emb = embeddings_from_instance(instance)
            flat = flatten(corpus)
            view = CorpusView(corpus, None, emb)
            k = min(5, len(flat))
            mmr_set = {
                f.sentence.sentence_id
                for f in mmr_select("q000", flat, view, k, alpha=1.0, pool_size=None)
            }
            top_set = {
                f.sentence.sentence_id for f in topk_sim("q000", flat, view, k)
            }
            assert mmr_set == top_set
            checked += 1


def test_prompt_golden_files():
    with criterion("prompt-golden-files"):
        config = cli.load_config(str(GOLDEN / "e2e_config.json"), {})
        run = cli._load_run(config)
        corpus, scores, emb = run.corpus, run.scores, run.embeddings
        scoring = config.scoring()
        queries = {q.query_id: q for q in corpus.queries}

        es = build_exemplar_set("q01", CorpusView(corpus, scores, emb), scoring)
        rendered = render_prompt(queries["q01"], es, corpus.ontology, PromptTemplate())
        assert rendered == (GOLDEN / "prompt_hydre_5shot.txt").read_text()

        outcome = cli.STRATEGIES["ablation:no_icl"].select(
            "q02", cli.SelectionInputs(CorpusView(corpus, scores, emb), scoring)
        )
        rendered = render_prompt(
            queries["q02"], outcome, corpus.ontology, PromptTemplate()
        )
        assert rendered == (GOLDEN / "prompt_no_icl.txt").read_text()

        bes = build_exemplar_set(
            "q03",
            CorpusView(corpus, scores, emb),
            dataclasses.replace(scoring, k=2),
            style="reduced_bag",
        )
        rendered = render_prompt(queries["q03"], bes, corpus.ontology, PromptTemplate())
        assert rendered == (GOLDEN / "prompt_reduced_bag.txt").read_text()


def test_parser_suite():
    with criterion("parser-suite"):
        ontology = load_ontology(builtin_ontology_path())
        cases = [
            ("/people/person/religion", {"/people/person/religion"}),
            ("NA", set()),
            ("I think the answer is: none of these.", set()),
            ("NA\n/location/location/contains", {"/location/location/contains"}),
            ("", set()),
            ("Output: /people/person/religion", {"/people/person/religion"}),
            (
                "/people/person/religion\n/people/person/ethnicity",
                {"/people/person/religion", "/people/person/ethnicity"},
            ),
            (
                "/business/company/founders, /business/company/majorshareholders",
                {"/business/company/founders", "/business/company/majorshareholders"},
            ),
            ("  NA  ", set()),
            ("NA.", set()),
            ("random musings with no labels", set()),
            ("NA /people/person/nationality", {"/people/person/nationality"}),
            ("The relation is /location/country/capital.", {"/location/country/capital"}),
            ("/location/region/capital fits best", {"/location/region/capital"}),
            (
                "twice /people/person/children and /people/person/children",
                {"/people/person/children"},
            ),
            (
                "- /people/person/place_of_birth\n- /people/person/place_lived",
                {"/people/person/place_of_birth", "/people/person/place_lived"},
            ),
            ("answer: na", set()),
            ("NAome text", set()),
            ("maybe /business/person/company applies", {"/business/person/company"}),
            (
                "Output:\n/people/deceasedperson/place_of_death\n"
                "/people/deceasedperson/place_of_burial",
                {
                    "/people/deceasedperson/place_of_death",
                    "/people/deceasedperson/place_of_burial",
                },
            ),
            ("/people/person/natio", set()),
            ("…/people/person/nationality…", {"/people/person/nationality"}),
        ]
        assert len(cases) >= 20
        for raw, expected in cases:
            got = parse_response(raw, ontology)
            assert got.relations == frozenset(expected), raw
        for name in ontology.names:
            assert parse_response(name, ontology).relations == {name}


def test_metric_fixtures():
    with criterion("metric-fixtures"):
        ontology = ontology_from_names(["rel_a", "rel_b", "rel_c"])
        gold_queries = [
            make_query("q1", {"rel_a"}),
            make_query("q2", {"rel_a", "rel_b"}),
            make_query("q3", {"rel_b"}),
            make_query("q4", None),
            make_query("q5", None),
        ]
        predictions = {
            "q1": {"rel_a"},
            "q2": {"rel_a"},
            "q3": {"rel_b", "rel_c"},
            "q4": set(),
            "q5": {"rel_a"},
        }
        gold = FactSet.from_queries(gold_queries)
        report = score(gold, FactSet.from_predictions(predictions, ontology), ontology)
        assert abs(report.micro_f1 - 2 / 3) < 1e-9
        assert abs(report.macro_f1 - 11 / 15) < 1e-9

        perfect = score(
            gold,
            FactSet.from_predictions(
                {q.query_id: set(q.gold) for q in gold_queries}, ontology
            ),
            ontology,
        )
        assert perfect.micro_f1 == 1.0 and perfect.macro_f1 == 1.0

        for seed in range(20):
            instance = make_random_instance(seed=26000 + seed, n_queries=3)
            scores = scores_from_instance(instance)
            rng = random.Random(seed)
            relations = instance["relations"]
            facts = frozenset((q, rng.choice(relations)) for q in instance["queries"])
            gold = FactSet(facts, frozenset(instance["queries"]))
            previous = 0.0
            for k in range(1, len(relations) + 1):
                value = recall_at_k(gold, scores, k)
                assert value >= previous
                previous = value
            assert previous == 1.0


def test_mcnemar_criterion():
    with criterion("mcnemar"):
        paired = [(True, False)] * 15 + [(False, True)] * 5 + [(True, True)] * 30
        result = mcnemar(paired)
        assert result.statistic == 4.05
        expected_p = 2.0 * min(binom_cdf_oracle(5, 20), 0.5)
        assert abs(result.p_value - expected_p) < 1e-9


def test_reduced_bag_economy():
    with criterion("reduced-bag-economy"):
        strictly_smaller = 0
        checked = 0
        seed = 0
        while checked < 100:
            instance = make_random_instance(seed=27000 + seed, max_sentences=5)
            seed += 1
            corpus = corpus_from_instance(instance)
            scores = scores_from_instance(instance)
            template = PromptTemplate()
            query = make_query("probe", {instance["relations"][0]})
            for b, (raw, bag) in enumerate(zip(instance["bags"], corpus.bags)):
                if raw["labels"] == {"NA"}:
                    continue
                full = Exemplar(bag.sentences, bag.labelset, bag.bag_id)
                reduced_sentences = tuple(
                    s for s, _ in group_reduced(reduce_bag(corpus, b, scores))
                )
                reduced = Exemplar(reduced_sentences, bag.labelset, bag.bag_id)
                full_prompt = render_prompt(
                    query,
                    ExemplarSet("probe", (full,), style="full_bag"),
                    corpus.ontology,
                    template,
                )
                reduced_prompt = render_prompt(
                    query,
                    ExemplarSet("probe", (reduced,), style="reduced_bag"),
                    corpus.ontology,
                    template,
                )
                full_tokens = len(full_prompt.split())
                reduced_tokens = len(reduced_prompt.split())
                assert reduced_tokens <= full_tokens
                if reduced_tokens < full_tokens:
                    strictly_smaller += 1
                checked += 1
                if checked >= 100:
                    break
        assert strictly_smaller > 0  # the reduction does save tokens somewhere


def test_e2e_replay_determinism(tmp_path, monkeypatch):
    with criterion("e2e-replay-determinism"):
        def refuse(*args, **kwargs):
            raise AssertionError("live backend constructed during replay")

        monkeypatch.setattr(cli, "HttpChatBackend", refuse)
        start = time.monotonic()
        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            for command in ("validate", "select", "run"):
                code = cli.main(
                    ["--config", str(GOLDEN / "e2e_config.json"),
                     "--output", str(out), command]
                )
                assert code == 0, command
            code = cli.main(
                ["--config", str(GOLDEN / "e2e_config.json"), "--output", str(out),
                 "eval", str(out / "predictions.jsonl")]
            )
            assert code == 0
            outputs.append(out)
        elapsed = time.monotonic() - start
        compared = [
            "selections.jsonl",
            "prompts.jsonl",
            "predictions.jsonl",
            "report.json",
            "per_relation.csv",
            "confusion_pairs.csv",
            "summary.txt",
        ]
        for name in compared:
            a = (outputs[0] / name).read_bytes()
            b = (outputs[1] / name).read_bytes()
            assert a == b, f"{name} differs between runs"
        predictions = [
            json.loads(line)
            for line in (outputs[0] / "predictions.jsonl").read_text().splitlines()
        ]
        assert len(predictions) == 20
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_make_golden_regenerates_the_committed_fixtures(tmp_path):
    """``python tests/fixtures/golden/make_golden.py``, run from a copy of
    the checkout's layout, writes every fixture byte-equal to the committed
    one. The copy's ``src`` links to the checkout's, which both the script's
    import path and the config's ontology path go through. The ``*.hydre.bin``
    files are the loaders' parse caches, which record the copies' stat
    records."""
    golden = tmp_path / "tests" / "fixtures" / "golden"
    golden.mkdir(parents=True)
    shutil.copy(GOLDEN / "make_golden.py", golden)
    (tmp_path / "src").symlink_to(GOLDEN.parents[2] / "src", target_is_directory=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(
        [sys.executable, "tests/fixtures/golden/make_golden.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    written = sorted(
        p.name for p in golden.iterdir()
        if p.name != "make_golden.py" and not p.name.endswith(".hydre.bin")
    )
    assert written == [
        "bags.jsonl", "e2e_config.json", "embeddings.jsonl",
        "queries.jsonl", "replay_cache.jsonl", "scores.jsonl",
    ]
    differ = [n for n in written if (golden / n).read_bytes() != (GOLDEN / n).read_bytes()]
    assert differ == [], f"regenerated fixtures differ from the committed ones: {differ}"


def test_defaults_conformance():
    with criterion("defaults-conformance"):
        scoring = ScoringConfig()
        assert scoring.k == 5
        assert scoring.threshold == 0.5
        params = GenerationParams()
        assert params.temperature == 0.0
        assert params.max_input_tokens == 2048
        assert params.max_output_tokens == 256
        assert DEFAULT_CONFIG["scoring"]["k"] == 5
        assert DEFAULT_CONFIG["scoring"]["threshold"] == 0.5
        assert DEFAULT_CONFIG["generation"]["temperature"] == 0.0
        assert DEFAULT_CONFIG["generation"]["max_input_tokens"] == 2048
        assert DEFAULT_CONFIG["generation"]["max_output_tokens"] == 256
        assert DEFAULT_CONFIG["mmr"]["alpha"] == 0.3

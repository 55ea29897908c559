from __future__ import annotations

import random

import numpy as np
import pytest

from hydre.evaluation import (
    EXACT_BINOMIAL_THRESHOLD,
    FactSet,
    confusion_pairs,
    mcnemar,
    pair_reports,
    recall_at_k,
    recall_curve,
    score,
)
from hydre.providers import ScoreMatrix

from conftest import make_query, ontology_from_names
from oracles import (
    binom_cdf_oracle,
    confusion_oracle,
    make_random_instance,
    micro_macro_oracle,
    recall_at_k_oracle,
)

ONT = ontology_from_names(["rel_a", "rel_b", "rel_c"])


def facts(pairs):
    return FactSet(frozenset(pairs), frozenset(q for q, _ in pairs))


def query_set(gold_by_query):
    return [make_query(q, g) for q, g in gold_by_query.items()]


# -------------------------------------------------------------------- score


def test_perfect_prediction_scores_one():
    queries = query_set({"q1": {"rel_a"}, "q2": {"rel_b", "rel_c"}, "q3": None})
    gold = FactSet.from_queries(queries)
    pred = FactSet.from_predictions(
        {"q1": {"rel_a"}, "q2": {"rel_b", "rel_c"}, "q3": set()}, ONT
    )
    report = score(gold, pred, ONT)
    assert report.micro_f1 == 1.0
    assert report.macro_f1 == 1.0


def test_one_false_positive_formula():
    queries = query_set({"q1": {"rel_a"}})
    gold = FactSet.from_queries(queries)
    pred = FactSet.from_predictions({"q1": {"rel_a", "rel_b"}}, ONT)
    report = score(gold, pred, ONT)
    assert report.micro_precision == pytest.approx(0.5)
    assert report.micro_recall == pytest.approx(1.0)
    assert report.micro_f1 == pytest.approx(2 / 3)


# Hand-computed five-query fixture:
#   q1 gold {a}      pred {a}      -> TP a
#   q2 gold {a, b}   pred {a}      -> TP a, FN b
#   q3 gold {b}      pred {b, c}   -> TP b, FP c
#   q4 gold NA       pred {}       -> nothing
#   q5 gold NA       pred {a}      -> FP a
# pooled: TP=3 FP=2 FN=1 -> micro P=3/5 R=3/4 F1=2/3
# rel_a: TP=2 FP=1 FN=0 -> F1=0.8 ; rel_b: TP=1 FP=0 FN=1 -> F1=2/3
# rel_c: support 0, excluded       -> macro = (0.8 + 2/3)/2 = 11/15
FIVE_QUERY_GOLD = {"q1": {"rel_a"}, "q2": {"rel_a", "rel_b"}, "q3": {"rel_b"}, "q4": None, "q5": None}
FIVE_QUERY_PRED = {"q1": {"rel_a"}, "q2": {"rel_a"}, "q3": {"rel_b", "rel_c"}, "q4": set(), "q5": {"rel_a"}}


def five_query_report():
    gold = FactSet.from_queries(query_set(FIVE_QUERY_GOLD))
    pred = FactSet.from_predictions(FIVE_QUERY_PRED, ONT)
    return score(gold, pred, ONT)


def test_five_query_fixture_exact_values():
    report = five_query_report()
    assert report.micro_f1 == pytest.approx(2 / 3, abs=1e-9)
    assert report.macro_f1 == pytest.approx(11 / 15, abs=1e-9)
    assert report.micro_precision == pytest.approx(0.6, abs=1e-9)
    assert report.micro_recall == pytest.approx(0.75, abs=1e-9)
    assert report.n_queries == 5
    assert report.n_gold_facts == 4
    rel_a = report.per_relation["rel_a"]
    assert (rel_a.precision, rel_a.recall, rel_a.support) == pytest.approx((2 / 3, 1.0, 2))
    assert rel_a.f1 == pytest.approx(0.8, abs=1e-9)
    rel_b = report.per_relation["rel_b"]
    assert rel_b.f1 == pytest.approx(2 / 3, abs=1e-9)
    assert rel_b.support == 2
    assert report.per_relation["rel_c"].support == 0
    support_total = sum(r.support for r in report.per_relation.values())
    assert support_total == report.n_gold_facts


def test_all_na_gold_predicted_na_is_vacuously_perfect():
    queries = query_set({"q1": None, "q2": None})
    gold = FactSet.from_queries(queries)
    pred = FactSet.from_predictions({"q1": set(), "q2": set()}, ONT)
    report = score(gold, pred, ONT)
    assert report.micro_f1 == 1.0
    assert report.macro_f1 == 1.0
    assert report.n_gold_facts == 0
    # untouched relations report zeros, not vacuous ones
    assert report.per_relation["rel_a"].f1 == 0.0


def test_na_query_with_predictions_counts_false_positives():
    queries = query_set({"q1": None})
    gold = FactSet.from_queries(queries)
    pred = FactSet.from_predictions({"q1": {"rel_a"}}, ONT)
    report = score(gold, pred, ONT)
    assert report.micro_f1 == 0.0
    assert report.n_gold_facts == 0


def test_unknown_query_rejected():
    gold = FactSet.from_queries(query_set({"q1": {"rel_a"}}))
    pred = FactSet.from_predictions({"q9": {"rel_a"}}, ONT)
    with pytest.raises(ValueError, match="unknown queries"):
        score(gold, pred, ONT)


def test_prediction_with_na_symbol_rejected():
    with pytest.raises(ValueError, match="NA"):
        FactSet.from_predictions({"q1": {"NA"}}, ONT)


def test_score_permutation_invariant():
    queries = query_set(FIVE_QUERY_GOLD)
    shuffled = list(queries)
    random.Random(3).shuffle(shuffled)
    a = score(FactSet.from_queries(queries), FactSet.from_predictions(FIVE_QUERY_PRED, ONT), ONT)
    b = score(FactSet.from_queries(shuffled), FactSet.from_predictions(FIVE_QUERY_PRED, ONT), ONT)
    assert a == b


def test_score_matches_brute_force_on_random_cases():
    rng = random.Random(9)
    relations = ["rel_a", "rel_b", "rel_c"]
    for _ in range(50):
        gold_by_query = {}
        pred_by_query = {}
        for i in range(rng.randint(1, 10)):
            q = f"q{i}"
            gold_by_query[q] = set(rng.sample(relations, rng.randint(0, 3))) or None
            pred_by_query[q] = set(rng.sample(relations, rng.randint(0, 3)))
        gold = FactSet.from_queries(query_set(gold_by_query))
        pred = FactSet.from_predictions(pred_by_query, ONT)
        report = score(gold, pred, ONT)
        micro, macro = micro_macro_oracle(gold.facts, pred.facts, relations)
        assert report.micro_f1 == pytest.approx(micro, abs=1e-12)
        assert report.macro_f1 == pytest.approx(macro, abs=1e-12)
        # ones iff predicted facts equal gold facts
        both_one = report.micro_f1 == 1.0 and report.macro_f1 == 1.0
        assert both_one == (gold.facts == pred.facts)


# -------------------------------------------------------------- recall_at_k


def score_matrix(instance):
    return ScoreMatrix(
        tuple(instance["relations"]),
        {k: np.asarray(v) for k, v in instance["scores"].items()},
    )


def test_recall_at_full_k_is_one():
    instance = make_random_instance(seed=70, n_queries=5)
    relations = instance["relations"]
    matrix = score_matrix(instance)
    gold = facts([(q, random.Random(q).choice(relations)) for q in instance["queries"]])
    assert recall_at_k(gold, matrix, len(relations)) == 1.0


def test_recall_rank_six_at_k5_is_zero():
    relations = [f"rel_{c}" for c in "abcdefg"]
    row = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3]
    matrix = ScoreMatrix(tuple(relations), {"q1": np.asarray(row)})
    gold = facts([("q1", "rel_f")])  # ranked 6th
    assert recall_at_k(gold, matrix, 5) == 0.0
    assert recall_at_k(gold, matrix, 6) == 1.0


def test_recall_matches_oracle_and_is_monotone():
    for trial in range(20):
        instance = make_random_instance(seed=7100 + trial, n_queries=4)
        relations = instance["relations"]
        matrix = score_matrix(instance)
        rng = random.Random(trial)
        gold = facts(
            [
                (q, rng.choice(relations))
                for q in instance["queries"]
                for _ in range(rng.randint(1, 2))
            ]
        )
        previous = 0.0
        for k in range(1, len(relations) + 1):
            got = recall_at_k(gold, matrix, k)
            want = recall_at_k_oracle(gold.facts, instance["scores"], relations, k)
            assert got == pytest.approx(want, abs=1e-12)
            assert got >= previous
            previous = got
        assert previous == 1.0 or recall_at_k(gold, matrix, len(relations)) == 1.0


def test_recall_unscored_query_errors():
    matrix = ScoreMatrix(("rel_a",), {})
    from hydre.providers import ProviderError

    with pytest.raises(ProviderError):
        recall_at_k(facts([("q1", "rel_a")]), matrix, 1)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("pairs", [[], [("q1", "rel_a")]])
def test_recall_at_k_refuses_k_below_one_with_or_without_gold_facts(pairs, k):
    """k is checked first: gold with no facts does not make k = 0 valid."""
    matrix = ScoreMatrix(("rel_a",), {"q1": np.array([0.5])})
    with pytest.raises(ValueError, match="k must be >= 1"):
        recall_at_k(facts(pairs), matrix, k)


# ------------------------------------------------------------------ mcnemar


def bits(b, c, both_right=10, both_wrong=3):
    rows = []
    rows += [(True, True)] * both_right
    rows += [(False, False)] * both_wrong
    rows += [(True, False)] * b
    rows += [(False, True)] * c
    return rows


def test_mcnemar_statistic_exact():
    result = mcnemar(bits(15, 5))
    assert result.statistic == 4.05  # (|15-5|-1)^2 / 20
    assert result.b == 15 and result.c == 5
    assert result.method == "exact-binomial"  # b+c = 20 < 25


def test_mcnemar_exact_binomial_matches_oracle():
    result = mcnemar(bits(15, 5))
    expected = 2.0 * min(binom_cdf_oracle(5, 20), 0.5)
    assert result.p_value == pytest.approx(expected, abs=1e-9)


def test_mcnemar_symmetric_counts():
    result = mcnemar(bits(12, 12))
    assert result.statistic == pytest.approx(1.0 / 24)
    assert result.p_value >= 0.5


def test_mcnemar_swap_invariance():
    rows = bits(17, 4)
    swapped = [(b, a) for a, b in rows]
    r1, r2 = mcnemar(rows), mcnemar(swapped)
    assert r1.statistic == r2.statistic
    assert r1.p_value == r2.p_value


def test_mcnemar_degenerate():
    result = mcnemar(bits(0, 0))
    assert (result.statistic, result.p_value) == (0.0, 1.0)
    assert result.method == "degenerate"


def test_mcnemar_chi2_branch():
    result = mcnemar(bits(40, 10))
    assert result.method == "chi2"
    assert result.statistic == pytest.approx((abs(40 - 10) - 1) ** 2 / 50)
    # chi-square tail for 16.82 at 1 dof is well below 1e-3
    assert result.p_value < 1e-3
    assert 40 + 10 >= EXACT_BINOMIAL_THRESHOLD


def test_pair_reports_aligns_by_fact():
    gold_queries = query_set({"q1": {"rel_a"}, "q2": {"rel_b"}})
    gold = FactSet.from_queries(gold_queries)
    report_a = score(gold, FactSet.from_predictions({"q1": {"rel_a"}, "q2": set()}, ONT), ONT)
    report_b = score(gold, FactSet.from_predictions({"q1": set(), "q2": {"rel_b"}}, ONT), ONT)
    paired = pair_reports(report_a, report_b)
    assert paired == [(True, False), (False, True)]
    result = mcnemar(paired)
    assert result.b == result.c == 1


def test_identical_systems_give_p_one():
    gold = FactSet.from_queries(query_set({"q1": {"rel_a"}, "q2": {"rel_b"}}))
    pred = FactSet.from_predictions({"q1": {"rel_a"}, "q2": set()}, ONT)
    report = score(gold, pred, ONT)
    result = mcnemar(pair_reports(report, report))
    assert result.p_value == 1.0


# ---------------------------------------------------------- confusion pairs


def test_confusion_diagonal_only():
    gold = facts([("q1", "rel_a"), ("q2", "rel_a")])
    pred = facts([("q1", "rel_a"), ("q2", "rel_a")])
    (row,) = confusion_pairs(gold, pred, [("rel_a", "rel_b")], ONT)
    assert (row.a_as_a, row.a_as_b, row.b_as_a, row.b_as_b) == (2, 0, 0, 0)


def test_confusion_single_swap():
    gold = facts([("q1", "rel_a")])
    pred = facts([("q1", "rel_b")])
    (row,) = confusion_pairs(gold, pred, [("rel_a", "rel_b")], ONT)
    assert (row.a_as_a, row.a_as_b, row.b_as_a, row.b_as_b) == (0, 1, 0, 0)


def test_confusion_unknown_relation_errors():
    gold = facts([("q1", "rel_a")])
    with pytest.raises(ValueError, match="unknown relation"):
        confusion_pairs(gold, gold, [("rel_a", "rel_zz")], ONT)


def test_confusion_matches_counting_oracle():
    rng = random.Random(5)
    relations = ["rel_a", "rel_b", "rel_c"]
    for _ in range(30):
        queries = [f"q{i}" for i in range(8)]
        gold_pairs = {
            (q, r) for q in queries for r in relations if rng.random() < 0.4
        }
        pred_pairs = {
            (q, r) for q in queries for r in relations if rng.random() < 0.4
        }
        gold, pred = facts(list(gold_pairs) or [("q0", "rel_a")]), facts(
            list(pred_pairs) or [("q0", "rel_b")]
        )
        for ra in relations:
            for rb in relations:
                if ra == rb:
                    continue
                (row,) = confusion_pairs(gold, pred, [(ra, rb)], ONT)
                want = confusion_oracle(gold.facts, pred.facts, ra, rb)
                assert (row.a_as_a, row.a_as_b, row.b_as_a, row.b_as_b) == want


# ----------------------------------------------------- oracle property test


def random_eval_instance(seed):
    """Gold and predicted facts plus a score row per query over a random
    ontology. Seeds cycle through all-NA gold, empty predictions, both, and
    mixed instances; gold is multi-label, some relations have no support, and
    scores come from a few values so that ties are common."""
    rng = random.Random(seed)
    all_na, no_predictions = seed % 5 in (0, 2), seed % 5 in (1, 2)
    relations = [f"rel_{chr(ord('a') + i)}" for i in range(rng.randint(1, 8))]
    queries = [f"q{i:02d}" for i in range(rng.randint(1, 12))]
    # a relation outside ``supported`` never occurs in gold
    supported = rng.sample(relations, rng.randint(1, len(relations)))
    gold_by_query = {}
    pred_by_query = {}
    for q in queries:
        if all_na or rng.random() < 0.25:
            gold_by_query[q] = None  # NA
        else:
            gold_by_query[q] = set(rng.sample(supported, rng.randint(1, min(3, len(supported)))))
        if no_predictions:
            pred_by_query[q] = set()
        else:
            pred_by_query[q] = set(rng.sample(relations, rng.randint(0, min(3, len(relations)))))
    levels = [0.0, 0.25, 0.5, 0.75, 1.0]
    scores = {q: [rng.choice(levels) for _ in relations] for q in queries}
    return relations, gold_by_query, pred_by_query, scores


@pytest.mark.parametrize("seed", range(200))
def test_eval_matches_oracles_on_random_instances(seed):
    relations, gold_by_query, pred_by_query, rows = random_eval_instance(seed)
    ontology = ontology_from_names(relations)
    gold = FactSet.from_queries(query_set(gold_by_query))
    pred = FactSet.from_predictions(pred_by_query, ontology)

    report = score(gold, pred, ontology)
    assert (report.micro_f1, report.macro_f1) == micro_macro_oracle(
        gold.facts, pred.facts, relations
    )
    assert report.n_gold_facts == len(gold.facts)
    for name, rs in report.per_relation.items():
        gold_r = {f for f in gold.facts if f[1] == name}
        pred_r = {f for f in pred.facts if f[1] == name}
        assert rs.support == len(gold_r)
        if gold_r or pred_r:
            assert rs.f1 == micro_macro_oracle(gold_r, pred_r, [name])[0]
        else:
            assert (rs.precision, rs.recall, rs.f1) == (0.0, 0.0, 0.0)

    pairs = [(ra, rb) for ra in relations for rb in relations if ra != rb]
    got = confusion_pairs(gold, pred, pairs, ontology)
    assert [(row.relation_a, row.relation_b) for row in got] == pairs
    for row in got:
        want = confusion_oracle(gold.facts, pred.facts, row.relation_a, row.relation_b)
        assert (row.a_as_a, row.a_as_b, row.b_as_a, row.b_as_b) == want

    matrix = ScoreMatrix(tuple(relations), {q: np.asarray(r) for q, r in rows.items()})
    curve = recall_curve(gold, matrix)
    assert len(curve) == len(relations)
    for k in range(1, len(relations) + 2):
        want = recall_at_k_oracle(gold.facts, rows, relations, k)
        assert recall_at_k(gold, matrix, k) == want
        if k <= len(relations):
            assert curve[k - 1] == want

"""Independent brute-force oracles.

Everything here works on primitive dicts/lists and plain Python loops so
the implementations under test are cross-checked by a second, separately
written path. Keep this module free of hydre imports.

Primitive corpus shape used throughout:
  relations: list[str]                       (ontology order)
  bags: list of {"bag_id": str, "labels": set[str],
                 "sentences": [{"sentence_id": str}, ...]}
  scores: dict[item_id -> list[float]]       (one score per relation)
  embeddings: dict[item_id -> list[float]]
"""

from __future__ import annotations

import math
import random


def mapped_cosine(u, v):
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return (1.0 + dot / (nu * nv)) / 2.0


def candidates_oracle(score_row, relations, k):
    """Sort-then-truncate with ontology-index tie break."""
    ranked = sorted(
        range(len(relations)), key=lambda i: (-score_row[i], i)
    )
    return [(relations[i], score_row[i]) for i in ranked[:k]]


def bag_similarity_oracle(q_vec, bag, embeddings, pooling="max"):
    sims = [
        mapped_cosine(q_vec, embeddings[s["sentence_id"]]) for s in bag["sentences"]
    ]
    return sum(sims) / len(sims) if pooling == "mean" else max(sims)


def bag_confidence_oracle(bag, r_index, scores):
    return max(scores[s["sentence_id"]][r_index] for s in bag["sentences"])


def combined_score_oracle(q_id, bag, r_index, scores, embeddings, w_sim, w_conf, pooling="max"):
    total = 0.0
    if w_sim > 0:
        total += w_sim * bag_similarity_oracle(embeddings[q_id], bag, embeddings, pooling)
    if w_conf > 0:
        total += w_conf * bag_confidence_oracle(bag, r_index, scores)
    return total


def select_bag_oracle(q_id, relation, relations, bags, scores, embeddings, w_sim, w_conf, pooling="max"):
    """Scan every bag holding the relation; strict improvement keeps the
    earliest bag on ties. Returns None when no bag has the relation."""
    r_index = relations.index(relation)
    best_id = None
    best = None
    for bag in bags:
        if relation not in bag["labels"]:
            continue
        total = combined_score_oracle(
            q_id, bag, r_index, scores, embeddings, w_sim, w_conf, pooling
        )
        if best is None or total > best:
            best_id, best = bag["bag_id"], total
    return best_id


def select_sentence_oracle(bag, relations, scores, threshold):
    """Two passes: max coverage, then max aggregate confidence, a left fold
    of the label scores in label-name order."""
    label_indexes = [relations.index(r) for r in sorted(bag["labels"])]
    coverages = []
    aggregates = []
    for s in bag["sentences"]:
        row = scores[s["sentence_id"]]
        coverages.append(sum(1 for i in label_indexes if row[i] > threshold))
        aggregate = 0.0
        for i in label_indexes:
            aggregate += row[i]
        aggregates.append(aggregate)
    vmax = max(coverages)
    best = None
    best_agg = None
    for s, cov, agg in zip(bag["sentences"], coverages, aggregates):
        if cov != vmax:
            continue
        if best_agg is None or agg > best_agg:
            best, best_agg = s["sentence_id"], agg
    return best


def exemplar_set_oracle(
    q_id, relations, bags, scores, embeddings, k, threshold, w_sim=1.0, w_conf=1.0, pooling="max"
):
    """Full pipeline: candidates, bag per candidate, sentence per bag, then
    ascending candidate-score order (ties keep the higher-ranked candidate
    later, i.e. sort by (score, -candidate_rank))."""
    candidates = candidates_oracle(scores[q_id], relations, k)
    rows = []
    skipped = []
    for rank, (relation, score) in enumerate(candidates):
        bag_id = select_bag_oracle(
            q_id, relation, relations, bags, scores, embeddings, w_sim, w_conf, pooling
        )
        if bag_id is None:
            skipped.append(relation)
            continue
        bag = next(b for b in bags if b["bag_id"] == bag_id)
        sentence_id = select_sentence_oracle(bag, relations, scores, threshold)
        rows.append((rank, relation, score, bag_id, sentence_id))
    ordered = sorted(rows, key=lambda row: (row[2], -row[0]))
    return {
        "candidates": candidates,
        "skipped": skipped,
        "exemplars": [
            {"relation": r, "score": s, "bag_id": b, "sentence_id": sid}
            for _, r, s, b, sid in ordered
        ],
    }


def reduce_bag_oracle(bag, relations, scores):
    """Per bag label (ontology order): the first sentence with max score."""
    pairs = []
    for i, relation in enumerate(relations):
        if relation not in bag["labels"]:
            continue
        best = None
        best_score = None
        for s in bag["sentences"]:
            value = scores[s["sentence_id"]][i]
            if best_score is None or value > best_score:
                best, best_score = s["sentence_id"], value
        pairs.append((relation, best))
    return pairs


def topk_oracle(q_id, items, embeddings, k):
    """items: list of sentence_ids in corpus order."""
    q = embeddings[q_id]
    ranked = sorted(
        range(len(items)),
        key=lambda i: (-mapped_cosine(q, embeddings[items[i]]), i),
    )
    return [items[i] for i in ranked[:k]]


def mmr_oracle(q_id, items, embeddings, k, alpha, pool_size):
    """Recompute the greedy objective exhaustively at every step."""
    q = embeddings[q_id]
    rel = [mapped_cosine(q, embeddings[i]) for i in items]
    ranked = sorted(range(len(items)), key=lambda i: (-rel[i], i))
    pool = ranked if pool_size is None else ranked[:pool_size]
    chosen = []
    remaining = list(pool)
    while len(chosen) < k:
        best = None
        best_obj = None
        for i in remaining:
            obj = alpha * rel[i]
            if chosen:
                obj -= (1 - alpha) * max(
                    mapped_cosine(embeddings[items[i]], embeddings[items[j]])
                    for j in chosen
                )
            if best_obj is None or obj > best_obj:
                best, best_obj = i, obj
        chosen.append(best)
        remaining.remove(best)
    return [items[i] for i in chosen]


def recall_at_k_oracle(gold_facts, scores, relations, k):
    """gold_facts: iterable of (query_id, relation)."""
    gold_facts = list(gold_facts)
    if not gold_facts:
        return 1.0
    hits = 0
    for q_id, relation in gold_facts:
        row = scores[q_id]
        ranked = sorted(range(len(relations)), key=lambda i: (-row[i], i))
        top = {relations[i] for i in ranked[:k]}
        if relation in top:
            hits += 1
    return hits / len(gold_facts)


def confusion_oracle(gold_facts, pred_facts, ra, rb):
    gold_facts = set(gold_facts)
    pred_facts = set(pred_facts)

    def cell(gr, pr):
        return sum(1 for q, r in gold_facts if r == gr and (q, pr) in pred_facts)

    return (cell(ra, ra), cell(ra, rb), cell(rb, ra), cell(rb, rb))


def binom_cdf_oracle(m, n):
    """P(X <= m) for X ~ Binomial(n, 1/2) by direct pmf summation."""
    total = 0.0
    for i in range(m + 1):
        total += math.comb(n, i) * 0.5**i * 0.5 ** (n - i)
    return total


def micro_macro_oracle(gold_facts, pred_facts, relations):
    """Pooled and per-relation P/R/F1 the long way."""
    gold_facts = set(gold_facts)
    pred_facts = set(pred_facts)
    tp = len(gold_facts & pred_facts)
    fp = len(pred_facts - gold_facts)
    fn = len(gold_facts - pred_facts)

    def f1(tp, fp, fn):
        if tp == fp == fn == 0:
            return 1.0
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        return 2 * p * r / (p + r) if p + r else 0.0

    micro = f1(tp, fp, fn)
    per = []
    for rel in relations:
        g = {f for f in gold_facts if f[1] == rel}
        p = {f for f in pred_facts if f[1] == rel}
        if g:
            per.append(f1(len(g & p), len(p - g), len(g - p)))
    macro = sum(per) / len(per) if per else (1.0 if not pred_facts else 0.0)
    return micro, macro


def make_random_instance(
    seed,
    max_relations=10,
    max_bags=30,
    max_sentences=5,
    dim=8,
    n_queries=1,
    na_bag_rate=0.1,
):
    """A random primitive corpus with score rows and unit embeddings."""
    rng = random.Random(seed)
    n_relations = rng.randint(2, max_relations)
    relations = [f"rel_{chr(ord('a') + i)}" for i in range(n_relations)]
    bags = []
    sentence_counter = 0
    scores = {}
    embeddings = {}

    def unit_vector():
        vec = [rng.gauss(0, 1) for _ in range(dim)]
        norm = math.sqrt(sum(v * v for v in vec))
        return [v / norm for v in vec]

    n_bags = rng.randint(1, max_bags)
    for b in range(n_bags):
        n_sentences = rng.randint(1, max_sentences)
        sentences = []
        for _ in range(n_sentences):
            sid = f"s{sentence_counter:04d}"
            sentence_counter += 1
            sentences.append({"sentence_id": sid})
            scores[sid] = [rng.random() for _ in relations]
            embeddings[sid] = unit_vector()
        if rng.random() < na_bag_rate:
            labels = {"NA"}
        else:
            n_labels = rng.randint(1, min(3, n_relations))
            labels = set(rng.sample(relations, n_labels))
        bags.append({"bag_id": f"b{b:03d}", "labels": labels, "sentences": sentences})
    queries = []
    for qi in range(n_queries):
        q_id = f"q{qi:03d}"
        queries.append(q_id)
        scores[q_id] = [rng.random() for _ in relations]
        embeddings[q_id] = unit_vector()
    return {
        "relations": relations,
        "bags": bags,
        "scores": scores,
        "embeddings": embeddings,
        "queries": queries,
        "rng": rng,
    }

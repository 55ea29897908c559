"""Seeded synthetic inputs for the hydre benchmark.

Grown from ``tests/oracles.make_random_instance`` (random unit embeddings,
uniform score rows, NA bags) and ``tests/fixtures/golden/make_golden.py``
(formulaic sentences, relation-shaped scores, gold-derived judge answers),
scaled up to the shipped 24-relation NYT-10m ontology. Nothing is
downloaded.

Files written into the target directory:

  ontology.jsonl    copy of the shipped ontology
  bags.jsonl        bags of 1-4 sentences; ~70% labelled with 1-3 relations
  queries.jsonl     test queries; ~80% with 1-2 gold relations, rest NA
  scores.jsonl      relation_order manifest, then one row per query/sentence
  embeddings.jsonl  one vector per query/sentence (dim 256, 6 decimals)
  responses.jsonl   the judge's answer per query: gold labels plus seeded
                    noise, in the phrasings the golden replay cache uses

The same (seed, n_bags, n_queries, dim) always gives byte-identical files.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import numpy as np

LABELLED_BAG_RATE = 0.7
LABELS_PER_BAG = ((1, 0.70), (2, 0.22), (3, 0.08))
SENTENCES_PER_BAG = (1, 4)
NA_QUERY_RATE = 0.2

FIRST = (
    "Ada", "Bruno", "Chen", "Dara", "Elif", "Farid", "Greta", "Hugo", "Ines",
    "Jonas", "Kemal", "Lina", "Marek", "Nadia", "Omar", "Priya", "Quinn",
    "Rosa", "Sven", "Tamar", "Umar", "Vera", "Wen", "Yara", "Zoran",
)
LAST = (
    "Abbott", "Baker", "Castillo", "Dubois", "Eriksen", "Fischer", "Garcia",
    "Haddad", "Ivanova", "Jensen", "Kowalski", "Lindqvist", "Moreau", "Novak",
    "Okafor", "Petrov", "Quispe", "Rossi", "Sato", "Tanaka", "Urban", "Varga",
)
PLACES = (
    "Lima", "Oslo", "Kyoto", "Accra", "Quito", "Porto", "Leeds", "Dakar",
    "Perth", "Turin", "Hanoi", "Tunis", "Cork", "Riga", "Split", "Malmo",
    "Bergen", "Ghent", "Lyon", "Graz", "Kenya", "Peru", "Chile", "Nepal",
)
ORGS = (
    "Helix Labs", "Vantor Group", "Nordane", "Opera Nacional", "Corvid Press",
    "Alta Mining", "Brightwater", "Kestrel Air", "Lumen Bank", "Mosaic Films",
)
TEMPLATES = (
    "{h} was seen with officials from {t} {w}.",
    "Reports linked {h} to {t} {w}.",
    "{h} spoke at length about {t} {w}.",
    "Long before the vote, {h} had ties to {t} {w}.",
    "Critics of {t} often cite {h} {w}.",
)
FILLER = (
    "during the spring session", "after the long campaign", "in a rare interview",
    "according to local papers", "at the annual meeting", "late last year",
    "despite the dispute", "while the talks stalled", "as the market rallied",
)
MULTI_PHRASINGS = ("{lines}", "{lines}", "Output: {lines}", "NA\n{lines}")
SINGLE_PHRASINGS = MULTI_PHRASINGS + ("The relation is {lines}.",)
NA_PHRASINGS = ("NA", "NA", "I do not see any relation that fits here.")


def _entity(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.5:
        return f"{rng.choice(FIRST)} {rng.choice(LAST)}"
    if roll < 0.8:
        return rng.choice(PLACES)
    return rng.choice(ORGS)


def _sentence(rng: random.Random, item_id: str, head: str, tail: str) -> dict:
    # the id keeps every text distinct, as in tests/conftest.make_sentence
    parts = {"{h}": head, "{t}": tail, "{w}": f"{rng.choice(FILLER)} [{item_id}]"}
    text, spans = "", {}
    for piece in re.split(r"(\{[htw]\})", rng.choice(TEMPLATES)):
        if piece in ("{h}", "{t}"):
            spans[f"{'head' if piece == '{h}' else 'tail'}_span"] = [len(text), len(text) + len(parts[piece])]
        text += parts.get(piece, piece)
    return {"text": text, **spans}


def _pick_labels(rng: random.Random, names: list[str], weights: list[float]) -> list[str]:
    roll, count = rng.random(), LABELS_PER_BAG[-1][0]
    for n, p in LABELS_PER_BAG:
        if roll < p:
            count = n
            break
        roll -= p
    chosen: list[str] = []
    while len(chosen) < count:
        name = rng.choices(names, weights)[0]
        if name not in chosen:
            chosen.append(name)
    return sorted(chosen, key=names.index)


def _score_row(rng: random.Random, names: list[str], strong: list[str], lo: float) -> list[float]:
    return [rng.uniform(lo, 1.0) if n in strong else rng.uniform(0.0, 0.45) for n in names]


def _dump(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _vector_line(item_id: str, vec: np.ndarray) -> str:
    body = ",".join(["%.6f"] * len(vec)) % tuple(vec.tolist())
    return f'{{"id":"{item_id}","vector":[{body}]}}'


def generate(
    out_dir: Path,
    seed: int,
    n_bags: int,
    n_queries: int,
    ontology_path: Path,
    dim: int = 256,
) -> dict:
    """Write the input files for one seed; returns a small summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    ontology_lines = ontology_path.read_text(encoding="utf-8").splitlines()
    names = [json.loads(line)["name"] for line in ontology_lines if line.strip()]
    # mildly skewed relation frequencies, fixed across seeds
    weights = [1.0 / (1 + i) ** 0.5 for i in range(len(names))]

    rng = random.Random(f"hydre-bench|{seed}")
    # independent of n_queries: fewer queries give the same corpus and a
    # prefix of the same queries
    vec_rng = np.random.default_rng([seed, n_bags, dim])
    centroids = vec_rng.standard_normal((len(names) + 1, dim))

    def embed(labels: list[str]) -> np.ndarray:
        idx = [names.index(l) for l in labels] or [len(names)]
        vec = centroids[idx].mean(axis=0) * 0.35 + vec_rng.standard_normal(dim)
        return vec / np.linalg.norm(vec)

    bag_lines, score_lines, vector_lines = [], [], []
    score_lines.append(json.dumps({"relation_order": names}))
    n_sentences = 0
    for b in range(n_bags):
        head, tail = _entity(rng), _entity(rng)
        while tail == head:
            tail = _entity(rng)
        labelled = rng.random() < LABELLED_BAG_RATE
        labels = _pick_labels(rng, names, weights) if labelled else []
        sentences = []
        for _ in range(rng.randint(*SENTENCES_PER_BAG)):
            sid = f"s{n_sentences:07d}"
            n_sentences += 1
            sentences.append({"sentence_id": sid, **_sentence(rng, sid, head, tail)})
            # some sentences of a bag express its labels strongly, others weakly
            lo = 0.5 if rng.random() < 0.6 else 0.2
            score_lines.append(_dump({"id": sid, "scores": _score_row(rng, names, labels, lo)}))
            vector_lines.append(_vector_line(sid, embed(labels)))
        bag_lines.append(
            _dump(
                {
                    "bag_id": f"b{b:06d}",
                    "head": head,
                    "tail": tail,
                    "relations": labels or ["NA"],
                    "sentences": sentences,
                }
            )
        )

    query_lines, response_lines = [], []
    for i in range(n_queries):
        qid = f"q{i:05d}"
        head, tail = _entity(rng), _entity(rng)
        while tail == head:
            tail = _entity(rng)
        is_na = rng.random() < NA_QUERY_RATE
        gold = [] if is_na else _pick_labels(rng, names, weights)[:2]
        query_lines.append(
            _dump({"query_id": qid, **_sentence(rng, qid, head, tail), "gold": gold or ["NA"], "is_na": is_na})
        )
        score_lines.append(_dump({"id": qid, "scores": _score_row(rng, names, gold, 0.35)}))
        vector_lines.append(_vector_line(qid, embed(gold)))
        response_lines.append(_dump({"query_id": qid, "response": _response(rng, names, weights, gold)}))

    files = {
        "ontology.jsonl": ontology_lines,
        "bags.jsonl": bag_lines,
        "queries.jsonl": query_lines,
        "scores.jsonl": score_lines,
        "embeddings.jsonl": vector_lines,
        "responses.jsonl": response_lines,
    }
    for name, lines in files.items():
        (out_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"bags": n_bags, "sentences": n_sentences, "queries": n_queries, "dim": dim}


def _response(rng: random.Random, names: list[str], weights: list[float], gold: list[str]) -> str:
    """Gold labels with seeded noise: a dropped label, a spurious one."""
    answer = list(gold)
    if answer and rng.random() < 0.2:
        answer.pop(rng.randrange(len(answer)))
    if rng.random() < 0.15:
        extra = rng.choices(names, weights)[0]
        if extra not in answer:
            answer.append(extra)
    if not answer:
        return rng.choice(NA_PHRASINGS)
    phrasings = SINGLE_PHRASINGS if len(answer) == 1 else MULTI_PHRASINGS
    return rng.choice(phrasings).format(lines="\n".join(answer))


def load_responses(in_dir: Path) -> dict[str, str]:
    out = {}
    with (in_dir / "responses.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            out[record["query_id"]] = record["response"]
    return out

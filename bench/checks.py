"""Output checks, run after a repetition has ended (never inside timing).

Selections are compared with the brute-force oracles in ``tests/oracles.py``
on a seeded sample of queries; predictions with an independent parse of the
response the judge served; ``report.json`` micro/macro F1 with
``micro_macro_oracle``. Each function returns the query ids that failed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

NA = "NA"


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_instance(inputs: Path) -> dict:
    """The generated files in the primitive shape ``tests/oracles.py`` uses."""
    score_lines = read_jsonl(inputs / "scores.jsonl")
    bags = [
        {"bag_id": b["bag_id"], "labels": set(b["relations"]),
         "sentences": [{"sentence_id": s["sentence_id"]} for s in b["sentences"]]}
        for b in read_jsonl(inputs / "bags.jsonl")
    ]
    return {
        "relations": score_lines[0]["relation_order"],
        "bags": bags,
        "scores": {row["id"]: row["scores"] for row in score_lines[1:]},
        "embeddings": {row["id"]: row["vector"] for row in read_jsonl(inputs / "embeddings.jsonl")},
    }


def sample_queries(query_ids: list[str], seed: int, n: int) -> list[str]:
    return sorted(random.Random(f"check|{seed}").sample(query_ids, min(n, len(query_ids))))


def check_hydre(records: list[dict], sample: list[str], inst: dict, oracles, k: int,
                threshold: float) -> list[str]:
    by_id = {r["query_id"]: r for r in records}
    failed = []
    for q_id in sample:
        want = oracles.exemplar_set_oracle(
            q_id, inst["relations"], inst["bags"], inst["scores"], inst["embeddings"],
            k, threshold,
        )
        record = by_id.get(q_id)
        ok = record is not None and (
            [tuple(c) for c in record["candidates"]] == [tuple(c) for c in want["candidates"]]
            and record["skipped"] == want["skipped"]
            and [(e["candidate_relation"], e["candidate_score"], e["source_bag_id"], e["sentence_id"])
                 for e in record["exemplars"]]
            == [(e["relation"], e["score"], e["bag_id"], e["sentence_id"]) for e in want["exemplars"]]
        )
        if not ok:
            failed.append(q_id)
    return failed


def check_flat(strategy: str, records: list[dict], sample: list[str], inst: dict, oracles,
               k: int, alpha: float, pool_size: int) -> list[str]:
    items = [s["sentence_id"] for b in inst["bags"] for s in b["sentences"]]
    by_id = {r["query_id"]: r for r in records}
    failed = []
    for q_id in sample:
        if strategy == "topk_sim":
            want = oracles.topk_oracle(q_id, items, inst["embeddings"], k)
        else:
            want = oracles.mmr_oracle(q_id, items, inst["embeddings"], k, alpha, pool_size)
        record = by_id.get(q_id)
        if record is None or [e["sentence_id"] for e in record["exemplars"]] != want:
            failed.append(q_id)
    return failed


def independent_parse(raw: str, relations: list[str]) -> set[str]:
    """The documented rule, written separately: a name containing '/' is
    found anywhere in the text, any other name only as a whole token; NA
    next to a relation is dropped and no match at all means NA."""
    tokens = raw.split()
    return {r for r in relations if (r in raw if "/" in r else r in tokens)}


def check_predictions(records: list[dict], served: dict[str, str], relations: list[str]) -> list[str]:
    """Each prediction carries no error, echoes the served response and
    equals its independent parse; a missing or duplicated query fails."""
    counts = Counter(r["query_id"] for r in records)
    by_id = {r["query_id"]: r for r in records}
    failed = [q_id for q_id in counts if q_id not in served]
    for q_id, raw in served.items():
        record = by_id.get(q_id)
        if (
            counts[q_id] != 1
            or record.get("error") is not None
            or record.get("raw") != raw
            or set(record["relations"]) != independent_parse(raw, relations)
        ):
            failed.append(q_id)
    return failed


def check_report(report: dict, predictions: list[dict], queries: list[dict], relations: list[str],
                 oracles) -> bool:
    gold = {(q["query_id"], r) for q in queries for r in q["gold"] if r != NA}
    pred = {(p["query_id"], r) for p in predictions for r in p["relations"]}
    micro, macro = oracles.micro_macro_oracle(gold, pred, relations)
    return report.get("micro_f1") == micro and report.get("macro_f1") == macro

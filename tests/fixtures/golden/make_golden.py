"""Regenerate the golden fixture corpus, provider files, config, and the
committed replay cache.

    python tests/fixtures/golden/make_golden.py

Everything here is literal or formulaic; there is no randomness. The replay
cache is keyed by the prompts the pipeline renders under e2e_config.json,
so it must be regenerated whenever the prompt format or the selection rules
change (the e2e determinism test will fail loudly until then).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PKG_ROOT = HERE.parents[2]  # the checkout root
sys.path.insert(0, str(PKG_ROOT / "src"))

from hydre.corpus import builtin_ontology_path, load_ontology  # noqa: E402

ontology = load_ontology(builtin_ontology_path())
NAMES = list(ontology.names)
IDX = {name: i for i, name in enumerate(NAMES)}

BASELINE = 0.05


def scores_for(pairs: dict[str, float]) -> list[float]:
    row = [BASELINE] * len(NAMES)
    for name, value in pairs.items():
        row[IDX[name]] = value
    return row


def unit(c0: float, c1: float) -> list[float]:
    z = math.sqrt(max(0.0, 1.0 - c0 * c0 - c1 * c1))
    return [c0, c1, z, 0.0]


R = {
    "nationality": "/people/person/nationality",
    "event_loc": "/time/event/locations",
    "children": "/people/person/children",
    "advisors": "/business/company/advisors",
    "biz_loc": "/business/location",
    "shareholders": "/business/company/majorshareholders",
    "lived": "/people/person/place_lived",
    "founded_at": "/business/company/place_founded",
    "neighborhood": "/location/neighborhood/neighborhood_of",
    "death": "/people/deceasedperson/place_of_death",
    "film_loc": "/film/film/featured_film_locations",
    "region_cap": "/location/region/capital",
    "founders": "/business/company/founders",
    "geo_dist": "/people/ethnicity/geographic_distribution",
    "admin_divs": "/location/country/administrative_divisions",
    "burial": "/people/deceasedperson/place_of_burial",
    "capital": "/location/country/capital",
    "company": "/business/person/company",
    "contains": "/location/location/contains",
    "admin_country": "/location/administrative_division/country",
    "county_seat": "/location/us_county/county_seat",
    "religion": "/people/person/religion",
    "birth": "/people/person/place_of_birth",
    "ethnicity": "/people/person/ethnicity",
}

# sentence_id -> (text, head surface, tail surface, scores, embedding)
SENTENCES = {
    "s0101": (
        "Omar Reyes, a cleric devoted to Islam, spoke in Cairo.",
        "Omar Reyes", "Islam",
        {R["religion"]: 0.8}, unit(0.6, 0.0),
    ),
    "s0102": (
        "Friends said Omar Reyes had quietly embraced Islam years earlier.",
        "Omar Reyes", "Islam",
        {R["religion"]: 0.6}, unit(0.4, 0.0),
    ),
    "s0201": (
        "The festival honored Mira Petrova, a celebrated Bulgarian folk singer.",
        "Mira Petrova", "Bulgarian",
        {R["ethnicity"]: 0.9}, unit(0.5, 0.0),
    ),
    "s0202": (
        "Mira Petrova grew up speaking Bulgarian at home in Sofia.",
        "Mira Petrova", "Bulgarian",
        {R["ethnicity"]: 0.3}, unit(0.1, 0.0),
    ),
    "s0301": (
        "Anders Lund, who plays chess for Denmark, trains in Copenhagen.",
        "Anders Lund", "Denmark",
        {R["nationality"]: 0.85, R["lived"]: 0.2}, unit(0.0, 0.0),
    ),
    "s0302": (
        "Anders Lund has lived in Denmark for most of his career.",
        "Anders Lund", "Denmark",
        {R["nationality"]: 0.7, R["lived"]: 0.75}, unit(-0.2, 0.0),
    ),
    "s0401": (
        "Nairobi, the capital of Kenya, hosted the trade summit.",
        "Kenya", "Nairobi",
        {R["capital"]: 0.55, R["contains"]: 0.7}, unit(0.0, 0.7),
    ),
    "s0402": (
        "Droughts across Kenya pushed families toward Nairobi.",
        "Kenya", "Nairobi",
        {R["capital"]: 0.4, R["contains"]: 0.75}, unit(0.0, 0.5),
    ),
    "s0501": (
        "Dana Wu, who founded Helix Labs in a garage, still owns a third of it.",
        "Helix Labs", "Dana Wu",
        {R["founders"]: 0.9, R["shareholders"]: 0.7}, unit(0.2, 0.0),
    ),
    "s0502": (
        "Helix Labs said Dana Wu would step back from daily duties.",
        "Helix Labs", "Dana Wu",
        {R["founders"]: 0.6, R["shareholders"]: 0.2}, unit(0.1, 0.0),
    ),
    "s0601": (
        "Renata Solis was born in Lima and returned there every summer.",
        "Renata Solis", "Lima",
        {R["birth"]: 0.6, R["lived"]: 0.65}, unit(0.5, 0.0),
    ),
    "s0602": (
        "The novelist Renata Solis kept an apartment in Lima.",
        "Renata Solis", "Lima",
        {R["birth"]: 0.3, R["lived"]: 0.7}, unit(0.3, 0.0),
    ),
    "s0701": (
        "Vermont lawmakers sent the measure to the United States Senate.",
        "Vermont", "United States",
        {R["admin_country"]: 0.8}, unit(0.1, 0.1),
    ),
    "s0801": (
        "Tulio Marquez conducts the Opera Nacional on weekends.",
        "Tulio Marquez", "Opera Nacional",
        {R["company"]: 0.75}, unit(0.2, 0.1),
    ),
    "s0901": (
        "Lena Hoff practiced piano until midnight.",
        "Lena Hoff", "piano",
        {}, unit(0.0, 0.0),
    ),
    "s1001": (
        "Jun Sato died at his home in Kyoto after a long illness.",
        "Jun Sato", "Kyoto",
        {R["death"]: 0.9, R["lived"]: 0.55}, unit(-0.2, 0.0),
    ),
    "s1002": (
        "Jun Sato settled in Kyoto in 1998.",
        "Jun Sato", "Kyoto",
        {R["death"]: 0.6, R["lived"]: 0.8}, unit(-0.4, 0.0),
    ),
    "s1101": (
        "Tokyo, the capital of Japan, sprawls along the bay.",
        "Japan", "Tokyo",
        {R["capital"]: 0.95, R["contains"]: 0.5}, unit(0.0, 0.3),
    ),
    "s1102": (
        "Japan's ministries cluster in Tokyo.",
        "Japan", "Tokyo",
        {R["capital"]: 0.8, R["contains"]: 0.65}, unit(0.0, 0.1),
    ),
}

# bag_id -> (head, tail, labels, sentence ids)
BAGS = {
    "B01": ("Omar Reyes", "Islam", [R["religion"]], ["s0101", "s0102"]),
    "B02": ("Mira Petrova", "Bulgarian", [R["ethnicity"]], ["s0201", "s0202"]),
    "B03": ("Anders Lund", "Denmark", [R["nationality"], R["lived"]], ["s0301", "s0302"]),
    "B04": ("Kenya", "Nairobi", [R["capital"], R["contains"]], ["s0401", "s0402"]),
    "B05": ("Helix Labs", "Dana Wu", [R["shareholders"], R["founders"]], ["s0501", "s0502"]),
    "B06": ("Renata Solis", "Lima", [R["lived"], R["birth"]], ["s0601", "s0602"]),
    "B07": ("Vermont", "United States", [R["admin_country"]], ["s0701"]),
    "B08": ("Tulio Marquez", "Opera Nacional", [R["company"]], ["s0801"]),
    "B09": ("Lena Hoff", "piano", ["NA"], ["s0901"]),
    "B10": ("Jun Sato", "Kyoto", [R["death"], R["lived"]], ["s1001", "s1002"]),
    "B11": ("Japan", "Tokyo", [R["capital"]], ["s1101", "s1102"]),
}

# the three hand-designed queries behind the golden prompt fixtures
DESIGNED_QUERIES = {
    "q01": (
        "A court heard that Samir Haddad, a devout Muslim, had led prayers in Leeds.",
        "Samir Haddad", "Muslim",
        [R["religion"]], False,
        {
            R["religion"]: 0.91,
            R["ethnicity"]: 0.78,
            R["nationality"]: 0.55,
            R["lived"]: 0.32,
            R["company"]: 0.11,
        },
        unit(1.0, 0.0),
    ),
    "q02": (
        "The merger left Vantor Group answering to regulators in Ottawa.",
        "Vantor Group", "Ottawa",
        [R["biz_loc"]], False,
        {
            R["biz_loc"]: 0.88,
            R["contains"]: 0.72,
            R["founded_at"]: 0.4,
            R["admin_country"]: 0.2,
            R["company"]: 0.15,
        },
        unit(0.1, 0.2),
    ),
    "q03": (
        "Tourists stream into Nairobi even as Kenya battles inflation.",
        "Kenya", "Nairobi",
        [R["contains"]], False,
        {R["contains"]: 0.9, R["capital"]: 0.6},
        unit(0.0, 1.0),
    ),
}

# committed responses served by the replay cache
RESPONSES = {
    "q01": "/people/person/religion",
    "q02": "/business/location\n/location/location/contains",
    "q03": "NA\n/location/location/contains",
    "q04": "The relation is /people/person/nationality.",
    "q05": "/time/event/locations",
    "q06": "/people/person/children",
    "q07": "I do not see any relation that fits here.",
    "q08": "/business/company/advisors",
    "q09": "/business/location",
    "q10": "/business/company/majorshareholders\n/business/company/founders",
    "q11": "/people/person/place_lived",
    "q12": "/business/company/place_founded",
    "q13": "Output: /location/neighborhood/neighborhood_of",
    "q14": "/people/deceasedperson/place_of_death",
    "q15": "NA",
    "q16": "/location/region/capital",
    "q17": "/business/company/founders",
    "q18": "/people/person/children",
    "q19": "/location/country/administrative_divisions",
    "q20": "/people/deceasedperson/place_of_burial",
}

NA_QUERIES = {"q15", "q18"}


def span(text: str, surface: str) -> list[int]:
    start = text.index(surface)
    return [start, start + len(surface)]


def formulaic_queries() -> dict:
    queries = {}
    for n in range(4, 21):
        q_id = f"q{n:02d}"
        head, tail = f"Alpha{n:02d}", f"Beta{n:02d}"
        text = f"Report {n:02d} says {head} works with {tail} in the region."
        peak = (n - 4) % len(NAMES)
        second = (peak + 16) % len(NAMES)
        scores = {NAMES[peak]: 0.9, NAMES[second]: 0.45}
        if q_id in NA_QUERIES:
            gold, is_na = [], True
        elif q_id == "q05":
            gold, is_na = [NAMES[0], NAMES[1]], False
        else:
            gold, is_na = [NAMES[peak]], False
        emb = unit(0.05 * (n % 4), 0.05 * (n % 7))
        queries[q_id] = (text, head, tail, gold, is_na, scores, emb)
    return queries


def write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")


def main() -> None:
    bag_records = []
    for bag_id, (head, tail, labels, sentence_ids) in BAGS.items():
        sentences = []
        for sid in sentence_ids:
            text, h, t, _, _ = SENTENCES[sid]
            sentences.append(
                {
                    "sentence_id": sid,
                    "text": text,
                    "head_span": span(text, h),
                    "tail_span": span(text, t),
                }
            )
        bag_records.append(
            {
                "bag_id": bag_id,
                "head": head,
                "tail": tail,
                "relations": labels,
                "sentences": sentences,
            }
        )
    write_jsonl(HERE / "bags.jsonl", bag_records)

    all_queries = dict(DESIGNED_QUERIES)
    all_queries.update(formulaic_queries())
    query_records = []
    for q_id, (text, head, tail, gold, is_na, _, _) in all_queries.items():
        query_records.append(
            {
                "query_id": q_id,
                "text": text,
                "head_span": span(text, head),
                "tail_span": span(text, tail),
                "gold": gold,
                "is_na": is_na,
            }
        )
    write_jsonl(HERE / "queries.jsonl", query_records)

    score_records = [{"relation_order": NAMES}]
    embedding_records = []
    for sid, (_, _, _, overrides, emb) in SENTENCES.items():
        score_records.append({"id": sid, "scores": scores_for(overrides)})
        embedding_records.append({"id": sid, "vector": emb})
    for q_id, (_, _, _, _, _, overrides, emb) in all_queries.items():
        score_records.append({"id": q_id, "scores": scores_for(overrides)})
        embedding_records.append({"id": q_id, "vector": emb})
    write_jsonl(HERE / "scores.jsonl", score_records)
    write_jsonl(HERE / "embeddings.jsonl", embedding_records)

    config = {
        "paths": {
            "ontology": "../../../src/hydre/data/nyt10m_ontology.jsonl",
            "bags": "bags.jsonl",
            "queries": "queries.jsonl",
            "scores": "scores.jsonl",
            "embeddings": "embeddings.jsonl",
            "cache": "replay_cache.jsonl",
            "output": "out",
        },
        "strategy": "hydre",
        "scoring": {"k": 5},
        "seed": 7,
        "mode": "replay",
    }
    (HERE / "e2e_config.json").write_text(
        json.dumps(config, indent=2) + "\n", encoding="utf-8"
    )

    # replay cache: render the pipeline's prompts and key the authored
    # responses by them
    from hydre.cli import STRATEGIES, SelectionInputs, _load_run, _render_for_record
    from hydre.cli import load_config
    from hydre.judge import cache_key, prompt_sha
    from hydre.selection import CorpusView, serialize_exemplar_set

    run_config = load_config(str(HERE / "e2e_config.json"), {})
    run = _load_run(run_config)
    inputs = SelectionInputs(
        CorpusView(run.corpus, run.scores, run.embeddings), run_config.scoring()
    )
    select = STRATEGIES[run_config.strategy].select
    params = run_config.generation()
    cache_records = []
    for query in run.corpus.queries:
        selection = select(query.query_id, inputs)
        record = serialize_exemplar_set(selection, run.corpus.ontology)
        prompt = _render_for_record(run_config, run.corpus, query, record)
        response = RESPONSES[query.query_id]
        cache_records.append(
            {
                "key": cache_key(prompt, params),
                "prompt_sha": prompt_sha(prompt),
                "response": response,
            }
        )
    write_jsonl(HERE / "replay_cache.jsonl", cache_records)
    print(f"golden fixtures written to {HERE}")


if __name__ == "__main__":
    main()

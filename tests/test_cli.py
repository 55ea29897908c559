from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

import hydre.cli as cli
from hydre.corpus import Corpus
from hydre.judge import MockBackend, ReplayCache
from hydre.providers import EmbeddingIndex, ScoreMatrix

from conftest import FIXTURES
from oracles import exemplar_set_oracle

GOLDEN = FIXTURES / "golden"
CONFIG = str(GOLDEN / "e2e_config.json")


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def run_cli(*args):
    return cli.main(list(args))


# ------------------------------------------------------------------ validate


def test_validate_ok(capsys, tmp_path):
    code = run_cli("--config", CONFIG, "--output", str(tmp_path), "validate")
    out = capsys.readouterr().out
    assert code == 0
    assert "ontology: 24 relations" in out
    assert "queries: 20" in out
    assert "strategy hydre: OK" in out
    assert "NA fraction" in out


def absolute_config(tmp_path, **path_overrides):
    """Golden config with paths made absolute, plus overrides."""
    config = json.loads((GOLDEN / "e2e_config.json").read_text())
    for key, value in list(config["paths"].items()):
        if value:
            config["paths"][key] = str((GOLDEN / value).resolve())
    config["paths"]["output"] = str(tmp_path / "out")
    config["paths"].update({k: str(v) for k, v in path_overrides.items()})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path, config


def test_validate_manifest_order_mismatch(tmp_path, capsys):
    scores = (GOLDEN / "scores.jsonl").read_text().splitlines()
    manifest = json.loads(scores[0])
    manifest["relation_order"] = list(reversed(manifest["relation_order"]))
    bad = tmp_path / "scores.jsonl"
    bad.write_text(json.dumps(manifest) + "\n" + "\n".join(scores[1:]) + "\n")
    config_path, _ = absolute_config(tmp_path, scores=bad)
    code = run_cli("--config", str(config_path), "validate")
    assert code == 1
    assert "ontology order" in capsys.readouterr().err


def test_validate_unscored_sentence_named(tmp_path, capsys):
    kept = [
        line
        for line in (GOLDEN / "scores.jsonl").read_text().splitlines()
        if '"s0801"' not in line
    ]
    bad = tmp_path / "scores.jsonl"
    bad.write_text("\n".join(kept) + "\n")
    config_path, _ = absolute_config(tmp_path, scores=bad)
    code = run_cli("--config", str(config_path), "validate")
    err = capsys.readouterr().err
    assert code == 1
    assert "s0801" in err


# -------------------------------------------------------------------- select


def load_golden_primitives():
    """Parse the fixture files into the oracle's primitive shapes."""
    bags = []
    for record in read_jsonl(GOLDEN / "bags.jsonl"):
        bags.append(
            {
                "bag_id": record["bag_id"],
                "labels": set(record["relations"]),
                "sentences": [
                    {"sentence_id": s["sentence_id"]} for s in record["sentences"]
                ],
            }
        )
    score_lines = read_jsonl(GOLDEN / "scores.jsonl")
    relations = score_lines[0]["relation_order"]
    scores = {r["id"]: r["scores"] for r in score_lines[1:]}
    embeddings = {r["id"]: r["vector"] for r in read_jsonl(GOLDEN / "embeddings.jsonl")}
    queries = [r["query_id"] for r in read_jsonl(GOLDEN / "queries.jsonl")]
    return relations, bags, scores, embeddings, queries


def test_select_hydre_matches_brute_force_golden(tmp_path):
    code = run_cli("--config", CONFIG, "--output", str(tmp_path), "select")
    assert code == 0
    records = {r["query_id"]: r for r in read_jsonl(tmp_path / "selections.jsonl")}
    relations, bags, scores, embeddings, queries = load_golden_primitives()
    assert set(records) == set(queries)
    for q_id in queries:
        want = exemplar_set_oracle(
            q_id, relations, bags, scores, embeddings, k=5, threshold=0.5
        )
        got = records[q_id]
        assert got["skipped"] == want["skipped"]
        assert [e["candidate_relation"] for e in got["exemplars"]] == [
            e["relation"] for e in want["exemplars"]
        ]
        assert [e["source_bag_id"] for e in got["exemplars"]] == [
            e["bag_id"] for e in want["exemplars"]
        ]
        assert [e["sentence_id"] for e in got["exemplars"]] == [
            e["sentence_id"] for e in want["exemplars"]
        ]


def test_select_random_k_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = run_cli(
            "--config", CONFIG, "--strategy", "random_k", "--seed", "13",
            "--output", str(out), "select",
        )
        assert code == 0
    assert (out_a / "selections.jsonl").read_bytes() == (
        out_b / "selections.jsonl"
    ).read_bytes()
    different = tmp_path / "c"
    run_cli(
        "--config", CONFIG, "--strategy", "random_k", "--seed", "14",
        "--output", str(different), "select",
    )
    assert (out_a / "selections.jsonl").read_bytes() != (
        different / "selections.jsonl"
    ).read_bytes()


def test_select_no_icl_writes_empty_lists_with_candidates(tmp_path):
    code = run_cli(
        "--config", CONFIG, "--strategy", "ablation:no_icl",
        "--output", str(tmp_path), "select",
    )
    assert code == 0
    for record in read_jsonl(tmp_path / "selections.jsonl"):
        assert record["exemplars"] == []
        assert len(record["candidates"]) == 5
        assert record["relation_scope"] == "candidates_only"


def test_select_all_strategies_produce_coverage(tmp_path):
    strategies = [
        "topk_sim", "mmr", "zero_shot", "reduced_bag",
        "ablation:all_relations", "ablation:flat_retrieval", "ablation:full_bag",
        "ablation:no_sim", "ablation:no_conf", "ablation:random_bag_sentence",
    ]
    for i, strategy in enumerate(strategies):
        out = tmp_path / f"s{i}"
        code = run_cli(
            "--config", CONFIG, "--strategy", strategy, "--output", str(out), "select"
        )
        assert code == 0, strategy
        records = read_jsonl(out / "selections.jsonl")
        assert len(records) == 20, strategy


def test_metadata_written(tmp_path):
    run_cli("--config", CONFIG, "--output", str(tmp_path), "select")
    metadata = json.loads((tmp_path / "metadata.json").read_text())
    assert metadata["command"] == "select"
    assert metadata["seed"] == 7
    assert metadata["strategy"] == "hydre"
    assert metadata["config"]["scoring"]["k"] == 5


# ----------------------------------------------------------------------- run


def test_run_replay_twice_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli("--config", CONFIG, "--output", str(out), "select") == 0
        assert run_cli("--config", CONFIG, "--output", str(out), "run") == 0
    for name in ("selections.jsonl", "prompts.jsonl", "predictions.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    predictions = {r["query_id"]: r for r in read_jsonl(out_a / "predictions.jsonl")}
    assert len(predictions) == 20
    assert predictions["q01"]["relations"] == ["/people/person/religion"]
    assert predictions["q03"]["relations"] == ["/location/location/contains"]
    assert predictions["q15"]["relations"] == []
    assert all(r["error"] is None for r in predictions.values())


def test_run_requires_selections(tmp_path, capsys):
    code = run_cli("--config", CONFIG, "--output", str(tmp_path), "run")
    assert code == 1
    assert "select" in capsys.readouterr().err


def test_run_live_without_api_key_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("HYDRE_LLM_API_KEY", raising=False)
    run_cli("--config", CONFIG, "--output", str(tmp_path), "select")
    code = run_cli("--config", CONFIG, "--output", str(tmp_path), "--mode", "live", "run")
    assert code == 1
    assert "HYDRE_LLM_API_KEY" in capsys.readouterr().err


def test_run_replay_miss_lists_queries(tmp_path, capsys):
    empty_cache = tmp_path / "cache.jsonl"
    empty_cache.write_text("")
    config_path, _ = absolute_config(tmp_path, cache=empty_cache)
    run_cli("--config", str(config_path), "select")
    code = run_cli("--config", str(config_path), "run")
    err = capsys.readouterr().err
    assert code == 2
    assert "q01" in err and "q20" in err


def test_run_k_sweep_one_file_per_k(tmp_path, monkeypatch):
    monkeypatch.setenv("HYDRE_LLM_API_KEY", "test-key")
    monkeypatch.setattr(cli, "HttpChatBackend", lambda endpoint: MockBackend("NA"))
    config_path, config = absolute_config(tmp_path, cache=tmp_path / "cache.jsonl")
    config["mode"] = "live"
    config["llm_endpoint"] = "http://example.invalid/v1/chat"
    config_path.write_text(json.dumps(config))
    code = run_cli("--config", str(config_path), "--k", "2..4", "run")
    assert code == 0
    for k in (2, 3, 4):
        assert (tmp_path / "out" / f"predictions_k{k}.jsonl").exists()
        assert (tmp_path / "out" / f"selections_k{k}.jsonl").exists()
        records = read_jsonl(tmp_path / "out" / f"selections_k{k}.jsonl")
        assert all(len(r["candidates"]) == k for r in records)


def live_config(tmp_path, monkeypatch, backend=lambda endpoint: MockBackend("NA")):
    """Golden config in live mode against ``backend``, with its own cache."""
    monkeypatch.setenv("HYDRE_LLM_API_KEY", "test-key")
    monkeypatch.setattr(cli, "HttpChatBackend", backend)
    config_path, config = absolute_config(tmp_path, cache=tmp_path / "cache.jsonl")
    config["mode"] = "live"
    config["llm_endpoint"] = "http://example.invalid/v1/chat"
    config_path.write_text(json.dumps(config))
    return str(config_path)


def test_run_k_sweep_loads_inputs_cache_and_backend_once(tmp_path, monkeypatch):
    calls = Counter()
    for owner in (Corpus, ScoreMatrix, EmbeddingIndex, ReplayCache):
        def counted(cls, *args, _load=owner.load.__func__, **kwargs):
            calls[cls.__name__] += 1
            return _load(cls, *args, **kwargs)

        monkeypatch.setattr(owner, "load", classmethod(counted))

    def backend(endpoint):
        calls["HttpChatBackend"] += 1
        return MockBackend("NA")

    config_path = live_config(tmp_path, monkeypatch, backend)
    assert run_cli("--config", config_path, "--k", "2..4", "run") == 0
    assert calls == {
        "Corpus": 1,
        "ScoreMatrix": 1,
        "EmbeddingIndex": 1,
        "ReplayCache": 1,
        "HttpChatBackend": 1,
    }
    for k in (2, 3, 4):
        assert len(read_jsonl(tmp_path / "out" / f"predictions_k{k}.jsonl")) == 20


def test_run_k_sweep_matches_separate_select_and_run(tmp_path, monkeypatch):
    config_path = live_config(tmp_path, monkeypatch)
    sweep = tmp_path / "out"
    assert run_cli("--config", config_path, "--k", "2..4", "run") == 0
    for k in (2, 3, 4):
        single = tmp_path / f"single_k{k}"
        for command in ("select", "run"):
            assert run_cli(
                "--config", config_path, "--output", str(single), "--k", str(k), command
            ) == 0
        for name in ("selections", "prompts", "predictions"):
            assert (sweep / f"{name}_k{k}.jsonl").read_bytes() == (
                single / f"{name}.jsonl"
            ).read_bytes(), (name, k)


def test_run_k_sweep_replay_miss_keeps_earlier_k(tmp_path, capsys):
    # the golden cache answers the k=5 prompts only
    out = tmp_path / "out"
    code = run_cli("--config", CONFIG, "--output", str(out), "--k", "5..6", "run")
    assert code == 2
    assert "replay cache miss" in capsys.readouterr().err
    assert len(read_jsonl(out / "predictions_k5.jsonl")) == 20
    assert (out / "selections_k6.jsonl").exists()
    assert not (out / "predictions_k6.jsonl").exists()


def test_run_unknown_sentence_id_named(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("--config", CONFIG, "--output", str(out), "select") == 0
    path = out / "selections.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record["exemplars"][0]["sentence_id"] = "s9999"
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    code = run_cli("--config", CONFIG, "--output", str(out), "run")
    err = capsys.readouterr().err
    assert code == 1
    assert f"{path}:3:" in err
    assert repr(record["query_id"]) in err and "'s9999'" in err


# ---------------------------------------------------------------------- eval


def golden_run(tmp_path):
    out = tmp_path / "out"
    assert run_cli("--config", CONFIG, "--output", str(out), "select") == 0
    assert run_cli("--config", CONFIG, "--output", str(out), "run") == 0
    return out


def test_eval_metrics_match_hand_computation(tmp_path):
    # worked out from the committed responses vs the fixture gold:
    # TP=6 FP=14 FN=13 -> micro F1 = 12/39 = 4/13; macro = 4.5/17 over the
    # 17 gold-supported relations; summary cell rounds to 31/26
    out = golden_run(tmp_path)
    code = run_cli(
        "--config", CONFIG, "--output", str(out), "eval",
        str(out / "predictions.jsonl"),
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["micro_f1"] == pytest.approx(4 / 13, abs=1e-9)
    assert report["macro_f1"] == pytest.approx(4.5 / 17, abs=1e-9)
    assert report["n_queries"] == 20
    assert report["n_gold_facts"] == 19
    assert report["summary"] == "31/26"
    assert "31/26" in (out / "summary.txt").read_text()
    assert (out / "per_relation.csv").exists()
    assert (out / "confusion_pairs.csv").exists()
    assert report["recall_at_k"]["24"] == 1.0


def test_eval_pred_equals_gold_is_100_100(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    queries = read_jsonl(GOLDEN / "queries.jsonl")
    with (out / "gold_predictions.jsonl").open("w") as fh:
        for q in queries:
            fh.write(
                json.dumps(
                    {"query_id": q["query_id"], "relations": q["gold"], "raw": ""}
                )
                + "\n"
            )
    code = run_cli(
        "--config", CONFIG, "--output", str(out), "eval",
        str(out / "gold_predictions.jsonl"),
    )
    assert code == 0
    assert "micro/macro: 100/100" in (out / "summary.txt").read_text()


def test_eval_identical_files_mcnemar_p_one(tmp_path):
    out = golden_run(tmp_path)
    code = run_cli(
        "--config", CONFIG, "--output", str(out), "eval",
        str(out / "predictions.jsonl"), str(out / "predictions.jsonl"),
    )
    assert code == 0
    result = json.loads((out / "mcnemar.json").read_text())
    assert result["p_value"] == 1.0
    assert result["b"] == result["c"] == 0


def test_eval_coverage_gap_errors(tmp_path, capsys):
    out = golden_run(tmp_path)
    lines = (out / "predictions.jsonl").read_text().splitlines()
    partial = out / "partial.jsonl"
    partial.write_text("\n".join(lines[:10]) + "\n")
    code = run_cli("--config", CONFIG, "--output", str(out), "eval", str(partial))
    assert code == 1
    assert "missing" in capsys.readouterr().err


def test_eval_duplicate_query_id_rejected(tmp_path, capsys):
    out = golden_run(tmp_path)
    lines = (out / "predictions.jsonl").read_text().splitlines()
    duplicated = out / "duplicated.jsonl"
    duplicated.write_text("\n".join(lines + lines[:1]) + "\n")
    code = run_cli("--config", CONFIG, "--output", str(out), "eval", str(duplicated))
    assert code == 1
    query_id = json.loads(lines[0])["query_id"]
    err = capsys.readouterr().err
    assert "duplicate query_id" in err and repr(query_id) in err


def test_eval_refuses_failed_dispatches(tmp_path, capsys):
    out = golden_run(tmp_path)
    predictions = out / "predictions.jsonl"
    lines = predictions.read_text().splitlines()
    record = json.loads(lines[4])
    record["error"] = "TransportError: dispatch failed after retries: timeout"
    failed = out / "failed.jsonl"
    failed.write_text("\n".join(lines[:4] + [json.dumps(record)] + lines[5:]) + "\n")
    for files in ([failed], [predictions, failed]):  # as predictions, as baseline
        code = run_cli("--config", CONFIG, "--output", str(out), "eval", *map(str, files))
        err = capsys.readouterr().err
        assert code == 1
        assert "1 predictions failed" in err and record["query_id"] in err
        for name in ("report.json", "summary.txt", "per_relation.csv", "mcnemar.json"):
            assert not (out / name).exists(), name


def test_eval_does_not_read_embeddings(tmp_path):
    out = golden_run(tmp_path)
    predictions = str(out / "predictions.jsonl")
    assert run_cli("--config", CONFIG, "--output", str(out), "eval", predictions) == 0
    report = (out / "report.json").read_bytes()
    broken = tmp_path / "embeddings.jsonl"
    broken.write_text('{"id": "s0001", "vector": [0.1,\n')
    config_path, _ = absolute_config(tmp_path, embeddings=broken)
    code = run_cli("--config", str(config_path), "--output", str(out), "eval", predictions)
    assert code == 0
    assert (out / "report.json").read_bytes() == report


def test_malformed_selections_and_predictions_lines_named(tmp_path, capsys):
    out = golden_run(tmp_path)
    for name, command in (
        ("selections.jsonl", ["run"]),
        ("predictions.jsonl", ["eval", str(out / "predictions.jsonl")]),
    ):
        lines = (out / name).read_text().splitlines()
        lines[2] = lines[2][:-1]
        (out / name).write_text("\n".join(lines) + "\n")
        code = run_cli("--config", CONFIG, "--output", str(out), *command)
        assert code == 1, name
        assert f"{out / name}:3: invalid JSON" in capsys.readouterr().err


def test_run_bag_level_strategies_end_to_end(tmp_path, monkeypatch):
    monkeypatch.setenv("HYDRE_LLM_API_KEY", "test-key")
    monkeypatch.setattr(cli, "HttpChatBackend", lambda endpoint: MockBackend("NA"))
    for i, strategy in enumerate(("ablation:full_bag", "reduced_bag", "zero_shot")):
        config_path, config = absolute_config(
            tmp_path, cache=tmp_path / f"cache{i}.jsonl", output=tmp_path / f"out{i}"
        )
        config["mode"] = "live"
        config["strategy"] = strategy
        config["llm_endpoint"] = "http://example.invalid/v1/chat"
        config_path.write_text(json.dumps(config))
        assert run_cli("--config", str(config_path), "select") == 0
        assert run_cli("--config", str(config_path), "run") == 0
        out = tmp_path / f"out{i}"
        predictions = read_jsonl(out / "predictions.jsonl")
        assert len(predictions) == 20
        prompts = {r["query_id"]: r["prompt"] for r in read_jsonl(out / "prompts.jsonl")}
        if strategy == "zero_shot":
            # no exemplar blocks: instruction, relation list, query only
            assert all(p.count("Input: ") == 1 for p in prompts.values())
        else:
            # B04 has two sentences; a full/reduced bag block can carry both
            assert any(p.count("<Head>Kenya</Head>") >= 1 for p in prompts.values())


def test_validate_missing_embeddings_for_topk(tmp_path, capsys):
    config_path, config = absolute_config(tmp_path)
    config["paths"]["embeddings"] = str(tmp_path / "absent.jsonl")
    config["strategy"] = "topk_sim"
    config_path.write_text(json.dumps(config))
    code = run_cli("--config", str(config_path), "validate")
    assert code == 1
    assert "embeddings" in capsys.readouterr().err


def test_unknown_strategy_rejected(tmp_path, capsys):
    code = run_cli(
        "--config", CONFIG, "--strategy", "bogus", "--output", str(tmp_path), "select"
    )
    assert code == 1
    assert "unknown strategy" in capsys.readouterr().err

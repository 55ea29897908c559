from __future__ import annotations

import gc
import hashlib
import json
import shutil
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import hydre.cli as cli
import hydre.corpus
import hydre.providers
import hydre.selection
from hydre.corpus import Corpus
from hydre.judge import MockBackend, ReplayCache
from hydre.providers import EmbeddingIndex, ScoreMatrix
from hydre.selection import CorpusView

from conftest import FIXTURES, backdate, opened_files
from oracles import candidates_oracle, exemplar_set_oracle, select_bag_oracle

GOLDEN = FIXTURES / "golden"
CONFIG = str(GOLDEN / "e2e_config.json")


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


GOLDEN_SENTENCES = sum(len(r["sentences"]) for r in read_jsonl(GOLDEN / "bags.jsonl"))


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


@pytest.mark.parametrize(
    "provider, key, value, row",
    [
        ("scores", "scores", "x", "row 's0102'"),
        ("scores", "scores", "0.5", "row 's0102'"),
        ("scores", "scores", True, "row 's0102'"),
        ("scores", "scores", None, "row 's0102'"),
        ("embeddings", "vector", [0.1, 0.2], "vector for 's0102'"),
        ("embeddings", "vector", "0.5", "vector for 's0102'"),
        ("embeddings", "vector", False, "vector for 's0102'"),
        ("embeddings", "vector", None, "vector for 's0102'"),
        # an integer beyond float64's range passes the type check
        pytest.param("scores", "scores", 10**400, "row 's0102'", id="scores-too-large"),
        pytest.param(
            "embeddings", "vector", 10**400, "vector for 's0102'", id="embeddings-too-large"
        ),
    ],
)
def test_validate_names_the_line_of_a_provider_value_that_is_not_a_number(
    tmp_path, capsys, provider, key, value, row
):
    """A provider row holding a value that is not a number exits 1 naming
    path:line and the row, and no sidecar is written for the file."""
    path = tmp_path / f"{provider}.jsonl"
    lines = (GOLDEN / path.name).read_text().splitlines()
    n = next(i for i, line in enumerate(lines) if json.loads(line).get("id") == "s0102")
    record = json.loads(lines[n])
    record[key][0] = value
    lines[n] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    config_path, _ = absolute_config(tmp_path, **{provider: path})
    assert run_cli("--config", str(config_path), "validate") == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}:{n + 1}: {row} has a value that is not a number\n"
    assert not path.with_name(path.name + hydre.providers.SIDECAR_SUFFIX).exists()


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


@pytest.mark.parametrize(
    "tail_span, message",
    [
        (None, "{p}:3: query 'q03': head and tail spans overlap"),
        ([0, 9999], "{p}:3: tail_span [0, 9999) out of range"),
    ],
    ids=["overlap", "out_of_range"],
)
def test_validate_names_the_line_of_a_bad_query_span(tmp_path, capsys, tail_span, message):
    lines = (GOLDEN / "queries.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record["tail_span"] = tail_span or record["head_span"]
    lines[2] = json.dumps(record)
    bad = tmp_path / "queries.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    config_path, _ = absolute_config(tmp_path, queries=bad)
    assert run_cli("--config", str(config_path), "validate") == 1
    assert message.format(p=bad) in capsys.readouterr().err


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


def test_metadata_records_the_digest_of_each_input_read(tmp_path, monkeypatch):
    """select, run and eval record the sha256 of each input file they read.
    The bag, score and embedding digests come from their sidecars, so
    commands whose sidecars match by stat read none of those files."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    names = {"bags": "bags", "queries": "queries", "scores": "scores",
             "embeddings": "embeddings", "cache": "replay_cache"}
    for name in names.values():
        shutil.copyfile(GOLDEN / f"{name}.jsonl", inputs / f"{name}.jsonl")
    backdate(*inputs.iterdir())
    config_path, config = absolute_config(
        tmp_path, **{key: inputs / f"{name}.jsonl" for key, name in names.items()}
    )
    digest = {key: hydre.corpus.file_sha256(path) for key, path in config["paths"].items()
              if key in ("ontology", "bags", "queries", "scores", "embeddings")}

    def recorded(out):
        return json.loads((out / "metadata.json").read_text())["inputs"]

    cold = tmp_path / "cold"
    assert run_cli("--config", str(config_path), "--output", str(cold), "select") == 0
    assert recorded(cold) == digest
    sources = {Path(config["paths"][key]) for key in ("bags", "scores", "embeddings")}
    opened = opened_files(monkeypatch)
    out = tmp_path / "warm"
    assert run_cli("--config", str(config_path), "--output", str(out), "select") == 0
    assert recorded(out) == digest
    assert run_cli("--config", str(config_path), "--output", str(out), "run") == 0
    assert recorded(out) == {key: digest[key] for key in ("ontology", "bags", "queries")}
    predictions = str(out / "predictions.jsonl")
    assert run_cli("--config", str(config_path), "--output", str(out), "eval", predictions) == 0
    assert recorded(out) == {key: digest[key] for key in ("ontology", "queries", "scores")}
    assert opened and sources.isdisjoint(opened)


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


SWEEP_RESPONSES = ("NA", "/people/person/religion", "/location/location/contains")


def out_of_order(prompt):
    """A fixed answer per prompt after a fixed 0-7 ms sleep, so that the
    answers of a parallel run come back out of order."""
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    time.sleep(digest[0] % 8 / 1000)
    return SWEEP_RESPONSES[digest[1] % len(SWEEP_RESPONSES)]


def test_live_sweep_files_and_calls_do_not_depend_on_parallelism(tmp_path, monkeypatch):
    written = {}
    for parallelism in (1, 2, 4):
        base = tmp_path / f"p{parallelism}"
        base.mkdir()
        backend = MockBackend(out_of_order)
        config_path = live_config(base, monkeypatch, lambda endpoint: backend)
        sweep = ["--k", "1..6", "--parallelism", str(parallelism), "run"]
        assert run_cli("--config", config_path, *sweep) == 0
        out = base / "out"
        prompts = [
            record["prompt"]
            for k in range(1, 7)
            for record in read_jsonl(out / f"prompts_k{k}.jsonl")
        ]
        # past a query's candidate count a larger k renders the same prompt
        assert len(set(prompts)) < len(prompts) == 120
        assert sorted(backend.calls) == sorted(set(prompts))
        written[parallelism] = {
            f"{name}_k{k}": (out / f"{name}_k{k}.jsonl").read_bytes()
            for name in ("prompts", "predictions")
            for k in range(1, 7)
        }
    assert written[1] == written[2] == written[4]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_sweep_render_fault_keeps_earlier_passes(tmp_path, monkeypatch, capsys, parallelism):
    config_path = live_config(tmp_path, monkeypatch)
    out = tmp_path / "out"
    assert run_cli("--config", config_path, "--k", "1..4", "run") == 0
    for name in ("prompts", "predictions"):
        for k in range(1, 5):
            (out / f"{name}_k{k}.jsonl").unlink()
    path = out / "selections_k3.jsonl"
    lines = path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if json.loads(line)["exemplars"])
    record = json.loads(lines[index])
    record["exemplars"][0]["sentence_id"] = "s9999"
    lines[index] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    sweep = ["--k", "1..4", "--parallelism", str(parallelism), "run"]
    assert run_cli("--config", config_path, *sweep) == 1
    assert f"{path}:{index + 1}:" in capsys.readouterr().err
    for k in (1, 2):
        assert len(read_jsonl(out / f"prompts_k{k}.jsonl")) == 20
        assert len(read_jsonl(out / f"predictions_k{k}.jsonl")) == 20
    for k in (3, 4):
        assert not (out / f"prompts_k{k}.jsonl").exists()
        assert not (out / f"predictions_k{k}.jsonl").exists()


def test_run_sweep_failed_write_stops_the_pool(tmp_path, monkeypatch):
    """A pass whose files cannot be written stops every call still queued
    before the error leaves ``cmd_run``, even while the caller keeps the
    traceback (and with it the dispatch iterator) alive."""
    backend = MockBackend(lambda prompt: time.sleep(0.002) or "NA")
    config_path = live_config(tmp_path, monkeypatch, lambda endpoint: backend)

    def full_disk(*args):
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "_write_pass", full_disk)
    config = cli.load_config(config_path, {"parallelism": 2})
    with pytest.raises(OSError, match="No space") as kept:
        cli.cmd_run(config, list(range(1, 7)))
    calls = len(backend.calls)
    time.sleep(0.05)
    assert len(backend.calls) == calls < 60
    assert kept.traceback


class InterruptOnThirdCall(MockBackend):
    def __init__(self):
        super().__init__("NA")
        self._lock = threading.Lock()

    def complete(self, prompt, params):
        with self._lock:
            self.calls.append(prompt)
            call = len(self.calls)
        time.sleep(0.002)
        if call == 3:
            raise KeyboardInterrupt
        return "NA"


@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_run_sweep_interrupt_cancels_queued_prompts(tmp_path, monkeypatch, parallelism):
    backend = InterruptOnThirdCall()
    config_path = live_config(tmp_path, monkeypatch, lambda endpoint: backend)
    sweep = ["--k", "1..4", "--parallelism", str(parallelism), "run"]
    with pytest.raises(KeyboardInterrupt):
        run_cli("--config", config_path, *sweep)
    assert len(backend.calls) <= 3 + parallelism
    # the first pass alone has 20 distinct prompts, so no pass finished
    assert list((tmp_path / "out").glob("p*_k*.jsonl")) == []
    text = (tmp_path / "cache.jsonl").read_text()
    assert text.endswith("\n")
    entries = [json.loads(line) for line in text.splitlines()]
    assert len(entries) == len(backend.calls) - 1


def test_run_with_selections_reads_no_provider(tmp_path, monkeypatch):
    """``run`` after ``select`` parses neither provider file, and a run on
    parsed providers (first pass) and on their sidecars (second pass) give
    the same bytes, with the prompts pinned in strategy_digests.json."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name in ("scores.jsonl", "embeddings.jsonl"):
        shutil.copyfile(GOLDEN / name, inputs / name)
    calls = Counter()
    for owner in (ScoreMatrix, EmbeddingIndex):
        def counted(cls, *args, _load=owner.load.__func__, **kwargs):
            calls[cls.__name__] += 1
            return _load(cls, *args, **kwargs)

        monkeypatch.setattr(owner, "load", classmethod(counted))
    config_path = live_config(tmp_path, monkeypatch)
    config = json.loads(Path(config_path).read_text())
    config["paths"]["scores"] = str(inputs / "scores.jsonl")
    config["paths"]["embeddings"] = str(inputs / "embeddings.jsonl")
    Path(config_path).write_text(json.dumps(config))
    outputs = []
    for name in ("parsed", "sidecar"):
        if name == "sidecar":
            def refuse(*args, **kwargs):
                raise AssertionError("provider JSONL parsed with its sidecar present")

            monkeypatch.setattr(hydre.providers, "iter_jsonl", refuse)
        out = tmp_path / name
        assert run_cli("--config", config_path, "--output", str(out), "select") == 0
        assert calls == {"ScoreMatrix": 1, "EmbeddingIndex": 1}
        assert run_cli("--config", config_path, "--output", str(out), "run") == 0
        assert calls == {"ScoreMatrix": 1, "EmbeddingIndex": 1}
        calls.clear()
        outputs.append(out)
    for name in ("selections.jsonl", "prompts.jsonl", "predictions.jsonl"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name
    pinned = json.loads((GOLDEN / "strategy_digests.json").read_text())["hydre"]
    digest = hashlib.sha256((outputs[0] / "prompts.jsonl").read_bytes()).hexdigest()
    assert digest == pinned["prompts"]


@pytest.mark.parametrize(
    "strategy",
    [
        "hydre",
        "ablation:no_conf",
        "ablation:no_sim",
        "reduced_bag",
        "ablation:full_bag",
        "ablation:flat_retrieval",
    ],
)
def test_run_k_sweep_matches_separate_select_and_run(tmp_path, monkeypatch, strategy):
    config_path = live_config(tmp_path, monkeypatch)
    sweep = tmp_path / "out"
    flags = ("--config", config_path, "--strategy", strategy)
    assert run_cli(*flags, "--k", "2..4", "run") == 0
    for k in (2, 3, 4):
        single = tmp_path / f"single_k{k}"
        for command in ("select", "run"):
            assert run_cli(*flags, "--output", str(single), "--k", str(k), command) == 0
        for name in ("selections", "prompts", "predictions"):
            assert (sweep / f"{name}_k{k}.jsonl").read_bytes() == (
                single / f"{name}.jsonl"
            ).read_bytes(), (name, k)


def record_screens(monkeypatch) -> list:
    """(query ids, relation) of each EmbeddingIndex.screen_dots call: the
    relation whose items' sentence rows a pick screened (stage 2 or flat
    retrieval), or None for a screen of every embedding row."""
    calls, asked = [], []
    screen_dots, pick = EmbeddingIndex.screen_dots, CorpusView.pick

    def recorded_pick(self, q_id, relation, config, items, **kwargs):
        asked.append(relation)
        return pick(self, q_id, relation, config, items, **kwargs)

    def recorded_screen(self, q_ids, rows=None):
        calls.append((tuple(q_ids), None if rows is None else asked[-1]))
        return screen_dots(self, q_ids, rows)

    monkeypatch.setattr(CorpusView, "pick", recorded_pick)
    monkeypatch.setattr(EmbeddingIndex, "screen_dots", recorded_screen)
    return calls


def golden_chunk_of(size):
    """Query id -> its chunk of ``size`` golden queries, in file order."""
    queries = read_jsonl(GOLDEN / "queries.jsonl")
    return {q["query_id"]: i // size for i, q in enumerate(queries)}


def assert_one_product_per_chunk_and_relation(calls, records, size):
    """Stage 2 made one product per chunk of ``size`` queries and
    candidate relation with a bag, of exactly the chunk's queries that
    have the relation among their candidates in ``records``."""
    chunk = golden_chunk_of(size)
    want = {}
    for r in records:
        for relation, _ in r["candidates"]:
            if relation not in r["skipped"]:
                want.setdefault((chunk[r["query_id"]], relation), set()).add(r["query_id"])
    products = [(q_ids, relation) for q_ids, relation in calls if relation is not None]
    assert Counter((chunk[q_ids[0]], r) for q_ids, r in products) == Counter(want.keys())
    for q_ids, relation in products:
        assert len(set(q_ids)) == len(q_ids)
        assert set(q_ids) == want[chunk[q_ids[0]], relation]


def record_work(monkeypatch) -> tuple[Counter, Counter]:
    """(the stage-2 blocks decided and the queries they decided, as
    "blocks" and "picks"; how many times each bag's stage-3 sentence was
    computed, by bag id), counted where the view does the work: each
    ``settle_columns`` call decides one block, a column per query, and
    each ``select_sentences`` pass computes its bags' sentences."""
    work, sentences = Counter(), Counter()
    settle_columns = hydre.selection.settle_columns
    select_sentences = hydre.selection.select_sentences

    def counted_settle(screened, slack, exact):
        work.update(blocks=1, picks=screened.shape[1])
        return settle_columns(screened, slack, exact)

    def counted_select_sentences(corpus, bags, *args, **kwargs):
        sentences.update(corpus.bag_ids[b] for b in bags.tolist())
        return select_sentences(corpus, bags, *args, **kwargs)

    monkeypatch.setattr(hydre.selection, "settle_columns", counted_settle)
    monkeypatch.setattr(hydre.selection, "select_sentences", counted_select_sentences)
    return work, sentences


def test_run_k_sweep_computes_each_query_once(tmp_path, monkeypatch):
    """A sweep screens each (query, candidate relation) pair once, in one
    stage-2 product per relation (the 20 queries are one chunk), screens
    no whole matrix (which pooling a chunk's bag similarities would need),
    decides each pair's stage-2 pick once, in the block of that product,
    computes each picked bag's stage-3 sentence once, and writes
    metadata.json once, as ``run``."""
    screens = record_screens(monkeypatch)
    work, sentences = record_work(monkeypatch)
    written = []
    monkeypatch.setattr(
        cli, "_write_metadata", lambda config, command, inputs: written.append(command)
    )
    config_path = live_config(tmp_path, monkeypatch)
    assert run_cli("--config", config_path, "--k", "2..4", "run") == 0
    assert written == ["run"]
    selections = read_jsonl(tmp_path / "out" / "selections_k4.jsonl")
    assert_one_product_per_chunk_and_relation(screens, selections, len(selections))
    assert all(relation is not None for _, relation in screens)  # no rows=None screen
    products = [q_ids for q_ids, relation in screens if relation is not None]
    pairs = {
        (r["query_id"], relation)
        for r in selections
        for relation, _ in r["candidates"]
        if relation not in r["skipped"]
    }
    assert work == {"blocks": len(products), "picks": len(pairs)}
    picked = {
        e["source_bag_id"]
        for k in (2, 3, 4)
        for r in read_jsonl(tmp_path / "out" / f"selections_k{k}.jsonl")
        for e in r["exemplars"]
    }
    assert sentences == Counter(picked)


GOLDEN_CHUNK = 16  # queries per screen in the chunk tests: two chunks of 20


def screen_golden_chunks(monkeypatch):
    """Make the view screen ``GOLDEN_CHUNK`` golden queries per chunk: the
    budget of that many columns of the screen's item size."""
    rows = len(read_jsonl(GOLDEN / "embeddings.jsonl"))
    itemsize = EmbeddingIndex(1).matrix32.itemsize
    monkeypatch.setattr(hydre.selection, "SCREEN_BYTES", GOLDEN_CHUNK * itemsize * rows)


def count_batches(monkeypatch):
    """The screens made (``record_screens``), with the view screening
    ``GOLDEN_CHUNK`` golden queries per chunk, and a check that every index
    loaded since has the instance attributes it was loaded with."""
    screen_golden_chunks(monkeypatch)
    calls, loaded = record_screens(monkeypatch), []
    load = EmbeddingIndex.load.__func__

    def recorded_load(cls, path):
        index = load(cls, path)
        loaded.append((index, dict(vars(index))))
        return index

    def assert_unchanged():
        assert loaded
        for index, attributes in loaded:
            assert vars(index).keys() == attributes.keys()
            assert all(vars(index)[name] is value for name, value in attributes.items())

    monkeypatch.setattr(EmbeddingIndex, "load", classmethod(recorded_load))
    return calls, assert_unchanged


def whole_screens(calls) -> list:
    """The screens of every embedding row among ``record_screens`` calls."""
    return [q_ids for q_ids, relation in calls if relation is None]


@pytest.mark.parametrize(
    "strategy, chunks",
    [
        ("hydre", 2),
        ("topk_sim", 2),
        ("mmr", 2),
        ("ablation:flat_retrieval", 2),
        ("ablation:no_conf", 2),
        ("zero_shot", 0),
        ("random_k", 0),
        ("ablation:no_sim", 0),
        ("ablation:no_icl", 0),
        ("ablation:random_bag_sentence", 0),
    ],
)
def test_select_computes_one_batch_per_query_chunk(tmp_path, monkeypatch, strategy, chunks):
    """The 20 golden queries are two chunks. hydre and flat retrieval
    screen no whole matrix: their pick makes one product per chunk and
    candidate relation, of the chunk's queries that rank it. Another
    strategy that reads query embeddings screens each chunk once against
    every row; one that does not screens nothing. The embedding index
    keeps no state of a select."""
    calls, assert_unchanged = count_batches(monkeypatch)
    out = tmp_path / "out"
    assert run_cli("--config", CONFIG, "--strategy", strategy, "--output", str(out), "select") == 0
    if strategy in ("hydre", "ablation:flat_retrieval"):
        assert not whole_screens(calls)
        records = read_jsonl(out / "selections.jsonl")
        assert_one_product_per_chunk_and_relation(calls, records, GOLDEN_CHUNK)
        chunk = golden_chunk_of(GOLDEN_CHUNK)
        assert {chunk[q_ids[0]] for q_ids, _ in calls} == set(range(chunks))
    else:
        assert len(whole_screens(calls)) == len(calls) == chunks
    assert_unchanged()


def test_flat_retrieval_without_confidences_screens_no_whole_matrix(tmp_path, monkeypatch):
    """``ablation:flat_retrieval`` at weights (1, 0) ranks its candidates by
    the score matrix, as at (1, 1), so each pick is decided in the block
    of the chunk queries that rank its relation: one product per chunk and
    relation and no screen of every embedding row. Each record is the
    brute-force one: stage 1's candidates and, per candidate, the first
    sentence of maximal exact similarity among its bags' sentences."""
    calls, assert_unchanged = count_batches(monkeypatch)
    config_path, config = absolute_config(tmp_path)
    config["strategy"] = "ablation:flat_retrieval"
    config["scoring"] = {"k": 5, "w_sim": 1.0, "w_conf": 0.0}
    config_path.write_text(json.dumps(config))
    assert run_cli("--config", str(config_path), "select") == 0
    records = read_jsonl(tmp_path / "out" / "selections.jsonl")
    assert not whole_screens(calls)
    assert_one_product_per_chunk_and_relation(calls, records, GOLDEN_CHUNK)
    assert_unchanged()
    relations, bags, scores, embeddings, queries = load_golden_primitives()
    sentences = [
        {"bag_id": s["sentence_id"], "labels": bag["labels"], "sentences": [s]}
        for bag in bags
        for s in bag["sentences"]
    ]
    assert [r["query_id"] for r in records] == queries
    for r in records:
        q_id = r["query_id"]
        assert r["candidates"] == [list(c) for c in candidates_oracle(scores[q_id], relations, 5)]
        for e in r["exemplars"]:
            want = select_bag_oracle(
                q_id, e["candidate_relation"], relations, sentences, scores, embeddings, 1.0, 0.0
            )
            assert e["sentence_id"] == want


def test_select_mmr_without_pool_equals_a_pool_of_every_sentence(tmp_path, monkeypatch):
    """MMR ranking the whole corpus screens nothing, and writes the records
    of a pool cut that covers every sentence, which screens and settles its
    pool."""
    calls, assert_unchanged = count_batches(monkeypatch)
    config_path, config = absolute_config(tmp_path)
    config["strategy"] = "mmr"
    config["mmr"] = {"pool_size": None}
    config_path.write_text(json.dumps(config))
    assert run_cli("--config", str(config_path), "select") == 0
    assert not calls
    assert_unchanged()
    whole = (tmp_path / "out" / "selections.jsonl").read_bytes()
    config["mmr"] = {"pool_size": GOLDEN_SENTENCES}
    config_path.write_text(json.dumps(config))
    assert run_cli("--config", str(config_path), "select") == 0
    assert len(whole_screens(calls)) == len(calls) == 2
    assert (tmp_path / "out" / "selections.jsonl").read_bytes() == whole


def test_run_k_sweep_computes_one_batch_per_query_chunk(tmp_path, monkeypatch):
    """A ``--k 1..20`` sweep visits each query's largest k first, so stage
    2 makes one product per chunk and relation: the first request for a
    relation covers every k. No whole matrix is screened."""
    calls, assert_unchanged = count_batches(monkeypatch)
    config_path = live_config(tmp_path, monkeypatch)
    assert run_cli("--config", config_path, "--k", "1..20", "run") == 0
    assert not whole_screens(calls)
    records = read_jsonl(tmp_path / "out" / "selections_k20.jsonl")
    assert_one_product_per_chunk_and_relation(calls, records, GOLDEN_CHUNK)
    assert_unchanged()


def fail_in_second_chunk(monkeypatch):
    """Make the golden select raise on the second query of its second
    chunk of ``GOLDEN_CHUNK`` queries."""
    build = cli.build_exemplar_set
    seen = []

    def failing(q_id, *args, **kwargs):
        seen.append(q_id)
        if len(seen) == GOLDEN_CHUNK + 2:
            raise RuntimeError("selection failed")
        return build(q_id, *args, **kwargs)

    monkeypatch.setattr(cli, "build_exemplar_set", failing)


def test_failed_select_holds_no_batch(tmp_path, monkeypatch, capsys):
    """A select that fails in its second chunk has screened stage-2
    products of both chunks, each of one chunk's queries and once per
    chunk and relation, leaves the embedding index as it was loaded and
    writes no selections file."""
    calls, assert_unchanged = count_batches(monkeypatch)
    fail_in_second_chunk(monkeypatch)
    out = str(tmp_path / "out")
    assert run_cli("--config", CONFIG, "--output", out, "select") == 2
    assert "selection failed" in capsys.readouterr().err
    assert not whole_screens(calls)
    chunk = golden_chunk_of(GOLDEN_CHUNK)
    blocks = [({chunk[q] for q in q_ids}, relation) for q_ids, relation in calls]
    assert all(len(chunks) == 1 for chunks, _ in blocks)
    blocks = [(min(chunks), relation) for chunks, relation in blocks]
    assert len(set(blocks)) == len(blocks)
    assert {c for c, _ in blocks} == {0, 1}
    assert_unchanged()
    assert not (tmp_path / "out" / "selections.jsonl").exists()


SELECTION_TYPES = (Corpus, ScoreMatrix, EmbeddingIndex, CorpusView)


@pytest.mark.parametrize(
    "strategy, mmr, fails",
    [
        ("hydre", {}, False),
        ("topk_sim", {}, False),
        ("mmr", {"pool_size": None}, False),
        ("ablation:flat_retrieval", {}, False),
        ("ablation:no_sim", {}, False),
        ("hydre", {}, True),
    ],
)
def test_select_leaves_no_corpus_or_provider_behind(
    tmp_path, monkeypatch, capsys, strategy, mmr, fails
):
    """Reference counting alone frees a select's corpus, providers and
    corpus view when the command returns, also when it fails (exit 2) in
    its second chunk of queries: none of them sits in a reference cycle."""
    screen_golden_chunks(monkeypatch)
    if fails:
        fail_in_second_chunk(monkeypatch)
    config_path, config = absolute_config(tmp_path)
    config["strategy"] = strategy
    config["mmr"] = mmr
    config_path.write_text(json.dumps(config))
    # held, so that no id of them is reused by an object the select makes
    before = [o for o in gc.get_objects() if isinstance(o, SELECTION_TYPES)]
    gc.disable()
    try:
        code = run_cli("--config", str(config_path), "select")
        known = set(map(id, before))
        left = [
            type(o).__name__
            for o in gc.get_objects()
            if isinstance(o, SELECTION_TYPES) and id(o) not in known
        ]
    finally:
        gc.enable()
    assert code == (2 if fails else 0), capsys.readouterr().err
    assert left == []


@pytest.mark.parametrize(
    "mmr, message",
    [
        ({"pool_size": "100"}, "mmr.pool_size must be a positive integer or null, got '100'"),
        ({"pool_size": True}, "mmr.pool_size must be a positive integer or null, got True"),
        ({"pool_size": 0}, "mmr.pool_size must be a positive integer or null, got 0"),
        ({"alpha": 1.5}, "mmr.alpha must be a real number in [0, 1], got 1.5"),
        ({"alpha": True}, "mmr.alpha must be a real number in [0, 1], got True"),
        ({"alpha": float("nan")}, "mmr.alpha must be a real number in [0, 1], got nan"),
        ({"pool_size": 3}, "k=5 exceeds mmr.pool_size 3"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "select"])
def test_bad_mmr_block_exits_1_naming_the_key(tmp_path, capsys, mmr, message, command):
    config_path, config = absolute_config(tmp_path)
    config["strategy"] = "mmr"
    config["mmr"] = mmr
    config_path.write_text(json.dumps(config))
    assert run_cli("--config", str(config_path), command) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "selections.jsonl").exists()


@pytest.mark.parametrize(
    "value, source",
    [(0, "flag"), (-2, "flag"), (0, "file"), (True, "file"), ("2", "file"), (1.5, "file")],
)
@pytest.mark.parametrize("command", ["validate", "select", "run"])
def test_bad_parallelism_exits_1_naming_the_key(tmp_path, capsys, value, source, command):
    config_path, config = absolute_config(tmp_path)
    argv = ["--config", str(config_path)]
    if source == "flag":
        argv += ["--parallelism", str(value)]
    else:
        config["parallelism"] = value
        config_path.write_text(json.dumps(config))
    if command == "run":
        argv += ["--k", "1..3"]  # a sweep selects before it dispatches
    assert run_cli(*argv, command) == 1
    assert capsys.readouterr().err == (
        f"error: parallelism must be a positive integer, got {value!r}\n"
    )
    assert not (tmp_path / "out").exists()


def refuse_loads(monkeypatch):
    """Make every input load fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("an input was loaded")

    for owner in (Corpus, ScoreMatrix, EmbeddingIndex):
        monkeypatch.setattr(owner, "load", refuse)


@pytest.mark.parametrize(
    "command, k",
    [
        ("run", "abc"),
        ("select", "1..x"),
        ("run", "5..3"),
        ("select", "5..3"),
        ("run", "0"),
        ("select", "-2"),
        ("run", "0..2"),
        ("validate", "0"),
    ],
)
def test_bad_k_flag_exits_1_before_any_load(tmp_path, capsys, monkeypatch, command, k):
    config_path, _ = absolute_config(tmp_path)
    refuse_loads(monkeypatch)
    assert run_cli("--config", str(config_path), "--k", k, command) == 1
    assert capsys.readouterr().err == (
        f"error: --k must be a positive integer or a range like 1..20, got {k!r}\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [0, -1, True, 2.5, "5", None])
@pytest.mark.parametrize("command", ["validate", "select", "run"])
def test_bad_scoring_k_exits_1_naming_the_key(tmp_path, capsys, monkeypatch, value, command):
    config_path, config = absolute_config(tmp_path)
    config["scoring"]["k"] = value
    config_path.write_text(json.dumps(config))
    refuse_loads(monkeypatch)
    assert run_cli("--config", str(config_path), command) == 1
    assert capsys.readouterr().err == (
        f"error: scoring.k must be a positive integer, got {value!r}\n"
    )
    assert not (tmp_path / "out").exists()


BAD_CONFIG_VALUES = [
    ("scoring", "w_conf", "1", "scoring.w_conf must be a nonnegative real number, got '1'"),
    ("scoring", "w_sim", True, "scoring.w_sim must be a nonnegative real number, got True"),
    ("scoring", "bag_sim_pooling", "min",
     "scoring.bag_sim_pooling must be 'max' or 'mean', got 'min'"),
    ("scoring", "threshold", 1.5, "scoring.threshold must be a real number in (0, 1), got 1.5"),
    ("scoring", "w_confidence", 1.0, "unknown key scoring.w_confidence; expected one of "
     "w_sim, w_conf, threshold, k, bag_sim_pooling"),
    ("scoring", "w_sim", 0, "scoring: at least one of w_sim, w_conf must be positive"),
    ("generation", "temperature", -1,
     "generation.temperature must be a nonnegative real number, got -1"),
    ("generation", "max_input_tokens", "x",
     "generation.max_input_tokens must be a positive integer, got 'x'"),
    ("generation", "max_tokens", 256, "unknown key generation.max_tokens; expected one of "
     "model_name, temperature, max_input_tokens, max_output_tokens"),
    ("template", "include_definition", False, "unknown key template.include_definition; "
     "expected one of task_instruction, include_definitions, head_open, head_close, "
     "tail_open, tail_close, na_definition"),
    ("template", "tail_open", "<Head>", "template: marker tags must be mutually distinct"),
    (None, "seed", 1.5, "seed must be an integer, got 1.5"),
    (None, "seed", True, "seed must be an integer, got True"),
    (None, "seeed", 3, "unknown key seeed; expected one of paths, strategy, scoring, "
     "generation, template, mmr, seed, parallelism, mode, llm_endpoint"),
    ("paths", "bagz", "bags.jsonl", "unknown key paths.bagz; expected one of ontology, "
     "bags, queries, scores, embeddings, cache, output"),
    ("paths", "bags", 5, "paths.bags must be a nonempty string or null, got 5"),
    ("paths", "scores", "", "paths.scores must be a nonempty string or null, got ''"),
    ("paths", "output", None, "paths.output must be a nonempty string, got None"),
    (None, "strategy", ["hydre"], "strategy must be a string, got ['hydre']"),
    (None, "mode", {"replay": True}, "mode must be a string, got {'replay': True}"),
]


@pytest.mark.parametrize(
    "block, key, value, message",
    BAD_CONFIG_VALUES,
    ids=[".".join(filter(None, (b, f"{k}={v!r}"))) for b, k, v, _ in BAD_CONFIG_VALUES],
)
@pytest.mark.parametrize(
    "argv", [["validate"], ["select"], ["--k", "1..2", "run"]], ids=["validate", "select", "sweep"]
)
def test_bad_config_value_exits_1_naming_the_key(
    tmp_path, capsys, monkeypatch, block, key, value, message, argv
):
    config_path, config = absolute_config(tmp_path)
    if key == "w_sim" and value == 0:
        config["scoring"]["w_conf"] = 0  # the rule across the two weights
    (config if block is None else config.setdefault(block, {}))[key] = value
    config_path.write_text(json.dumps(config))
    refuse_loads(monkeypatch)
    assert run_cli("--config", str(config_path), *argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()  # no selections file, no metadata


@pytest.mark.parametrize(
    "text, problem",
    [
        ('["seed", 3]', "a config file must hold a JSON object"),
        ('{"seed": 3,}', "invalid JSON: Expecting property name enclosed in double "
         "quotes: line 1 column 12 (char 11)"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "select"])
def test_config_file_that_is_no_object_exits_1(
    tmp_path, capsys, monkeypatch, text, problem, command
):
    config_path = tmp_path / "config.json"
    config_path.write_text(text)
    refuse_loads(monkeypatch)
    assert run_cli("--config", str(config_path), command) == 1
    assert capsys.readouterr().err == f"error: {config_path}: {problem}\n"


@pytest.mark.parametrize(
    "endpoint",
    [
        "judge.invalid/v1/chat",
        "ftp://judge.invalid/v1/chat",
        "http:///v1/chat",
        "http://judge.invalid:port/v1/chat",
        5,
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_malformed_llm_endpoint_exits_1_naming_the_key(
    tmp_path, capsys, monkeypatch, endpoint, command
):
    built = []
    config_path = live_config(
        tmp_path, monkeypatch, backend=lambda endpoint: built.append(endpoint)
    )
    config = json.loads(Path(config_path).read_text())
    config["llm_endpoint"] = endpoint
    Path(config_path).write_text(json.dumps(config))
    refuse_loads(monkeypatch)
    # a live sweep selects and then dispatches every prompt
    sweep = ["--k", "1..2"] if command == "run" else []
    assert run_cli("--config", config_path, *sweep, command) == 1
    assert capsys.readouterr().err == (
        f"error: llm_endpoint must be an http(s) URL with a host, got {endpoint!r}\n"
    )
    assert built == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block", ["mmr", "scoring"])
def test_config_block_that_is_not_an_object_exits_1(tmp_path, capsys, block):
    config_path, config = absolute_config(tmp_path)
    config[block] = None
    config_path.write_text(json.dumps(config))
    assert run_cli("--config", str(config_path), "validate") == 1
    assert capsys.readouterr().err == f"error: {block} must be a JSON object, got None\n"


def test_mmr_sweep_past_the_pool_exits_1_before_selecting(tmp_path, monkeypatch, capsys):
    config_path = live_config(tmp_path, monkeypatch)
    config = json.loads(Path(config_path).read_text())
    config["mmr"] = {"pool_size": 3}
    Path(config_path).write_text(json.dumps(config))
    argv = ["--config", config_path, "--strategy", "mmr", "--k", "2..4", "run"]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == "error: k=4 exceeds mmr.pool_size 3\n"
    assert not list((tmp_path / "out").glob("selections*"))
    argv[argv.index("2..4")] = "2..3"
    assert run_cli(*argv) == 0


@pytest.mark.parametrize("strategy", ["mmr", "random_k"])
@pytest.mark.parametrize("command", ["validate", "select", "run"])
def test_k_beyond_the_corpus_sentences_exits_1_before_selecting(
    tmp_path, monkeypatch, capsys, strategy, command
):
    """``mmr`` (here ranking every sentence) and ``random_k`` pick k
    distinct sentences: validate, select and a run sweep that selects exit
    1 naming k and the corpus's sentence count, and write nothing; k up to
    that count passes."""
    config_path = live_config(tmp_path, monkeypatch)
    config = json.loads(Path(config_path).read_text())
    config["strategy"] = strategy
    config["mmr"] = {"pool_size": None}
    Path(config_path).write_text(json.dumps(config))
    n = GOLDEN_SENTENCES
    k = f"{n - 1}..{n + 1}" if command == "run" else str(n + 1)
    assert run_cli("--config", config_path, "--k", k, command) == 1
    assert capsys.readouterr().err == f"error: k={n + 1} exceeds the corpus's {n} sentences\n"
    assert not (tmp_path / "out").exists()
    k = f"{n - 1}..{n}" if command == "run" else str(n)
    assert run_cli("--config", config_path, "--k", k, command) == 0


def test_topk_sim_past_the_corpus_selects_every_sentence(tmp_path):
    out = tmp_path / "out"
    k = str(GOLDEN_SENTENCES + 1)
    argv = ["--config", CONFIG, "--strategy", "topk_sim", "--k", k, "--output", str(out)]
    assert run_cli(*argv, "select") == 0
    records = read_jsonl(out / "selections.jsonl")
    assert {len(r["exemplars"]) for r in records} == {GOLDEN_SENTENCES}


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


def write_gold_predictions(path):
    """A predictions file that predicts every golden query's gold labels."""
    with path.open("w") as fh:
        for q in read_jsonl(GOLDEN / "queries.jsonl"):
            fh.write(
                json.dumps(
                    {"query_id": q["query_id"], "relations": q["gold"], "raw": ""}
                )
                + "\n"
            )
    return path


def test_eval_ranks_for_recall_once(tmp_path, monkeypatch):
    out = golden_run(tmp_path)
    calls = Counter()
    curve = cli.recall_curve

    def counted_curve(gold, scores):
        calls["curve"] += 1
        return curve(gold, scores)

    monkeypatch.setattr(cli, "recall_curve", counted_curve)
    monkeypatch.setattr(cli, "recall_at_k", lambda *args: pytest.fail("recall_at_k called"))
    predictions = str(out / "predictions.jsonl")
    assert run_cli("--config", CONFIG, "--output", str(out), "eval", predictions) == 0
    assert calls == Counter(curve=1)
    report = json.loads((out / "report.json").read_text())
    assert sorted(map(int, report["recall_at_k"])) == list(range(1, 25))


def test_eval_pred_equals_gold_is_100_100(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    write_gold_predictions(out / "gold_predictions.jsonl")
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


@pytest.mark.parametrize("role", ["predictions", "baseline"])
@pytest.mark.parametrize("fault", ["missing", "unknown"])
def test_eval_refuses_a_file_that_does_not_cover_the_queries(tmp_path, capsys, role, fault):
    full = write_gold_predictions(tmp_path / "gold.jsonl")
    lines = full.read_text().splitlines()
    if fault == "missing":
        kept = lines[:5]
        named = ", ".join(json.loads(line)["query_id"] for line in lines[5:10])
        message = f"predictions missing for 15 of 20 queries ({named}, ...)"
    else:
        stray = dict(json.loads(lines[3]), query_id="Q_STRAY")
        kept = lines + [json.dumps(stray)]
        message = "1 predictions for queries not in the query file (Q_STRAY)"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(kept) + "\n")
    files = [bad] if role == "predictions" else [full, bad]
    out = tmp_path / "out"
    code = run_cli("--config", CONFIG, "--output", str(out), "eval", *map(str, files))
    assert code == 1
    assert f"{bad}: {message}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


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


def edit_line(path, lineno, edit):
    """Rewrite line ``lineno`` (from 1) of a JSONL file as ``edit`` of its
    record."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[lineno - 1])
    edit(record)
    lines[lineno - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


MALFORMED_PREDICTIONS = [
    (lambda r: r.update(relations="/people/person/nationality"), "malformed relations"),
    (lambda r: r.update(relations=None), "malformed relations None"),
    (lambda r: r.update(relations=[3]), "malformed relations [3]"),
    (lambda r: r.update(relations=["/no/such"]), "malformed relations ['/no/such']"),
    (lambda r: r.update(relations=["NA"]), "malformed relations ['NA']"),
    (lambda r: r.pop("relations"), "missing field 'relations'"),
    (lambda r: r.pop("query_id"), "missing field 'query_id'"),
    (lambda r: r.update(query_id=7), "malformed query_id 7"),
    (lambda r: r.update(error=5), "malformed error 5"),
]


@pytest.mark.parametrize(
    "edit, message", MALFORMED_PREDICTIONS, ids=[m for _, m in MALFORMED_PREDICTIONS]
)
def test_eval_refuses_a_malformed_prediction_record(tmp_path, capsys, edit, message):
    """A predictions line with a field missing or of the wrong JSON type,
    or a relation outside the ontology, exits 1 naming its path:line and
    the field, before any output is written."""
    predictions = write_gold_predictions(tmp_path / "predictions.jsonl")
    edit_line(predictions, 3, edit)
    out = tmp_path / "out"
    code = run_cli("--config", CONFIG, "--output", str(out), "eval", str(predictions))
    assert code == 1
    assert f"{predictions}:3: {message}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


MALFORMED_SELECTIONS = [
    (lambda r: r.pop("query_id"), "missing field 'query_id'"),
    (lambda r: r.update(query_id=7), "malformed query_id 7"),
    (lambda r: r.update(exemplars="x"), "malformed exemplars 'x'"),
    (lambda r: r.pop("exemplars"), "missing field 'exemplars'"),
    (lambda r: r["exemplars"][0].pop("labels"), "malformed record (KeyError('labels'))"),
    (lambda r: r.update(exemplars=["x"]), "malformed record (TypeError("),
    (lambda r: r.update(query_id="q01"), "duplicate query_id 'q01'"),
    (lambda r: r.update(relation_scope="bogus"), "unknown relation scope 'bogus'"),
    (
        lambda r: r.update(relation_scope="candidates_only", candidates=[]),
        "candidates_only scope requires a candidate list",
    ),
    (
        lambda r: r.update(relation_scope="candidates_only", candidates=[["rel_zz", 0.5]]),
        "candidate 'rel_zz' not in ontology",
    ),
    (
        lambda r: r["exemplars"][0]["labels"].append("rel_zz"),
        "unknown relation 'rel_zz'",
    ),
]


@pytest.mark.parametrize(
    "edit, message", MALFORMED_SELECTIONS, ids=[m for _, m in MALFORMED_SELECTIONS]
)
def test_run_refuses_a_malformed_selection_record(tmp_path, capsys, edit, message):
    """A selections line with a field missing or of the wrong JSON type, or
    with the query_id of an earlier line, exits 1 naming its path:line and
    the field, before any prompt or prediction is written."""
    out = tmp_path / "out"
    assert run_cli("--config", CONFIG, "--output", str(out), "select") == 0
    selections = out / "selections.jsonl"
    edit_line(selections, 3, edit)
    capsys.readouterr()
    code = run_cli("--config", CONFIG, "--output", str(out), "run")
    assert code == 1
    assert f"{selections}:3: {message}" in capsys.readouterr().err
    assert not (out / "prompts.jsonl").exists()
    assert not (out / "predictions.jsonl").exists()


def test_run_refuses_a_selection_record_of_a_query_not_in_the_query_file(
    tmp_path, capsys
):
    """A selections file made for another query file is refused even when
    it covers every query, as eval refuses such a predictions file."""
    out = tmp_path / "out"
    assert run_cli("--config", CONFIG, "--output", str(out), "select") == 0
    selections = out / "selections.jsonl"
    lines = selections.read_text().splitlines()
    stray = dict(json.loads(lines[0]), query_id="not_a_query")
    selections.write_text("\n".join(lines + [json.dumps(stray)]) + "\n")
    capsys.readouterr()
    code = run_cli("--config", CONFIG, "--output", str(out), "run")
    assert code == 1
    err = capsys.readouterr().err
    assert f"{selections}: 1 selections for queries not in the query file (not_a_query)" in err
    assert not (out / "prompts.jsonl").exists()
    assert not (out / "predictions.jsonl").exists()


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


EVAL_OUTPUTS = ("report.json", "per_relation.csv", "confusion_pairs.csv", "summary.txt")


def test_eval_reads_no_bags(tmp_path, monkeypatch):
    out = golden_run(tmp_path)
    predictions = str(out / "predictions.jsonl")
    bags = (GOLDEN / "bags.jsonl").resolve()
    calls = Counter()
    parse, read = hydre.corpus._parse_bags, hydre.providers._Sidecar.read

    def counted_parse(records, ontology, source):
        calls["parse"] += source is not None  # a bag file's, not an assembled corpus's
        return parse(records, ontology, source)

    def counted_read(self, decode):
        calls["read"] += self.source.resolve() == bags
        return read(self, decode)

    monkeypatch.setattr(hydre.corpus, "_parse_bags", counted_parse)
    monkeypatch.setattr(hydre.providers._Sidecar, "read", counted_read)
    assert run_cli("--config", CONFIG, "--output", str(out), "eval", predictions) == 0
    assert calls == Counter()
    lean = {name: (out / name).read_bytes() for name in EVAL_OUTPUTS}

    # the same eval over a corpus that holds every bag
    load_run = cli._load_run
    monkeypatch.setattr(
        cli, "_load_run", lambda config, **flags: load_run(config, **dict(flags, bags=True))
    )
    assert run_cli("--config", CONFIG, "--output", str(out), "eval", predictions) == 0
    assert calls["read"] == 1
    assert {name: (out / name).read_bytes() for name in EVAL_OUTPUTS} == lean


# sha256 of every eval output of the golden run: how eval counts may
# change, but not one byte of what it writes
EVAL_DIGESTS = {
    "report.json": "f870f480c29ead5f9353c3701fda881192f7e71dd6c060830c8a4ce82316b536",
    "per_relation.csv": "95a0dfdea2f16ab69440764ffb80c7f6e1e7f4f8199d8d3848e1451fffc77754",
    "confusion_pairs.csv": "c7f215da4aac19243aa900a99c923898cb3613b8fa9289ed2b87c9733bcfa6d2",
    "summary.txt": "3adb7b16f144695fc21d32f24823a91bb24227aa19bfe81cefbd84483651d0a5",
}
# the same run's predictions against a baseline that predicts the gold labels
MCNEMAR_DIGESTS = {
    "mcnemar.json": "a0767933396542bbb9e7a79567d8a38f1449633c1fc871ee332ede1e0794910e",
    "summary.txt": "11b49872292263bad1949a0a16dc715b367b5b54a0940c97bb071232445b7bf2",
}


def sha256s(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def test_eval_outputs_keep_their_digests(tmp_path):
    out = golden_run(tmp_path)
    predictions = str(out / "predictions.jsonl")
    assert run_cli("--config", CONFIG, "--output", str(out), "eval", predictions) == 0
    assert sha256s(out, EVAL_OUTPUTS) == EVAL_DIGESTS
    baseline = str(write_gold_predictions(tmp_path / "gold.jsonl"))
    assert run_cli("--config", CONFIG, "--output", str(out), "eval", predictions, baseline) == 0
    assert sha256s(out, MCNEMAR_DIGESTS) == MCNEMAR_DIGESTS


def assert_builds_only_shown_sentences(tmp_path, monkeypatch, strategy):
    """validate, select, run and eval of a strategy build no bag object, and
    objects only for the sentences they show."""
    built = Counter()
    built_ids = set()
    bag, sentence = Corpus.bag, Corpus.sentence

    def counted_bag(self, b):
        built["bags"] += 1
        return bag(self, b)

    def counted_sentence(self, pos):
        built["sentences"] += 1
        built_ids.add(self.sentence_ids[pos])
        return sentence(self, pos)

    monkeypatch.setattr(Corpus, "bag", counted_bag)
    monkeypatch.setattr(Corpus, "sentence", counted_sentence)
    monkeypatch.setattr(Corpus, "bags", property(lambda self: pytest.fail("every bag built")))
    out = tmp_path / "out"
    base = ["--config", live_config(tmp_path, monkeypatch), "--output", str(out)]
    base += ["--strategy", strategy]
    assert run_cli(*base, "validate") == 0
    assert built == Counter()
    assert run_cli(*base, "select") == 0
    shown = [
        sid
        for record in read_jsonl(out / "selections.jsonl")
        for e in record["exemplars"]
        for sid in ([e["sentence_id"]] if e["sentence_id"] else e["sentence_ids"])
    ]
    assert built["bags"] == 0
    assert built_ids == set(shown)
    built.clear()
    assert run_cli(*base, "run") == 0
    assert built == Counter(sentences=len(shown))
    built.clear()
    assert run_cli(*base, "eval", str(out / "predictions.jsonl")) == 0
    assert built == Counter()


def test_pipeline_builds_no_bag_for_every_bag(tmp_path, monkeypatch):
    assert_builds_only_shown_sentences(tmp_path, monkeypatch, "hydre")


@pytest.mark.parametrize("strategy", ["reduced_bag", "ablation:full_bag"])
def test_bag_styles_build_no_bag(tmp_path, monkeypatch, strategy):
    assert_builds_only_shown_sentences(tmp_path, monkeypatch, strategy)


@pytest.mark.parametrize("provider", ["scores", "embeddings"])
def test_validate_names_first_unprovided_sentence(tmp_path, capsys, provider):
    """With several sentences missing, the first in corpus order is named."""
    bags = read_jsonl(GOLDEN / "bags.jsonl")
    sentence_ids = [s["sentence_id"] for bag in bags for s in bag["sentences"]]
    dropped = {sentence_ids[3], sentence_ids[-1]}
    kept = [
        line
        for line in (GOLDEN / f"{provider}.jsonl").read_text().splitlines()
        if line.startswith("{\"relation_order\"") or json.loads(line)["id"] not in dropped
    ]
    bad = tmp_path / f"{provider}.jsonl"
    bad.write_text("\n".join(kept) + "\n")
    config_path, _ = absolute_config(tmp_path, **{provider: bad})
    assert run_cli("--config", str(config_path), "validate") == 1
    row = "score row" if provider == "scores" else "embedding"
    assert capsys.readouterr().err == f"error: sentence {sentence_ids[3]!r} has no {row}\n"
